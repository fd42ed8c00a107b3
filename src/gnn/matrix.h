// Minimal dense row-major matrix for the from-scratch DGCNN. Double
// precision keeps finite-difference gradient checks tight; the tensors
// involved (enclosing subgraphs, 32-channel layers) are small enough that
// this is not the bottleneck.
//
// SIMD layout contract (DESIGN.md §10):
//   * storage is 32-byte aligned (one AVX2 vector of 4 doubles);
//   * each row starts at a 32-byte boundary: the leading dimension `ld` is
//     `cols` rounded up to a multiple of kSimdLanes, so `data` holds
//     rows × ld doubles, not rows × cols;
//   * the pad lanes [cols, ld) of every row are ALWAYS zero. Kernels may
//     therefore stream whole padded rows (and whole padded buffers for
//     element-wise ops) without tail handling, provided they only write
//     zeros into the pads. resize()/resize_uninit() re-establish the
//     invariant; code that fills `data` directly must go through at()/row()
//     or iterate logical columns only.
//
// Kernel layout: the scalar matmul/matmul_at_b_accum/matmul_a_bt kernels
// below are 4x4 register-blocked. Blocking changes only WHICH elements are
// in flight together, never the accumulation order WITHIN an element: every
// output element is still a single accumulator summing its k-terms in
// ascending k, exactly like the *_naive kernels retained below. The blocked
// and naive kernels therefore produce bit-identical results (asserted by
// randomized tests), and no -ffast-math style reassociation is involved.
// The AVX2 variants (gnn/simd.h) relax this to tolerance-equivalence.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <random>
#include <vector>

namespace muxlink::gnn {

inline constexpr int kSimdLanes = 4;          // doubles per 256-bit vector
inline constexpr std::size_t kSimdAlign = 32; // bytes

// Minimal over-aligned allocator so Matrix storage keeps std::vector
// semantics (size, assign, comparison) while guaranteeing AVX2 alignment.
template <typename T>
struct SimdAllocator {
  using value_type = T;
  SimdAllocator() = default;
  template <typename U>
  SimdAllocator(const SimdAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kSimdAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlign});
  }
  friend bool operator==(const SimdAllocator&, const SimdAllocator&) { return true; }
};

using AlignedVec = std::vector<double, SimdAllocator<double>>;

struct Matrix {
  int rows = 0;
  int cols = 0;
  int ld = 0;  // row stride in doubles: cols rounded up to kSimdLanes
  AlignedVec data;  // rows * ld doubles; pad lanes are always zero

  // Borrowed read-only storage (serving layer, DESIGN.md §11): when set, the
  // matrix is a non-owning VIEW over external memory in the same padded
  // layout — a zoo blob mapped with mmap — and `data` stays empty. Views are
  // read-only: every const accessor works, every mutating accessor asserts.
  // Whoever creates the view owns the mapping and must outlive the matrix.
  // Copying a view copies the pointer, not the payload (copies share the
  // mapping); materialize() converts back to owning storage before training.
  const double* view = nullptr;

  static constexpr int padded_cols(int c) {
    return (c + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
  }

  Matrix() = default;
  Matrix(int r, int c)
      : rows(r), cols(c), ld(padded_cols(c)),
        data(static_cast<std::size_t>(r) * static_cast<std::size_t>(padded_cols(c)), 0.0) {}

  // Non-owning view over `p` (rows × ld doubles, pads zero, 32-byte aligned).
  static Matrix borrow(int r, int c, const double* p) {
    Matrix m;
    m.rows = r;
    m.cols = c;
    m.ld = padded_cols(c);
    m.view = p;
    return m;
  }

  bool borrowed() const noexcept { return view != nullptr; }

  // Deep-copies a view into owning storage (no-op on owning matrices). The
  // warm-start path calls this before fine-tuning: training writes weights
  // in place, which a mapped read-only view must never see.
  void materialize() {
    if (view == nullptr) return;
    data.assign(view, view + static_cast<std::size_t>(rows) * static_cast<std::size_t>(ld));
    view = nullptr;
  }

  double& at(int r, int c) {
    assert(view == nullptr);
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[static_cast<std::size_t>(r) * ld + c];
  }
  double at(int r, int c) const {
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    return row(r)[c];
  }
  double* row(int r) {
    assert(view == nullptr);
    return data.data() + static_cast<std::size_t>(r) * ld;
  }
  const double* row(int r) const {
    return (view != nullptr ? view : data.data()) + static_cast<std::size_t>(r) * ld;
  }

  void zero() {
    assert(view == nullptr);
    std::fill(data.begin(), data.end(), 0.0);
  }

  // Reshapes to r × c and zero-fills (pads included), reusing the existing
  // allocation when capacity allows (vector::assign). The per-sample
  // forward/backward path calls the matmul kernels thousands of times per
  // epoch on same-shaped tensors; this keeps that path allocation-free
  // after warm-up.
  void resize(int r, int c) {
    assert(view == nullptr);
    rows = r;
    cols = c;
    ld = padded_cols(c);
    data.assign(static_cast<std::size_t>(r) * ld, 0.0);
  }

  // Reshapes to r × c WITHOUT clearing retained logical elements. For
  // kernels that fully overwrite their output (matmul, matmul_a_bt,
  // propagate) the zero fill in resize() is pure waste — on the steady-state
  // same-shape path this is a pair of integer stores. Newly grown tail
  // elements are still value-initialized by vector::resize, and the pad
  // lanes are re-zeroed whenever the row layout has them (a reshape can move
  // stale values into pad positions), so the pads-are-zero invariant holds;
  // callers MUST write every logical element before reading.
  void resize_uninit(int r, int c) {
    assert(view == nullptr);
    rows = r;
    cols = c;
    ld = padded_cols(c);
    data.resize(static_cast<std::size_t>(r) * ld);
    if (ld != cols) {
      for (int i = 0; i < r; ++i) {
        double* p = row(i);
        for (int j = cols; j < ld; ++j) p[j] = 0.0;
      }
    }
  }

  // Glorot-uniform initialization. Draws exactly rows × cols variates in
  // row-major logical order — the pad lanes consume no randomness (and stay
  // zero), so initialization is bit-identical to the unpadded layout.
  void glorot(std::mt19937_64& rng) {
    const double limit = std::sqrt(6.0 / (rows + cols));
    std::uniform_real_distribution<double> u(-limit, limit);
    for (int i = 0; i < rows; ++i) {
      double* p = row(i);
      for (int j = 0; j < cols; ++j) p[j] = u(rng);
    }
  }
};

// --- naive reference kernels ------------------------------------------------
// Retained as the correctness oracle for the blocked and AVX2 kernels (and
// for `muxlink-bench kernels` baselines). Do not optimize these.

// out = a * b.
inline void matmul_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.rows);
  out.resize(a.rows, b.cols);
  for (int i = 0; i < a.rows; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    for (int k = 0; k < a.cols; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.row(k);
      for (int j = 0; j < b.cols; ++j) oi[j] += aik * bk[j];
    }
  }
}

// out += a^T * b (used for weight gradients).
inline void matmul_at_b_accum_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  for (int k = 0; k < a.rows; ++k) {
    const double* ak = a.row(k);
    const double* bk = b.row(k);
    for (int i = 0; i < a.cols; ++i) {
      const double aki = ak[i];
      if (aki == 0.0) continue;
      double* oi = out.row(i);
      for (int j = 0; j < b.cols; ++j) oi[j] += aki * bk[j];
    }
  }
}

// out = a * b^T.
inline void matmul_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.cols);
  out.resize(a.rows, b.rows);
  for (int i = 0; i < a.rows; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    for (int j = 0; j < b.rows; ++j) {
      const double* bj = b.row(j);
      double acc = 0.0;
      for (int k = 0; k < a.cols; ++k) acc += ai[k] * bj[k];
      oi[j] = acc;
    }
  }
}

// --- blocked scalar kernels -------------------------------------------------
// The scalar half of the dispatched kernel set (gnn/simd.h); bit-identical
// to the naive oracle above.

inline constexpr int kMatBlock = 4;

// out = a * b, 4x4 register-blocked over (i, j) with k innermost. Each of
// the 16 accumulators sums its terms in ascending k from 0.0 — the same
// per-element chain as matmul_naive — so results are bit-identical while the
// a-rows and b-rows stream through cache once per tile.
inline void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.rows);
  out.resize_uninit(a.rows, b.cols);
  const int m = a.rows, n = b.cols, kk = a.cols;
  for (int i0 = 0; i0 < m; i0 += kMatBlock) {
    const int ilim = std::min(kMatBlock, m - i0);
    for (int j0 = 0; j0 < n; j0 += kMatBlock) {
      const int jlim = std::min(kMatBlock, n - j0);
      if (ilim == kMatBlock && jlim == kMatBlock) {
        double acc[kMatBlock][kMatBlock] = {};
        const double* a0 = a.row(i0 + 0);
        const double* a1 = a.row(i0 + 1);
        const double* a2 = a.row(i0 + 2);
        const double* a3 = a.row(i0 + 3);
        for (int k = 0; k < kk; ++k) {
          const double* bk = b.row(k) + j0;
          const double av[kMatBlock] = {a0[k], a1[k], a2[k], a3[k]};
          for (int ii = 0; ii < kMatBlock; ++ii) {
            for (int jj = 0; jj < kMatBlock; ++jj) acc[ii][jj] += av[ii] * bk[jj];
          }
        }
        for (int ii = 0; ii < kMatBlock; ++ii) {
          double* oi = out.row(i0 + ii) + j0;
          for (int jj = 0; jj < kMatBlock; ++jj) oi[jj] = acc[ii][jj];
        }
      } else {
        for (int i = i0; i < i0 + ilim; ++i) {
          const double* ai = a.row(i);
          double* oi = out.row(i);
          for (int j = j0; j < j0 + jlim; ++j) {
            double acc = 0.0;
            for (int k = 0; k < kk; ++k) acc += ai[k] * b.at(k, j);
            oi[j] = acc;
          }
        }
      }
    }
  }
}

// out += a^T * b, 4x4 blocked. The existing out-element is PRELOADED into
// its accumulator and the k-terms are added in ascending k, reproducing the
// naive kernel's ((out + t0) + t1) + ... rounding sequence exactly.
inline void matmul_at_b_accum(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  const int m = a.cols, n = b.cols, kk = a.rows;
  for (int i0 = 0; i0 < m; i0 += kMatBlock) {
    const int ilim = std::min(kMatBlock, m - i0);
    for (int j0 = 0; j0 < n; j0 += kMatBlock) {
      const int jlim = std::min(kMatBlock, n - j0);
      if (ilim == kMatBlock && jlim == kMatBlock) {
        double acc[kMatBlock][kMatBlock];
        for (int ii = 0; ii < kMatBlock; ++ii) {
          const double* oi = out.row(i0 + ii) + j0;
          for (int jj = 0; jj < kMatBlock; ++jj) acc[ii][jj] = oi[jj];
        }
        for (int k = 0; k < kk; ++k) {
          const double* ak = a.row(k) + i0;
          const double* bk = b.row(k) + j0;
          for (int ii = 0; ii < kMatBlock; ++ii) {
            for (int jj = 0; jj < kMatBlock; ++jj) acc[ii][jj] += ak[ii] * bk[jj];
          }
        }
        for (int ii = 0; ii < kMatBlock; ++ii) {
          double* oi = out.row(i0 + ii) + j0;
          for (int jj = 0; jj < kMatBlock; ++jj) oi[jj] = acc[ii][jj];
        }
      } else {
        for (int i = i0; i < i0 + ilim; ++i) {
          double* oi = out.row(i);
          for (int j = j0; j < j0 + jlim; ++j) {
            double acc = oi[j];
            for (int k = 0; k < kk; ++k) acc += a.at(k, i) * b.at(k, j);
            oi[j] = acc;
          }
        }
      }
    }
  }
}

// out = a * b^T, 4x4 blocked: four a-rows against four b-rows, all
// contiguous in k. Per-element accumulation order matches matmul_a_bt_naive.
inline void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.cols);
  out.resize_uninit(a.rows, b.rows);
  const int m = a.rows, n = b.rows, kk = a.cols;
  // 2x4 tile, not 4x4: both operands stream along k here, so a full 4x4 tile
  // (16 accumulators + 8 stream pointers) overflows the 16 XMM registers and
  // the spills cost more than the reuse saves — the naive kernel is already
  // register-accumulating. 8 accumulators + 6 streams fits.
  constexpr int kRowBlock = 2;
  for (int i0 = 0; i0 < m; i0 += kRowBlock) {
    const int ilim = std::min(kRowBlock, m - i0);
    for (int j0 = 0; j0 < n; j0 += kMatBlock) {
      const int jlim = std::min(kMatBlock, n - j0);
      if (ilim == kRowBlock && jlim == kMatBlock) {
        double acc[kRowBlock][kMatBlock] = {};
        const double* a0 = a.row(i0);
        const double* a1 = a.row(i0 + 1);
        const double* b0 = b.row(j0);
        const double* b1 = b.row(j0 + 1);
        const double* b2 = b.row(j0 + 2);
        const double* b3 = b.row(j0 + 3);
        for (int k = 0; k < kk; ++k) {
          const double a0k = a0[k], a1k = a1[k];
          const double b0k = b0[k], b1k = b1[k], b2k = b2[k], b3k = b3[k];
          acc[0][0] += a0k * b0k;
          acc[0][1] += a0k * b1k;
          acc[0][2] += a0k * b2k;
          acc[0][3] += a0k * b3k;
          acc[1][0] += a1k * b0k;
          acc[1][1] += a1k * b1k;
          acc[1][2] += a1k * b2k;
          acc[1][3] += a1k * b3k;
        }
        for (int ii = 0; ii < kRowBlock; ++ii) {
          double* oi = out.row(i0 + ii) + j0;
          for (int jj = 0; jj < kMatBlock; ++jj) oi[jj] = acc[ii][jj];
        }
      } else {
        for (int i = i0; i < i0 + ilim; ++i) {
          const double* ai = a.row(i);
          double* oi = out.row(i);
          for (int j = j0; j < j0 + jlim; ++j) {
            const double* bj = b.row(j);
            double acc = 0.0;
            for (int k = 0; k < kk; ++k) acc += ai[k] * bj[k];
            oi[j] = acc;
          }
        }
      }
    }
  }
}

}  // namespace muxlink::gnn

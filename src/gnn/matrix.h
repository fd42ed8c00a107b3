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
// below are plain loops. Every output element is a single accumulator
// summing its k-terms in ascending k; they are the scalar half of the
// dispatched kernel set (gnn/simd.h) and the oracle the AVX2 variants are
// tested against (tolerance-equivalence, no -ffast-math reassociation).
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

// --- scalar reference kernels -----------------------------------------------
// The scalar kernel table points at these directly, and they are the
// correctness oracle for the AVX2 kernels. Do not optimize these.

// out = a * b.
inline void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
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
inline void matmul_at_b_accum(const Matrix& a, const Matrix& b, Matrix& out) {
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
inline void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
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

}  // namespace muxlink::gnn

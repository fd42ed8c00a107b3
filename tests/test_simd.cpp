// Equivalence and dispatch contract of the SIMD kernel layer (DESIGN.md §10).
//
// Two kernel classes, asserted per kernel against the scalar oracle table:
//   * bit-identical — propagate, propagate_transpose, tanh_backward_inplace,
//     add, scale, relu_dropout_backward, adam_update: per-lane scalar op
//     order, no FMA, so the AVX2 table must match the scalar table bit for
//     bit on every input;
//   * tolerance-equivalent — matmul, matmul_at_b_accum, matmul_a_bt,
//     dot_acc, axpy, sumsq_acc, tanh, sigmoid: lane reassociation / FMA /
//     polynomial exp change low-order bits only.
//
// Within each table, the multi-row kernels dot_rows/axpy_rows are
// bit-identical to the dot_acc/axpy loops they replace, and Dgcnn::step is
// bit-identical to add_gradients + adam_step at any thread count; a CRC of a
// small trained model pins both tables' bytes.
//
// Shapes are deliberately odd/prime so every padded row has live pad lanes
// and every remainder loop in the AVX2 TU runs. On hosts without AVX2+FMA
// the equivalence suite skips (there is nothing to compare); the dispatch
// and override tests still run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "circuitgen/generator.h"
#include "common/cpu_features.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "gnn/encoding.h"
#include "gnn/serialize.h"
#include "gnn/simd.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"

namespace muxlink {
namespace {

// Restores the session's dispatch mode so one test can't leak a forced
// table into the rest of the binary.
struct ModeGuard {
  ~ModeGuard() { common::set_simd_mode(common::SimdMode::kAuto); }
};

gnn::Matrix random_matrix(int r, int c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  gnn::Matrix m(r, c);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j) m.at(i, j) = u(rng);
  return m;
}

gnn::AlignedVec random_vec(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  gnn::AlignedVec v(n);
  for (double& x : v) x = u(rng);
  return v;
}

void expect_bits_equal(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " differs at element " << i << ": " << a << " vs " << b;
}

void expect_close(double a, double b, const char* what, std::size_t i) {
  const double tol = 1e-10 * std::max(1.0, std::abs(a));
  EXPECT_NEAR(a, b, tol) << what << " at element " << i;
}

void expect_matrices(const gnn::Matrix& ref, const gnn::Matrix& got, bool bit_identical,
                     const char* what) {
  ASSERT_EQ(ref.rows, got.rows) << what;
  ASSERT_EQ(ref.cols, got.cols) << what;
  for (int i = 0; i < ref.rows; ++i) {
    for (int j = 0; j < ref.cols; ++j) {
      const std::size_t flat = static_cast<std::size_t>(i) * ref.cols + j;
      if (bit_identical) {
        expect_bits_equal(ref.at(i, j), got.at(i, j), what, flat);
      } else {
        expect_close(ref.at(i, j), got.at(i, j), what, flat);
      }
    }
    // Pads-are-zero invariant: vector kernels may read pads but must only
    // ever write zeros there.
    for (int j = got.cols; j < got.ld; ++j) {
      EXPECT_EQ(got.row(i)[j], 0.0) << what << " wrote a pad lane, row " << i;
    }
  }
}

// Odd/prime matmul shapes (m, k, n): every row of every operand has live pad
// lanes except the deliberately lane-aligned last entry.
constexpr int kShapes[][3] = {
    {1, 1, 1}, {3, 5, 7}, {5, 3, 2}, {7, 13, 11}, {17, 7, 29}, {23, 19, 1}, {64, 48, 32},
};
constexpr std::size_t kVecLens[] = {1, 2, 3, 5, 7, 16, 17, 31, 257};

class SimdEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = gnn::avx2_kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "host or build lacks AVX2+FMA; nothing to compare";
    }
  }
  const gnn::KernelTable& sc() { return gnn::scalar_kernels(); }
  const gnn::KernelTable* avx2_ = nullptr;
  std::mt19937_64 rng_{20260808};
};

TEST_F(SimdEquivalence, MatmulToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[1], s[2], rng_);
    gnn::Matrix ref, got;
    sc().matmul(a, b, ref);
    avx2_->matmul(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul");
  }
}

TEST_F(SimdEquivalence, MatmulAtBAccumToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[0], s[2], rng_);
    const auto init = random_matrix(s[1], s[2], rng_);
    gnn::Matrix ref = init, got = init;
    sc().matmul_at_b_accum(a, b, ref);
    avx2_->matmul_at_b_accum(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_at_b_accum");
  }
}

TEST_F(SimdEquivalence, MatmulABtToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[2], s[1], rng_);
    gnn::Matrix ref, got;
    sc().matmul_a_bt(a, b, ref);
    avx2_->matmul_a_bt(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_a_bt");
  }
}

TEST_F(SimdEquivalence, PropagateBitIdentical) {
  // Real encoded subgraphs so the CSR path sees genuine degree structure.
  circuitgen::CircuitSpec spec;
  spec.seed = 5;
  spec.num_gates = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  const auto nl = circuitgen::generate(spec);
  const auto g = graph::build_circuit_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 6, .seed = 3});
  ASSERT_FALSE(links.empty());
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  for (const auto& ls : links) {
    const auto sample = gnn::encode_subgraph(
        graph::extract_enclosing_subgraph(g, ls.link, sopts), sopts.hops, 1);
    // 7 channels: odd width, live pad lanes in h and both outputs.
    const auto h = random_matrix(sample.x.rows, 7, rng_);
    gnn::Matrix ref, got;
    sc().propagate(sample, h, ref);
    avx2_->propagate(sample, h, got);
    expect_matrices(ref, got, /*bit_identical=*/true, "propagate");
    sc().propagate_transpose(sample, h, ref);
    avx2_->propagate_transpose(sample, h, got);
    expect_matrices(ref, got, /*bit_identical=*/true, "propagate_transpose");
  }
}

TEST_F(SimdEquivalence, ElementwiseLoops) {
  for (const std::size_t n : kVecLens) {
    const auto src = random_vec(n, rng_);
    const auto other = random_vec(n, rng_);

    {  // tanh: tolerance (vector polynomial exp).
      gnn::AlignedVec ref = src, got = src;
      sc().tanh_inplace(ref.data(), n);
      avx2_->tanh_inplace(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "tanh", i);
    }
    {  // tanh with arguments across the small/general/saturated paths.
      gnn::AlignedVec ref(n), got(n);
      std::uniform_real_distribution<double> wide(-25.0, 25.0);
      for (std::size_t i = 0; i < n; ++i) ref[i] = got[i] = wide(rng_);
      sc().tanh_inplace(ref.data(), n);
      avx2_->tanh_inplace(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "tanh(wide)", i);
    }
    {  // sigmoid: tolerance.
      gnn::AlignedVec ref = src, got = src;
      sc().sigmoid_inplace(ref.data(), n);
      avx2_->sigmoid_inplace(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "sigmoid", i);
    }
    {  // tanh backward: bit-identical.
      gnn::AlignedVec ref = src, got = src;
      sc().tanh_backward_inplace(ref.data(), other.data(), n);
      avx2_->tanh_backward_inplace(got.data(), other.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "tanh_backward", i);
    }
    {  // dot_acc: tolerance; the init chaining must be honored by both.
      const double ref = sc().dot_acc(0.25, src.data(), other.data(), n);
      const double got = avx2_->dot_acc(0.25, src.data(), other.data(), n);
      expect_close(ref, got, "dot_acc", 0);
    }
    {  // axpy: tolerance (FMA in the vector body).
      gnn::AlignedVec ref = other, got = other;
      sc().axpy(0.37, src.data(), ref.data(), n);
      avx2_->axpy(0.37, src.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "axpy", i);
    }
    {  // add: bit-identical.
      gnn::AlignedVec ref = other, got = other;
      sc().add(ref.data(), src.data(), n);
      avx2_->add(got.data(), src.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "add", i);
    }
    {  // scale: bit-identical.
      gnn::AlignedVec ref = src, got = src;
      sc().scale(ref.data(), 1.0 / 3.0, n);
      avx2_->scale(got.data(), 1.0 / 3.0, n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "scale", i);
    }
    {  // sumsq_acc: tolerance.
      const double ref = sc().sumsq_acc(0.5, src.data(), n);
      const double got = avx2_->sumsq_acc(0.5, src.data(), n);
      expect_close(ref, got, "sumsq_acc", 0);
    }
    {  // relu' + dropout: bit-identical (mask-select, no arithmetic change).
      gnn::AlignedVec mask(n);
      std::bernoulli_distribution keep(0.5);
      for (std::size_t i = 0; i < n; ++i) mask[i] = keep(rng_) ? 2.0 : 0.0;
      gnn::AlignedVec ref = src, got = src;
      sc().relu_dropout_backward(ref.data(), other.data(), mask.data(), n);
      avx2_->relu_dropout_backward(got.data(), other.data(), mask.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_equal(ref[i], got[i], "relu_dropout_backward", i);
    }
    {  // adam: bit-identical on all four tensors.
      gnn::AlignedVec w_r = src, g_r = other, m_r = random_vec(n, rng_), v_r(n);
      std::uniform_real_distribution<double> pos(0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) v_r[i] = pos(rng_);
      auto w_g = w_r, g_g = g_r, m_g = m_r, v_g = v_r;
      sc().adam_update(w_r.data(), g_r.data(), m_r.data(), v_r.data(), n, 1e-3, 0.9, 0.999,
                       0.125);
      avx2_->adam_update(w_g.data(), g_g.data(), m_g.data(), v_g.data(), n, 1e-3, 0.9, 0.999,
                         0.125);
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits_equal(w_r[i], w_g[i], "adam w", i);
        expect_bits_equal(g_r[i], g_g[i], "adam g", i);
        expect_bits_equal(m_r[i], m_g[i], "adam m", i);
        expect_bits_equal(v_r[i], v_g[i], "adam v", i);
      }
    }
  }
}

TEST(SimdDispatch, ModeParsingRoundTrips) {
  using common::SimdMode;
  EXPECT_EQ(common::parse_simd_mode("auto"), SimdMode::kAuto);
  EXPECT_EQ(common::parse_simd_mode("avx2"), SimdMode::kAvx2);
  EXPECT_EQ(common::parse_simd_mode("scalar"), SimdMode::kScalar);
  for (const auto m : {SimdMode::kAuto, SimdMode::kAvx2, SimdMode::kScalar}) {
    EXPECT_EQ(common::parse_simd_mode(common::to_string(m)), m);
  }
  EXPECT_THROW(common::parse_simd_mode("sse2"), std::invalid_argument);
  EXPECT_THROW(common::parse_simd_mode(""), std::invalid_argument);
  EXPECT_THROW(common::parse_simd_mode("AVX2"), std::invalid_argument);
}

TEST(SimdDispatch, OverrideRoundTripsThroughDispatch) {
  ModeGuard guard;
  common::set_simd_mode(common::SimdMode::kScalar);
  EXPECT_EQ(common::simd_mode(), common::SimdMode::kScalar);
  EXPECT_STREQ(gnn::kernels().isa, "scalar");
  EXPECT_FALSE(gnn::kernels().vectorized);

  common::set_simd_mode(common::SimdMode::kAuto);
  EXPECT_EQ(common::simd_mode(), common::SimdMode::kAuto);
  if (gnn::avx2_kernels() != nullptr) {
    // auto resolves upward when the hardware allows it...
    EXPECT_STREQ(gnn::kernels().isa, "avx2");
    // ...and an explicit request round-trips too.
    common::set_simd_mode(common::SimdMode::kAvx2);
    EXPECT_EQ(common::simd_mode(), common::SimdMode::kAvx2);
    EXPECT_STREQ(gnn::kernels().isa, "avx2");
    EXPECT_TRUE(gnn::kernels().vectorized);
  } else {
    EXPECT_STREQ(gnn::kernels().isa, "scalar");
    // A forced avx2 request must fail loudly, never silently downgrade.
    EXPECT_THROW(common::set_simd_mode(common::SimdMode::kAvx2), std::runtime_error);
  }
}

TEST(SimdDispatch, CpuInfoJsonHasManifestFields) {
  const auto j = gnn::cpu_info_json();
  for (const char* key :
       {"simd_mode", "simd_isa", "avx2", "fma", "hardware_threads", "cache_line_bytes"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
}

// Encoded 2-hop link subgraphs of a small generated circuit.
std::vector<gnn::GraphSample> small_dataset() {
  circuitgen::CircuitSpec spec;
  spec.seed = 4;
  spec.num_gates = 120;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  const auto nl = circuitgen::generate(spec);
  const auto g = graph::build_circuit_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 60, .seed = 3});
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  std::vector<gnn::GraphSample> data;
  for (const auto& ls : links) {
    data.push_back(gnn::encode_subgraph(graph::extract_enclosing_subgraph(g, ls.link, sopts),
                                        sopts.hops, ls.positive ? 1 : 0));
  }
  return data;
}

// Determinism of the vectorized configuration: with MUXLINK_SIMD=avx2 the
// trainer must be bit-identical across 1/2/8 threads and across repeats,
// exactly like the scalar contract in test_parallel_determinism.
TEST(SimdDeterminism, Avx2TrainingBitIdenticalAcrossThreadCounts) {
  if (gnn::avx2_kernels() == nullptr) {
    GTEST_SKIP() << "host or build lacks AVX2+FMA";
  }
  ModeGuard guard;
  common::set_simd_mode(common::SimdMode::kAvx2);

  const std::vector<gnn::GraphSample> data = small_dataset();
  ASSERT_GT(data.size(), 15u);

  const auto train_at = [&](std::size_t threads) {
    common::set_num_threads(threads);
    gnn::DgcnnConfig cfg;
    cfg.conv_channels = {8, 8, 1};
    cfg.conv1d_channels1 = 4;
    cfg.conv1d_channels2 = 6;
    cfg.conv1d_kernel2 = 3;
    cfg.dense_units = 16;
    cfg.dropout = 0.5;
    cfg.sortpool_k = 10;
    cfg.learning_rate = 1e-3;
    cfg.seed = 11;
    gnn::Dgcnn model(gnn::feature_dim_for_hops(2), cfg);
    gnn::TrainOptions topts;
    topts.epochs = 5;
    topts.batch_size = 10;  // not a multiple of the 4-sample grad chunk
    topts.seed = 2;
    const auto report = gnn::train_link_predictor(model, data, topts);
    std::vector<double> preds;
    for (const auto& s : data) preds.push_back(model.predict(s));
    return std::make_pair(report, preds);
  };

  const auto t1 = train_at(1);
  const auto t1b = train_at(1);  // repeatability within the config
  const auto t2 = train_at(2);
  const auto t8 = train_at(8);
  common::set_num_threads(0);

  for (const auto* other : {&t1b, &t2, &t8}) {
    EXPECT_EQ(t1.first.best_epoch, other->first.best_epoch);
    EXPECT_EQ(t1.first.best_val_accuracy, other->first.best_val_accuracy);
    EXPECT_EQ(t1.first.final_train_loss, other->first.final_train_loss);
    ASSERT_EQ(t1.second.size(), other->second.size());
    for (std::size_t i = 0; i < t1.second.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(t1.second[i]),
                std::bit_cast<std::uint64_t>(other->second[i]))
          << "prediction " << i;
    }
  }
}

// --- multi-row kernels ------------------------------------------------------

// The scalar table, plus the AVX2 table when the host and build have it.
std::vector<const gnn::KernelTable*> all_tables() {
  std::vector<const gnn::KernelTable*> t{&gnn::scalar_kernels()};
  if (const gnn::KernelTable* a = gnn::avx2_kernels()) t.push_back(a);
  return t;
}

std::vector<double> random_buffer(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

// Doubles spanned by `rows` rows of `n` elements at stride `ld`.
std::size_t rows_extent(std::size_t rows, std::size_t n, std::size_t ld) {
  return rows == 0 ? 0 : (rows - 1) * ld + n;
}

void expect_buffers_bit_equal(const std::vector<double>& want, const std::vector<double>& got,
                              const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]), std::bit_cast<std::uint64_t>(got[i]))
        << what << " differs at element " << i << ": " << want[i] << " vs " << got[i];
  }
}

TEST(SimdRows, DotRowsBitEqualToLoopedDotAcc) {
  struct Shape {
    std::size_t m, nout, n, ldx, ldw;
  };
  // n % 4 in {0, 1, 2, 3}; m = 1; ldx < n (overlapping x rows, as conv2's
  // im2col windows); the DGCNN's conv1 (k x 16 x 97), conv2 (18 x 32 x 80
  // at stride 16) and dense1 (1 x 128 x 576) shapes.
  const Shape shapes[] = {
      {1, 1, 4, 4, 4},    {1, 2, 5, 5, 8},       {3, 5, 6, 6, 8},      {2, 8, 7, 8, 7},
      {5, 12, 9, 3, 9},   {4, 13, 2, 1, 2},      {1, 3, 1, 1, 1},      {45, 16, 97, 100, 100},
      {18, 32, 80, 16, 80}, {1, 128, 576, 0, 576}, {1, 2, 128, 0, 128}, {7, 20, 31, 31, 33},
  };
  std::mt19937_64 rng(515);
  for (const gnn::KernelTable* kn : all_tables()) {
    for (const Shape& sh : shapes) {
      const auto x = random_buffer(rows_extent(sh.m, sh.n, sh.ldx), rng);
      const auto w = random_buffer(rows_extent(sh.nout, sh.n, sh.ldw), rng);
      const auto init = random_buffer(sh.nout, rng);
      const std::size_t ldo = sh.nout + 3;  // gaps between output rows stay untouched
      std::vector<double> want(sh.m * ldo, -7.0), got(sh.m * ldo, -7.0);
      for (std::size_t i = 0; i < sh.m; ++i) {
        for (std::size_t j = 0; j < sh.nout; ++j) {
          want[i * ldo + j] =
              kn->dot_acc(init[j], w.data() + j * sh.ldw, x.data() + i * sh.ldx, sh.n);
        }
      }
      kn->dot_rows(sh.m, sh.nout, sh.n, x.data(), sh.ldx, w.data(), sh.ldw, init.data(),
                   got.data(), ldo);
      SCOPED_TRACE(std::string(kn->isa) + " m=" + std::to_string(sh.m) +
                   " nout=" + std::to_string(sh.nout) + " n=" + std::to_string(sh.n));
      expect_buffers_bit_equal(want, got, "dot_rows");
    }
  }
}

TEST(SimdRows, AxpyRowsBitEqualToLoopedAxpy) {
  struct Shape {
    std::size_t nq, np, n, ldx, ldy;
    bool q_major;  // alpha stored [q][p] (asq = np) rather than [p][q] (asp = nq)
  };
  // n % 4 in {0, 1, 2, 3}; one y row; overlapping y rows (ldy < n, conv2's
  // dm) and x rows (ldx < n, conv2's weight gradient); more source rows
  // than the AVX2 kernel gathers at once (np > 128).
  const Shape shapes[] = {
      {1, 1, 4, 4, 4, false},       {1, 6, 5, 5, 5, true},        {3, 4, 6, 8, 6, false},
      {4, 3, 7, 7, 8, true},        {5, 7, 9, 9, 3, false},       {6, 5, 10, 2, 10, true},
      {1, 128, 576, 576, 0, true},  {18, 32, 80, 80, 16, false},  {32, 18, 80, 16, 80, true},
      {45, 16, 97, 100, 100, false}, {16, 150, 97, 100, 100, true}, {9, 11, 33, 35, 33, false},
  };
  std::mt19937_64 rng(733);
  std::bernoulli_distribution zero(0.3);
  for (const gnn::KernelTable* kn : all_tables()) {
    for (const Shape& sh : shapes) {
      auto x = random_buffer(rows_extent(sh.np, sh.n, sh.ldx), rng);
      const auto y0 = random_buffer(rows_extent(sh.nq, sh.n, sh.ldy), rng);
      const std::size_t asp = sh.q_major ? 1 : sh.nq;
      const std::size_t asq = sh.q_major ? sh.np : 1;
      auto alpha = random_buffer(sh.nq * sh.np, rng);
      for (double& a : alpha) {
        if (zero(rng)) a = 0.0;
      }
      // An all-zero alpha column (source row p = np / 2) and, with more
      // than one y row, an all-zero alpha row (y row 0).
      const std::size_t dead_p = sh.np / 2;
      for (std::size_t q = 0; q < sh.nq; ++q) alpha[dead_p * asp + q * asq] = 0.0;
      if (sh.nq > 1) {
        for (std::size_t p = 0; p < sh.np; ++p) alpha[p * asp] = -0.0;
      }
      // A NaN in the dead source row must never reach y. With ldx < n the
      // rows overlap, so poison the element only that row reads.
      if (sh.ldx >= sh.n || dead_p == 0) {
        x[dead_p * sh.ldx] = std::numeric_limits<double>::quiet_NaN();
      }
      std::vector<double> want = y0, got = y0;
      for (std::size_t q = 0; q < sh.nq; ++q) {
        for (std::size_t p = 0; p < sh.np; ++p) {
          const double a = alpha[p * asp + q * asq];
          if (a != 0.0) kn->axpy(a, x.data() + p * sh.ldx, want.data() + q * sh.ldy, sh.n);
        }
      }
      kn->axpy_rows(sh.nq, sh.np, sh.n, alpha.data(), asp, asq, x.data(), sh.ldx, got.data(),
                    sh.ldy);
      SCOPED_TRACE(std::string(kn->isa) + " nq=" + std::to_string(sh.nq) +
                   " np=" + std::to_string(sh.np) + " n=" + std::to_string(sh.n));
      expect_buffers_bit_equal(want, got, "axpy_rows");
      for (const double v : got) ASSERT_FALSE(std::isnan(v)) << "NaN leaked from a zero alpha";
    }
  }
}

// --- fused optimizer step ---------------------------------------------------

// The modes whose table exists on this host.
std::vector<common::SimdMode> available_modes() {
  std::vector<common::SimdMode> modes{common::SimdMode::kScalar};
  if (gnn::avx2_kernels() != nullptr) modes.push_back(common::SimdMode::kAvx2);
  return modes;
}

// The paper's DGCNN head, cut down for test speed: sortpool_k = 14 keeps
// three overlapping conv2 windows.
gnn::DgcnnConfig step_config() {
  gnn::DgcnnConfig cfg;
  cfg.dense_units = 32;
  cfg.sortpool_k = 14;
  cfg.learning_rate = 1e-3;
  cfg.seed = 5;
  return cfg;
}

void expect_tensors_bit_equal(const std::vector<gnn::Matrix>& want,
                              const std::vector<gnn::Matrix>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(want[t].data.size(), got[t].data.size()) << what;
    for (std::size_t i = 0; i < want[t].data.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want[t].data[i]),
                std::bit_cast<std::uint64_t>(got[t].data[i]))
          << what << " tensor " << t << " element " << i;
    }
  }
}

// Dgcnn::step == add_gradients over the slots + adam_step, bit for bit, at
// 1, 2 and 4 threads and with or without norm clipping; the slots come
// back zeroed and the returned norm is the serial one.
TEST(DgcnnStep, FusedStepMatchesSerialReduceAndAdam) {
  ModeGuard guard;
  const std::vector<gnn::GraphSample> data = small_dataset();
  const int fdim = gnn::feature_dim_for_hops(2);
  constexpr std::size_t kSlots = 3, kPerSlot = 2, kSteps = 3;
  for (const common::SimdMode mode : available_modes()) {
    common::set_simd_mode(mode);
    for (const double clip : {0.0, 1e-3}) {
      std::vector<gnn::Matrix> first_params;
      for (const std::size_t threads : {1u, 2u, 4u}) {
        common::set_num_threads(threads);
        SCOPED_TRACE(std::string(common::to_string(mode)) + " clip=" + std::to_string(clip) +
                     " threads=" + std::to_string(threads));
        gnn::Dgcnn fused(fdim, step_config());
        gnn::Dgcnn serial(fdim, step_config());
        for (std::size_t st = 0; st < kSteps; ++st) {
          std::vector<std::vector<gnn::Matrix>> slots;
          for (std::size_t s = 0; s < kSlots; ++s) {
            slots.push_back(fused.make_gradient_buffers());
            for (std::size_t i = 0; i < kPerSlot; ++i) {
              const std::size_t pos = (st * kSlots + s) * kPerSlot + i;
              fused.accumulate_gradients(data[pos % data.size()], slots[s], 1000 + pos);
            }
          }
          const std::size_t batch = kSlots * kPerSlot;
          for (const auto& slot : slots) serial.add_gradients(slot);
          const gnn::KernelTable& kn = gnn::kernels();
          double sumsq = 0.0;
          for (const gnn::Matrix& g : serial.gradients()) {
            sumsq = kn.sumsq_acc(sumsq, g.data.data(), g.data.size());
          }
          const double norm = std::sqrt(sumsq);
          const double avg = norm / static_cast<double>(batch);
          if (clip > 0.0 && avg > clip) serial.scale_gradients(clip / avg);
          serial.adam_step(batch);

          const double got_norm = fused.step(slots, batch, clip, /*want_norm=*/true);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(norm), std::bit_cast<std::uint64_t>(got_norm));
          if (clip > 0.0) {
            EXPECT_GT(avg, clip) << "clip threshold never triggers";
          }
          for (const auto& slot : slots) {
            for (const gnn::Matrix& g : slot) {
              for (const double v : g.data) ASSERT_EQ(v, 0.0) << "slot not zeroed";
            }
          }
        }
        expect_tensors_bit_equal(serial.save_parameters(), fused.save_parameters(), "params");
        const auto so = serial.optimizer_state();
        const auto fo = fused.optimizer_state();
        expect_tensors_bit_equal(so.m, fo.m, "adam m");
        expect_tensors_bit_equal(so.v, fo.v, "adam v");
        EXPECT_EQ(so.t, fo.t);
        if (first_params.empty()) {
          first_params = fused.save_parameters();
        } else {
          expect_tensors_bit_equal(first_params, fused.save_parameters(), "params vs 1 thread");
        }
      }
    }
  }
  common::set_num_threads(0);
}

// --- golden bytes -----------------------------------------------------------

// CRC-32 of the saved bytes of a small model trained for 2 epochs under
// `mode` at `threads` threads.
std::uint32_t trained_model_crc(common::SimdMode mode, std::size_t threads) {
  common::set_simd_mode(mode);
  common::set_num_threads(threads);
  gnn::Dgcnn model(gnn::feature_dim_for_hops(2), step_config());
  gnn::TrainOptions topts;
  topts.epochs = 2;
  topts.batch_size = 10;
  topts.seed = 3;
  gnn::train_link_predictor(model, small_dataset(), topts);
  std::ostringstream os;
  gnn::save_model(model, os);
  common::set_num_threads(0);
  return common::crc32(os.str());
}

// Pinned from the trainer as it was before the fused step and the
// multi-row kernels: a change to either that moves one trained bit fails
// here, in either table, at any thread count.
constexpr std::uint32_t kGoldenScalarCrc = 0x84e5bbba;
constexpr std::uint32_t kGoldenAvx2Crc = 0xf6b62224;

TEST(GoldenBytes, ScalarTrainedModelCrcIsPinned) {
  ModeGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(trained_model_crc(common::SimdMode::kScalar, threads), kGoldenScalarCrc)
        << threads << " threads";
  }
}

TEST(GoldenBytes, Avx2TrainedModelCrcIsPinned) {
  if (gnn::avx2_kernels() == nullptr) GTEST_SKIP() << "host or build lacks AVX2+FMA";
  ModeGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(trained_model_crc(common::SimdMode::kAvx2, threads), kGoldenAvx2Crc)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace muxlink

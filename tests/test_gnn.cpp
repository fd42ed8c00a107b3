// Tests for the from-scratch DGCNN: matrix kernels, encoding, forward
// determinism, finite-difference gradient checks over EVERY parameter
// tensor, Adam convergence, and the trainer's checkpointing contract.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "circuitgen/generator.h"
#include "gnn/dgcnn.h"
#include "gnn/encoding.h"
#include "gnn/matrix.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"

namespace muxlink::gnn {
namespace {

// --- matrix kernels -----------------------------------------------------------

// Fills logical elements row-major (the padded storage makes flat
// data-assignment shape-dependent; see matrix.h).
void fill(Matrix& m, std::initializer_list<double> values) {
  ASSERT_EQ(values.size(), static_cast<std::size_t>(m.rows) * m.cols);
  auto it = values.begin();
  for (int i = 0; i < m.rows; ++i) {
    for (int j = 0; j < m.cols; ++j) m.at(i, j) = *it++;
  }
}

TEST(MatrixKernels, Matmul) {
  Matrix a(2, 3), b(3, 2), out;
  fill(a, {1, 2, 3, 4, 5, 6});
  fill(b, {7, 8, 9, 10, 11, 12});
  matmul(a, b, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 154.0);
}

TEST(MatrixKernels, MatmulAtBAccumulates) {
  Matrix a(2, 2), b(2, 2), out(2, 2);
  fill(a, {1, 2, 3, 4});
  fill(b, {5, 6, 7, 8});
  fill(out, {1, 0, 0, 1});
  matmul_at_b_accum(a, b, out);
  // a^T b = [[26,30],[38,44]]; plus identity.
  EXPECT_DOUBLE_EQ(out.at(0, 0), 27.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 38.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 45.0);
}

TEST(MatrixKernels, MatmulABt) {
  Matrix a(1, 3), b(2, 3), out;
  fill(a, {1, 2, 3});
  fill(b, {4, 5, 6, 7, 8, 9});
  matmul_a_bt(a, b, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 32.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 50.0);
}

TEST(MatrixKernels, GlorotInitBounded) {
  std::mt19937_64 rng(1);
  Matrix m(20, 30);
  m.glorot(rng);
  const double limit = std::sqrt(6.0 / 50.0);
  double mag = 0.0;
  for (double x : m.data) {
    EXPECT_LE(std::abs(x), limit);
    mag += std::abs(x);
  }
  EXPECT_GT(mag, 0.0);
}

// --- encoding -------------------------------------------------------------------

graph::CircuitGraph small_graph(netlist::Netlist& nl_out) {
  circuitgen::CircuitSpec spec;
  spec.seed = 4;
  spec.num_gates = 120;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  nl_out = circuitgen::generate(spec);
  return graph::build_circuit_graph(nl_out);
}

TEST(Encoding, OneHotRowsSumToTwo) {
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto sg = graph::extract_enclosing_subgraph(g, g.all_edges()[0]);
  const GraphSample s = encode_subgraph(sg, 3, 1);
  EXPECT_EQ(s.label, 1);
  EXPECT_EQ(s.x.rows, static_cast<int>(sg.num_nodes()));
  EXPECT_EQ(s.x.cols, feature_dim_for_hops(3));
  for (int i = 0; i < s.x.rows; ++i) {
    double sum = 0.0;
    for (int j = 0; j < s.x.cols; ++j) sum += s.x.at(i, j);
    EXPECT_DOUBLE_EQ(sum, 2.0);  // one type bit + one DRNL bit
  }
}

TEST(Encoding, TargetsCarryLabelOneBit) {
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto sg = graph::extract_enclosing_subgraph(g, g.all_edges()[1]);
  const GraphSample s = encode_subgraph(sg, 3, 0);
  EXPECT_DOUBLE_EQ(s.x.at(0, graph::kNumTypeFeatures + 1), 1.0);
  EXPECT_DOUBLE_EQ(s.x.at(1, graph::kNumTypeFeatures + 1), 1.0);
}

// --- sortpooling k ----------------------------------------------------------------

TEST(SortPoolK, PicksSixtiethPercentileWithFloor) {
  EXPECT_EQ(choose_sortpool_k({1, 2, 3}), 10);  // floored
  std::vector<int> sizes;
  for (int i = 1; i <= 100; ++i) sizes.push_back(i);
  EXPECT_EQ(choose_sortpool_k(sizes, 0.6), 61);
  EXPECT_EQ(choose_sortpool_k({}), 10);
}

// --- model ----------------------------------------------------------------------

GraphSample tiny_sample(int label, std::uint64_t seed) {
  // Random small graph with feature dim 12.
  std::mt19937_64 rng(seed);
  const int n = 6 + static_cast<int>(rng() % 5);
  GraphSample g;
  g.label = label;
  std::vector<std::vector<int>> nbr(n);
  for (int i = 1; i < n; ++i) {
    const int j = static_cast<int>(rng() % i);
    nbr[i].push_back(j);
    nbr[j].push_back(i);
  }
  g.set_adjacency(nbr);
  g.x = Matrix(n, 12);
  for (int i = 0; i < n; ++i) g.x.at(i, static_cast<int>(rng() % 12)) = 1.0;
  return g;
}

DgcnnConfig tiny_config() {
  DgcnnConfig cfg;
  cfg.conv_channels = {4, 4, 1};
  cfg.conv1d_channels1 = 3;
  cfg.conv1d_channels2 = 4;
  cfg.conv1d_kernel2 = 2;
  cfg.dense_units = 8;
  cfg.dropout = 0.0;  // deterministic for gradient checks
  cfg.sortpool_k = 6;
  cfg.seed = 7;
  return cfg;
}

TEST(Dgcnn, ForwardIsDeterministicWithoutDropout) {
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(1, 3);
  const double p1 = model.predict(g);
  const double p2 = model.predict(g);
  EXPECT_DOUBLE_EQ(p1, p2);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, 1.0);
}

TEST(Dgcnn, HandlesGraphsSmallerAndLargerThanK) {
  Dgcnn model(12, tiny_config());
  GraphSample small = tiny_sample(0, 5);
  small.set_adjacency({{1}, {0, 2}, {1}});
  small.x = Matrix(3, 12);
  for (int i = 0; i < 3; ++i) small.x.at(i, i) = 1.0;
  EXPECT_NO_THROW(model.predict(small));

  GraphSample big = tiny_sample(1, 6);
  // Chain of 30 nodes > k = 6.
  std::vector<std::vector<int>> chain(30);
  for (int i = 1; i < 30; ++i) {
    chain[i].push_back(i - 1);
    chain[i - 1].push_back(i);
  }
  big.set_adjacency(chain);
  big.x = Matrix(30, 12);
  for (int i = 0; i < 30; ++i) big.x.at(i, i % 12) = 1.0;
  EXPECT_NO_THROW(model.predict(big));
}

TEST(Dgcnn, RejectsFeatureDimMismatch) {
  Dgcnn model(12, tiny_config());
  GraphSample g = tiny_sample(0, 8);
  g.x = Matrix(g.x.rows, 5);
  EXPECT_THROW(model.predict(g), std::invalid_argument);
}

TEST(Dgcnn, RejectsBadConfig) {
  DgcnnConfig cfg = tiny_config();
  cfg.sortpool_k = 2;  // pool -> 1 frame, kernel 2 does not fit
  EXPECT_THROW(Dgcnn(12, cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.conv_channels.clear();
  EXPECT_THROW(Dgcnn(12, cfg), std::invalid_argument);
}

// Gradient accumulators and Adam moments are allocated on the first
// training-side call: a model that only scores never holds them, and a
// never-trained model still reports zero moments of the right shapes.
TEST(Dgcnn, TrainingBuffersAreAllocatedOnFirstTrainingCall) {
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(1, 4);
  model.predict(g);
  model.predict(g, /*training=*/true);
  EXPECT_TRUE(model.gradients().empty());
  const auto fresh = model.optimizer_state();
  ASSERT_EQ(fresh.m.size(), model.save_parameters().size());
  for (const Matrix& m : fresh.m) {
    for (const double x : m.data) EXPECT_EQ(x, 0.0);
  }

  model.accumulate_gradients(g);
  ASSERT_EQ(model.gradients().size(), model.save_parameters().size());
  model.adam_step(1);
  EXPECT_EQ(model.optimizer_state().t, 1);
}

TEST(Dgcnn, SaveLoadRoundTrip) {
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(1, 9);
  const double before = model.predict(g);
  const auto snapshot = model.save_parameters();
  // Perturb by training a few steps.
  for (int i = 0; i < 5; ++i) {
    model.accumulate_gradients(g);
    model.adam_step(1);
  }
  EXPECT_NE(model.predict(g), before);
  model.load_parameters(snapshot);
  EXPECT_DOUBLE_EQ(model.predict(g), before);
}

TEST(Dgcnn, ParameterCountMatchesTopology) {
  DgcnnConfig cfg = tiny_config();
  Dgcnn model(12, cfg);
  // conv: 12*4 + 4*4 + 4*1; k1: 3*9 + 3; k2: 4*(3*2) + 4;
  // dense1: 8 * (conv2_len * 4) + 8 with conv2_len = 6/2 - 2 + 1 = 2;
  // dense2: 2*8 + 2.
  const std::size_t expected = (12 * 4 + 4 * 4 + 4 * 1) + (3 * 9 + 3) + (4 * 6 + 4) +
                               (8 * (2 * 4) + 8) + (2 * 8 + 2);
  EXPECT_EQ(model.num_parameters(), expected);
}

// --- gradient checks ---------------------------------------------------------------

// Numerically verifies d(loss)/d(theta) for every parameter tensor via
// central finite differences on a fixed sample.
class GradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  const int label = GetParam() % 2;
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(label, 100 + GetParam());

  auto loss_of = [&](Dgcnn& m) {
    const double p1 = m.predict(g);
    const double p_true = g.label == 1 ? p1 : 1.0 - p1;
    return -std::log(std::max(p_true, 1e-12));
  };

  // Analytic gradients from one backprop pass.
  model.zero_gradients();
  model.accumulate_gradients(g);
  const auto& analytic = model.gradients();
  const auto params = model.save_parameters();

  // Central finite differences on every element of every parameter tensor
  // (the tiny topology keeps this ~1k probes). ReLU/max-pool kinks and the
  // SortPooling permutation can make isolated elements non-differentiable;
  // allow a tiny fraction of mismatches at eps-scale.
  const double eps = 1e-6;
  std::size_t checked = 0, bad = 0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    for (std::size_t e = 0; e < params[t].data.size(); ++e) {
      auto plus = params;
      auto minus = params;
      plus[t].data[e] += eps;
      minus[t].data[e] -= eps;
      Dgcnn mp(12, tiny_config()), mm(12, tiny_config());
      mp.load_parameters(plus);
      mm.load_parameters(minus);
      const double numeric = (loss_of(mp) - loss_of(mm)) / (2 * eps);
      const double exact = analytic[t].data[e];
      const double tol = 1e-4 * std::max({1.0, std::abs(numeric), std::abs(exact)});
      ++checked;
      if (std::abs(numeric - exact) > tol) ++bad;
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_LE(bad, checked / 200) << bad << " of " << checked << " gradient elements off";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheck, ::testing::Values(0, 1, 2, 3));

// --- AUC ------------------------------------------------------------------------------

// Pairwise O(|pos|·|neg|) Mann-Whitney reference (the formulation the
// rank-sum implementation replaced).
double auc_pairwise(const std::vector<double>& scores, const std::vector<int>& labels) {
  std::vector<double> pos, neg;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    (labels[i] == 1 ? pos : neg).push_back(scores[i]);
  }
  if (pos.empty() || neg.empty()) return 0.5;
  double wins = 0.0;
  for (double p : pos) {
    for (double n : neg) {
      if (p > n) {
        wins += 1.0;
      } else if (p == n) {
        wins += 0.5;
      }
    }
  }
  return wins / (static_cast<double>(pos.size()) * static_cast<double>(neg.size()));
}

TEST(Auc, RankSumMatchesPairwiseOnRandomScores) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + rng() % 200;
    std::vector<double> scores(n);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Quantized scores on odd trials force heavy ties — the case the
      // midrank tie correction must get exactly right.
      const double s = unit(rng);
      scores[i] = trial % 2 == 0 ? s : std::round(s * 8.0) / 8.0;
      labels[i] = rng() % 2 == 0 ? 1 : 0;
    }
    EXPECT_NEAR(auc_from_scores(scores, labels), auc_pairwise(scores, labels), 1e-12)
        << "trial " << trial;
  }
}

TEST(Auc, DegenerateClassesReturnHalf) {
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.9, 0.1}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.5, 0.5}, {0, 1}), 0.5);
}

// --- training -----------------------------------------------------------------------

TEST(Trainer, OverfitsTinyDatasetAndCheckpointsBest) {
  // Distinguishable classes: label-1 graphs are dense, label-0 are chains.
  std::vector<GraphSample> data;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 24; ++i) {
    const int label = i % 2;
    GraphSample g;
    const int n = 8;
    g.label = label;
    std::vector<std::vector<int>> nbr(n);
    if (label == 1) {
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if ((u + v + i) % 2 == 0) {
            nbr[u].push_back(v);
            nbr[v].push_back(u);
          }
        }
      }
    } else {
      for (int u = 1; u < n; ++u) {
        nbr[u].push_back(u - 1);
        nbr[u - 1].push_back(u);
      }
    }
    g.set_adjacency(nbr);
    g.x = Matrix(n, 12);
    for (int u = 0; u < n; ++u) g.x.at(u, static_cast<int>(rng() % 12)) = 1.0;
    data.push_back(std::move(g));
  }

  DgcnnConfig cfg = tiny_config();
  cfg.learning_rate = 5e-3;
  Dgcnn model(12, cfg);
  TrainOptions topts;
  topts.epochs = 60;
  topts.batch_size = 8;
  topts.seed = 2;
  int epochs_seen = 0;
  topts.on_epoch = [&](int, double, double) { ++epochs_seen; };
  const TrainReport report = train_link_predictor(model, data, topts);
  EXPECT_EQ(epochs_seen, 60);
  EXPECT_GE(report.best_epoch, 1);
  EXPECT_GT(report.best_val_accuracy, 0.6);
  EXPECT_GT(evaluate_accuracy(model, data), 0.8);
}

TEST(Trainer, EmptyDatasetIsANoop) {
  Dgcnn model(12, tiny_config());
  const TrainReport report = train_link_predictor(model, {}, {});
  EXPECT_EQ(report.best_epoch, -1);
}

TEST(Trainer, LearnsRealCircuitLinks) {
  // End-to-end: sample links from a synthetic circuit, train briefly, and
  // check that link classification clearly beats chance on training data.
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 120, .seed = 3});
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  std::vector<GraphSample> data;
  std::vector<int> sizes;
  for (const auto& ls : links) {
    const auto sg = graph::extract_enclosing_subgraph(g, ls.link, sopts);
    sizes.push_back(static_cast<int>(sg.num_nodes()));
    data.push_back(encode_subgraph(sg, sopts.hops, ls.positive ? 1 : 0));
  }
  DgcnnConfig cfg;
  cfg.sortpool_k = choose_sortpool_k(sizes);
  cfg.learning_rate = 1e-3;
  cfg.dropout = 0.5;
  cfg.seed = 11;
  Dgcnn model(feature_dim_for_hops(sopts.hops), cfg);
  TrainOptions topts;
  topts.epochs = 30;
  topts.batch_size = 16;
  const TrainReport report = train_link_predictor(model, data, topts);
  EXPECT_GT(report.best_val_accuracy, 0.55);
  EXPECT_GT(evaluate_accuracy(model, data), 0.7);
}

}  // namespace
}  // namespace muxlink::gnn

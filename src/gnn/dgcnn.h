// Deep Graph Convolutional Neural Network (DGCNN [18]) for graph (= link)
// classification, exactly as configured in the paper (§III-D / §IV):
//   * L graph-conv layers H^{l+1} = tanh(D^-1 (A+I) H^l W^l),
//     channels {32, 32, 32, 1};
//   * SortPooling to k nodes, ordered by the last 1-channel layer;
//   * 1-D conv (16 ch, kernel = feature width) + max-pool(2) +
//     1-D conv (32 ch, kernel 5), ReLU;
//   * dense 128 + ReLU + dropout 0.5 + dense 2 + softmax.
// Forward, hand-written backprop, and Adam live here; no ML framework.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "gnn/matrix.h"

namespace muxlink::gnn {

// One input graph: sparse structure + dense node features + binary label.
// Adjacency is CSR (flat offsets + neighbor arrays, no self entries) so the
// propagation kernels stream one contiguous array instead of chasing a heap
// allocation per node; propagation uses (A+I) row-normalized, and the
// normalization factors 1/(1+deg) are precomputed once per sample in
// `inv_deg` instead of being recomputed on every propagate call.
struct GraphSample {
  std::vector<int> nbr_offsets{0};  // size num_nodes()+1
  std::vector<int> nbr;             // flattened neighbor lists
  std::vector<double> inv_deg;      // 1.0 / (1 + degree) per node
  Matrix x;                         // num_nodes × feature_dim
  int label = 0;                    // 1 = link exists

  int num_nodes() const noexcept { return static_cast<int>(nbr_offsets.size()) - 1; }
  std::span<const int> neighbors(int i) const {
    return {nbr.data() + nbr_offsets[i],
            static_cast<std::size_t>(nbr_offsets[i + 1] - nbr_offsets[i])};
  }

  // Builds nbr_offsets/nbr/inv_deg from per-node neighbor lists (test and
  // ad-hoc construction convenience; the hot path in gnn/encoding.cpp copies
  // the Subgraph's CSR arrays directly).
  void set_adjacency(const std::vector<std::vector<int>>& lists) {
    nbr_offsets.assign(1, 0);
    nbr.clear();
    inv_deg.clear();
    nbr_offsets.reserve(lists.size() + 1);
    inv_deg.reserve(lists.size());
    for (const auto& l : lists) {
      nbr.insert(nbr.end(), l.begin(), l.end());
      nbr_offsets.push_back(static_cast<int>(nbr.size()));
      inv_deg.push_back(1.0 / (1.0 + static_cast<double>(l.size())));
    }
  }
};

// Graph-propagation kernels over the sample's CSR adjacency (exposed for
// `muxlink-bench kernels` and kernel tests; the model calls them internally).
// propagate: out = D^-1 (A+I) h. propagate_transpose: out = (D^-1 (A+I))^T g.
void propagate(const GraphSample& s, const Matrix& h, Matrix& out);
void propagate_transpose(const GraphSample& s, const Matrix& g, Matrix& out);

struct DgcnnConfig {
  std::vector<int> conv_channels{32, 32, 32, 1};
  int conv1d_channels1 = 16;
  int conv1d_channels2 = 32;
  int conv1d_kernel2 = 5;
  int dense_units = 128;
  double dropout = 0.5;
  int sortpool_k = 10;  // >= 10 so the second 1-D conv has support
  double learning_rate = 1e-4;
  std::uint64_t seed = 1;
};

class Dgcnn {
 public:
  // Fresh model: Glorot-initialised weights, zero biases, drawn from
  // config.seed.
  Dgcnn(int feature_dim, const DgcnnConfig& config);

  // Model that adopts `params` (save_parameters() order and shapes; views
  // stay views) instead of initialising its own, so a loaded model never
  // allocates or fills weights it would discard. Equivalent to the
  // two-argument constructor followed by load_parameters(params), internal
  // RNG state included. Throws std::invalid_argument on a count or shape
  // mismatch.
  Dgcnn(int feature_dim, const DgcnnConfig& config, std::vector<Matrix> params);

  const DgcnnConfig& config() const noexcept { return cfg_; }
  int feature_dim() const noexcept { return feature_dim_; }

  // Probability that the graph's link exists (class 1). `training` enables
  // dropout (using the internal RNG). With `training == false` this mutates
  // no model state and may be called concurrently from many threads.
  double predict(const GraphSample& g, bool training = false);

  // Forward + backward for one sample; accumulates parameter gradients and
  // returns the cross-entropy loss.
  double accumulate_gradients(const GraphSample& g);

  // Thread-safe variant: gradients accumulate into `grads` (shaped by
  // make_gradient_buffers) and dropout is driven entirely by `dropout_seed`,
  // so the result depends only on (parameters, sample, seed) — never on
  // which thread runs it or in what order. Model state is untouched.
  double accumulate_gradients(const GraphSample& g, std::vector<Matrix>& grads,
                              std::uint64_t dropout_seed) const;

  // Zeroed parameter-shaped buffers for the external-gradient overload.
  std::vector<Matrix> make_gradient_buffers() const;

  // Adds `grads` (from make_gradient_buffers) into the internal accumulators
  // consumed by adam_step. Callers reduce per-chunk buffers in a fixed chunk
  // order to keep training bit-identical for any thread count.
  void add_gradients(const std::vector<Matrix>& grads);

  // Adam step over the gradients accumulated since the last step, averaged
  // over `batch_size` samples; clears the accumulators.
  void adam_step(std::size_t batch_size);

  // Parameter snapshot (for best-on-validation checkpointing).
  std::vector<Matrix> save_parameters() const;
  void load_parameters(const std::vector<Matrix>& params);

  // Optimizer state (Adam moments + step counter) for crash-safe trainer
  // checkpoints (gnn/checkpoint.h): resuming mid-training is bit-identical
  // to an uninterrupted run only if the moments and step count survive too.
  struct OptimizerState {
    std::vector<Matrix> m;
    std::vector<Matrix> v;
    long t = 0;
  };
  OptimizerState optimizer_state() const { return {adam_m_, adam_v_, adam_t_}; }
  void set_optimizer_state(const OptimizerState& state);  // validates shapes
  // Zeros the moments and the step counter (divergence rollback: NaN-
  // poisoned moments must not leak into the restarted trajectory).
  void reset_optimizer();

  // Overrides the learning rate mid-training (divergence rollback decays
  // it; checkpoints carry the current value).
  void set_learning_rate(double lr) noexcept { cfg_.learning_rate = lr; }

  // Scales the accumulated (pre-adam_step) gradients in place — the
  // trainer's global-norm gradient clipping.
  void scale_gradients(double factor);

  // Accumulated (unaveraged) gradients since the last adam_step — exposed
  // for gradient-checking tests and optimizer experiments.
  const std::vector<Matrix>& gradients() const noexcept { return grads_; }
  void zero_gradients();

  // Number of trainable scalars (for reporting).
  std::size_t num_parameters() const;

  // Opaque per-thread scratch (defined in dgcnn.cpp).
  struct Workspace;

 private:
  // `rng` drives dropout and must be non-null when training; const so the
  // parallel paths can share one model during a batch (weights read-only).
  double forward(const GraphSample& g, bool training, Workspace& ws,
                 std::mt19937_64* rng) const;
  void backward(const GraphSample& g, Workspace& ws, std::vector<Matrix>& grads) const;
  // Validates the config, sets the layer geometry and parameter indices,
  // and allocates the zeroed gradient and Adam buffers (which fix every
  // parameter's shape); returns which parameters are Glorot-initialised.
  std::vector<bool> build_topology();

  DgcnnConfig cfg_;
  int feature_dim_;
  int cat_dim_ = 0;    // sum of conv channels (SortPooling row width)
  int pooled_len_ = 0; // frames after max-pool
  int conv2_len_ = 0;  // frames after the second 1-D conv
  std::mt19937_64 rng_;

  // Parameters, gradients, and Adam moments share indexing.
  std::vector<Matrix> params_;
  std::vector<Matrix> grads_;
  std::vector<Matrix> adam_m_;
  std::vector<Matrix> adam_v_;
  long adam_t_ = 0;

  // Parameter indices.
  std::vector<int> w_conv_;  // graph conv weights
  int k1_ = -1, b1_ = -1;    // 1-D conv 1
  int k2_ = -1, b2_ = -1;    // 1-D conv 2
  int w5_ = -1, b5_ = -1;    // dense 128
  int w6_ = -1, b6_ = -1;    // dense 2
};

// Chooses SortPooling k so that `fraction` of the given subgraph sizes are
// <= k (paper: 60%), floored at 10 so the conv stack has support.
int choose_sortpool_k(std::vector<int> subgraph_sizes, double fraction = 0.6);

}  // namespace muxlink::gnn

#include "gnn/dgcnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "gnn/simd.h"

namespace muxlink::gnn {

// Dispatch wrappers kept for the public dgcnn.h API (tests and benches call
// these directly); the implementations live in the kernel tables (simd.h).
void propagate(const GraphSample& s, const Matrix& h, Matrix& out) {
  kernels().propagate(s, h, out);
}

void propagate_transpose(const GraphSample& s, const Matrix& g, Matrix& out) {
  kernels().propagate_transpose(s, g, out);
}

// Per-thread scratch: every tensor is resized (capacity-reusing) instead of
// reallocated, so steady-state forward/backward is allocation-free.
struct Dgcnn::Workspace {
  std::vector<Matrix> u;  // per conv layer: P * Z_{l-1}
  std::vector<Matrix> h;  // per conv layer: tanh output
  std::vector<int> order;  // selected global rows after SortPooling
  Matrix s;                // k × cat_dim
  Matrix c1;               // k × ch1 (post-ReLU)
  // The pooled frames and conv2 output are packed row-major (stride ch1 /
  // ch2, no pad lanes): conv2's kernel windows are then overlapping rows
  // of m, and c2 is already the flattened input of dense 1.
  std::vector<double> m;    // pooled_len × ch1
  std::vector<int> argmax;  // pooled_len * ch1 source frame indices
  std::vector<double> c2;   // conv2_len × ch2 (post-ReLU)
  std::vector<double> hid;  // dense_units (post-ReLU, post-dropout)
  std::vector<double> mask;  // dropout mask (scaled)
  double prob1 = 0.0;        // softmax P(label=1)

  // Backward scratch.
  std::vector<double> dhid;
  std::vector<double> df;   // conv2_len × ch2, packed like c2
  std::vector<double> dm;   // pooled_len × ch1, packed like m
  Matrix dc1;                // k × ch1
  Matrix ds;                 // k × cat_dim
  std::vector<Matrix> dh;    // per conv layer: n × channels
  Matrix du;
  Matrix dz;
};

int choose_sortpool_k(std::vector<int> sizes, double fraction) {
  if (sizes.empty()) return 10;
  std::sort(sizes.begin(), sizes.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sizes.size()) - 1.0,
                       fraction * static_cast<double>(sizes.size())));
  return std::max(10, sizes[idx]);
}

namespace {
// Throws std::invalid_argument unless `got` has `want`'s tensor count and
// every tensor's logical shape.
template <typename Shaped>
void require_shapes(const char* who, const std::vector<Matrix>& got,
                    const std::vector<Shaped>& want) {
  if (got.size() != want.size()) {
    throw std::invalid_argument(std::string(who) + ": tensor count mismatch");
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].rows != want[i].rows || got[i].cols != want[i].cols) {
      throw std::invalid_argument(std::string(who) + ": tensor " + std::to_string(i) +
                                  " shape mismatch");
    }
  }
}
}  // namespace

Dgcnn::Dgcnn(int feature_dim, const DgcnnConfig& config)
    : cfg_(config), feature_dim_(feature_dim), rng_(config.seed) {
  const std::vector<ParamShape> shapes = build_topology();
  params_.reserve(shapes.size());
  for (const ParamShape& sh : shapes) {
    Matrix m(sh.rows, sh.cols);
    if (sh.glorot) m.glorot(rng_);
    params_.push_back(std::move(m));
  }
}

Dgcnn::Dgcnn(int feature_dim, const DgcnnConfig& config, std::vector<Matrix> params)
    : cfg_(config), feature_dim_(feature_dim), rng_(config.seed) {
  const std::vector<ParamShape> shapes = build_topology();
  require_shapes("Dgcnn", params, shapes);
  // Leave the RNG exactly where the Glorot init would have: glorot() draws
  // one variate per logical element, and a uniform double takes one step
  // of a 64-bit engine.
  static_assert(std::mt19937_64::word_size >= std::numeric_limits<double>::digits);
  unsigned long long draws = 0;
  for (const ParamShape& sh : shapes) {
    if (sh.glorot) draws += static_cast<unsigned long long>(sh.rows) * sh.cols;
  }
  rng_.discard(draws);
  params_ = std::move(params);
}

void Dgcnn::ensure_training_buffers() {
  if (grads_.empty()) grads_ = make_gradient_buffers();
  if (adam_m_.empty()) {
    adam_m_ = make_gradient_buffers();
    adam_v_ = make_gradient_buffers();
  }
}

std::vector<Dgcnn::ParamShape> Dgcnn::build_topology() {
  if (cfg_.conv_channels.empty()) throw std::invalid_argument("Dgcnn: need conv layers");
  if (cfg_.sortpool_k < 2) throw std::invalid_argument("Dgcnn: sortpool_k too small");
  cat_dim_ = std::accumulate(cfg_.conv_channels.begin(), cfg_.conv_channels.end(), 0);
  pooled_len_ = cfg_.sortpool_k / 2;
  conv2_len_ = pooled_len_ - cfg_.conv1d_kernel2 + 1;
  if (conv2_len_ < 1) {
    throw std::invalid_argument("Dgcnn: sortpool_k too small for the 1-D conv stack");
  }

  std::vector<ParamShape> shapes;
  auto add_param = [&](int rows, int cols, bool init) {
    shapes.push_back({rows, cols, init});
    return static_cast<int>(shapes.size()) - 1;
  };

  int in_dim = feature_dim_;
  for (int c : cfg_.conv_channels) {
    w_conv_.push_back(add_param(in_dim, c, true));
    in_dim = c;
  }
  k1_ = add_param(cfg_.conv1d_channels1, cat_dim_, true);
  b1_ = add_param(1, cfg_.conv1d_channels1, false);
  k2_ = add_param(cfg_.conv1d_channels2, cfg_.conv1d_channels1 * cfg_.conv1d_kernel2, true);
  b2_ = add_param(1, cfg_.conv1d_channels2, false);
  w5_ = add_param(cfg_.dense_units, conv2_len_ * cfg_.conv1d_channels2, true);
  b5_ = add_param(1, cfg_.dense_units, false);
  w6_ = add_param(2, cfg_.dense_units, true);
  b6_ = add_param(1, 2, false);
  return shapes;
}

double Dgcnn::forward(const GraphSample& g, bool training, Workspace& ws,
                      std::mt19937_64* rng) const {
  if (g.x.cols != feature_dim_) throw std::invalid_argument("Dgcnn: feature dim mismatch");
  if (g.num_nodes() != g.x.rows) {
    throw std::invalid_argument("Dgcnn: adjacency / feature row mismatch");
  }
  const int n = g.x.rows;
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const KernelTable& kn = kernels();

  // Graph convolutions.
  ws.u.resize(L);
  ws.h.resize(L);
  const Matrix* z = &g.x;
  for (int l = 0; l < L; ++l) {
    kn.propagate(g, *z, ws.u[l]);
    kn.matmul(ws.u[l], params_[w_conv_[l]], ws.h[l]);
    // Whole padded buffer: tanh(0) == 0 keeps the pad lanes zero.
    kn.tanh_inplace(ws.h[l].data.data(), ws.h[l].data.size());
    z = &ws.h[l];
  }

  // SortPooling: order by the last (1-channel) layer, descending.
  const Matrix& last = ws.h[L - 1];
  std::vector<int>& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double va = last.at(a, last.cols - 1);
    const double vb = last.at(b, last.cols - 1);
    return va != vb ? va > vb : a < b;
  });
  const int k = cfg_.sortpool_k;
  const int kept = std::min(k, n);
  order.resize(kept);

  ws.s.resize(k, cat_dim_);
  for (int t = 0; t < kept; ++t) {
    int off = 0;
    for (int l = 0; l < L; ++l) {
      const double* hr = ws.h[l].row(order[t]);
      for (int c = 0; c < ws.h[l].cols; ++c) ws.s.at(t, off + c) = hr[c];
      off += ws.h[l].cols;
    }
  }

  // 1-D conv #1: per-frame dense over the cat_dim-wide rows, each output
  // chained from its bias as one dot_acc.
  const int ch1 = cfg_.conv1d_channels1;
  const int ch2 = cfg_.conv1d_channels2;
  const Matrix& kk1 = params_[k1_];
  ws.c1.resize_uninit(k, ch1);  // every frame is written below
  kn.dot_rows(k, ch1, cat_dim_, ws.s.row(0), ws.s.ld, kk1.row(0), kk1.ld, params_[b1_].row(0),
              ws.c1.row(0), ws.c1.ld);
  for (int t = 0; t < k; ++t) {
    double* cr = ws.c1.row(t);
    for (int c = 0; c < ch1; ++c) cr[c] = cr[c] > 0.0 ? cr[c] : 0.0;
  }

  // Max-pool (size 2, stride 2).
  ws.m.resize(static_cast<std::size_t>(pooled_len_) * ch1);
  ws.argmax.resize(ws.m.size());
  for (int t = 0; t < pooled_len_; ++t) {
    for (int c = 0; c < ch1; ++c) {
      const double a = ws.c1.at(2 * t, c);
      const double b = ws.c1.at(2 * t + 1, c);
      const std::size_t e = static_cast<std::size_t>(t) * ch1 + c;
      ws.m[e] = a >= b ? a : b;
      ws.argmax[e] = a >= b ? 2 * t : 2 * t + 1;
    }
  }

  // 1-D conv #2 (kernel over frames): output frame t is one dot over the
  // kernel2 × ch1 window starting at pooled row t, i.e. overlapping rows of
  // the packed m at stride ch1.
  const Matrix& kk2 = params_[k2_];
  const int window = cfg_.conv1d_kernel2 * ch1;
  ws.c2.resize(static_cast<std::size_t>(conv2_len_) * ch2);
  kn.dot_rows(conv2_len_, ch2, window, ws.m.data(), ch1, kk2.row(0), kk2.ld, params_[b2_].row(0),
              ws.c2.data(), ch2);
  for (double& v : ws.c2) v = v > 0.0 ? v : 0.0;

  // Dense 128 over the flattened c2 + ReLU + dropout.
  const Matrix& ww5 = params_[w5_];
  ws.hid.resize(cfg_.dense_units);
  kn.dot_rows(1, cfg_.dense_units, ws.c2.size(), ws.c2.data(), 0, ww5.row(0), ww5.ld,
              params_[b5_].row(0), ws.hid.data(), 0);
  ws.mask.assign(cfg_.dense_units, 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int u = 0; u < cfg_.dense_units; ++u) {
    double acc = ws.hid[u] > 0.0 ? ws.hid[u] : 0.0;
    if (training && cfg_.dropout > 0.0 && rng != nullptr) {
      if (unit(*rng) < cfg_.dropout) {
        ws.mask[u] = 0.0;
        acc = 0.0;
      } else {
        ws.mask[u] = 1.0 / (1.0 - cfg_.dropout);
        acc *= ws.mask[u];
      }
    }
    ws.hid[u] = acc;
  }

  // Dense 2 + softmax.
  const Matrix& ww6 = params_[w6_];
  double logits[2];
  kn.dot_rows(1, 2, ws.hid.size(), ws.hid.data(), 0, ww6.row(0), ww6.ld, params_[b6_].row(0),
              logits, 0);
  const double mx = std::max(logits[0], logits[1]);
  const double e0 = std::exp(logits[0] - mx);
  const double e1 = std::exp(logits[1] - mx);
  ws.prob1 = e1 / (e0 + e1);
  return ws.prob1;
}

namespace {
// One persistent workspace per thread: predict/accumulate from any number of
// threads reuse their own scratch instead of reallocating per sample.
Dgcnn::Workspace& thread_workspace() {
  static thread_local Dgcnn::Workspace ws;
  return ws;
}
}  // namespace

double Dgcnn::predict(const GraphSample& g, bool training) {
  return forward(g, training, thread_workspace(), training ? &rng_ : nullptr);
}

double Dgcnn::accumulate_gradients(const GraphSample& g) {
  ensure_training_buffers();
  Workspace& ws = thread_workspace();
  const double p1 = forward(g, /*training=*/true, ws, &rng_);
  backward(g, ws, grads_);
  const double p_true = g.label == 1 ? p1 : 1.0 - p1;
  return -std::log(std::max(p_true, 1e-12));
}

double Dgcnn::accumulate_gradients(const GraphSample& g, std::vector<Matrix>& grads,
                                   std::uint64_t dropout_seed) const {
  Workspace& ws = thread_workspace();
  std::mt19937_64 rng(dropout_seed);
  const double p1 = forward(g, /*training=*/true, ws, &rng);
  backward(g, ws, grads);
  const double p_true = g.label == 1 ? p1 : 1.0 - p1;
  return -std::log(std::max(p_true, 1e-12));
}

std::vector<Matrix> Dgcnn::make_gradient_buffers() const {
  std::vector<Matrix> out;
  out.reserve(params_.size());
  for (const Matrix& p : params_) out.emplace_back(p.rows, p.cols);
  return out;
}

void Dgcnn::add_gradients(const std::vector<Matrix>& grads) {
  ensure_training_buffers();
  if (grads.size() != grads_.size()) throw std::invalid_argument("add_gradients: mismatch");
  const KernelTable& kn = kernels();
  for (std::size_t p = 0; p < grads.size(); ++p) {
    auto& dst = grads_[p].data;
    const auto& src = grads[p].data;
    if (src.size() != dst.size()) throw std::invalid_argument("add_gradients: shape mismatch");
    kn.add(dst.data(), src.data(), src.size());
  }
}

void Dgcnn::backward(const GraphSample& g, Workspace& ws, std::vector<Matrix>& grads) const {
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const int k = cfg_.sortpool_k;
  const int kept = static_cast<int>(ws.order.size());
  const KernelTable& kn = kernels();

  // Softmax + cross-entropy gradient: d(loss)/d(logit_c) = p_c - onehot_c.
  double dlogits[2];
  dlogits[0] = (1.0 - ws.prob1) - (g.label == 0 ? 1.0 : 0.0);
  dlogits[1] = ws.prob1 - (g.label == 1 ? 1.0 : 0.0);

  // Dense 2.
  Matrix& gw6 = grads[w6_];
  Matrix& gb6 = grads[b6_];
  std::vector<double>& dhid = ws.dhid;
  dhid.assign(cfg_.dense_units, 0.0);
  for (int c = 0; c < 2; ++c) {
    gb6.at(0, c) += dlogits[c];
    // The weight-grad and input-grad updates touch disjoint arrays, so the
    // fused pre-SIMD loop splits into two axpys with unchanged results.
    kn.axpy(dlogits[c], ws.hid.data(), gw6.row(c), ws.hid.size());
    kn.axpy(dlogits[c], params_[w6_].row(c), dhid.data(), dhid.size());
  }

  // Dropout + ReLU of dense 1. ws.hid is post-dropout; a unit is active iff
  // hid > 0 (masked units are exactly 0, and ReLU zeros negatives).
  kn.relu_dropout_backward(dhid.data(), ws.hid.data(), ws.mask.data(), dhid.size());

  // Dense 1; units with a zero gradient (dropped or inactive) are skipped.
  const std::size_t f_len = ws.c2.size();
  Matrix& gb5 = grads[b5_];
  for (int u = 0; u < cfg_.dense_units; ++u) {
    if (dhid[u] != 0.0) gb5.at(0, u) += dhid[u];
  }
  Matrix& gw5 = grads[w5_];
  kn.axpy_rows(cfg_.dense_units, 1, f_len, dhid.data(), 0, 1, ws.c2.data(), 0, gw5.row(0),
               gw5.ld);
  std::vector<double>& df = ws.df;
  df.assign(f_len, 0.0);
  kn.axpy_rows(1, cfg_.dense_units, f_len, dhid.data(), 1, 0, params_[w5_].row(0),
               params_[w5_].ld, df.data(), 0);

  // Conv2 (df is dC2 post-ReLU, packed like c2). ReLU' zeroes df in place,
  // so the kernels skip inactive outputs. Each weight row gathers its
  // windows in ascending t, and the windows' overlapping dm rows chain in
  // ascending t, then c.
  const int ch1 = cfg_.conv1d_channels1;
  const int ch2 = cfg_.conv1d_channels2;
  const int window2 = cfg_.conv1d_kernel2 * ch1;
  Matrix& gb2 = grads[b2_];
  for (std::size_t e = 0; e < df.size(); ++e) {
    if (ws.c2[e] <= 0.0) df[e] = 0.0;
    if (df[e] != 0.0) gb2.at(0, static_cast<int>(e % ch2)) += df[e];
  }
  Matrix& gk2 = grads[k2_];
  kn.axpy_rows(ch2, conv2_len_, window2, df.data(), ch2, 1, ws.m.data(), ch1, gk2.row(0), gk2.ld);
  std::vector<double>& dm = ws.dm;
  dm.assign(ws.m.size(), 0.0);
  kn.axpy_rows(conv2_len_, ch2, window2, df.data(), 1, ch2, params_[k2_].row(0),
               params_[k2_].ld, dm.data(), ch1);

  // Max-pool: route to argmax frame.
  Matrix& dc1 = ws.dc1;
  dc1.resize(k, ch1);
  for (int t = 0; t < pooled_len_; ++t) {
    for (int c = 0; c < ch1; ++c) {
      const std::size_t e = static_cast<std::size_t>(t) * ch1 + c;
      if (dm[e] != 0.0) dc1.at(ws.argmax[e], c) += dm[e];
    }
  }

  // Conv1 (+ ReLU), masked in place like conv2.
  Matrix& gb1 = grads[b1_];
  for (int t = 0; t < k; ++t) {
    for (int c = 0; c < ch1; ++c) {
      double& d = dc1.at(t, c);
      if (ws.c1.at(t, c) <= 0.0) d = 0.0;
      if (d != 0.0) gb1.at(0, c) += d;
    }
  }
  Matrix& gk1 = grads[k1_];
  kn.axpy_rows(ch1, k, cat_dim_, dc1.row(0), dc1.ld, 1, ws.s.row(0), ws.s.ld, gk1.row(0), gk1.ld);
  Matrix& ds = ws.ds;
  ds.resize(k, cat_dim_);
  kn.axpy_rows(k, ch1, cat_dim_, dc1.row(0), 1, dc1.ld, params_[k1_].row(0), params_[k1_].ld,
               ds.row(0), ds.ld);

  // SortPooling scatter: segment ds rows back onto dH_l of selected nodes.
  const int n = g.x.rows;
  std::vector<Matrix>& dh = ws.dh;
  dh.resize(L);
  for (int l = 0; l < L; ++l) dh[l].resize(n, cfg_.conv_channels[l]);
  for (int t = 0; t < kept; ++t) {
    const int node = ws.order[t];
    int off = 0;
    for (int l = 0; l < L; ++l) {
      const double* dsr = ds.row(t);
      double* dhr = dh[l].row(node);
      for (int c = 0; c < cfg_.conv_channels[l]; ++c) dhr[c] += dsr[off + c];
      off += cfg_.conv_channels[l];
    }
  }

  // Graph convolutions, last to first: H_l = tanh(U_l W_l), U_l = P Z_{l-1}.
  for (int l = L - 1; l >= 0; --l) {
    Matrix& dhl = dh[l];
    // tanh' over the whole padded buffer (pads: 0 *= 1 stays 0).
    kn.tanh_backward_inplace(dhl.data.data(), ws.h[l].data.data(), dhl.data.size());
    kn.matmul_at_b_accum(ws.u[l], dhl, grads[w_conv_[l]]);
    if (l == 0) break;  // no gradient into the input features
    kn.matmul_a_bt(dhl, params_[w_conv_[l]], ws.du);
    kn.propagate_transpose(g, ws.du, ws.dz);
    // Same shape → same padded layout; pads add 0 + 0.
    kn.add(dh[l - 1].data.data(), ws.dz.data.data(), ws.dz.data.size());
  }
}

double Dgcnn::step(std::span<std::vector<Matrix>> slots, std::size_t batch_size,
                   double clip_grad, bool want_norm) {
  ensure_training_buffers();
  for (std::size_t p = 0; p < params_.size(); ++p) {
    if (params_[p].borrowed()) {
      // Mapped (zoo) weights are read-only views; training must go through
      // an owning copy (warm-start materializes before fine-tuning).
      throw std::logic_error("Dgcnn::step: parameters are a read-only mapped view");
    }
    for (const std::vector<Matrix>& slot : slots) {
      if (slot.size() != params_.size() || slot[p].data.size() != grads_[p].data.size()) {
        throw std::invalid_argument("Dgcnn::step: gradient slot shape mismatch");
      }
    }
  }
  const double b1 = 0.9, b2 = 0.999;
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  const double scale = batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
  const KernelTable& kn = kernels();

  // Fixed spans of whole padded buffers, cut at multiples of the 4-lane
  // vector so each element takes the same kernel path as a whole-tensor call.
  constexpr std::size_t kSpan = 4096;
  struct Span {
    std::size_t tensor, begin, len;
  };
  std::vector<Span> spans;
  for (std::size_t p = 0; p < params_.size(); ++p) {
    const std::size_t n = grads_[p].data.size();
    for (std::size_t b = 0; b < n; b += kSpan) spans.push_back({p, b, std::min(kSpan, n - b)});
  }
  const auto reduce = [&](const Span& sp) {
    double* g = grads_[sp.tensor].data.data() + sp.begin;
    for (std::vector<Matrix>& slot : slots) {
      double* src = slot[sp.tensor].data.data() + sp.begin;
      kn.add(g, src, sp.len);
      std::fill(src, src + sp.len, 0.0);
    }
  };
  // Whole padded buffers: zero grad/m/v leave the zero pad weights zero.
  const auto update = [&](const Span& sp) {
    const std::size_t p = sp.tensor, b = sp.begin;
    kn.adam_update(params_[p].data.data() + b, grads_[p].data.data() + b,
                   adam_m_[p].data.data() + b, adam_v_[p].data.data() + b, sp.len,
                   cfg_.learning_rate, bc1, bc2, scale);
  };
  const auto over_spans = [&](const auto& fn) {
    common::parallel_for(spans.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) fn(spans[i]);
    });
  };

  if (!want_norm && clip_grad <= 0.0) {
    over_spans([&](const Span& sp) {
      reduce(sp);
      update(sp);
    });
    return 0.0;
  }
  over_spans(reduce);
  // sumsq_acc chains each tensor from the running accumulator: one
  // cross-tensor summation chain (the pad lanes add exact +0 terms).
  double sumsq = 0.0;
  for (const Matrix& g : grads_) sumsq = kn.sumsq_acc(sumsq, g.data.data(), g.data.size());
  const double norm = std::sqrt(sumsq);
  if (clip_grad > 0.0) {
    const double avg_norm = norm / static_cast<double>(batch_size);
    if (std::isfinite(avg_norm) && avg_norm > clip_grad) scale_gradients(clip_grad / avg_norm);
  }
  over_spans(update);
  return norm;
}

void Dgcnn::adam_step(std::size_t batch_size) { step({}, batch_size); }

void Dgcnn::zero_gradients() {
  ensure_training_buffers();
  for (Matrix& g : grads_) g.zero();
}

Dgcnn::OptimizerState Dgcnn::optimizer_state() const {
  if (adam_m_.empty()) return {make_gradient_buffers(), make_gradient_buffers(), adam_t_};
  return {adam_m_, adam_v_, adam_t_};
}

void Dgcnn::set_optimizer_state(const OptimizerState& state) {
  require_shapes("set_optimizer_state", state.m, params_);
  require_shapes("set_optimizer_state", state.v, params_);
  adam_m_ = state.m;
  adam_v_ = state.v;
  adam_t_ = state.t;
}

void Dgcnn::reset_optimizer() {
  for (Matrix& m : adam_m_) m.zero();
  for (Matrix& v : adam_v_) v.zero();
  adam_t_ = 0;
}

void Dgcnn::scale_gradients(double factor) {
  ensure_training_buffers();
  const KernelTable& kn = kernels();
  for (Matrix& g : grads_) kn.scale(g.data.data(), factor, g.data.size());
}

std::vector<Matrix> Dgcnn::save_parameters() const { return params_; }

void Dgcnn::load_parameters(const std::vector<Matrix>& params) {
  require_shapes("load_parameters", params, params_);
  params_ = params;
}

std::size_t Dgcnn::num_parameters() const {
  std::size_t n = 0;
  for (const Matrix& p : params_) {
    n += static_cast<std::size_t>(p.rows) * static_cast<std::size_t>(p.cols);
  }
  return n;
}

}  // namespace muxlink::gnn

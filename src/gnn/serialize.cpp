#include "gnn/serialize.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/crc32.h"
#include "common/fault.h"

namespace muxlink::gnn {

namespace {

constexpr const char* kMagicV2 = "muxlink-dgcnn-v2";
constexpr const char* kMagicV1 = "muxlink-dgcnn-v1";
// A corrupt-but-plausible header must not drive unbounded allocation.
constexpr std::size_t kMaxParams = 4096;
constexpr long long kMaxTensorElems = 1LL << 28;

[[noreturn]] void fail(const std::string& what) { throw ModelFormatError("load_model: " + what); }

// Strict field readers: every extraction is checked immediately, so a
// truncated or non-numeric stream reports the field it died on instead of
// silently returning a partially filled model.
template <typename T>
T read_field(std::istream& is, const char* what) {
  T value{};
  if (!(is >> value)) fail(std::string("truncated or malformed ") + what);
  return value;
}

std::string payload_of(const Dgcnn& model) {
  const DgcnnConfig& cfg = model.config();
  std::ostringstream os;
  // Explicit tensor-layout version (previously an implicit property of the
  // format): the text payload stores logical rows × cols elements only. A
  // reader that can only map other layouts (the zoo mmap loader) must be
  // able to reject this file from the header instead of mis-reading `ld`.
  os << "layout " << kLayoutLogical << '\n';
  os << model.feature_dim() << '\n';
  os << cfg.conv_channels.size();
  for (int c : cfg.conv_channels) os << ' ' << c;
  os << '\n';
  os << cfg.conv1d_channels1 << ' ' << cfg.conv1d_channels2 << ' ' << cfg.conv1d_kernel2 << ' '
     << cfg.dense_units << ' ' << cfg.sortpool_k << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << cfg.dropout << ' ' << cfg.learning_rate << ' ' << cfg.seed << '\n';
  const auto params = model.save_parameters();
  os << params.size() << '\n';
  for (const Matrix& m : params) {
    os << m.rows << ' ' << m.cols;
    // Logical elements only — the SIMD pad lanes (matrix.h) are not part of
    // the muxlink-dgcnn-v2 format.
    for (int r = 0; r < m.rows; ++r) {
      const double* p = m.row(r);
      for (int c = 0; c < m.cols; ++c) os << ' ' << p[c];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace

void save_model(const Dgcnn& model, std::ostream& os) {
  const std::string payload = payload_of(model);
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", common::crc32(payload));
  os << kMagicV2 << '\n' << payload << crc_line;
  if (!os) throw std::runtime_error("save_model: stream write failed");
}

void save_model_file(const Dgcnn& model, const std::filesystem::path& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model_file: cannot open '" + path.string() + "'");
  save_model(model, os);
}

Dgcnn load_model(std::istream& is) {
  std::string magic;
  if (!(is >> magic)) fail("empty stream");
  if (magic == kMagicV1) {
    fail("unsupported format version '" + magic + "' (this build reads/writes " + kMagicV2 +
         "; re-save the model)");
  }
  if (magic != kMagicV2) fail("bad magic '" + magic + "'");

  // Slurp the rest: the CRC trailer guards the payload as a whole, so the
  // stream is read once and all parsing happens on the verified bytes.
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string rest = buf.str();
  if (!rest.empty() && rest.front() == '\n') rest.erase(0, 1);
  const auto crc_pos = rest.rfind("crc32 ");
  if (crc_pos == std::string::npos) fail("missing crc32 trailer (truncated file?)");
  const std::string payload = rest.substr(0, crc_pos);
  std::istringstream crc_line(rest.substr(crc_pos + 6));
  std::uint32_t stored_crc = 0;
  if (!(crc_line >> std::hex >> stored_crc)) fail("malformed crc32 trailer");
  // Nothing but whitespace may follow the trailer.
  std::string trailing;
  if (crc_line >> trailing) fail("trailing bytes after crc32 trailer: '" + trailing + "'");
  if (common::crc32(payload) != stored_crc) {
    fail("crc32 mismatch (corrupt or truncated model file)");
  }

  std::istringstream ps(payload);
  // Layout header. Files written before the field existed start directly
  // with the feature dim; they are logical-layout by construction, so the
  // absent field defaults to kLayoutLogical rather than failing.
  int layout = kLayoutLogical;
  int feature_dim = 0;
  {
    std::string first;
    if (!(ps >> first)) fail("truncated or malformed layout/feature header");
    if (first == "layout") {
      layout = read_field<int>(ps, "layout version");
      feature_dim = read_field<int>(ps, "feature dim");
    } else {
      std::size_t pos = 0;
      try {
        feature_dim = std::stoi(first, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != first.size()) fail("malformed feature dim '" + first + "'");
    }
  }
  if (layout != kLayoutLogical) {
    fail("unsupported tensor layout " + std::to_string(layout) +
         " (the text format carries layout " + std::to_string(kLayoutLogical) +
         "; padded blobs are zoo files, load them via zoo::load_model_blob)");
  }
  const auto num_layers = read_field<std::size_t>(ps, "layer count");
  if (feature_dim < 1 || num_layers < 1 || num_layers > 64) fail("malformed header");
  DgcnnConfig cfg;
  cfg.conv_channels.assign(num_layers, 0);
  for (auto& c : cfg.conv_channels) c = read_field<int>(ps, "conv channel");
  cfg.conv1d_channels1 = read_field<int>(ps, "conv1d channels1");
  cfg.conv1d_channels2 = read_field<int>(ps, "conv1d channels2");
  cfg.conv1d_kernel2 = read_field<int>(ps, "conv1d kernel2");
  cfg.dense_units = read_field<int>(ps, "dense units");
  cfg.sortpool_k = read_field<int>(ps, "sortpool k");
  cfg.dropout = read_field<double>(ps, "dropout");
  cfg.learning_rate = read_field<double>(ps, "learning rate");
  cfg.seed = read_field<std::uint64_t>(ps, "seed");
  const auto num_params = read_field<std::size_t>(ps, "parameter count");
  if (num_params > kMaxParams) fail("implausible parameter count");

  std::vector<Matrix> params;
  params.reserve(num_params);
  for (std::size_t p = 0; p < num_params; ++p) {
    const int rows = read_field<int>(ps, "tensor rows");
    const int cols = read_field<int>(ps, "tensor cols");
    if (rows < 0 || cols < 0 || static_cast<long long>(rows) * cols > kMaxTensorElems) {
      fail("bad tensor header " + std::to_string(rows) + "x" + std::to_string(cols));
    }
    Matrix m(rows, cols);
    for (int r = 0; r < rows; ++r) {
      double* p = m.row(r);
      for (int c = 0; c < cols; ++c) p[c] = read_field<double>(ps, "tensor value");
    }
    params.push_back(std::move(m));
  }
  // Exact consumption: any leftover token means the tensor table and the
  // actual data disagree (e.g. an oversized file whose CRC was re-stamped).
  std::string leftover;
  if (ps >> leftover) fail("trailing bytes after last tensor: '" + leftover + "'");
  try {
    return Dgcnn(feature_dim, cfg, std::move(params));  // validates every shape
  } catch (const std::invalid_argument& e) {
    fail(std::string("parameters do not match the declared topology: ") + e.what());
  }
}

Dgcnn load_model_file(const std::filesystem::path& path) {
  MUXLINK_FAULT_POINT("io.model_load");
  std::ifstream is(path);
  if (!is) throw ModelFormatError("load_model_file: cannot open '" + path.string() + "'");
  return load_model(is);
}

}  // namespace muxlink::gnn

#include "src/core/manifest.h"

#include <bit>

#include "src/core/encrypted_client.h"

namespace wre::core {

namespace {

constexpr uint8_t kVersion = 1;

void put_string(Bytes& out, const std::string& s) {
  store_le32(out, static_cast<uint32_t>(s.size()));
  append(out, to_bytes(s));
}

void put_double(Bytes& out, double d) {
  store_le64(out, std::bit_cast<uint64_t>(d));
}

/// Cursor-based reader with bounds checking.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  uint32_t u32() {
    need(4);
    uint32_t v = load_le32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  uint64_t u64() {
    need(8);
    uint64_t v = load_le64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  /// An element count, each element at least `min_bytes` long: an inflated
  /// count is rejected before anyone reserves for it.
  uint32_t count(size_t min_bytes) {
    uint32_t n = u32();
    if (n > (data_.size() - pos_) / min_bytes) {
      throw WreError("manifest: count overruns blob");
    }
    return n;
  }

  std::string str() {
    uint32_t len = u32();
    need(len);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return out;
  }

  void expect_end() const {
    if (pos_ != data_.size()) {
      throw WreError("manifest: trailing bytes");
    }
  }

 private:
  void need(size_t n) const {
    if (pos_ + n > data_.size()) throw WreError("manifest: truncated");
  }

  ByteView data_;
  size_t pos_ = 0;
};

}  // namespace

Bytes serialize_manifest(const TableManifest& manifest) {
  Bytes out;
  out.push_back(kVersion);

  // Logical schema.
  store_le32(out,
             static_cast<uint32_t>(manifest.logical_schema.column_count()));
  for (const sql::Column& col : manifest.logical_schema.columns()) {
    put_string(out, col.name);
    out.push_back(static_cast<uint8_t>(col.type));
    out.push_back(col.primary_key ? 1 : 0);
  }

  // Column specs.
  store_le32(out, static_cast<uint32_t>(manifest.specs.size()));
  for (const EncryptedColumnSpec& spec : manifest.specs) {
    put_string(out, spec.column);
    out.push_back(static_cast<uint8_t>(spec.method));
    put_double(out, spec.parameter);
    out.push_back(static_cast<uint8_t>(spec.unseen));
  }

  // Distributions.
  store_le32(out, static_cast<uint32_t>(manifest.distributions.size()));
  for (const auto& [column, dist] : manifest.distributions) {
    put_string(out, column);
    store_le32(out, static_cast<uint32_t>(dist.support_size()));
    for (const std::string& m : dist.messages()) {
      put_string(out, m);
      put_double(out, dist.probability(m));
    }
  }

  // Range-column specs.
  store_le32(out, static_cast<uint32_t>(manifest.range_specs.size()));
  for (const RangeColumnSpec& spec : manifest.range_specs) {
    put_string(out, spec.column);
    store_le64(out, static_cast<uint64_t>(spec.domain_lo));
    store_le64(out, static_cast<uint64_t>(spec.domain_hi));
    store_le32(out, spec.buckets);
    store_le32(out, static_cast<uint32_t>(spec.uppers.size()));
    for (int64_t cut : spec.uppers) {
      store_le64(out, static_cast<uint64_t>(cut));
    }
  }
  return out;
}

TableManifest deserialize_manifest(ByteView data) {
  Reader in(data);
  if (in.u8() != kVersion) throw WreError("manifest: unsupported version");

  TableManifest out;

  // Minimum encoded sizes bound every count below: a string is 4 bytes
  // before its text, a double 8.
  uint32_t ncols = in.count(4 + 1 + 1);
  std::vector<sql::Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    sql::Column col;
    col.name = in.str();
    auto type = in.u8();
    if (type > static_cast<uint8_t>(sql::ValueType::kBlob)) {
      throw WreError("manifest: bad column type");
    }
    col.type = static_cast<sql::ValueType>(type);
    col.primary_key = in.u8() != 0;
    cols.push_back(std::move(col));
  }
  try {
    out.logical_schema = sql::Schema(std::move(cols));
  } catch (const SqlError& e) {
    throw WreError(std::string("manifest: ") + e.what());
  }

  uint32_t nspecs = in.count(4 + 1 + 8 + 1);
  for (uint32_t i = 0; i < nspecs; ++i) {
    EncryptedColumnSpec spec;
    spec.column = in.str();
    auto method = in.u8();
    if (method > static_cast<uint8_t>(SaltMethod::kBucketizedPoisson)) {
      throw WreError("manifest: bad salt method");
    }
    spec.method = static_cast<SaltMethod>(method);
    spec.parameter = in.f64();
    auto unseen = in.u8();
    if (unseen >
        static_cast<uint8_t>(UnseenValuePolicy::kDeterministicFallback)) {
      throw WreError("manifest: bad unseen-value policy");
    }
    spec.unseen = static_cast<UnseenValuePolicy>(unseen);
    out.specs.push_back(std::move(spec));
  }

  uint32_t ndists = in.count(4 + 4);
  for (uint32_t i = 0; i < ndists; ++i) {
    std::string column = in.str();
    uint32_t support = in.count(4 + 8);
    std::map<std::string, double> probs;
    for (uint32_t j = 0; j < support; ++j) {
      std::string m = in.str();
      probs[m] = in.f64();
    }
    out.distributions.emplace(
        std::move(column),
        PlaintextDistribution::from_probabilities(std::move(probs)));
  }

  uint32_t nranges = in.count(4 + 8 + 8 + 4 + 4);
  for (uint32_t i = 0; i < nranges; ++i) {
    RangeColumnSpec spec;
    spec.column = in.str();
    spec.domain_lo = static_cast<int64_t>(in.u64());
    spec.domain_hi = static_cast<int64_t>(in.u64());
    spec.buckets = in.u32();
    uint32_t ncuts = in.count(8);
    spec.uppers.reserve(ncuts);
    for (uint32_t j = 0; j < ncuts; ++j) {
      spec.uppers.push_back(static_cast<int64_t>(in.u64()));
    }
    out.range_specs.push_back(std::move(spec));
  }

  in.expect_end();
  return out;
}

}  // namespace wre::core

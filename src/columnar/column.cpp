#include "src/columnar/column.h"

#include <algorithm>
#include <cstring>

#include "src/util/error.h"

namespace wre::columnar {

namespace {

using detail::get_bit;

void set_bit(std::vector<uint64_t>& words, size_t i) {
  size_t w = i / 64;
  if (w >= words.size()) words.resize(w + 1, 0);
  words[w] |= uint64_t{1} << (i % 64);
}

/// The shared code-comparison kernel: append positions whose code is in
/// `codes` (deduplicated dictionary codes) to `out`. Small probe sets use
/// direct compares — a single branchless OR-tree per row the compiler
/// vectorizes over the dense uint32 array — larger ones one bitmap pass.
void scan_codes(const std::vector<uint32_t>& column_codes,
                std::vector<uint32_t> codes, size_t dict_size,
                Selection* out) {
  if (codes.empty()) return;
  const uint32_t* c = column_codes.data();
  const uint32_t n = static_cast<uint32_t>(column_codes.size());
  if (codes.size() == 1) {
    const uint32_t p = codes[0];
    for (uint32_t i = 0; i < n; ++i) {
      if (c[i] == p) out->push_back(i);
    }
  } else if (codes.size() <= 4) {
    uint32_t p[4];
    for (size_t k = 0; k < 4; ++k) p[k] = codes[std::min(k, codes.size() - 1)];
    for (uint32_t i = 0; i < n; ++i) {
      bool hit = (c[i] == p[0]) | (c[i] == p[1]) | (c[i] == p[2]) |
                 (c[i] == p[3]);
      if (hit) out->push_back(i);
    }
  } else {
    // The NULL sentinel (code == dict_size) gets a dedicated never-set
    // slot, keeping the row loop free of a null branch.
    std::vector<uint8_t> hit(dict_size + 1, 0);
    for (uint32_t code : codes) hit[code] = 1;
    for (uint32_t i = 0; i < n; ++i) {
      if (hit[c[i]]) out->push_back(i);
    }
  }
}

}  // namespace

// ------------------------------------------------------------ Int64Column

void Int64Column::append(int64_t v) {
  raw_.push_back(v);
  ++row_count_;
}

void Int64Column::append_null() {
  set_bit(null_words_, row_count_);
  has_nulls_ = true;
  raw_.push_back(0);  // placeholder; never compared or materialized
  ++row_count_;
}

void Int64Column::seal(size_t dict_max) {
  std::vector<int64_t> distinct;
  distinct.reserve(raw_.size());
  if (has_nulls_) {
    for (size_t i = 0; i < raw_.size(); ++i) {
      if (!get_bit(null_words_, i)) distinct.push_back(raw_[i]);
    }
  } else {
    distinct = raw_;
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  if (distinct.size() > std::min<size_t>(dict_max, UINT32_MAX - 1) ||
      distinct.size() * 2 > row_count_) {
    // High cardinality: keep raw_ + null bitmap. The second clause demands
    // that compression actually pays (every value repeated twice on
    // average) — near-unique columns gain nothing from codes and lose the
    // heap-ordered locality that makes materialization sequential.
    layout_ = ColumnLayout::kPlain;
    raw_.shrink_to_fit();
    null_words_.shrink_to_fit();
    return;
  }
  layout_ = ColumnLayout::kDictionary;
  dict_ = std::move(distinct);
  dict_.shrink_to_fit();
  codes_.resize(raw_.size());
  const uint32_t null_code = static_cast<uint32_t>(dict_.size());
  for (size_t i = 0; i < raw_.size(); ++i) {
    if (has_nulls_ && get_bit(null_words_, i)) {
      codes_[i] = null_code;
      continue;
    }
    auto it = std::lower_bound(dict_.begin(), dict_.end(), raw_[i]);
    codes_[i] = static_cast<uint32_t>(it - dict_.begin());
  }
  raw_.clear();
  raw_.shrink_to_fit();
  null_words_.clear();
  null_words_.shrink_to_fit();
}

size_t Int64Column::bytes() const {
  return raw_.capacity() * sizeof(int64_t) +
         null_words_.capacity() * sizeof(uint64_t) +
         dict_.capacity() * sizeof(int64_t) +
         codes_.capacity() * sizeof(uint32_t);
}

void Int64Column::scan_in(const int64_t* probes, size_t n,
                          Selection* out) const {
  if (layout_ == ColumnLayout::kDictionary) {
    std::vector<uint32_t> codes;
    codes.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      auto it = std::lower_bound(dict_.begin(), dict_.end(), probes[k]);
      if (it != dict_.end() && *it == probes[k]) {
        codes.push_back(static_cast<uint32_t>(it - dict_.begin()));
      }
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    scan_codes(codes_, std::move(codes), dict_.size(), out);
    return;
  }

  const int64_t* v = raw_.data();
  const uint32_t rows = static_cast<uint32_t>(raw_.size());
  if (n == 1 && !has_nulls_) {
    const int64_t p = probes[0];
    for (uint32_t i = 0; i < rows; ++i) {
      if (v[i] == p) out->push_back(i);
    }
    return;
  }
  std::vector<int64_t> sorted(probes, probes + n);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const bool few = sorted.size() <= 4;
  for (uint32_t i = 0; i < rows; ++i) {
    if (has_nulls_ && get_bit(null_words_, i)) continue;
    bool hit;
    if (few) {
      hit = false;
      for (int64_t p : sorted) hit |= v[i] == p;
    } else {
      hit = std::binary_search(sorted.begin(), sorted.end(), v[i]);
    }
    if (hit) out->push_back(i);
  }
}

bool Int64Column::matches(uint32_t row, const int64_t* probes,
                          size_t n) const {
  if (is_null(row)) return false;
  int64_t v = at(row);
  for (size_t k = 0; k < n; ++k) {
    if (probes[k] == v) return true;
  }
  return false;
}

// ------------------------------------------------------------ BytesColumn

void BytesColumn::append(std::string_view v) {
  if (offsets_.empty()) offsets_.push_back(0);
  packed_.insert(packed_.end(), v.begin(), v.end());
  offsets_.push_back(packed_.size());
  ++row_count_;
}

void BytesColumn::append_null() {
  if (offsets_.empty()) offsets_.push_back(0);
  offsets_.push_back(packed_.size());
  set_bit(null_words_, row_count_);
  has_nulls_ = true;
  ++row_count_;
}

void BytesColumn::seal(size_t dict_max) {
  auto row_view = [&](size_t i) -> std::string_view {
    const char* base = reinterpret_cast<const char*>(packed_.data());
    return {base + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  };

  std::vector<std::string_view> distinct;
  distinct.reserve(row_count_);
  for (size_t i = 0; i < row_count_; ++i) {
    if (has_nulls_ && get_bit(null_words_, i)) continue;
    distinct.push_back(row_view(i));
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  if (distinct.size() > std::min<size_t>(dict_max, UINT32_MAX - 1) ||
      distinct.size() * 2 > row_count_) {
    // See Int64Column::seal: unique-ish columns (AES-CTR ciphertexts
    // foremost) stay packed in heap order, so materializing a scan is a
    // sequential walk instead of a per-row gather through the dictionary.
    layout_ = ColumnLayout::kPlain;
    packed_.shrink_to_fit();
    offsets_.shrink_to_fit();
    null_words_.shrink_to_fit();
    return;
  }
  layout_ = ColumnLayout::kDictionary;
  dict_offsets_.reserve(distinct.size() + 1);
  dict_offsets_.push_back(0);
  for (std::string_view v : distinct) {
    dict_packed_.insert(dict_packed_.end(), v.begin(), v.end());
    dict_offsets_.push_back(dict_packed_.size());
  }
  dict_packed_.shrink_to_fit();
  codes_.resize(row_count_);
  const uint32_t null_code = static_cast<uint32_t>(distinct.size());
  for (size_t i = 0; i < row_count_; ++i) {
    if (has_nulls_ && get_bit(null_words_, i)) {
      codes_[i] = null_code;
      continue;
    }
    auto it =
        std::lower_bound(distinct.begin(), distinct.end(), row_view(i));
    codes_[i] = static_cast<uint32_t>(it - distinct.begin());
  }
  packed_.clear();
  packed_.shrink_to_fit();
  offsets_.clear();
  offsets_.shrink_to_fit();
  null_words_.clear();
  null_words_.shrink_to_fit();
}

size_t BytesColumn::bytes() const {
  return packed_.capacity() + offsets_.capacity() * sizeof(uint64_t) +
         null_words_.capacity() * sizeof(uint64_t) + dict_packed_.capacity() +
         dict_offsets_.capacity() * sizeof(uint64_t) +
         codes_.capacity() * sizeof(uint32_t);
}

void BytesColumn::scan_in(const std::string_view* probes, size_t n,
                          Selection* out) const {
  if (layout_ == ColumnLayout::kDictionary) {
    const size_t dict_size = dictionary_size();
    std::vector<uint32_t> codes;
    codes.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      // Binary search over the sorted dictionary entries.
      size_t lo = 0, hi = dict_size;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (dict_entry(static_cast<uint32_t>(mid)) < probes[k]) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < dict_size && dict_entry(static_cast<uint32_t>(lo)) == probes[k]) {
        codes.push_back(static_cast<uint32_t>(lo));
      }
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    scan_codes(codes_, std::move(codes), dict_size, out);
    return;
  }

  for (uint32_t i = 0; i < row_count_; ++i) {
    if (has_nulls_ && get_bit(null_words_, i)) continue;
    std::string_view v = at(i);
    for (size_t k = 0; k < n; ++k) {
      if (v == probes[k]) {
        out->push_back(i);
        break;
      }
    }
  }
}

bool BytesColumn::matches(uint32_t row, const std::string_view* probes,
                          size_t n) const {
  if (is_null(row)) return false;
  std::string_view v = at(row);
  for (size_t k = 0; k < n; ++k) {
    if (v == probes[k]) return true;
  }
  return false;
}

}  // namespace wre::columnar

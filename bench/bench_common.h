// Shared infrastructure for the experiment harnesses in bench/.
//
// bench_paper reproduces the paper's tables and figures (Sections V and VI),
// one subcommand each; the other binaries measure the system's layers. All
// are self-contained executables with fast defaults; pass --records /
// --queries / ... to scale up toward the paper's 100k / 1M / 10M
// configurations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/core/ingest_pipeline.h"
#include "src/datagen/query_generator.h"
#include "src/datagen/record_generator.h"
#include "src/sql/database.h"
#include "src/util/timer.h"

namespace wre::bench {

/// Minimal argument parser. Accepts `--key value`, `--key=value`, and bare
/// `--flag` (stored as "1"). Numeric getters validate their input and exit
/// with a usage message instead of letting std::stoll/std::stod throw an
/// uncaught exception at the user.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      std::string key = arg.substr(2);
      if (size_t eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }

  int64_t get_int(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      size_t end = 0;
      int64_t v = std::stoll(it->second, &end);
      if (end != it->second.size()) throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      fail("--" + key + " expects an integer, got '" + it->second + "'");
    }
  }

  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      size_t end = 0;
      double v = std::stod(it->second, &end);
      if (end != it->second.size()) throw std::invalid_argument(it->second);
      return v;
    } catch (const std::exception&) {
      fail("--" + key + " expects a number, got '" + it->second + "'");
    }
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool has(const std::string& key) const { return values_.contains(key); }

  /// The given flags outside `known` (as "--key") and any positional
  /// arguments, so a harness can refuse a typo such as --recods instead of
  /// running at its defaults.
  std::vector<std::string> unknown(const std::set<std::string>& known) const {
    std::vector<std::string> out = positional_;
    for (const auto& [key, value] : values_) {
      if (!known.contains(key)) out.push_back("--" + key);
    }
    return out;
  }

  /// Exits 2, printing `usage`, if any argument is outside `known`.
  void reject_unknown(const std::set<std::string>& known,
                      const std::string& usage) const {
    if (auto bad = unknown(known); !bad.empty()) {
      fail("unknown argument '" + bad.front() + "'\nusage: " + usage);
    }
  }

 private:
  [[noreturn]] static void fail(const std::string& message) {
    std::cerr << "error: " << message << "\n";
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Seed of the bench databases' keys and of the IND-CUDA games.
inline constexpr uint64_t kSeed = 20260704;

/// A scheme configuration under test.
struct SchemeConfig {
  std::string label;                 // e.g. "poisson-1000"
  bool encrypted = true;
  core::SaltMethod method = core::SaltMethod::kPoisson;
  double parameter = 1000;
};

inline SchemeConfig plaintext_config() {
  return SchemeConfig{"plaintext", false, core::SaltMethod::kDeterministic, 0};
}

/// The six configurations of Figures 4-7.
inline std::vector<SchemeConfig> paper_query_configs() {
  return {
      plaintext_config(),
      {"fixed-100", true, core::SaltMethod::kFixed, 100},
      {"fixed-1000", true, core::SaltMethod::kFixed, 1000},
      {"poisson-100", true, core::SaltMethod::kPoisson, 100},
      {"poisson-1000", true, core::SaltMethod::kPoisson, 1000},
      {"poisson-10000", true, core::SaltMethod::kPoisson, 10000},
  };
}

/// RAII scratch directory for a bench database.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           ("wre_bench_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// One loaded database (plaintext or encrypted) plus the client state needed
/// to query it.
struct LoadedDb {
  SchemeConfig config;
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<core::EncryptedConnection> conn;  // encrypted configs only
  double load_seconds = 0;

  /// SELECT id equality query: the ids the server returned (with their
  /// tag fan-out when encrypted).
  core::EncryptedQueryResult select_ids(const std::string& column,
                                        const std::string& value) {
    if (config.encrypted) return conn->select_ids("main", column, value);
    core::EncryptedQueryResult out;
    for (const auto& row : plain_query("id", column, value).rows) {
      out.ids.push_back(row[0].as_int64());
    }
    return out;
  }

  /// SELECT * equality query: the (client-filtered) rows.
  core::EncryptedQueryResult select_star(const std::string& column,
                                         const std::string& value) {
    if (config.encrypted) return conn->select_star("main", column, value);
    core::EncryptedQueryResult out;
    out.rows = plain_query("*", column, value).rows;
    return out;
  }

 private:
  sql::ResultSet plain_query(const std::string& what,
                             const std::string& column,
                             const std::string& value) {
    return db->execute("SELECT " + what + " FROM main WHERE " + column +
                       " = " + sql::Value::text(value).to_sql_literal());
  }
};

/// Generates `records` census-like rows once, returning the histogram of the
/// five searchable columns (needed for distributions and query generation).
inline datagen::ColumnHistogram collect_histogram(
    const datagen::RecordGenerator& gen, int64_t records) {
  datagen::ColumnHistogram hist;
  auto schema = datagen::RecordGenerator::schema();
  std::vector<size_t> col_idx;
  for (const auto& col : datagen::RecordGenerator::encrypted_columns()) {
    col_idx.push_back(*schema.index_of(col));
  }
  for (int64_t id = 0; id < records; ++id) {
    auto row = gen.record(id);
    const auto& cols = datagen::RecordGenerator::encrypted_columns();
    for (size_t c = 0; c < cols.size(); ++c) {
      hist.add(cols[c], row[col_idx[c]].as_text());
    }
  }
  return hist;
}

/// Builds and bulk-loads one database under `config`.
///
/// `index_plaintext_columns` controls whether the plaintext baseline gets
/// secondary indexes on the five searchable columns. The query benches
/// (Figures 4-7) index them for a fair latency comparison; the Table I
/// expansion bench turns them off to mirror the paper's accounting, which
/// counts the tag indexes as "additional indexes on the search columns".
///
/// `ingest_threads` selects the load path for encrypted configs: 0 keeps the
/// legacy per-row `insert` loop; N > 0 streams chunks through a persistent
/// core::IngestPipeline with N worker threads (N == 1 exercises the
/// pipeline's serial path, so thread scaling can be measured against it).
/// Only the pipeline path is reproducible: the per-row loop draws salts
/// from the connection's OS-seeded generator.
inline LoadedDb load_database(const SchemeConfig& config,
                              const datagen::RecordGenerator& gen,
                              const datagen::ColumnHistogram& hist,
                              int64_t records,
                              sql::DatabaseOptions db_options = {},
                              bool index_plaintext_columns = true,
                              unsigned ingest_threads = 0) {
  LoadedDb out;
  out.config = config;
  out.dir = std::make_unique<ScratchDir>(config.label);
  out.db = std::make_unique<sql::Database>(out.dir->str(), db_options);
  auto schema = datagen::RecordGenerator::schema();
  const auto& enc_cols = datagen::RecordGenerator::encrypted_columns();

  Timer load;
  if (!config.encrypted) {
    out.db->create_table("main", schema);
    if (index_plaintext_columns) {
      for (const auto& col : enc_cols) out.db->create_index("main", col);
    }
    for (int64_t id = 0; id < records; ++id) {
      out.db->table("main").insert(gen.record(id));
    }
  } else {
    // A fixed master secret fixes every salt set, and the pipeline's fixed
    // stream nonce below fixes each record's salt draw: two loads that
    // differ in one parameter (say lambda) differ only by that parameter.
    auto entropy = crypto::SecureRandom::for_testing(kSeed);
    out.conn = std::make_unique<core::EncryptedConnection>(*out.db,
                                                           entropy.bytes(32));
    std::map<std::string, core::PlaintextDistribution> dists;
    std::vector<core::EncryptedColumnSpec> specs;
    for (const auto& col : enc_cols) {
      dists.emplace(
          col, core::PlaintextDistribution::from_counts(hist.counts(col)));
      specs.push_back(
          core::EncryptedColumnSpec{col, config.method, config.parameter});
    }
    out.conn->create_table("main", schema, specs, dists);
    if (ingest_threads == 0) {
      for (int64_t id = 0; id < records; ++id) {
        out.conn->insert("main", gen.record(id));
      }
    } else {
      core::IngestOptions options;
      options.threads = ingest_threads;
      options.stream_nonce = entropy.bytes(16);
      core::IngestPipeline pipeline(*out.conn, "main", options);
      constexpr int64_t kChunk = 4096;  // bound resident plaintext
      std::vector<sql::Row> chunk;
      chunk.reserve(static_cast<size_t>(std::min(kChunk, records)));
      for (int64_t id = 0; id < records; ++id) {
        chunk.push_back(gen.record(id));
        if (static_cast<int64_t>(chunk.size()) == kChunk) {
          pipeline.ingest(chunk);
          chunk.clear();
        }
      }
      if (!chunk.empty()) pipeline.ingest(chunk);
    }
  }
  out.db->checkpoint();
  out.load_seconds = load.elapsed_seconds();
  return out;
}

/// Statistics helpers.
inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

/// The standard latency summary every harness reports: mean and the
/// p50/p99/p999 tail, computed with ONE sort instead of re-sorting per
/// percentile. Nearest-rank percentiles. For p999 to be
/// meaningful the sample needs >= ~1000 observations; with fewer it
/// degrades to the max, which is still the honest answer.
struct LatencySummary {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;

  static LatencySummary of(std::vector<double> xs) {
    LatencySummary s;
    if (xs.empty()) return s;
    std::sort(xs.begin(), xs.end());
    s.count = xs.size();
    s.mean = std::accumulate(xs.begin(), xs.end(), 0.0) /
             static_cast<double>(xs.size());
    auto at = [&](double p) {
      double rank = p / 100.0 * static_cast<double>(xs.size());
      size_t idx = rank <= 1 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
      return xs[std::min(idx, xs.size() - 1)];
    };
    s.p50 = at(50);
    s.p99 = at(99);
    s.p999 = at(99.9);
    s.max = xs.back();
    return s;
  }

  /// Appends the summary's fields to a JsonReport metrics row under
  /// `prefix` (e.g. "query_ms_"), keeping metric naming uniform across
  /// BENCH_*.json files.
  void append_metrics(const std::string& prefix,
                      std::vector<std::pair<std::string, double>>* metrics)
      const {
    metrics->emplace_back(prefix + "mean", mean);
    metrics->emplace_back(prefix + "p50", p50);
    metrics->emplace_back(prefix + "p99", p99);
    metrics->emplace_back(prefix + "p999", p999);
    metrics->emplace_back(prefix + "max", max);
  }
};

/// Buckets a result size into the paper's decade bands (1, 10, ..., 10000).
inline uint64_t result_band(uint64_t n) {
  uint64_t band = 1;
  while (band < n && band < 10000) band *= 10;
  return band;
}

/// Machine-readable BENCH_*.json emission for the bespoke (non
/// google-benchmark) harnesses, shaped like google-benchmark's JSON output —
/// a "context" object plus a "benchmarks" array — so one consumer script can
/// parse every BENCH_*.json in the repo.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void set_context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  /// One benchmark row: a name plus flat numeric metrics.
  void add(const std::string& name,
           std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back(Row{name, std::move(metrics)});
  }

  /// Writes the file; reports the path on stdout so bench logs say where the
  /// machine-readable copy went.
  void write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "error: cannot write " << path_ << "\n";
      return;
    }
    out << "{\n  \"context\": {";
    for (size_t i = 0; i < context_.size(); ++i) {
      out << (i ? ",\n    " : "\n    ") << escaped(context_[i].first) << ": "
          << escaped(context_[i].second);
    }
    out << "\n  },\n  \"benchmarks\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << (i ? ",\n    {" : "\n    {") << "\"name\": "
          << escaped(rows_[i].name);
      for (const auto& [key, value] : rows_[i].metrics) {
        out << ", " << escaped(key) << ": " << format_number(value);
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << path_ << "\n";
  }

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  static std::string escaped(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string format_number(double v) {
    char buf[32];
    // %.17g round-trips doubles; integers render without a trailing ".0".
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Row> rows_;
};

/// Injects `--benchmark_out=<default_path>` (JSON format) into a
/// google-benchmark binary's argv unless the caller passed --benchmark_out
/// themselves — the shared "always emit BENCH_*.json" policy.
///
///   bench::GBenchArgs gargs(argc, argv, "BENCH_crypto.json");
///   benchmark::Initialize(gargs.argc(), gargs.argv());
class GBenchArgs {
 public:
  GBenchArgs(int argc, char** argv, const std::string& default_out) {
    for (int i = 0; i < argc; ++i) storage_.emplace_back(argv[i]);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
      if (storage_[static_cast<size_t>(i)].rfind("--benchmark_out=", 0) == 0) {
        has_out = true;
      }
    }
    if (!has_out) {
      storage_.push_back("--benchmark_out=" + default_out);
      storage_.push_back("--benchmark_out_format=json");
    }
    for (std::string& s : storage_) ptrs_.push_back(s.data());
    argc_ = static_cast<int>(ptrs_.size());
  }

  int* argc() { return &argc_; }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
  int argc_ = 0;
};

}  // namespace wre::bench

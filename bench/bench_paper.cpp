// The paper's evaluation from one harness: one subcommand per table or
// figure of Section VI, plus the Section V security results.
//
//   $ ./bench_paper <subcommand> [--records N] [--queries Q] [--trials T]
//         [--threads N] [--io-us U] [--out BENCH_paper.json]
//
// Each subcommand computes its rows once. One printer renders them as text
// tables and the same rows go to the JSON file. A subcommand also states the
// paper's shapes as named checks over its rows; no check reads a wall-clock
// time. The process exits 1 if a check fails, and 2 on an unknown subcommand
// or on a flag the chosen subcommands never read. `bench_paper` with no
// arguments lists the subcommands and the flags each one reads.
//
// Defaults (20000 records, 60 queries, 200 trials) take minutes. The
// paper_fidelity ctest runs `all` at 3000 records, 20 queries, 10 trials.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>

#include "bench/bench_common.h"
#include "src/attack/capped_exponential.h"
#include "src/attack/frequency_attack.h"
#include "src/attack/ind_cuda.h"
#include "src/datagen/vocabulary.h"

using namespace wre;

namespace {

struct Options {
  int64_t records = 20000;
  int64_t queries = 60;
  int64_t trials = 200;
  int64_t threads = 1;
  int64_t io_us = 100;
};

using Metrics = std::vector<std::pair<std::string, double>>;

/// One subcommand's output: rows of named metrics plus named shape checks.
class Section {
 public:
  explicit Section(std::string name) : name_(std::move(name)) {}

  void row(const std::string& name, Metrics metrics) {
    rows_.push_back(Row{name, std::move(metrics)});
  }

  void check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
  }

  bool ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const auto& c) { return c.second; });
  }

  /// Prints every run of rows that share metric names as one table, then
  /// the checks.
  void print() const {
    std::cout << "\n## " << name_ << "\n";
    for (size_t begin = 0; begin < rows_.size();) {
      size_t end = begin + 1;
      while (end < rows_.size() &&
             same_names(rows_[end].metrics, rows_[begin].metrics)) {
        ++end;
      }
      print_table(begin, end);
      begin = end;
    }
    for (const auto& [name, ok] : checks_) {
      std::cout << (ok ? "PASS  " : "FAIL  ") << name << "\n";
    }
  }

  void append_to(bench::JsonReport& report) const {
    for (const Row& r : rows_) report.add(name_ + "/" + r.name, r.metrics);
    for (const auto& [name, ok] : checks_) {
      report.add(name_ + "/check/" + name, {{"pass", ok ? 1.0 : 0.0}});
    }
  }

 private:
  struct Row {
    std::string name;
    Metrics metrics;
  };

  static bool same_names(const Metrics& a, const Metrics& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) {
                        return x.first == y.first;
                      });
  }

  void print_table(size_t begin, size_t end) const {
    std::vector<std::vector<std::string>> cells(1, {""});
    for (const auto& [key, value] : rows_[begin].metrics) {
      cells[0].push_back(key);
    }
    for (size_t r = begin; r < end; ++r) {
      cells.push_back({rows_[r].name});
      for (const auto& [key, value] : rows_[r].metrics) {
        char buf[32];
        bool whole = std::abs(value) >= 1e4 && std::abs(value) < 1e15;
        std::snprintf(buf, sizeof(buf), whole ? "%.0f" : "%.4g", value);
        cells.back().push_back(buf);
      }
    }
    std::vector<size_t> width(cells[0].size(), 0);
    for (const auto& line : cells) {
      for (size_t c = 0; c < line.size(); ++c) {
        width[c] = std::max(width[c], line[c].size());
      }
    }
    std::cout << "\n";
    for (const auto& line : cells) {
      std::cout << line[0] << std::string(width[0] - line[0].size(), ' ');
      for (size_t c = 1; c < line.size(); ++c) {
        std::cout << std::string(width[c] - line[c].size() + 2, ' ')
                  << line[c];
      }
      std::cout << "\n";
    }
  }

  std::string name_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, bool>> checks_;
};

bool strictly_falling(const std::vector<double>& xs) {
  return std::adjacent_find(xs.begin(), xs.end(), std::less_equal<>()) ==
         xs.end();
}

bool strictly_rising(const std::vector<double>& xs) {
  return std::adjacent_find(xs.begin(), xs.end(), std::greater_equal<>()) ==
         xs.end();
}

std::string number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

core::PlaintextDistribution distribution_of(
    const datagen::WeightedVocabulary& vocab) {
  std::map<std::string, double> probs;
  for (size_t i = 0; i < vocab.size(); ++i) {
    probs[vocab.values()[i]] = vocab.probability(i);
  }
  return core::PlaintextDistribution::from_probabilities(probs);
}

const bench::SchemeConfig kPoisson1000{"poisson-1000", true,
                                       core::SaltMethod::kPoisson, 1000};

// ------------------------------------------------------------------ fig2

// Figure 2: the CCDFs of Exponential(lambda) and CappedExp(lambda, tau), and
// the distinguishing advantage e^{-lambda tau} of the first-salt deviation.
void fig2(const Options&, Section& s) {
  constexpr double kLambda = 10, kTau = 0.25;
  auto series = attack::ccdf_series(kLambda, kTau, 2 * kTau, 26);
  bool agree = true;
  for (size_t i = 0; i < series.x.size(); ++i) {
    s.row("ccdf/" + std::to_string(i), {{"x", series.x[i]},
                                        {"exponential", series.exponential[i]},
                                        {"capped", series.capped[i]}});
    if (series.x[i] < kTau) {
      agree = agree && std::abs(series.exponential[i] - series.capped[i]) <
                           1e-12;
    }
  }
  bool exact = true;
  for (double lambda : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    double d = attack::capped_exponential_distance(lambda, kTau);
    s.row("distance/lambda=" + number(lambda),
          {{"lambda", lambda}, {"tau", kTau}, {"advantage", d}});
    double expected = std::exp(-lambda * kTau);
    exact = exact && std::abs(d - expected) <= 1e-12 * expected;
  }
  s.check("CCDFs agree below tau", agree);
  s.check("distance = e^{-lambda tau}", exact);
}

// ---------------------------------------------------------------- table1

// Table I: DB and DB+indexes size, plaintext vs encrypted. The plaintext
// baseline has only its primary-key index, as in the paper's accounting: the
// tag indexes count as encryption overhead. Mean record bytes are measured
// from the heap records each table stores.
void table1(const Options& o, Section& s) {
  datagen::RecordGenerator gen;  // default ~1.1 KB records, as the paper
  auto hist = bench::collect_histogram(gen, o.records);
  auto plain = bench::load_database(bench::plaintext_config(), gen, hist,
                                    o.records, {},
                                    /*index_plaintext_columns=*/false);
  // Expansion does not depend on the salt method (same columns, same tag
  // type); use the paper's primary construction.
  auto enc = bench::load_database(kPoisson1000, gen, hist, o.records);

  struct Size {
    double data, all, record;
  };
  auto size_of = [](bench::LoadedDb& db) {
    uint64_t bytes = 0, records = 0;
    db.db->table("main").scan_records([&](ByteView r) {
      bytes += r.size();
      ++records;
    });
    double data = static_cast<double>(db.db->data_size_bytes());
    return Size{data, data + static_cast<double>(db.db->index_size_bytes()),
                static_cast<double>(bytes) /
                    static_cast<double>(std::max<uint64_t>(records, 1))};
  };
  Size p = size_of(plain), e = size_of(enc);
  constexpr double kMiB = 1024.0 * 1024.0;
  for (const auto& [label, x] : {std::pair{"plaintext", p}, {"encrypted", e}}) {
    s.row(label, {{"db_mib", x.data / kMiB},
                  {"db_indexes_mib", x.all / kMiB},
                  {"record_bytes", x.record},
                  {"x_db", x.data / p.data},
                  {"x_db_indexes", x.all / p.all},
                  {"x_record", x.record / p.record}});
  }
  double expansion = e.all / p.all;
  s.check("1 < encrypted/plaintext DB+indexes < 2",
          expansion > 1 && expansion < 2);
}

// -------------------------------------------------------------- creation

// Section VI-B: bulk-load time, plaintext vs encrypted (the paper reports
// ~9x at 10M records), per-row inserts vs the ingest pipeline with
// --threads workers. Report only: timings are never checked.
void creation(const Options& o, Section& s) {
  datagen::RecordGenerator gen;
  auto hist = bench::collect_histogram(gen, o.records);
  // Subtract generation cost so the comparison isolates load work.
  Timer gen_timer;
  for (int64_t id = 0; id < o.records; ++id) (void)gen.record(id);
  double gen_seconds = gen_timer.elapsed_seconds();

  auto threads = static_cast<unsigned>(o.threads);
  auto plain =
      bench::load_database(bench::plaintext_config(), gen, hist, o.records);
  auto per_row = bench::load_database(kPoisson1000, gen, hist, o.records);
  auto piped = bench::load_database(kPoisson1000, gen, hist, o.records, {},
                                    true, threads);

  double base = plain.load_seconds - gen_seconds;
  for (const auto& [label, db] :
       {std::pair<std::string, bench::LoadedDb*>{"plaintext", &plain},
        {"encrypted_per_row", &per_row},
        {"encrypted_pipeline_" + std::to_string(threads) + "t", &piped}}) {
    double seconds = std::max(db->load_seconds - gen_seconds, 1e-9);
    s.row(label, {{"seconds", seconds},
                  {"records_per_s", static_cast<double>(o.records) / seconds},
                  {"x_plaintext", seconds / std::max(base, 1e-9)}});
  }
}

// ---------------------------------------------------------------- fig4_7

// Figures 4-7: equality-query latency by result size for the six paper
// configurations, in four regimes. Cold clears the buffer pool before every
// query, with a synthetic per-page read latency (--io-us) standing in for
// the testbed's disks. Latency is reported; the checks cover only the tag
// fan-out, which does not depend on timing.
void fig4_7(const Options& o, Section& s) {
  datagen::RecordGenerator gen;
  auto hist = bench::collect_histogram(gen, o.records);
  datagen::QueryGenerator qgen(hist,
                               datagen::RecordGenerator::encrypted_columns());
  auto queries = qgen.generate(static_cast<size_t>(o.queries));
  auto io_us = static_cast<uint32_t>(o.io_us);

  std::vector<bench::LoadedDb> dbs;
  for (const auto& config : bench::paper_query_configs()) {
    dbs.push_back(bench::load_database(config, gen, hist, o.records));
  }
  std::map<std::string, std::vector<double>> tags;  // label -> per query

  struct Regime {
    int fig;
    bool cold, star;
  };
  for (Regime regime : {Regime{4, true, false}, Regime{5, true, true},
                        Regime{6, false, false}, Regime{7, false, true}}) {
    auto run = [&](bench::LoadedDb& db, const datagen::EqualityQuery& q) {
      return regime.star ? db.select_star(q.column, q.value)
                         : db.select_ids(q.column, q.value);
    };
    // band -> label -> latencies (ms)
    std::map<uint64_t, std::map<std::string, std::vector<double>>> bands;
    for (auto& db : dbs) {
      db.db->disk().set_read_latency_micros(io_us);
      if (!regime.cold) {
        for (const auto& q : queries) run(db, q);  // prime the cache
      }
      for (const auto& q : queries) {
        if (regime.cold) db.db->clear_cache();
        Timer t;
        auto result = run(db, q);
        bands[bench::result_band(q.expected_count)][db.config.label]
            .push_back(t.elapsed_millis());
        if (regime.fig == 4) {
          tags[db.config.label].push_back(
              static_cast<double>(result.tags_in_query));
        }
      }
      db.db->disk().set_read_latency_micros(0);
    }
    for (const auto& [band, by_label] : bands) {
      Metrics m = {{"queries", static_cast<double>(
                                   by_label.begin()->second.size())}};
      for (const auto& db : dbs) {
        m.emplace_back(db.config.label + "_ms",
                       bench::mean(by_label.at(db.config.label)));
      }
      s.row("fig" + std::to_string(regime.fig) +
                (regime.cold ? "_cold" : "_warm") +
                (regime.star ? "_star" : "_id") + "/band_" +
                std::to_string(band),
            std::move(m));
    }
  }

  for (const auto& db : dbs) {
    s.row("tags/" + db.config.label,
          {{"mean_tags_in_query", bench::mean(tags[db.config.label])},
           {"load_s", db.load_seconds}});
  }
  auto mean_tags = [&](const std::string& label) {
    return bench::mean(tags[label]);
  };
  s.check("poisson tags_in_query is non-decreasing in lambda",
          mean_tags("poisson-100") <= mean_tags("poisson-1000") &&
              mean_tags("poisson-1000") <= mean_tags("poisson-10000"));
  s.check("fixed-1000 tags_in_query > fixed-100",
          mean_tags("fixed-1000") > mean_tags("fixed-100"));
}

// ---------------------------------------------------------------- fig8_9

// Figures 8 and 9: per query, x = rows returned under Poisson (the true
// result size: Poisson has no false positives) and y = rows returned under
// bucketized Poisson, at lambda 1000 (Fig. 8) and 10000 (Fig. 9). Low lambda
// masks result sizes; high lambda tracks them.
void fig8_9(const Options& o, Section& s) {
  datagen::GeneratorOptions opts;
  opts.notes_bytes = 200;  // payload size does not affect counts
  datagen::RecordGenerator gen(opts);
  auto hist = bench::collect_histogram(gen, o.records);
  datagen::QueryGenerator qgen(hist,
                               datagen::RecordGenerator::encrypted_columns());
  auto queries = qgen.generate(static_cast<size_t>(o.queries));

  // Loaded through the ingest pipeline, whose salt draws are reproducible,
  // so the two passes differ only by lambda.
  auto load = [&](const bench::SchemeConfig& config) {
    return bench::load_database(config, gen, hist, o.records, {}, true, 1);
  };
  std::vector<double> correlations, masking;
  int fig = 8;
  for (double lambda : {1000.0, 10000.0}) {
    auto pdb = load({"poisson", true, core::SaltMethod::kPoisson, lambda});
    auto bdb = load(
        {"bucketized", true, core::SaltMethod::kBucketizedPoisson, lambda});
    std::string prefix = "fig" + std::to_string(fig++);

    std::vector<double> lx, ly;
    bool superset = true;
    double ratio_sum = 0;
    size_t small = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto& q = queries[i];
      auto rows = [&](bench::LoadedDb& db) {
        return static_cast<double>(db.select_ids(q.column, q.value).ids.size());
      };
      double x = rows(pdb), y = rows(bdb);
      s.row(prefix + "/q" + std::to_string(i) + "_" + q.column,
            {{"poisson_rows", x}, {"bucketized_rows", y}});
      superset = superset && y >= x;
      // Log-counts: raw-count correlation is dominated by the largest
      // query, while the masking the paper shows lives at small sizes.
      lx.push_back(std::log1p(x));
      ly.push_back(std::log1p(y));
      if (x <= 100) {  // masking: how much larger is the returned set?
        ratio_sum += (y + 1) / (x + 1);
        ++small;
      }
    }
    double mx = bench::mean(lx), my = bench::mean(ly);
    double sxy = 0, sxx = 0, syy = 0;
    for (size_t i = 0; i < lx.size(); ++i) {
      sxy += (lx[i] - mx) * (ly[i] - my);
      sxx += (lx[i] - mx) * (lx[i] - mx);
      syy += (ly[i] - my) * (ly[i] - my);
    }
    correlations.push_back(sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy)
                                              : 0);
    masking.push_back(small ? ratio_sum / static_cast<double>(small) : 0);
    s.row(prefix + "/summary", {{"lambda", lambda},
                                {"log_correlation", correlations.back()},
                                {"masking_ratio_le100", masking.back()},
                                {"queries_le100", static_cast<double>(small)}});
    s.check(prefix + ": bucketized returns at least the Poisson rows",
            superset);
  }
  s.check("masking ratio falls as lambda grows", strictly_falling(masking));
  s.check("log-correlation rises as lambda grows",
          strictly_rising(correlations));
}

// -------------------------------------------------------------- ind_cuda

// The executable IND-CUDA game (Definition 7): the collision adversary's
// success rate (chance = 0.5) on crowd vs clone (all-distinct vs
// all-identical lists) and on matched profiles (same multiplicity shape,
// disjoint values: the setting Theorem V.1 targets). With few trials only
// DET and fixed salts are stable enough to check; attack_test's IndCuda
// suite pins the lambda trend.
void ind_cuda(const Options& o, Section& s) {
  constexpr int kListSize = 48;
  std::vector<std::string> crowd, clone, left, right;
  for (int i = 0; i < kListSize; ++i) {
    crowd.push_back("user" + std::to_string(i));
    clone.push_back("userX");
    left.push_back("l" + std::to_string(i / 8));  // n/8 values x 8 copies
    right.push_back("r" + std::to_string(i / 8));
  }
  using M = core::SaltMethod;
  const std::vector<bench::SchemeConfig> schemes = {
      {"deterministic", true, M::kDeterministic, 0},
      {"fixed-4", true, M::kFixed, 4},
      {"fixed-32", true, M::kFixed, 32},
      {"poisson-200", true, M::kPoisson, 200},
      {"poisson-2000", true, M::kPoisson, 2000},
      // The clone list can collide on a tag (~n^2/2lambda expected
      // collisions) while the crowd's PRF-separated tags never do, so
      // closing the collision channel needs lambda >> n^2.
      {"poisson-20000", true, M::kPoisson, 20000},
      {"bucketized-200", true, M::kBucketizedPoisson, 200},
      {"bucketized-2000", true, M::kBucketizedPoisson, 2000},
      {"bucketized-20000", true, M::kBucketizedPoisson, 20000},
  };
  auto trials = static_cast<uint64_t>(o.trials);
  uint64_t seed = bench::kSeed;
  bool det_fixed_win = true;
  for (const auto& scheme : schemes) {
    attack::SchemeFactory factory =
        [scheme](const core::PlaintextDistribution& dist,
                 crypto::SecureRandom& keygen) {
          auto keys = crypto::KeyBundle::generate(keygen);
          auto alloc = core::make_salt_allocator(
              scheme.method, scheme.parameter, &dist, keys.shuffle_key,
              to_bytes("sweep"));
          return std::make_unique<core::WreScheme>(std::move(keys),
                                                   std::move(alloc));
        };
    auto adversary = attack::make_collision_adversary(factory, 4, seed + 1);
    double extreme =
        attack::run_ind_cuda(factory, crowd, clone, adversary, trials, seed)
            .success_rate;
    double matched =
        attack::run_ind_cuda(factory, left, right, adversary, trials, seed)
            .success_rate;
    s.row(scheme.label,
          {{"crowd_vs_clone", extreme}, {"matched_profile", matched}});
    if (scheme.method == M::kDeterministic || scheme.method == M::kFixed) {
      det_fixed_win = det_fixed_win && extreme == 1.0;
    }
    seed += 17;
  }
  s.check("deterministic and fixed win crowd-vs-clone every trial",
          det_fixed_win);
}

// ---------------------------------------------------------- salt_schemes

// Section V: the snapshot adversary (rank matching, mass matching and
// Lacharite-Paterson subset-sum, with the exact distribution as auxiliary
// knowledge) against every getSalts strategy on a census first-name column
// of --records rows. subsetsum is the attribution precision of the tag set
// found for the most frequent name (-1: none within budget).
void salt_schemes(const Options& o, Section& s) {
  auto dist = distribution_of(datagen::census_first_names(100));
  auto keygen = crypto::SecureRandom::for_testing(1);
  auto keys = crypto::KeyBundle::generate(keygen);
  attack::AuxDistribution aux;
  for (const auto& m : dist.messages()) aux[m] = dist.probability(m);
  std::vector<double> cdf;
  for (const auto& m : dist.messages()) {
    cdf.push_back((cdf.empty() ? 0 : cdf.back()) + dist.probability(m));
  }
  std::string top = dist.messages().front();
  for (const auto& m : dist.messages()) {
    if (dist.probability(m) > dist.probability(top)) top = m;
  }
  auto records = static_cast<uint64_t>(o.records);

  using M = core::SaltMethod;
  struct Scheme {
    bench::SchemeConfig config;
    uint64_t seed;
  };
  // Proportional 1013 is a deliberately aliasing-prone N_T (Section V-B).
  const std::vector<Scheme> schemes = {
      {{"deterministic", true, M::kDeterministic, 0}, 10},
      {{"fixed-10", true, M::kFixed, 10}, 30},
      {{"fixed-100", true, M::kFixed, 100}, 120},
      {{"fixed-1000", true, M::kFixed, 1000}, 1020},
      {{"proportional-100", true, M::kProportional, 100}, 140},
      {{"proportional-1000", true, M::kProportional, 1000}, 1040},
      {{"proportional-1013", true, M::kProportional, 1013}, 1053},
      {{"poisson-100", true, M::kPoisson, 100}, 60},
      {{"poisson-1000", true, M::kPoisson, 1000}, 60},
      {{"poisson-10000", true, M::kPoisson, 10000}, 60},
      {{"bucketized-1000", true, M::kBucketizedPoisson, 1000}, 70},
      {{"bucketized-10000", true, M::kBucketizedPoisson, 10000}, 70},
  };
  std::map<std::string, double> mass;
  for (const auto& [config, seed] : schemes) {
    auto scheme_keys = crypto::SecureRandom::for_testing(seed);
    core::WreScheme scheme(
        crypto::KeyBundle::generate(scheme_keys),
        core::make_salt_allocator(config.method, config.parameter, &dist,
                                  keys.shuffle_key, to_bytes("abl")));
    // Sample the column from the distribution and encrypt it.
    auto rng = crypto::SecureRandom::for_testing(seed + 1);
    attack::TagHistogram tags;
    std::vector<std::pair<crypto::Tag, std::string>> truth;
    for (uint64_t i = 0; i < records; ++i) {
      auto idx = std::min<size_t>(
          static_cast<size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), rng.next_double()) -
              cdf.begin()),
          cdf.size() - 1);
      const std::string& m = dist.messages()[idx];
      auto cell = scheme.encrypt(m, rng);
      ++tags[cell.tag];
      truth.emplace_back(cell.tag, m);
    }

    double rank = attack::score_assignment(
                      attack::rank_matching_attack(tags, aux), truth)
                      .recovery_rate;
    mass[config.label] =
        attack::score_assignment(
            attack::mass_matching_attack(tags, aux, records), truth)
            .recovery_rate;
    auto subset = attack::subset_sum_attack(tags, dist.probability(top),
                                            records, 0.02, 500000);
    double precision = -1;
    if (!subset.empty()) {
      std::set<crypto::Tag> chosen(subset.begin(), subset.end());
      uint64_t covered = 0, correct = 0;
      for (const auto& [tag, m] : truth) {
        if (chosen.contains(tag)) {
          ++covered;
          correct += m == top;
        }
      }
      precision = covered == 0 ? 0
                               : static_cast<double>(correct) /
                                     static_cast<double>(covered);
    }
    s.row(config.label, {{"tags", static_cast<double>(tags.size())},
                         {"rank_rec", rank},
                         {"mass_rec", mass[config.label]},
                         {"subsetsum", precision}});
  }
  s.check("mass recovery: deterministic > fixed-10 > fixed-100 > fixed-1000",
          strictly_falling({mass["deterministic"], mass["fixed-10"],
                            mass["fixed-100"], mass["fixed-1000"]}));
  s.check("mass recovery: fixed-1000 > proportional-1000, poisson-1000, "
          "bucketized-1000",
          mass["fixed-1000"] > std::max({mass["proportional-1000"],
                                         mass["poisson-1000"],
                                         mass["bucketized-1000"]}));
  s.check("mass recovery: poisson falls with lambda",
          strictly_falling({mass["poisson-100"], mass["poisson-1000"],
                            mass["poisson-10000"]}));
}

// ---------------------------------------------------------------- lambda

// Section V-C: the lambda trade-off on a 200-name census last-name column.
// First the lambda an operator needs for a target advantage bound omega
// (lambda >= -ln(omega)/tau); then, per lambda, the advantage bound
// e^{-lambda tau}, the tags (index cardinality), the query fan-out and the
// bucketized variant's bucket count and expected false-positive overhead.
void lambda(const Options&, Section& s) {
  auto dist = distribution_of(datagen::census_last_names(200));
  for (double omega : {1e-3, 1e-6, 1e-9, 1e-12}) {
    s.row("omega=" + number(omega),
          {{"omega", omega},
           {"tau", dist.min_probability()},
           {"min_lambda", core::lambda_for_advantage(omega, dist)}});
  }
  auto keygen = crypto::SecureRandom::for_testing(3);
  auto keys = crypto::KeyBundle::generate(keygen);
  std::vector<double> advantage, tags, fp_rate;
  for (double lambda : {10.0, 100.0, 1000.0, 10000.0, 100000.0}) {
    auto poisson = core::make_salt_allocator(
        core::SaltMethod::kPoisson, lambda, &dist, keys.shuffle_key, {});
    size_t total = 0, max_fan = 0;
    for (const auto& m : dist.messages()) {
      size_t n = poisson->salts_for(m).salts.size();
      total += n;
      max_fan = std::max(max_fan, n);
    }
    auto allocator = core::make_salt_allocator(
        core::SaltMethod::kBucketizedPoisson, lambda, &dist, keys.shuffle_key,
        to_bytes("sweep"));
    const auto& bucketized =
        dynamic_cast<const core::BucketizedPoissonAllocator&>(*allocator);
    // A query for m returns every record whose tag is in one of m's
    // buckets: the overhead is (covered mass - P(m)) / P(m).
    double fp_sum = 0;
    for (const auto& m : dist.messages()) {
      double covered = 0;
      for (uint64_t b : bucketized.salts_for(m).salts) {
        covered += bucketized.bucket_width(static_cast<size_t>(b));
      }
      fp_sum += (covered - dist.probability(m)) / dist.probability(m);
    }
    auto support = static_cast<double>(dist.support_size());
    advantage.push_back(core::advantage_for_lambda(lambda, dist));
    tags.push_back(static_cast<double>(total));
    fp_rate.push_back(fp_sum / support);
    s.row("lambda=" + number(lambda),
          {{"lambda", lambda},
           {"advantage", advantage.back()},
           {"tags", tags.back()},
           {"mean_fanout", tags.back() / support},
           {"max_fanout", static_cast<double>(max_fan)},
           {"buckets", static_cast<double>(bucketized.bucket_count())},
           {"fp_rate", fp_rate.back()}});
  }
  s.check("advantage falls with lambda", strictly_falling(advantage));
  s.check("bucketized false-positive rate falls with lambda",
          strictly_falling(fp_rate));
  s.check("tags grow with lambda", strictly_rising(tags));
}

// ------------------------------------------------------------------ main

struct Subcommand {
  const char* name;
  const char* summary;
  std::vector<std::string> flags;
  void (*run)(const Options&, Section&);
};

const std::vector<Subcommand> kSubcommands = {
    {"fig2", "Figure 2: capped vs standard Exponential", {}, fig2},
    {"table1", "Table I: ciphertext expansion", {"records"}, table1},
    {"creation", "Section VI-B: database creation time",
     {"records", "threads"}, creation},
    {"fig4_7", "Figures 4-7: query latency by result size",
     {"records", "queries", "io-us"}, fig4_7},
    {"fig8_9", "Figures 8-9: bucketized Poisson false positives",
     {"records", "queries"}, fig8_9},
    {"ind_cuda", "Section V: IND-CUDA advantage per scheme", {"trials"},
     ind_cuda},
    {"salt_schemes", "Section V: inference attacks per getSalts strategy",
     {"records"}, salt_schemes},
    {"lambda", "Section V-C: the lambda trade-off", {}, lambda},
};

int usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: bench_paper <subcommand|all> [flags] "
               "[--out BENCH_paper.json]\n";
  for (const auto& sub : kSubcommands) {
    std::string flags;
    for (const auto& f : sub.flags) flags += " --" + f;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-13s %-52s%s", sub.name,
                  sub.summary, flags.c_str());
    std::string text = line;
    std::cerr << text.substr(0, text.find_last_not_of(' ') + 1) << "\n";
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  std::string which = argv[1];
  std::vector<const Subcommand*> chosen;
  std::set<std::string> known = {"out"};
  for (const auto& sub : kSubcommands) {
    if (which == "all" || which == sub.name) {
      chosen.push_back(&sub);
      known.insert(sub.flags.begin(), sub.flags.end());
    }
  }
  if (chosen.empty()) return usage("unknown subcommand '" + which + "'");
  // Args skips its first entry as the program name: here, the subcommand.
  bench::Args args(argc - 1, argv + 1);
  if (auto bad = args.unknown(known); !bad.empty()) {
    return usage("unknown argument '" + bad.front() + "' for " + which);
  }
  Options o;
  o.records = args.get_int("records", o.records);
  o.queries = args.get_int("queries", o.queries);
  o.trials = args.get_int("trials", o.trials);
  o.threads = args.get_int("threads", o.threads);
  o.io_us = args.get_int("io-us", o.io_us);
  if (std::min({o.records, o.queries, o.trials, o.threads}) < 1 ||
      o.io_us < 0) {
    return usage("--records, --queries, --trials and --threads must be >= 1"
                 " and --io-us >= 0");
  }

  bench::JsonReport report(args.get_string("out", "BENCH_paper.json"));
  report.set_context("bench", "paper");
  report.set_context("subcommand", which);
  report.set_context("records", std::to_string(o.records));
  report.set_context("queries", std::to_string(o.queries));
  report.set_context("trials", std::to_string(o.trials));
  report.set_context("threads", std::to_string(o.threads));
  report.set_context("io_us", std::to_string(o.io_us));
  char seed[160];
  std::snprintf(
      seed, sizeof(seed),
      "records %#llx, queries %#llx, database keys and ind_cuda %llu, "
      "salt_schemes and lambda fixed test seeds",
      static_cast<unsigned long long>(datagen::GeneratorOptions{}.seed),
      static_cast<unsigned long long>(datagen::QueryGeneratorOptions{}.seed),
      static_cast<unsigned long long>(bench::kSeed));
  report.set_context("seed", seed);
  bool ok = true;
  for (const Subcommand* sub : chosen) {
    Section section(sub->name);
    sub->run(o, section);
    section.print();
    section.append_to(report);
    ok = ok && section.ok();
  }
  std::cout << "\n";
  report.write();
  std::cout << (ok ? "all shape checks passed\n" : "SHAPE CHECK FAILED\n");
  return ok ? 0 : 1;
}

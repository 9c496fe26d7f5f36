// pimento_perf — the repository benchmark.
//
// Runs one workload against a generated XMark collection and prints every
// metric as a `metric <name> <value> <unit>` line, then one JSON object as
// the last line of standard output. Untraced runs (--trace 0) give the
// end-to-end metrics; traced runs (--trace 1) call the engine's layers one
// by one from outside (perfbench/pipeline.h), time each call in an
// in-memory span and give the per-layer metrics. Every run checks its
// answers, outside the timed regions, three ways: the layer-by-layer
// pipeline against Execute, batch items against sequential Execute, and
// every distinct (query, profile) pair against the plan-free reference
// evaluator. Any mismatch makes the exit code 1.
//
// Usage:
//   pimento_perf --workload fig5_scan|cold_users|batch_mix --seed N
//                --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//                [--spans FILE] [--git-sha SHA]
//
// --smoke shrinks the document, the user population and the batches so
// that every workload and every check runs in about a second.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/alloc_count.h"
#include "perfbench/calibration.h"
#include "perfbench/pipeline.h"
#include "perfbench/workloads.h"
#include "src/core/engine.h"
#include "src/exec/phrase_count_cache.h"
#include "src/exec/profile_cache.h"
#include "src/exec/profile_store.h"
#include "src/index/collection.h"
#include "src/index/persist.h"
#include "src/profile/ambiguity.h"
#include "src/profile/compiled_profile.h"
#include "src/profile/rule_parser.h"
#include "src/xml/parser.h"

namespace {

namespace fs = std::filesystem;
using pimento::core::BatchOptions;
using pimento::core::BatchResult;
using pimento::core::SearchEngine;
using pimento::core::SearchRequest;
using pimento::core::SearchResult;
using perfbench::AnswerKey;
using perfbench::Request;

constexpr int kTopK = 10;

/// Score tolerance against the reference evaluator: the one the engine's
/// own differential test (tests/reference_eval_test.cc) applies.
constexpr double kReferenceTolerance = 1e-9;

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
  std::string spans;
  std::string git_sha = "unknown";
};

/// Input sizes. The full sizes are the benchmark's definition; --smoke
/// only shrinks them for the benchmark's own tests.
struct Sizes {
  size_t doc_bytes;
  int population;  ///< cold_users: 4x the profile cache's capacity
  int batch;       ///< batch_mix: requests per BatchSearch call
  int setup_reps;  ///< engine builds per run; setup_s is their median
};

Sizes SizesFor(bool smoke) {
  if (smoke) return Sizes{64u << 10, 32, 16, 2};
  return Sizes{1u << 20,
               4 * static_cast<int>(pimento::exec::ProfileCache::kDefaultCapacity),
               64, 21};
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The metrics of one run, in the order they were added.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, ""});
  }
  /// A timing summarized over the run's repetitions: the value plus the
  /// spread (interquartile range over the repetitions, as a share of their
  /// median) and the sample count, printed on the metric's line.
  void AddSummarized(const std::string& name, double value,
                     const std::string& unit, const std::vector<double>& reps,
                     size_t samples) {
    const double med = Median(reps);
    char buf[128];
    std::snprintf(buf, sizeof buf, "reps=%zu spread=%.4f n=%zu", reps.size(),
                  Ratio(Quantile(reps, 0.75) - Quantile(reps, 0.25), med),
                  samples);
    metrics_.push_back({name, value, unit, buf});
  }
  void Note(const std::string& text) { notes_.push_back(text); }

  void Print(const Args& args, bool correct, int64_t attempted,
             int64_t failed) const {
    for (const std::string& note : notes_) {
      std::printf("note %s\n", note.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %-40s %.6g %s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.empty() ? "" : "  ",
                  m.detail.c_str());
    }
    std::string json = "{\"workload\": \"" + args.workload + "\"";
    json += ", \"seed\": " + std::to_string(args.seed);
    json += ", \"trace\": " + std::string(args.trace ? "1" : "0");
    json += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
    json += ", \"git_sha\": \"" + args.git_sha + "\"";
    json += ", \"nproc\": " + std::to_string(Nproc());
    json += ", \"hardware_threads\": " +
            std::to_string(std::thread::hardware_concurrency());
    json += ", \"correct\": " + std::string(correct ? "true" : "false");
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      // %.17g keeps every digit; non-finite values are not valid JSON.
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// The interleaved calibration samples behind bench.ref_ms.
class Calibration {
 public:
  void Sample() {
    samples_.push_back(kernel_.RunMs());
    last_ = NowS();
  }
  /// Samples when kInterval has passed since the last sample, so the
  /// kernel takes a bounded share of the run whatever the request cost.
  void MaybeSample() {
    if (NowS() - last_ >= kInterval) Sample();
  }
  double RefMs() const { return Median(samples_); }
  size_t samples() const { return samples_.size(); }

 private:
  static constexpr double kInterval = 0.1;  // seconds
  perfbench::RefKernel kernel_;
  std::vector<double> samples_;
  double last_ = 0.0;
};

SearchRequest ToSearchRequest(const Request& r) {
  SearchRequest req = SearchRequest::Text(r.query, r.profile);
  req.options.k = kTopK;
  return req;
}

std::string KeyOf(const Request& r) { return r.query + '\n' + r.profile; }

/// The correctness checks. The first sighting of a (query, profile) pair
/// establishes its expected answers from a sequential Execute, which must
/// equal both the layer-by-layer pipeline and the reference evaluator;
/// every later answer for the pair must equal them bit for bit.
class Checker {
 public:
  explicit Checker(const SearchEngine* engine) : engine_(engine) {}

  /// Runs the three-way check for `r` and records its expected answers.
  void Establish(const Request& r) {
    const std::string key = KeyOf(r);
    if (expected_.count(key) != 0) return;
    pimento::StatusOr<SearchResult> executed =
        engine_->Execute(ToSearchRequest(r));
    if (!executed.ok()) {
      Fail("Execute failed: " + executed.status().ToString());
      return;
    }
    std::vector<AnswerKey> answers = perfbench::KeysOf(*executed);
    perfbench::PipelineCounts counts;
    Compare(r, perfbench::RunPipeline(*engine_, r.query, r.profile, kTopK,
                                      nullptr, -1, &counts),
            answers, "pipeline vs Execute", 0.0);
    // The reference evaluator adds the same scores in another order, so
    // its S and K may differ from the plans' in the last bits; node ids
    // and ranks must still agree exactly.
    Compare(r, perfbench::ReferenceAnswers(*engine_, r.query, r.profile, kTopK),
            answers, "reference vs Execute", kReferenceTolerance);
    expected_.emplace(key, std::move(answers));
    ++established_;
  }

  /// Checks answers `got` (from `what`) against the pair's expected ones.
  /// A pair not established yet (a new user's) is checked after the timed
  /// region, by CheckDeferred.
  void Check(const Request& r, const std::vector<AnswerKey>& got,
             const char* what) {
    auto it = expected_.find(KeyOf(r));
    if (it == expected_.end()) {
      deferred_.push_back({r, got, what});
    } else {
      Compare(r, got, it->second, what, 0.0);
    }
  }

  /// Checks the deferred answers, then forgets the pairs it established
  /// for them: new users never come back, and keeping their profiles would
  /// make the checker's memory grow with the number of requests a run
  /// completes.
  void CheckDeferred() {
    std::vector<Deferred> pending = std::move(deferred_);
    deferred_.clear();
    std::vector<std::string> added;
    for (const Deferred& d : pending) {
      const std::string key = KeyOf(d.request);
      if (expected_.count(key) == 0) {
        // Establish fails the run itself when a pair cannot be evaluated.
        Establish(d.request);
        if (expected_.count(key) == 0) continue;
        added.push_back(key);
      }
      Compare(d.request, d.answers, expected_.at(key), d.what, 0.0);
    }
    for (const std::string& key : added) expected_.erase(key);
  }

  void Fail(const std::string& message) {
    ++mismatches_;
    if (mismatches_ <= 5) std::fprintf(stderr, "MISMATCH %s\n", message.c_str());
  }

  int64_t mismatches() const { return mismatches_; }
  /// Distinct (query, profile) pairs established over the run.
  int64_t pairs() const { return established_; }

 private:
  void Compare(const Request& r,
               const pimento::StatusOr<std::vector<AnswerKey>>& got,
               const std::vector<AnswerKey>& want, const char* what,
               double tolerance) {
    if (!got.ok()) {
      Fail(std::string(what) + ": " + got.status().ToString());
    } else if (!perfbench::SameAnswers(*got, want, tolerance)) {
      Fail(std::string(what) + " differs: got [" + perfbench::Describe(*got) +
           "] want [" + perfbench::Describe(want) + "] for query " + r.query);
    }
  }

  struct Deferred {
    Request request;
    std::vector<AnswerKey> answers;
    const char* what;
  };
  const SearchEngine* engine_;
  std::unordered_map<std::string, std::vector<AnswerKey>> expected_;
  std::vector<Deferred> deferred_;
  int64_t established_ = 0;
  int64_t mismatches_ = 0;
};

/// Per-request samples of the traced run, aggregated into the per-layer
/// metrics at the end.
struct LayerSamples {
  perfbench::SpanRecorder spans;
  std::vector<double> execute_ms;   ///< untraced Execute, same request mix
  std::vector<double> execute_allocs;
  int64_t requests = 0;
  double flock_members = 0, hom_runs = 0, candidates = 0, operators = 0;
  double scanned = 0, kor_consumed = 0, pruned = 0, sorted = 0, emitted = 0;
  double blocks_skipped = 0, blocks_visited = 0;
  double cursor_skipped = 0, cursor_visited = 0;
  /// Per-request exact counts of the first measured pass; later passes
  /// must repeat them (single-client workloads).
  std::vector<std::vector<int64_t>> pass_counts;
  bool counts_repeat = true;
  std::vector<double> profile_parse_us, ambiguity_us, compile_us;

  void Add(const perfbench::PipelineCounts& c) {
    ++requests;
    flock_members += c.flock_members;
    hom_runs += static_cast<double>(c.flock.hom_runs);
    candidates += static_cast<double>(c.flock.candidates);
    operators += c.plan_operators;
    scanned += static_cast<double>(c.plan.scanned);
    kor_consumed += static_cast<double>(c.plan.kor_consumed);
    pruned += static_cast<double>(c.plan.pruned_by_topk);
    sorted += static_cast<double>(c.plan.sorted);
    emitted += static_cast<double>(c.plan.emitted);
    blocks_skipped += static_cast<double>(c.plan.blocks_skipped);
    blocks_visited += static_cast<double>(c.plan.blocks_visited);
    cursor_skipped += static_cast<double>(c.plan.cursor_blocks_skipped);
    cursor_visited += static_cast<double>(c.plan.cursor_blocks_visited);
  }
};

/// The layer spans of one request, as exact counts (allocations per layer
/// and the plan counters) for the pass-to-pass repeat check.
std::vector<int64_t> ExactCounts(const perfbench::SpanRecorder& spans,
                                 size_t first_span,
                                 const perfbench::PipelineCounts& c,
                                 int64_t execute_allocs) {
  std::vector<int64_t> out;
  // The root span is skipped: its count includes the recorder's own
  // bookkeeping for the layer spans.
  for (size_t i = first_span; i < spans.spans().size(); ++i) {
    if (spans.spans()[i].parent >= 0) out.push_back(spans.spans()[i].allocs);
  }
  out.push_back(execute_allocs);
  out.push_back(c.plan.scanned);
  out.push_back(c.flock.hom_runs);
  return out;
}

class Bench {
 public:
  Bench(Args args, Sizes sizes) : args_(std::move(args)), sizes_(sizes) {}

  int Run();

 private:
  void Setup();
  /// One timed SearchEngine::FromXml; the first one becomes the engine.
  void SetupRep();
  void SetupLayers(const std::string& xml);
  /// Called between timed repetitions: a calibration sample and a setup
  /// repetition, each when due.
  void Interleave();
  void RunFig5Scan();
  void RunColdUsers();
  void RunBatchMix();

  /// One untraced Execute: latency in ms, answers checked against the
  /// pair's expected ones. `allocs` receives the call's allocation count.
  double TimedExecute(const Request& r, const SearchRequest& req,
                      const char* what, int64_t* allocs = nullptr);
  /// One traced pipeline run, checked; returns the request's first span.
  size_t TracedPipeline(const Request& r, perfbench::PipelineCounts* counts);
  /// Times ParseProfile, DetectAmbiguity and CompileRules on `text`.
  void TimeProfileLayers(const std::string& text);
  /// Records one pass's exact counts and compares with the first pass.
  void RecordPass(std::vector<std::vector<int64_t>> pass);

  struct CacheCounters {
    pimento::exec::ProfileCache::CacheStats profile;
    pimento::exec::PhraseCountCache::CacheStats phrase;
  };
  CacheCounters ReadCaches() const {
    return {engine_->profile_cache().GetStats(),
            engine_->phrase_count_cache().GetStats()};
  }
  /// The cache metrics of the traced run, from the counters' change over
  /// it (so warm-up does not count).
  void SetCacheDeltas(const CacheCounters& before, const CacheCounters& after);

  void ReportEndToEnd();
  void ReportLayers();

  Args args_;
  Sizes sizes_;
  Report report_;
  Calibration calib_;
  std::string xml_;
  std::optional<SearchEngine> engine_;
  std::optional<Checker> checker_;

  // Untraced run.
  std::vector<double> setup_s_;
  double next_setup_at_ = 0.0;
  std::vector<double> latency_ms_;
  std::vector<double> rep_wall_s_;  ///< wall of each timed repetition
  std::vector<size_t> rep_end_;     ///< latency_ms_ size at each rep's end
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  const char* latency_note_ = nullptr;

  // Traced run.
  LayerSamples layers_;
  std::vector<double> xml_parse_ms_, index_build_ms_, index_save_ms_,
      index_load_ms_;
  double image_bytes_per_xml_byte_ = 0.0;
  double profile_cache_hit_rate_ = 0.0, profile_cache_evictions_ = 0.0;
  double phrase_cache_hit_rate_ = 0.0, phrase_cache_evictions_ = 0.0,
         phrase_cache_bytes_ = 0.0;
  double store_hit_rate_ = 0.0, store_appends_ = 0.0,
         store_bytes_per_profile_ = 0.0;
  double batch_wall_ms_ = 0.0, worker_busy_frac_ = 0.0,
         scaling_efficiency_ = 0.0;
};

void Bench::Setup() {
  xml_ = perfbench::XmarkText(sizes_.doc_bytes, args_.seed);
  if (args_.trace) {
    SetupLayers(xml_);
  } else {
    // The first of the setup_s repetitions; the rest are spread over the
    // timed loop (Interleave), so setup_s sees the same machine as the
    // requests do rather than only its state at start-up.
    SetupRep();
  }
  checker_.emplace(&*engine_);
}

void Bench::SetupRep() {
  const double t0 = NowS();
  pimento::StatusOr<SearchEngine> built = SearchEngine::FromXml(xml_);
  setup_s_.push_back(NowS() - t0);
  if (!built.ok()) {
    std::fprintf(stderr, "FromXml failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  if (!engine_.has_value()) engine_.emplace(*std::move(built));
}

void Bench::Interleave() {
  calib_.MaybeSample();
  if (args_.trace || static_cast<int>(setup_s_.size()) >= sizes_.setup_reps) {
    return;
  }
  const double now = NowS();
  if (now < next_setup_at_) return;
  SetupRep();
  next_setup_at_ = now + args_.seconds / sizes_.setup_reps;
}

void Bench::SetupLayers(const std::string& xml) {
  const std::string image = args_.workdir + "/collection.pimento";
  for (int r = 0; r < sizes_.setup_reps; ++r) {
    engine_.reset();
    calib_.Sample();
    double t0 = NowS();
    pimento::StatusOr<pimento::xml::Document> doc =
        pimento::xml::ParseXml(xml);
    xml_parse_ms_.push_back((NowS() - t0) * 1e3);
    if (!doc.ok()) {
      std::fprintf(stderr, "ParseXml failed: %s\n",
                   doc.status().ToString().c_str());
      std::exit(2);
    }
    t0 = NowS();
    pimento::index::Collection collection =
        pimento::index::Collection::Build(*std::move(doc));
    index_build_ms_.push_back((NowS() - t0) * 1e3);

    t0 = NowS();
    pimento::Status saved = pimento::index::SaveCollection(collection, image);
    index_save_ms_.push_back((NowS() - t0) * 1e3);
    t0 = NowS();
    pimento::StatusOr<pimento::index::Collection> loaded =
        pimento::index::LoadCollection(image);
    index_load_ms_.push_back((NowS() - t0) * 1e3);
    if (!saved.ok() || !loaded.ok()) {
      std::fprintf(stderr, "collection image round trip failed: %s %s\n",
                   saved.ToString().c_str(),
                   loaded.status().ToString().c_str());
      std::exit(2);
    }
    image_bytes_per_xml_byte_ =
        static_cast<double>(fs::file_size(image)) /
        static_cast<double>(xml.size());
    engine_.emplace(std::move(collection));
  }
  fs::remove(image);
}

double Bench::TimedExecute(const Request& r, const SearchRequest& req,
                           const char* what, int64_t* allocs) {
  const int64_t a0 = perfbench::ThreadAllocs();
  const double t0 = NowS();
  pimento::StatusOr<SearchResult> result = engine_->Execute(req);
  const double ms = (NowS() - t0) * 1e3;
  if (allocs != nullptr) *allocs = perfbench::ThreadAllocs() - a0;
  ++attempted_;
  if (!result.ok()) {
    ++failed_;
    checker_->Fail(std::string(what) + " failed: " +
                   result.status().ToString());
  } else {
    checker_->Check(r, perfbench::KeysOf(*result), what);
  }
  return ms;
}

size_t Bench::TracedPipeline(const Request& r,
                             perfbench::PipelineCounts* counts) {
  const size_t first = layers_.spans.spans().size();
  pimento::StatusOr<std::vector<AnswerKey>> got = perfbench::RunPipeline(
      *engine_, r.query, r.profile, kTopK, &layers_.spans,
      static_cast<int>(layers_.requests), counts);
  if (!got.ok()) {
    checker_->Fail("traced pipeline failed: " + got.status().ToString());
  } else {
    checker_->Check(r, *got, "traced pipeline vs Execute");
  }
  layers_.Add(*counts);
  return first;
}

void Bench::TimeProfileLayers(const std::string& text) {
  double t0 = NowS();
  pimento::StatusOr<pimento::profile::UserProfile> parsed =
      pimento::profile::ParseProfile(text);
  layers_.profile_parse_us.push_back((NowS() - t0) * 1e6);
  if (!parsed.ok()) {
    checker_->Fail("ParseProfile failed: " + parsed.status().ToString());
    return;
  }
  t0 = NowS();
  const pimento::profile::AmbiguityReport ambiguity =
      pimento::profile::DetectAmbiguity(parsed->vors);
  layers_.ambiguity_us.push_back((NowS() - t0) * 1e6);
  t0 = NowS();
  const pimento::profile::CompiledRules compiled =
      pimento::profile::CompileRules(parsed->scoping_rules);
  layers_.compile_us.push_back((NowS() - t0) * 1e6);
}

void Bench::SetCacheDeltas(const CacheCounters& before,
                           const CacheCounters& after) {
  const double hits =
      static_cast<double>(after.profile.hits - before.profile.hits);
  const double misses =
      static_cast<double>(after.profile.misses - before.profile.misses);
  profile_cache_hit_rate_ = Ratio(hits, hits + misses);
  profile_cache_evictions_ =
      static_cast<double>(after.profile.evictions - before.profile.evictions);
  const double phits =
      static_cast<double>(after.phrase.hits - before.phrase.hits);
  const double pmisses =
      static_cast<double>(after.phrase.misses - before.phrase.misses);
  phrase_cache_hit_rate_ = Ratio(phits, phits + pmisses);
  phrase_cache_evictions_ =
      static_cast<double>(after.phrase.evictions - before.phrase.evictions);
  phrase_cache_bytes_ = static_cast<double>(after.phrase.bytes);
}

void Bench::RecordPass(std::vector<std::vector<int64_t>> pass) {
  if (layers_.pass_counts.empty()) {
    layers_.pass_counts = std::move(pass);
  } else if (pass != layers_.pass_counts) {
    layers_.counts_repeat = false;
  }
}

// --- fig5_scan --------------------------------------------------------------
//
// One client, closed loop: the Fig. 5 query under each of the 8 profiles in
// turn, k=10, Push, profile cache warm. Per-candidate phrase counting, KOR
// and topkPrune in `algebra` take nearly all of the time.
void Bench::RunFig5Scan() {
  std::vector<Request> requests;
  for (const std::string& p : perfbench::Fig5Profiles()) {
    requests.push_back({perfbench::kFig5Query, p});
  }
  std::vector<SearchRequest> prepared;
  for (const Request& r : requests) prepared.push_back(ToSearchRequest(r));
  // Warm-up: establishing each pair compiles its profile and fills the
  // phrase count cache; one more untimed cycle settles the rest.
  for (const Request& r : requests) checker_->Establish(r);
  for (size_t i = 0; i < requests.size(); ++i) {
    TimedExecute(requests[i], prepared[i], "warm-up Execute");
  }

  const double deadline = NowS() + args_.seconds;
  if (!args_.trace) {
    while (NowS() < deadline) {
      const double rep0 = NowS();
      for (size_t i = 0; i < requests.size(); ++i) {
        latency_ms_.push_back(
            TimedExecute(requests[i], prepared[i], "Execute"));
      }
      rep_wall_s_.push_back(NowS() - rep0);
      rep_end_.push_back(latency_ms_.size());
      Interleave();
    }
    return;
  }

  const CacheCounters before = ReadCaches();
  bool execute_first = true;
  do {
    std::vector<std::vector<int64_t>> pass;
    for (size_t i = 0; i < requests.size(); ++i) {
      // Which of the pair runs first alternates by pass, so neither gets
      // the CPU caches the other warmed every time.
      int64_t allocs = 0;
      perfbench::PipelineCounts counts;
      size_t first = 0;
      if (!execute_first) first = TracedPipeline(requests[i], &counts);
      layers_.execute_ms.push_back(
          TimedExecute(requests[i], prepared[i], "Execute", &allocs));
      layers_.execute_allocs.push_back(static_cast<double>(allocs));
      if (execute_first) first = TracedPipeline(requests[i], &counts);
      pass.push_back(ExactCounts(layers_.spans, first, counts, allocs));
    }
    RecordPass(std::move(pass));
    execute_first = !execute_first;
    Interleave();
  } while (NowS() < deadline);
  SetCacheDeltas(before, ReadCaches());
  for (const Request& r : requests) TimeProfileLayers(r.profile);
}

// --- cold_users -------------------------------------------------------------
//
// One client, closed loop over a population of 4x the profile cache's
// capacity, a ProfileStore attached. A pass alternates a returning user
// (compiled into the store earlier, absent from the cache: the store read
// path) with a never-seen user (compiled and appended: the write path).
// Each pass starts from a copy of the same store and an empty cache, so
// every pass does the same work. The two paths' latencies form two modes
// with the median in the gap between them, so this workload's median moves
// with machine noise far more than its throughput or its p99 do.
void Bench::RunColdUsers() {
  const int population = sizes_.population;
  std::vector<Request> users;
  for (int u = 0; u < population; ++u) {
    users.push_back(
        {perfbench::kPhoenixQuery, perfbench::UserProfile(args_.seed, u)});
  }
  std::vector<SearchRequest> prepared;
  for (const Request& r : users) prepared.push_back(ToSearchRequest(r));
  const int returning = population / 2;
  std::vector<int> order;  // returning, new, returning, new, ...
  for (int j = 0; j < population; ++j) {
    order.push_back(j % 2 == 0 ? j / 2 : returning + j / 2);
  }

  // Every pair is established before any store exists, then the store
  // template holds the returning users.
  for (const Request& r : users) checker_->Establish(r);
  const std::string store_template = args_.workdir + "/users.template.store";
  const std::string store_path = args_.workdir + "/users.store";
  fs::remove(store_template);
  engine_->profile_cache().Clear();
  if (pimento::Status s = engine_->SetProfileStore(store_template); !s.ok()) {
    std::fprintf(stderr, "SetProfileStore failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  for (int u = 0; u < returning; ++u) {
    if (!engine_->CompileProfile(users[u].profile).ok()) {
      checker_->Fail("CompileProfile failed for a population profile");
    }
  }
  auto begin_pass = [&] {
    fs::copy_file(store_template, store_path,
                  fs::copy_options::overwrite_existing);
    if (pimento::Status s = engine_->SetProfileStore(store_path); !s.ok()) {
      std::fprintf(stderr, "SetProfileStore failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
    engine_->profile_cache().Clear();
  };
  auto end_pass = [&] {
    const pimento::exec::ProfileStore::Stats st =
        engine_->profile_store()->GetStats();
    const auto cache = engine_->profile_cache().GetStats();
    profile_cache_hit_rate_ =
        Ratio(static_cast<double>(cache.hits),
              static_cast<double>(cache.hits + cache.misses));
    profile_cache_evictions_ = static_cast<double>(cache.evictions);
    store_hit_rate_ = Ratio(static_cast<double>(st.hits),
                            static_cast<double>(st.lookups));
    store_appends_ = static_cast<double>(st.appends);
    store_bytes_per_profile_ =
        Ratio(static_cast<double>(fs::file_size(store_path)),
              static_cast<double>(st.profiles));
  };

  // Warm-up pass.
  begin_pass();
  for (int u : order) TimedExecute(users[u], prepared[u], "warm-up Execute");

  const double deadline = NowS() + args_.seconds;
  if (!args_.trace) {
    while (NowS() < deadline) {
      begin_pass();
      for (size_t j = 0; j < order.size() && NowS() < deadline; j += 16) {
        const double rep0 = NowS();
        for (size_t i = j; i < std::min(j + 16, order.size()); ++i) {
          latency_ms_.push_back(
              TimedExecute(users[order[i]], prepared[order[i]], "Execute"));
        }
        rep_wall_s_.push_back(NowS() - rep0);
        rep_end_.push_back(latency_ms_.size());
        Interleave();
      }
    }
    return;
  }

  // Traced run: untraced and traced passes alternate, from the same state,
  // so the untraced Execute latencies pair with the traced requests.
  const CacheCounters before = ReadCaches();
  int traced_passes = 0;
  while (traced_passes < 2 || NowS() < deadline) {
    begin_pass();
    for (int u : order) {
      int64_t allocs = 0;
      layers_.execute_ms.push_back(
          TimedExecute(users[u], prepared[u], "Execute", &allocs));
      layers_.execute_allocs.push_back(static_cast<double>(allocs));
      Interleave();
    }
    begin_pass();
    std::vector<std::vector<int64_t>> pass;
    for (int u : order) {
      perfbench::PipelineCounts counts;
      const size_t first = TracedPipeline(users[u], &counts);
      pass.push_back(ExactCounts(layers_.spans, first, counts, 0));
      Interleave();
    }
    RecordPass(std::move(pass));
    ++traced_passes;
  }
  SetCacheDeltas(before, ReadCaches());
  // Clear() resets the profile cache's counters at every pass start, so
  // its metrics and the store's come from the last pass alone.
  end_pass();
  // The sub-layer timings, on the never-seen users' texts (the misses that
  // compile in full).
  for (int u = returning; u < population;
       u += std::max(1, population / 128)) {
    TimeProfileLayers(users[u].profile);
  }
}

// --- batch_mix --------------------------------------------------------------
//
// Closed-loop batches through BatchSearch with min(4, nproc) workers: the
// Fig. 5 / Phoenix mix under the 8 profiles and the plain profile, plus one
// new user in 16. The only workload that runs the engine concurrently.
void Bench::RunBatchMix() {
  const int workers = std::min(4, Nproc());
  int next_user = 0;
  auto make_batch = [&](std::vector<Request>* batch,
                        std::vector<SearchRequest>* prepared) {
    *batch = perfbench::BatchMix(sizes_.batch, args_.seed, &next_user);
    prepared->clear();
    for (const Request& r : *batch) prepared->push_back(ToSearchRequest(r));
  };
  auto run_batch = [&](int num_workers, std::vector<double>* latencies,
                       double* busy_ms) -> double {
    std::vector<Request> batch;
    std::vector<SearchRequest> prepared;
    make_batch(&batch, &prepared);
    BatchOptions options;
    options.num_workers = num_workers;
    const double t0 = NowS();
    BatchResult result = engine_->BatchSearch(prepared, options);
    const double wall_s = NowS() - t0;
    for (size_t i = 0; i < result.items.size(); ++i) {
      const pimento::core::BatchItem& item = result.items[i];
      ++attempted_;
      if (latencies != nullptr) latencies->push_back(item.elapsed_ms);
      if (busy_ms != nullptr) *busy_ms += item.elapsed_ms;
      if (!item.status.ok()) {
        ++failed_;
        checker_->Fail("batch item failed: " + item.status.ToString());
        continue;
      }
      checker_->Check(batch[i], perfbench::KeysOf(item.result),
                      "batch item vs sequential Execute");
    }
    // The batch's new users, outside the timed batch.
    checker_->CheckDeferred();
    Interleave();
    return wall_s;
  };

  // The mix's own pairs are established up front; new users' pairs are
  // checked after the timed region.
  {
    std::vector<Request> batch;
    std::vector<SearchRequest> prepared;
    make_batch(&batch, &prepared);
    for (const Request& r : batch) {
      if (!r.new_user) checker_->Establish(r);
    }
  }
  run_batch(workers, nullptr, nullptr);  // warm-up
  latency_note_ =
      "batch_mix latencies are BatchItem::elapsed_ms, the time inside the "
      "worker; queue wait is not exposed by BatchSearch and is not included";

  const double deadline = NowS() + args_.seconds;
  if (!args_.trace) {
    while (NowS() < deadline) {
      rep_wall_s_.push_back(run_batch(workers, &latency_ms_, nullptr));
      rep_end_.push_back(latency_ms_.size());
    }
    return;
  }

  const CacheCounters before = ReadCaches();
  double wall_w = 0.0, wall_1 = 0.0, busy_w = 0.0;
  int64_t items_w = 0, items_1 = 0;
  std::vector<double> batch_walls;
  do {
    const double w = run_batch(workers, nullptr, &busy_w);
    batch_walls.push_back(w * 1e3);
    wall_w += w;
    items_w += sizes_.batch;
    wall_1 += run_batch(1, nullptr, nullptr);
    items_1 += sizes_.batch;

    // Sequential untraced Execute and the traced pipeline, each on a fresh
    // batch of the same mix, for the layer split of the mix.
    std::vector<Request> batch;
    std::vector<SearchRequest> prepared;
    make_batch(&batch, &prepared);
    for (size_t i = 0; i < batch.size(); ++i) {
      int64_t allocs = 0;
      layers_.execute_ms.push_back(
          TimedExecute(batch[i], prepared[i], "Execute", &allocs));
      layers_.execute_allocs.push_back(static_cast<double>(allocs));
    }
    make_batch(&batch, &prepared);
    for (const Request& r : batch) {
      perfbench::PipelineCounts counts;
      TracedPipeline(r, &counts);
      if (r.new_user) TimeProfileLayers(r.profile);
    }
    checker_->CheckDeferred();
    Interleave();
  } while (NowS() < deadline);
  SetCacheDeltas(before, ReadCaches());
  batch_wall_ms_ = Median(batch_walls);
  worker_busy_frac_ = Ratio(busy_w, workers * wall_w * 1e3);
  scaling_efficiency_ =
      Ratio(static_cast<double>(items_w) / wall_w,
            workers * static_cast<double>(items_1) / wall_1);
}

void Bench::ReportEndToEnd() {
  while (static_cast<int>(setup_s_.size()) < sizes_.setup_reps) SetupRep();
  const double ref_ms = calib_.RefMs();
  const double setup = Median(setup_s_);
  std::vector<double> rep_p50, rep_qps;
  size_t begin = 0;
  // Repetitions: consecutive groups of about a tenth of the run.
  const size_t group = std::max<size_t>(1, rep_end_.size() / 10);
  double group_wall = 0.0;
  for (size_t g = 0; g < rep_end_.size(); ++g) {
    group_wall += rep_wall_s_[g];
    if ((g + 1) % group != 0 && g + 1 != rep_end_.size()) continue;
    std::vector<double> lat(latency_ms_.begin() + begin,
                            latency_ms_.begin() + rep_end_[g]);
    rep_p50.push_back(Median(lat));
    rep_qps.push_back(static_cast<double>(lat.size()) / group_wall);
    begin = rep_end_[g];
    group_wall = 0.0;
  }
  const double p50 = Median(latency_ms_);
  const double p99 = Quantile(latency_ms_, 0.99);
  // Throughput is the median over the groups, so a noise burst on the
  // shared host that slows a few seconds of the run does not move it.
  const double qps = Median(rep_qps);
  if (latency_note_ != nullptr) report_.Note(latency_note_);
  // setup_s is the set-up time at the reference speed: the median build
  // time scaled by how much slower than kReferenceMs the calibration kernel
  // ran. Raw wall seconds (setup_wall_s) moved by up to 61% between
  // ten-seed sets of one build on a shared 4-vCPU VM, past any bound a
  // regression gate can use; the normalized form moved by at most 9%.
  report_.AddSummarized(
      "setup_s", setup * perfbench::RefKernel::kReferenceMs / ref_ms, "s",
      setup_s_, setup_s_.size());
  report_.Add("setup_wall_s", setup, "s");
  report_.AddSummarized("latency_p50_ms", p50, "ms", rep_p50,
                        latency_ms_.size());
  report_.Add("latency_p99_ms", p99, "ms");
  report_.AddSummarized("qps", qps, "1/s", rep_qps, latency_ms_.size());
  report_.Add("failed_frac",
              Ratio(static_cast<double>(failed_),
                    static_cast<double>(attempted_)),
              "frac");
  report_.Add("peak_rss_mb", PeakRssMb(), "MB");
  report_.Add("setup_ref", setup * 1e3 / ref_ms, "ref");
  report_.Add("latency_p50_ref", p50 / ref_ms, "ref");
  report_.Add("latency_p99_ref", p99 / ref_ms, "ref");
  report_.Add("qps_ref", qps * ref_ms / 1e3, "1/ref");
  report_.Add("bench.ref_ms", ref_ms, "ms");
  report_.Add("bench.ref_samples", static_cast<double>(calib_.samples()),
              "count");
}

void Bench::ReportLayers() {
  // Span aggregation: per-layer durations and allocation counts.
  std::map<std::string, std::vector<double>> us;
  std::map<std::string, double> allocs;
  double request_us = 0.0, layer_us = 0.0;
  for (const perfbench::Span& s : layers_.spans.spans()) {
    us[s.name].push_back(s.us());
    allocs[s.name] += static_cast<double>(s.allocs);
    if (s.parent < 0) {
      request_us += s.us();
    } else {
      layer_us += s.us();
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(1, layers_.requests));
  auto layer_sum = [&](const char* name) { return Sum(us[name]); };
  auto per_req = [&](double total) { return total / n; };

  report_.Add("xml.parse_ms", Median(xml_parse_ms_), "ms");
  report_.Add("index.build_ms", Median(index_build_ms_), "ms");
  report_.Add("index.save_ms", Median(index_save_ms_), "ms");
  report_.Add("index.load_ms", Median(index_load_ms_), "ms");
  report_.Add("index.image_bytes_per_xml_byte", image_bytes_per_xml_byte_,
              "ratio");
  report_.Add("tpq.parse_us", Median(us["tpq.parse"]), "us");
  report_.Add("exec.profile_resolve_us", Median(us["exec.profile_resolve"]),
              "us");
  report_.Add("exec.profile_cache.hit_rate", profile_cache_hit_rate_, "frac");
  report_.Add("exec.profile_cache.evictions", profile_cache_evictions_,
              "count");
  report_.Add("exec.profile_store.hit_rate", store_hit_rate_, "frac");
  report_.Add("exec.profile_store.appends", store_appends_, "count");
  report_.Add("exec.profile_store.bytes_per_profile", store_bytes_per_profile_,
              "bytes");
  report_.Add("profile.parse_us", Median(layers_.profile_parse_us), "us");
  report_.Add("profile.ambiguity_us", Median(layers_.ambiguity_us), "us");
  report_.Add("profile.compile_us", Median(layers_.compile_us), "us");
  report_.Add("profile.flock_us", Median(us["profile.flock"]), "us");
  report_.Add("profile.flock.members", per_req(layers_.flock_members), "count");
  report_.Add("profile.flock.hom_runs", per_req(layers_.hom_runs), "count");
  report_.Add("profile.flock.candidates", per_req(layers_.candidates),
              "count");
  report_.Add("plan.build_us", Median(us["plan.build"]), "us");
  report_.Add("plan.operators", per_req(layers_.operators), "count");
  report_.Add("algebra.execute_us", Median(us["algebra.execute"]), "us");
  report_.Add("algebra.scanned", per_req(layers_.scanned), "count");
  report_.Add("algebra.kor_consumed", per_req(layers_.kor_consumed), "count");
  report_.Add("algebra.pruned_by_topk", per_req(layers_.pruned), "count");
  report_.Add("algebra.sorted", per_req(layers_.sorted), "count");
  report_.Add("algebra.emitted", per_req(layers_.emitted), "count");
  report_.Add("algebra.emitted_per_scanned",
              Ratio(layers_.emitted, layers_.scanned), "ratio");
  report_.Add("exec.phrase_cache.hit_rate", phrase_cache_hit_rate_, "frac");
  report_.Add("exec.phrase_cache.evictions", phrase_cache_evictions_, "count");
  report_.Add("exec.phrase_cache.bytes", phrase_cache_bytes_, "bytes");
  report_.Add("core.rank_us", Median(us["core.rank"]), "us");
  report_.Add("index.blocks_skipped", per_req(layers_.blocks_skipped),
              "count");
  report_.Add("index.cursor_blocks_skipped", per_req(layers_.cursor_skipped),
              "count");
  report_.Add("index.cursor_blocks_visited", per_req(layers_.cursor_visited),
              "count");
  const double all_blocks = layers_.blocks_skipped + layers_.blocks_visited +
                            layers_.cursor_skipped + layers_.cursor_visited;
  report_.Add("index.block_skip_ratio",
              Ratio(layers_.blocks_skipped + layers_.cursor_skipped,
                    all_blocks),
              "ratio");
  for (const char* layer :
       {"tpq.parse", "exec.profile_resolve", "profile.flock", "plan.build",
        "algebra.execute", "core.rank"}) {
    report_.Add(std::string(layer) + ".allocs", per_req(allocs[layer]),
                "count");
  }
  report_.Add("alloc.per_request", Sum(layers_.execute_allocs) /
                                       std::max<size_t>(1, layers_.execute_allocs.size()),
              "count");
  report_.Add("exec.worker_busy_frac", worker_busy_frac_, "frac");
  report_.Add("exec.scaling_efficiency", scaling_efficiency_, "ratio");
  report_.Add("exec.batch_wall_ms", batch_wall_ms_, "ms");

  const double exec_mean_us =
      Sum(layers_.execute_ms) * 1e3 /
      std::max<size_t>(1, layers_.execute_ms.size());
  report_.Add("core.glue_us", exec_mean_us - per_req(layer_us), "us");
  report_.Add("bench.layer_coverage", Ratio(layer_us, request_us), "ratio");
  report_.Add("bench.trace_overhead_frac",
              Ratio(Median(us["request"]), Median(layers_.execute_ms) * 1e3) -
                  1.0,
              "frac");
  report_.Add("bench.algebra_share",
              Ratio(layer_sum("algebra.execute"), request_us), "frac");
  report_.Add("bench.resolve_flock_plan_share",
              Ratio(layer_sum("exec.profile_resolve") +
                        layer_sum("profile.flock") + layer_sum("plan.build"),
                    request_us),
              "frac");
  report_.Add("bench.counts_repeat", layers_.counts_repeat ? 1.0 : 0.0,
              "bool");
  report_.Add("bench.ref_ms", calib_.RefMs(), "ms");
}

int Bench::Run() {
  fs::create_directories(args_.workdir);
  Setup();
  if (args_.workload == "fig5_scan") {
    RunFig5Scan();
  } else if (args_.workload == "cold_users") {
    RunColdUsers();
  } else {
    RunBatchMix();
  }
  checker_->CheckDeferred();
  const bool single_client = args_.workload != "batch_mix";
  bool correct = checker_->mismatches() == 0;
  if (args_.trace) {
    ReportLayers();
    if (single_client && !layers_.counts_repeat) {
      std::fprintf(stderr,
                   "MISMATCH exact counts differ between identical passes\n");
      correct = false;
    }
    if (!args_.spans.empty() && !layers_.spans.WriteTsv(args_.spans)) {
      std::fprintf(stderr, "cannot write %s\n", args_.spans.c_str());
    }
  } else {
    ReportEndToEnd();
  }
  report_.Add("bench.checked_pairs", static_cast<double>(checker_->pairs()),
              "count");
  report_.Print(args_, correct, attempted_, failed_);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return args->workload == "fig5_scan" || args->workload == "cold_users" ||
         args->workload == "batch_mix";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload fig5_scan|cold_users|batch_mix "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--workdir DIR] "
                 "[--spans FILE] [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  Bench bench(args, SizesFor(args.smoke));
  return bench.Run();
}

#include "perfbench/pipeline.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "perfbench/alloc_count.h"
#include "src/algebra/answer.h"
#include "src/exec/phrase_count_cache.h"
#include "src/exec/profile_cache.h"
#include "src/plan/planner.h"
#include "src/plan/reference_eval.h"
#include "src/profile/flock.h"
#include "src/profile/rule_parser.h"
#include "src/tpq/tpq_parser.h"

namespace perfbench {

namespace pc = pimento::core;

namespace {

bool Same(double a, double b, double tolerance) {
  if (tolerance == 0.0) return std::memcmp(&a, &b, sizeof a) == 0;
  return std::fabs(a - b) <= tolerance;
}

/// Opens a span on construction and closes it on destruction; inert when
/// the recorder is null.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int parent, int request)
      : recorder_(recorder),
        span_(recorder != nullptr ? recorder->Begin(name, parent, request)
                                  : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->End(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return span_; }

 private:
  SpanRecorder* recorder_;
  int span_;
};

AnswerKey KeyOf(const pimento::algebra::Answer& a,
                std::vector<double> vor_keys) {
  return AnswerKey{a.node, a.s, a.k, std::move(vor_keys)};
}

}  // namespace

bool SameAnswers(const std::vector<AnswerKey>& a,
                 const std::vector<AnswerKey>& b, double tolerance) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || !Same(a[i].s, b[i].s, tolerance) ||
        !Same(a[i].k, b[i].k, tolerance) ||
        a[i].vor_keys.size() != b[i].vor_keys.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].vor_keys.size(); ++j) {
      if (!Same(a[i].vor_keys[j], b[i].vor_keys[j], tolerance)) return false;
    }
  }
  return true;
}

std::vector<AnswerKey> KeysOf(const pc::SearchResult& result) {
  std::vector<AnswerKey> keys;
  keys.reserve(result.answers.size());
  for (const pc::RankedAnswer& a : result.answers) {
    keys.push_back(AnswerKey{a.node, a.s, a.k, a.vor_keys});
  }
  return keys;
}

std::string Describe(const std::vector<AnswerKey>& answers) {
  std::string out;
  char buf[96];
  for (const AnswerKey& a : answers) {
    std::snprintf(buf, sizeof buf, "%d:%a:%a ", a.node, a.s, a.k);
    out += buf;
  }
  return out;
}

int SpanRecorder::Begin(const char* name, int parent, int request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  // Counter and clock are read last so the bookkeeping above (including a
  // reallocation of spans_) stays outside the span.
  spans_.back().allocs = ThreadAllocs();
  spans_.back().start_ns = NowNs();
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) {
  const int64_t end = NowNs();
  Span& s = spans_[span];
  s.end_ns = end;
  s.allocs = ThreadAllocs() - s.allocs;
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\trequest\tallocs\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%s\t%lld\t%lld\t%d\t%d\t%lld\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request,
                 static_cast<long long>(s.allocs));
  }
  return std::fclose(out) == 0;
}

pimento::StatusOr<std::vector<AnswerKey>> RunPipeline(
    const pc::SearchEngine& engine, const std::string& query,
    const std::string& profile, int k, SpanRecorder* recorder, int request,
    PipelineCounts* counts) {
  Scope root(recorder, "request", -1, request);
  const int parent = root.id();

  std::optional<pimento::tpq::Tpq> tpq;
  {
    Scope span(recorder, "tpq.parse", parent, request);
    pimento::StatusOr<pimento::tpq::Tpq> parsed =
        pimento::tpq::ParseTpq(query);
    if (!parsed.ok()) return parsed.status();
    tpq = *std::move(parsed);
  }

  std::shared_ptr<const pimento::exec::CompiledProfile> compiled;
  {
    Scope span(recorder, "exec.profile_resolve", parent, request);
    auto got = engine.profile_cache().GetOrCompile(profile);
    if (!got.ok()) return got.status();
    compiled = *std::move(got);
  }
  const pimento::profile::UserProfile& prof = compiled->profile;
  // The default options' ambiguity check, as ExecuteTopK applies it.
  if (compiled->ambiguity.ambiguous &&
      !compiled->ambiguity.resolved_by_priorities) {
    return pimento::Status::Ambiguous(compiled->ambiguity.explanation);
  }

  std::optional<pimento::profile::QueryFlock> flock;
  {
    Scope span(recorder, "profile.flock", parent, request);
    auto built = pimento::profile::BuildFlockCompiled(
        *tpq, compiled->compiled_rules, nullptr, &counts->flock);
    if (!built.ok()) return built.status();
    flock = *std::move(built);
  }
  counts->flock_members = static_cast<int>(flock->members.size());

  const pc::SearchOptions defaults;
  pimento::plan::PlannerOptions popts;
  popts.k = k;
  popts.strategy = defaults.strategy;
  popts.rank_order = prof.rank_order;
  popts.vor_mode = defaults.vor_mode;
  popts.kor_order = defaults.kor_order;
  popts.optional_bonus = defaults.optional_bonus;
  popts.use_structural_prefilter = defaults.use_structural_prefilter;
  popts.scan_mode = defaults.scan_mode;
  popts.use_score_floor = defaults.use_score_floor;
  popts.count_cache = &engine.phrase_count_cache();
  std::optional<pimento::algebra::Plan> plan;
  {
    Scope span(recorder, "plan.build", parent, request);
    auto built = pimento::plan::BuildPlan(engine.collection(), engine.scorer(),
                                          flock->encoded, prof.vors,
                                          prof.kors, popts);
    if (!built.ok()) return built.status();
    plan = *std::move(built);
  }
  counts->plan_operators = static_cast<int>(plan->size());

  std::vector<pimento::algebra::Answer> answers;
  {
    Scope span(recorder, "algebra.execute", parent, request);
    answers = plan->Execute(nullptr);
    counts->plan = plan->CollectStats();
  }

  std::vector<AnswerKey> keys;
  {
    Scope span(recorder, "core.rank", parent, request);
    pimento::algebra::RankContext rank(prof.vors, prof.rank_order);
    keys.reserve(answers.size());
    for (const pimento::algebra::Answer& a : answers) {
      keys.push_back(KeyOf(a, rank.VorKeys(a)));
    }
  }
  return keys;
}

pimento::StatusOr<std::vector<AnswerKey>> ReferenceAnswers(
    const pc::SearchEngine& engine, const std::string& query,
    const std::string& profile, int k) {
  // Parsed and flock-built without the engine's caches (the flock through
  // the rule-scan path, BuildFlock), so the oracle shares only the
  // collection and scorer with the path it checks.
  auto tpq = pimento::tpq::ParseTpq(query);
  if (!tpq.ok()) return tpq.status();
  auto prof = pimento::profile::ParseProfile(profile);
  if (!prof.ok()) return prof.status();
  auto flock = pimento::profile::BuildFlock(*tpq, prof->scoping_rules);
  if (!flock.ok()) return flock.status();
  const std::vector<pimento::algebra::Answer> answers =
      pimento::plan::ReferenceEvaluate(engine.collection(), engine.scorer(),
                                       flock->encoded, *prof, k,
                                       pc::SearchOptions().optional_bonus);
  pimento::algebra::RankContext rank(prof->vors, prof->rank_order);
  std::vector<AnswerKey> keys;
  keys.reserve(answers.size());
  for (const pimento::algebra::Answer& a : answers) {
    keys.push_back(KeyOf(a, rank.VorKeys(a)));
  }
  return keys;
}

}  // namespace perfbench

#ifndef PIMENTO_PERFBENCH_PIPELINE_H_
#define PIMENTO_PERFBENCH_PIPELINE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/profile/compiled_profile.h"

namespace perfbench {

/// One ranked answer reduced to what the correctness checks compare: the
/// node id and the bit patterns of S, K and the VOR rank keys.
struct AnswerKey {
  int32_t node = 0;
  double s = 0.0;
  double k = 0.0;
  std::vector<double> vor_keys;
};

/// True when both lists hold the same nodes in the same order and every
/// score and rank key differs by at most `tolerance`; 0 demands identical
/// bits.
bool SameAnswers(const std::vector<AnswerKey>& a,
                 const std::vector<AnswerKey>& b, double tolerance = 0.0);

std::vector<AnswerKey> KeysOf(const pimento::core::SearchResult& result);

/// Printable form of an answer list (hex-float scores), for mismatch
/// reports.
std::string Describe(const std::vector<AnswerKey>& answers);

/// A timed interval of the traced run. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 for a request's root
/// span). `allocs` counts the heap allocations the calling thread made
/// inside the span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t request = -1;
  int64_t allocs = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span store: Begin/End bracket a call, and the spans are
/// written out once, after the run.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(const char* name, int parent, int request);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated: name, start_ns, end_ns, parent, request, allocs.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-request counts the layers report back to the pipeline.
struct PipelineCounts {
  pimento::profile::FlockBuildStats flock;
  int flock_members = 0;
  int plan_operators = 0;
  pimento::algebra::PlanStats plan;
};

/// The layers of SearchEngine::Execute (top-k mode, default options),
/// called one by one from outside the engine, each inside its own span when
/// `recorder` is set: tpq.parse, exec.profile_resolve, profile.flock,
/// plan.build, algebra.execute and core.rank, under a root span named
/// "request". It shares the engine's profile cache and phrase count cache,
/// so its answers must equal Execute's bit for bit.
pimento::StatusOr<std::vector<AnswerKey>> RunPipeline(
    const pimento::core::SearchEngine& engine, const std::string& query,
    const std::string& profile, int k, SpanRecorder* recorder, int request,
    PipelineCounts* counts);

/// ReferenceEvaluate (the plan-free oracle) on the flock-encoded query of
/// (query, profile).
pimento::StatusOr<std::vector<AnswerKey>> ReferenceAnswers(
    const pimento::core::SearchEngine& engine, const std::string& query,
    const std::string& profile, int k);

}  // namespace perfbench

#endif  // PIMENTO_PERFBENCH_PIPELINE_H_

// Offline aggregation of a --metrics NDJSON stream: the `sbst stats`
// subcommand. Reads metric lines (metrics.h schema), folds them into
// one MetricsSummary, and renders it with deterministic `engines:` /
// `verdicts:` / `counters:` lines that CI diffs between a clean and a
// killed-and-resumed campaign — for a pinned engine those lines are
// bit-equal, which is the whole telemetry correctness contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace sbst::telemetry {

struct GroupMetric;

struct MetricsSummary {
  std::size_t records = 0;    // well-formed metric lines
  std::size_t malformed = 0;  // lines that failed to parse (blank skipped)
  std::size_t seeded = 0;     // groups replayed from a journal
  std::size_t simulated = 0;  // records - seeded
  std::size_t timed_out_groups = 0;
  std::size_t quarantined_groups = 0;
  std::size_t event_groups = 0;  // per-engine group attribution
  std::size_t sweep_groups = 0;
  std::size_t none_groups = 0;  // never simulated (quarantined/unstarted)
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  std::uint64_t retries = 0;  // sum of (attempts - 1) over all groups
  std::uint64_t gates_evaluated = 0;
  std::uint64_t sim_cycles = 0;
  /// Gate evaluations split by compiled base-op class (metrics.h:
  /// GroupMetric::evals_*). Zero on streams that predate the fields.
  std::uint64_t evals_and = 0;
  std::uint64_t evals_or = 0;
  std::uint64_t evals_xor = 0;
  std::uint64_t evals_mux = 0;
  std::uint64_t max_rss_kb = 0;  // peak over groups (dead worker attempts)
  std::uint64_t cpu_ms = 0;      // summed dead-attempt CPU
  /// Wall-clock latency of the groups *simulated* in the recorded run
  /// (seeded groups replay in ~zero time and would poison the
  /// percentiles, so they are excluded).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double total_ms = 0.0;
  /// Aggregate per-evaluation cost of the *simulated* records:
  /// total_ms scaled against their summed gates_evaluated (seeded
  /// records replay in ~zero time, so they are excluded from both the
  /// numerator and the denominator). 0 when nothing was simulated.
  double eval_ns_per_gate = 0.0;

  /// Folds one metric into every field above except `malformed` and the
  /// latency sample statistics (p50..max_ms, eval_ns_per_gate), which
  /// need MetricsFolder's sample. The status heartbeat reports these.
  void add(const GroupMetric& m);
};

/// Nearest-rank percentile (q in (0, 100]) of an ascending-sorted
/// sample; 0.0 for an empty sample.
double percentile_nearest_rank(const std::vector<double>& sorted, double q);

/// Incremental folder behind summarize_metrics, exposed so the same
/// counter lines can be derived from sources other than an NDJSON
/// stream — `sbst stats --journal` folds a journal's winning records
/// directly, reconstructing the counter aggregates a crash between
/// periodic --metrics rewrites would otherwise have lost.
class MetricsFolder {
 public:
  void fold(const GroupMetric& m);
  /// Folds every NDJSON line of `in`: whitespace-only lines are skipped,
  /// lines that fail to parse are counted in `malformed`.
  void fold_ndjson(std::istream& in);
  /// Sorts the latency sample and returns the finished summary.
  MetricsSummary finish();

 private:
  MetricsSummary summary_;
  std::vector<double> durations_;
  std::uint64_t simulated_gates_ = 0;  // gates_evaluated of non-seeded recs
};

/// Folds every NDJSON line of `in` into a summary. Never throws on bad
/// content — malformed lines are counted, not fatal (callers decide).
MetricsSummary summarize_metrics(std::istream& in);

/// Renders the summary, one labelled line per aspect. The `engines:`,
/// `verdicts:` and `counters:` lines depend only on counter fields.
void print_metrics_summary(std::ostream& os, const MetricsSummary& s);

}  // namespace sbst::telemetry

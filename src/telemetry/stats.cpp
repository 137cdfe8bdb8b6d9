#include "telemetry/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>

#include "telemetry/metrics.h"

namespace sbst::telemetry {

double percentile_nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

void MetricsSummary::add(const GroupMetric& m) {
  MetricsSummary& s = *this;
  ++s.records;
  if (m.seeded) {
    ++s.seeded;
  } else {
    ++s.simulated;
    s.total_ms += m.duration_ms;
  }
  if (m.timed_out) ++s.timed_out_groups;
  if (m.quarantined) ++s.quarantined_groups;
  if (m.engine == "event") ++s.event_groups;
  else if (m.engine == "sweep") ++s.sweep_groups;
  else ++s.none_groups;
  s.faults += m.faults;
  s.detected += m.detected;
  if (m.attempts > 1) s.retries += m.attempts - 1;
  s.gates_evaluated += m.gates_evaluated;
  s.sim_cycles += m.sim_cycles;
  s.evals_and += m.evals_and;
  s.evals_or += m.evals_or;
  s.evals_xor += m.evals_xor;
  s.evals_mux += m.evals_mux;
  s.max_rss_kb = std::max(s.max_rss_kb, m.max_rss_kb);
  s.cpu_ms += m.cpu_ms;
}

void MetricsFolder::fold(const GroupMetric& m) {
  summary_.add(m);
  if (!m.seeded) {
    durations_.push_back(m.duration_ms);
    simulated_gates_ += m.gates_evaluated;
  }
}

void MetricsFolder::fold_ndjson(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    GroupMetric m;
    if (metric_from_json(line, &m)) {
      fold(m);
    } else {
      ++summary_.malformed;
    }
  }
}

MetricsSummary MetricsFolder::finish() {
  std::sort(durations_.begin(), durations_.end());
  summary_.p50_ms = percentile_nearest_rank(durations_, 50.0);
  summary_.p95_ms = percentile_nearest_rank(durations_, 95.0);
  summary_.p99_ms = percentile_nearest_rank(durations_, 99.0);
  if (!durations_.empty()) summary_.max_ms = durations_.back();
  if (simulated_gates_ != 0) {
    summary_.eval_ns_per_gate =
        summary_.total_ms * 1e6 / static_cast<double>(simulated_gates_);
  }
  return summary_;
}

MetricsSummary summarize_metrics(std::istream& in) {
  MetricsFolder folder;
  folder.fold_ndjson(in);
  return folder.finish();
}

void print_metrics_summary(std::ostream& os, const MetricsSummary& s) {
  os << "records: " << s.records << " groups (" << s.simulated
     << " simulated, " << s.seeded << " seeded), " << s.malformed
     << " malformed line(s)\n";
  os << "engines: event=" << s.event_groups << " sweep=" << s.sweep_groups
     << " none=" << s.none_groups << "\n";
  os << "verdicts: faults=" << s.faults << " detected=" << s.detected
     << " timed_out_groups=" << s.timed_out_groups
     << " quarantined_groups=" << s.quarantined_groups << "\n";
  char buf[160];
  if (s.sim_cycles != 0) {
    std::snprintf(buf, sizeof(buf),
                  "counters: gates_evaluated=%llu sim_cycles=%llu "
                  "gates_per_cycle=%.2f\n",
                  static_cast<unsigned long long>(s.gates_evaluated),
                  static_cast<unsigned long long>(s.sim_cycles),
                  static_cast<double>(s.gates_evaluated) /
                      static_cast<double>(s.sim_cycles));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "counters: gates_evaluated=%llu sim_cycles=%llu "
                  "gates_per_cycle=n/a\n",
                  static_cast<unsigned long long>(s.gates_evaluated),
                  static_cast<unsigned long long>(s.sim_cycles));
  }
  os << buf;
  // Deliberately NOT part of the bit-stable diff set (CI greps
  // engines/verdicts/counters): eval_ns_per_gate is run-local, and the
  // per-kind tallies depend on the engine.
  if (s.eval_ns_per_gate != 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "kernel: eval_ns_per_gate=%.3f evals_and=%llu "
                  "evals_or=%llu evals_xor=%llu evals_mux=%llu\n",
                  s.eval_ns_per_gate,
                  static_cast<unsigned long long>(s.evals_and),
                  static_cast<unsigned long long>(s.evals_or),
                  static_cast<unsigned long long>(s.evals_xor),
                  static_cast<unsigned long long>(s.evals_mux));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "kernel: eval_ns_per_gate=n/a evals_and=%llu "
                  "evals_or=%llu evals_xor=%llu evals_mux=%llu\n",
                  static_cast<unsigned long long>(s.evals_and),
                  static_cast<unsigned long long>(s.evals_or),
                  static_cast<unsigned long long>(s.evals_xor),
                  static_cast<unsigned long long>(s.evals_mux));
  }
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "latency: p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms "
                "total=%.3fms\n",
                s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms, s.total_ms);
  os << buf;
  os << "isolate: retries=" << s.retries << " peak_dead_rss_kb="
     << s.max_rss_kb << " dead_cpu_ms=" << s.cpu_ms << "\n";
}

}  // namespace sbst::telemetry

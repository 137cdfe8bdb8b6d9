#include "telemetry/metrics.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <map>

#include "telemetry/json.h"
#include "util/atomic_file.h"

namespace sbst::telemetry {

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool first = false) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                v);
  out += buf;
}

void append_bool(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += v ? "\":true" : "\":false";
}

}  // namespace

std::string metric_to_json(const GroupMetric& m) {
  std::string out = "{";
  append_u64(out, "group", m.group, /*first=*/true);
  append_u64(out, "faults", m.faults);
  append_u64(out, "detected", m.detected);
  out += ",\"engine\":";
  append_json_string(out, m.engine);
  append_bool(out, "seeded", m.seeded);
  append_bool(out, "timed_out", m.timed_out);
  append_bool(out, "quarantined", m.quarantined);
  append_u64(out, "cycles", m.cycles);
  append_u64(out, "gates_evaluated", m.gates_evaluated);
  append_u64(out, "sim_cycles", m.sim_cycles);
  append_u64(out, "evals_and", m.evals_and);
  append_u64(out, "evals_or", m.evals_or);
  append_u64(out, "evals_xor", m.evals_xor);
  append_u64(out, "evals_mux", m.evals_mux);
  append_u64(out, "attempts", m.attempts);
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"duration_ms\":%.3f", m.duration_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"eval_ns_per_gate\":%.3f",
                m.eval_ns_per_gate);
  out += buf;
  append_u64(out, "max_rss_kb", m.max_rss_kb);
  append_u64(out, "cpu_ms", m.cpu_ms);
  out += "}";
  return out;
}

bool metric_from_json(std::string_view line, GroupMetric* out) {
  std::map<std::string, JsonValue> obj;
  if (!parse_flat_json_object(line, &obj)) return false;
  GroupMetric m;
  bool ok = true;
  const auto u64 = [&](const char* key, std::uint64_t* dst) {
    const auto it = obj.find(key);
    if (it == obj.end()) return;
    if (!it->second.u64_valid) ok = false;
    else *dst = it->second.u64;
  };
  const auto u32 = [&](const char* key, std::uint32_t* dst) {
    std::uint64_t v = *dst;
    u64(key, &v);
    if (v > 0xffffffffull) ok = false;
    else *dst = static_cast<std::uint32_t>(v);
  };
  const auto boolean = [&](const char* key, bool* dst) {
    const auto it = obj.find(key);
    if (it == obj.end()) return;
    if (it->second.kind != JsonValue::Kind::kBool) ok = false;
    else *dst = it->second.boolean;
  };
  u64("group", &m.group);
  u32("faults", &m.faults);
  u32("detected", &m.detected);
  if (const auto it = obj.find("engine"); it != obj.end()) {
    if (it->second.kind != JsonValue::Kind::kString) ok = false;
    else m.engine = it->second.str;
  }
  boolean("seeded", &m.seeded);
  boolean("timed_out", &m.timed_out);
  boolean("quarantined", &m.quarantined);
  u64("cycles", &m.cycles);
  u64("gates_evaluated", &m.gates_evaluated);
  u64("sim_cycles", &m.sim_cycles);
  u64("evals_and", &m.evals_and);
  u64("evals_or", &m.evals_or);
  u64("evals_xor", &m.evals_xor);
  u64("evals_mux", &m.evals_mux);
  u32("attempts", &m.attempts);
  if (const auto it = obj.find("duration_ms"); it != obj.end()) {
    if (it->second.kind != JsonValue::Kind::kNumber || it->second.number < 0) {
      ok = false;
    } else {
      m.duration_ms = it->second.number;
    }
  }
  if (const auto it = obj.find("eval_ns_per_gate"); it != obj.end()) {
    if (it->second.kind != JsonValue::Kind::kNumber || it->second.number < 0) {
      ok = false;
    } else {
      m.eval_ns_per_gate = it->second.number;
    }
  }
  u64("max_rss_kb", &m.max_rss_kb);
  u64("cpu_ms", &m.cpu_ms);
  if (!ok || m.faults > 63 || m.detected > m.faults) return false;
  *out = std::move(m);
  return true;
}

double eta_seconds(std::size_t done, std::size_t seeded, std::size_t total,
                   double elapsed_s) {
  const std::size_t fresh = done > seeded ? done - seeded : 0;
  if (fresh < 2 || done > total || elapsed_s < 0) return -1.0;
  return elapsed_s * static_cast<double>(total - done) /
         static_cast<double>(fresh);
}

CampaignTelemetry::CampaignTelemetry(TelemetryOptions options,
                                     std::string mode,
                                     std::size_t groups_total,
                                     std::uint64_t fingerprint)
    : opt_(std::move(options)),
      mode_(std::move(mode)),
      groups_total_(groups_total),
      fingerprint_(fingerprint),
      t0_(std::chrono::steady_clock::now()) {
  if (opt_.status_path.empty()) return;
  // The first heartbeat lands before the campaign does any work, so a
  // dashboard or a dispatcher sees the campaign from its start, and the
  // timer keeps the file fresh through good-run recording and long
  // groups alike.
  write_status_locked("running");
  if (opt_.heartbeat_period_s <= 0) return;
  heartbeat_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    const std::chrono::duration<double> period(opt_.heartbeat_period_s);
    const auto finished = [this] { return finished_; };
    while (!opt_.status_path.empty() &&
           !finished_cv_.wait_for(lock, period, finished)) {
      write_status_locked("running");
    }
  });
}

CampaignTelemetry::~CampaignTelemetry() { finish(/*interrupted=*/true); }

std::size_t CampaignTelemetry::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_.records;
}

void CampaignTelemetry::record(const GroupMetric& m) {
  const std::lock_guard<std::mutex> lock(mu_);
  lines_ += metric_to_json(m);
  lines_ += '\n';
  totals_.add(m);
  ++unflushed_;

  if (opt_.rewrite_every != 0 && unflushed_ >= opt_.rewrite_every) {
    flush_metrics_locked();
  }
}

void CampaignTelemetry::finish(bool interrupted) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    flush_metrics_locked();
    write_status_locked(interrupted ? "interrupted" : "done");
  }
  finished_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

void CampaignTelemetry::flush_metrics_locked() {
  if (opt_.metrics_path.empty()) return;
  // Telemetry must never take a campaign down: an unwritable sink is
  // reported once and abandoned, the simulation (and its journal, which
  // keeps its own fail-loudly contract) continues.
  try {
    util::write_file_atomic(opt_.metrics_path, lines_, opt_.durability);
    unflushed_ = 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: metrics sink disabled: %s\n", e.what());
    opt_.metrics_path.clear();
  }
}

std::string CampaignTelemetry::status_json_locked(const char* state) const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  const MetricsSummary& s = totals_;
  const double eta = eta_seconds(s.records, s.seeded, groups_total_, elapsed);

  std::string out = "{\"schema\":\"sbst-campaign-status-v1\"";
  out += ",\"state\":";
  append_json_string(out, state);
  out += ",\"mode\":";
  append_json_string(out, mode_);
  append_u64(out, "pid", static_cast<std::uint64_t>(::getpid()));
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"fingerprint\":\"%016" PRIx64 "\"",
                fingerprint_);
  out += buf;
  if (opt_.shard_count > 1) {
    append_u64(out, "shard", opt_.shard_index);
    append_u64(out, "shard_count", opt_.shard_count);
  }
  append_u64(out, "groups_total", groups_total_);
  append_u64(out, "groups_done", s.records);
  append_u64(out, "groups_seeded", s.seeded);
  append_u64(out, "timed_out_groups", s.timed_out_groups);
  append_u64(out, "quarantined_groups", s.quarantined_groups);
  append_u64(out, "retries", s.retries);
  append_u64(out, "faults", s.faults);
  append_u64(out, "detected", s.detected);
  append_u64(out, "gates_evaluated", s.gates_evaluated);
  append_u64(out, "sim_cycles", s.sim_cycles);
  std::snprintf(buf, sizeof(buf), ",\"elapsed_s\":%.3f", elapsed);
  out += buf;
  if (eta >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"eta_s\":%.3f", eta);
    out += buf;
  } else {
    out += ",\"eta_s\":null";
  }
  out += "}\n";
  return out;
}

void CampaignTelemetry::write_status_locked(const char* state) {
  if (opt_.status_path.empty()) return;
  // Building the JSON is inside the try too: the heartbeat thread must
  // not let an exception escape.
  try {
    util::write_file_atomic(opt_.status_path, status_json_locked(state),
                            opt_.durability);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: status sink disabled: %s\n", e.what());
    opt_.status_path.clear();
  }
}

}  // namespace sbst::telemetry

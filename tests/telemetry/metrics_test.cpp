// Contracts of the telemetry primitives: the NDJSON line codec must
// round-trip every field (with u64 counters preserved exactly), the
// ETA estimator must rate-limit itself to groups simulated this run,
// and CampaignTelemetry must leave complete, parseable files behind in
// every exit path — finished, and abandoned mid-campaign — with a
// status heartbeat that is live from construction to finish() and
// silent after it.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.h"
#include "temp_path.h"

namespace sbst::telemetry {
namespace {

using testfs::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Polls for up to 2 s: a heartbeat period of 20 ms gets ~100 chances.
bool wait_for_file(const std::string& path) {
  for (int i = 0; i < 200 && !file_exists(path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return file_exists(path);
}

std::map<std::string, JsonValue> read_status(const std::string& path) {
  std::map<std::string, JsonValue> status;
  EXPECT_TRUE(parse_flat_json_object(slurp(path), &status)) << path;
  return status;
}

TEST(Json, StringEscapingRoundTrips) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");

  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(parse_flat_json_object("{\"k\":" + out + "}", &obj));
  ASSERT_EQ(obj.count("k"), 1u);
  EXPECT_EQ(obj["k"].kind, JsonValue::Kind::kString);
  EXPECT_EQ(obj["k"].str, "a\"b\\c\nd\te\x01");
}

TEST(Json, NumbersPreserveU64Exactly) {
  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(parse_flat_json_object(
      "{\"big\": 18446744073709551615, \"deci\": -1.5, \"flag\": true, "
      "\"gone\": null, \"sci\": 1e3}",
      &obj));
  // 2^64-1 does not survive a double; the parser must keep the integer.
  ASSERT_TRUE(obj["big"].u64_valid);
  EXPECT_EQ(obj["big"].u64, 18446744073709551615ull);
  EXPECT_FALSE(obj["deci"].u64_valid);
  EXPECT_DOUBLE_EQ(obj["deci"].number, -1.5);
  EXPECT_EQ(obj["flag"].kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(obj["flag"].boolean);
  EXPECT_EQ(obj["gone"].kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(obj["sci"].u64_valid);  // exponent form is not a counter
  EXPECT_DOUBLE_EQ(obj["sci"].number, 1000.0);
}

TEST(Json, RejectsMalformedAndNestedInput) {
  std::map<std::string, JsonValue> obj;
  EXPECT_TRUE(parse_flat_json_object("{}", &obj));
  EXPECT_TRUE(parse_flat_json_object("  { \"a\" : 1 } ", &obj));
  for (const char* bad : {
           "",
           "{",
           "{\"a\":}",
           "{\"a\":1,}",
           "{\"a\":1}x",
           "{\"a\":\"unterminated}",
           "{\"a\":\"bad\\q\"}",
           "{\"a\":{\"nested\":1}}",
           "{\"a\":[1,2]}",
           "{\"a\":tru}",
           "{a:1}",
       }) {
    EXPECT_FALSE(parse_flat_json_object(bad, &obj)) << bad;
  }
}

GroupMetric sample_metric() {
  GroupMetric m;
  m.group = 42;
  m.faults = 63;
  m.detected = 61;
  m.engine = "event";
  m.seeded = false;
  m.timed_out = true;
  m.quarantined = false;
  m.cycles = 9120;
  // Above 2^53: lost if anything routes this through a double.
  m.gates_evaluated = (1ull << 60) + 12345;
  m.sim_cycles = 777777;
  m.attempts = 3;
  m.duration_ms = 12.413;
  m.max_rss_kb = 65536;
  m.cpu_ms = 2048;
  return m;
}

TEST(Metrics, NdjsonLineRoundTripsEveryField) {
  const GroupMetric m = sample_metric();
  const std::string line = metric_to_json(m);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;

  GroupMetric back;
  ASSERT_TRUE(metric_from_json(line, &back)) << line;
  EXPECT_EQ(back.group, m.group);
  EXPECT_EQ(back.faults, m.faults);
  EXPECT_EQ(back.detected, m.detected);
  EXPECT_EQ(back.engine, m.engine);
  EXPECT_EQ(back.seeded, m.seeded);
  EXPECT_EQ(back.timed_out, m.timed_out);
  EXPECT_EQ(back.quarantined, m.quarantined);
  EXPECT_EQ(back.cycles, m.cycles);
  EXPECT_EQ(back.gates_evaluated, m.gates_evaluated);
  EXPECT_EQ(back.sim_cycles, m.sim_cycles);
  EXPECT_EQ(back.attempts, m.attempts);
  EXPECT_NEAR(back.duration_ms, m.duration_ms, 1e-3);
  EXPECT_EQ(back.max_rss_kb, m.max_rss_kb);
  EXPECT_EQ(back.cpu_ms, m.cpu_ms);
}

TEST(Metrics, FromJsonToleratesUnknownKeysAndDefaultsMissingOnes) {
  GroupMetric m;
  ASSERT_TRUE(metric_from_json(
      "{\"group\": 5, \"future_field\": \"whatever\"}", &m));
  EXPECT_EQ(m.group, 5u);
  EXPECT_EQ(m.engine, "none");
  EXPECT_EQ(m.attempts, 1u);
  EXPECT_FALSE(m.seeded);
}

TEST(Metrics, FromJsonRejectsMalformedLines) {
  GroupMetric m;
  for (const char* bad : {
           "not json at all",
           "{\"group\": \"five\"}",            // type mismatch
           "{\"faults\": 64}",                 // > 63 faults per group
           "{\"faults\": 3, \"detected\": 4}", // detected > faults
           "{\"duration_ms\": -1}",
           "{\"seeded\": 1}",                  // flag must be a bool
       }) {
    EXPECT_FALSE(metric_from_json(bad, &m)) << bad;
  }
}

TEST(Metrics, EtaRatesOnlyGroupsSimulatedThisRun) {
  // Fewer than two fresh groups: no estimate.
  EXPECT_LT(eta_seconds(0, 0, 10, 5.0), 0.0);
  EXPECT_LT(eta_seconds(1, 0, 10, 5.0), 0.0);
  EXPECT_LT(eta_seconds(5, 4, 10, 5.0), 0.0);
  // Inconsistent inputs: no estimate.
  EXPECT_LT(eta_seconds(12, 0, 10, 5.0), 0.0);
  EXPECT_LT(eta_seconds(5, 0, 10, -1.0), 0.0);
  // Fresh campaign: 5 groups in 5s, 5 to go -> 5s.
  EXPECT_DOUBLE_EQ(eta_seconds(5, 0, 10, 5.0), 5.0);
  // The resume case this helper exists for: 8 done but 6 of them were
  // seeded replays. The rate is 2 fresh groups per 4s, so the 2
  // remaining groups cost ~4s — not the ~1s a done/elapsed rate claims.
  EXPECT_DOUBLE_EQ(eta_seconds(8, 6, 10, 4.0), 4.0);
  EXPECT_DOUBLE_EQ(eta_seconds(10, 0, 10, 9.0), 0.0);
}

TEST(CampaignTelemetryFiles, WritesParseableMetricsAndStatus) {
  TelemetryOptions opt;
  opt.metrics_path = temp_path("tele_metrics.ndjson");
  opt.status_path = temp_path("tele_status.json");
  opt.rewrite_every = 2;  // exercise the periodic rewrite path
  opt.heartbeat_period_s = 0.0;
  std::remove(opt.metrics_path.c_str());
  std::remove(opt.status_path.c_str());

  CampaignTelemetry tele(opt, "threads", 4, /*fingerprint=*/1);
  for (std::uint64_t g = 0; g < 4; ++g) {
    GroupMetric m = sample_metric();
    m.group = g;
    m.timed_out = false;
    m.attempts = 1;
    m.seeded = g < 2;
    tele.record(m);
  }
  tele.finish(/*interrupted=*/false);
  EXPECT_EQ(tele.records(), 4u);

  // Every line of the metrics file parses, groups in record order.
  std::ifstream in(opt.metrics_path);
  ASSERT_TRUE(in);
  std::string line;
  std::vector<GroupMetric> got;
  while (std::getline(in, line)) {
    GroupMetric m;
    ASSERT_TRUE(metric_from_json(line, &m)) << line;
    got.push_back(m);
  }
  ASSERT_EQ(got.size(), 4u);
  for (std::uint64_t g = 0; g < 4; ++g) EXPECT_EQ(got[g].group, g);

  // The status file is one flat JSON object with the terminal state.
  std::map<std::string, JsonValue> status;
  ASSERT_TRUE(parse_flat_json_object(slurp(opt.status_path), &status));
  EXPECT_EQ(status["schema"].str, "sbst-campaign-status-v1");
  EXPECT_EQ(status["state"].str, "done");
  EXPECT_EQ(status["mode"].str, "threads");
  EXPECT_EQ(status["groups_total"].u64, 4u);
  EXPECT_EQ(status["groups_done"].u64, 4u);
  EXPECT_EQ(status["groups_seeded"].u64, 2u);
  EXPECT_EQ(status["faults"].u64, 4u * 63);
  EXPECT_EQ(status["detected"].u64, 4u * 61);
  EXPECT_EQ(status["gates_evaluated"].u64, 4 * ((1ull << 60) + 12345));
}

TEST(CampaignTelemetryFiles, AbandonedRunFlushesAsInterrupted) {
  TelemetryOptions opt;
  opt.metrics_path = temp_path("tele_abandoned.ndjson");
  opt.status_path = temp_path("tele_abandoned_status.json");
  opt.rewrite_every = 0;  // nothing hits disk until the flush
  opt.heartbeat_period_s = 3600.0;
  std::remove(opt.metrics_path.c_str());
  std::remove(opt.status_path.c_str());
  {
    CampaignTelemetry tele(opt, "isolate", 9, /*fingerprint=*/1);
    GroupMetric m = sample_metric();
    tele.record(m);
    // No finish(): the campaign unwound (exception, early return).
  }
  GroupMetric back;
  std::istringstream lines(slurp(opt.metrics_path));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(metric_from_json(line, &back));

  std::map<std::string, JsonValue> status;
  ASSERT_TRUE(parse_flat_json_object(slurp(opt.status_path), &status));
  EXPECT_EQ(status["state"].str, "interrupted");
  EXPECT_EQ(status["mode"].str, "isolate");
  EXPECT_EQ(status["groups_done"].u64, 1u);
}

TEST(CampaignTelemetryFiles, StatusNamesPidAndFingerprintBeforeAnyRecord) {
  TelemetryOptions opt;
  opt.status_path = temp_path("tele_first_beat.json");
  opt.heartbeat_period_s = 3600.0;  // only the constructor's write lands
  std::remove(opt.status_path.c_str());

  CampaignTelemetry tele(opt, "threads", 7, 0x00c0ffee12345678ull);
  std::map<std::string, JsonValue> status = read_status(opt.status_path);
  EXPECT_EQ(status["state"].str, "running");
  EXPECT_EQ(status["groups_total"].u64, 7u);
  ASSERT_TRUE(status["groups_done"].u64_valid);
  EXPECT_EQ(status["groups_done"].u64, 0u);
  ASSERT_TRUE(status["pid"].u64_valid);
  EXPECT_EQ(status["pid"].u64, static_cast<std::uint64_t>(::getpid()));
  // 16 hex digits, zero-padded: a dispatcher compares it as a string.
  EXPECT_EQ(status["fingerprint"].str, "00c0ffee12345678");
}

TEST(CampaignTelemetryFiles, HeartbeatRewritesADeletedStatusFile) {
  TelemetryOptions opt;
  opt.status_path = temp_path("tele_heartbeat.json");
  opt.heartbeat_period_s = 0.02;
  std::remove(opt.status_path.c_str());

  CampaignTelemetry tele(opt, "threads", 3, 1);
  ASSERT_TRUE(file_exists(opt.status_path));
  // record() does not write the status: a deleted file comes back
  // only from the timer, and the next beat carries the new record.
  tele.record(sample_metric());
  std::remove(opt.status_path.c_str());
  ASSERT_TRUE(wait_for_file(opt.status_path));
  std::map<std::string, JsonValue> status = read_status(opt.status_path);
  EXPECT_EQ(status["state"].str, "running");
  EXPECT_EQ(status["groups_done"].u64, 1u);
}

TEST(CampaignTelemetryFiles, FinishWritesTheTerminalStateOnceAndLast) {
  TelemetryOptions opt;
  opt.status_path = temp_path("tele_finish.json");
  opt.heartbeat_period_s = 0.01;
  std::remove(opt.status_path.c_str());
  {
    CampaignTelemetry tele(opt, "threads", 2, 1);
    tele.record(sample_metric());
    tele.finish(/*interrupted=*/false);
    std::map<std::string, JsonValue> status = read_status(opt.status_path);
    EXPECT_EQ(status["state"].str, "done");
    EXPECT_EQ(status["groups_done"].u64, 1u);

    // Neither the heartbeat, a second finish() nor the destructor
    // writes again.
    std::remove(opt.status_path.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(file_exists(opt.status_path));
    tele.finish(/*interrupted=*/true);
    EXPECT_FALSE(file_exists(opt.status_path));
  }
  EXPECT_FALSE(file_exists(opt.status_path));
}

}  // namespace
}  // namespace sbst::telemetry

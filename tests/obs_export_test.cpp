// Exporter validation: a deterministic chaos run records a real trace, and
// the Chrome-trace JSON it produces must parse and be structurally valid —
// every event well-formed, every node represented as a process track. Also
// covers the CSV and text exporters, which have no compile-time gate.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "chaos/chaos.hpp"
#include "chaos/workload.hpp"
#include "core/cluster.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mrts::obs {
namespace {

constexpr std::size_t kNodes = 4;

/// Runs the hop workload under the deterministic chaos driver with the
/// global recorder enabled (virtual clock), and returns the rendered
/// Chrome-trace document. The recorder is left disabled afterwards.
std::string record_chaos_trace() {
  auto& tr = TraceRecorder::global();
  tr.disable();
  tr.reset();
  tr.enable({.ring_capacity = 1u << 16, .clock = TraceClock::kVirtual});

  chaos::ChaosPlan plan;
  plan.seed = 7;
  plan.net.delay_rate = 0.05;
  plan.net.max_delay_steps = 4;
  chaos::Harness harness(plan);

  core::ClusterOptions options;
  options.nodes = kNodes;
  options.runtime.ooc.memory_budget_bytes = 256u << 10;
  options.spill = core::SpillMedium::kMemory;
  harness.instrument(options);
  core::Cluster cluster(options);

  chaos::HopWorkloadOptions wl;
  wl.payload_words = 512;
  wl.routes = 64;
  wl.route_length = 8;
  wl.migrate_every = 4;
  chaos::HopWorkload workload(cluster, wl);
  workload.create_objects();
  workload.inject();
  (void)cluster.run();

  tr.disable();
  return chrome_trace_json(tr);
}

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!TraceRecorder::compiled_in()) {
      GTEST_SKIP() << "tracing compiled out (MRTS_TRACE=OFF)";
    }
  }
  void TearDown() override {
    auto& tr = TraceRecorder::global();
    tr.disable();
    tr.reset();
  }
};

void check_event_shape(const JsonValue& ev) {
  ASSERT_TRUE(ev.is_object());
  const JsonValue* name = ev.get("name");
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->is_string());
  const JsonValue* ph = ev.get("ph");
  ASSERT_NE(ph, nullptr);
  ASSERT_TRUE(ph->is_string());
  const std::string& phase = ph->as_string();
  static const std::set<std::string> kPhases = {"B", "E", "i", "C", "X", "M"};
  EXPECT_TRUE(kPhases.count(phase)) << "unknown phase " << phase;
  const JsonValue* pid = ev.get("pid");
  ASSERT_NE(pid, nullptr);
  EXPECT_TRUE(pid->is_number());
  const JsonValue* tid = ev.get("tid");
  ASSERT_NE(tid, nullptr);
  EXPECT_TRUE(tid->is_number());
  if (phase == "M") {
    // Metadata events carry no timestamp, only an args.name label.
    const JsonValue* args = ev.get("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    const JsonValue* label = args->get("name");
    ASSERT_NE(label, nullptr);
    EXPECT_TRUE(label->is_string());
    return;
  }
  const JsonValue* ts = ev.get("ts");
  ASSERT_NE(ts, nullptr);
  EXPECT_TRUE(ts->is_number());
  EXPECT_GE(ts->as_number(), 0.0);
  const JsonValue* cat = ev.get("cat");
  ASSERT_NE(cat, nullptr);
  EXPECT_TRUE(cat->is_string());
  if (phase == "X") {
    const JsonValue* dur = ev.get("dur");
    ASSERT_NE(dur, nullptr);
    EXPECT_TRUE(dur->is_number());
    EXPECT_GE(dur->as_number(), 0.0);
  }
}

TEST_F(ExportTest, ChaosRunProducesValidChromeTrace) {
  const std::string doc = record_chaos_trace();
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());

  const JsonValue* unit = root.get("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_TRUE(unit->is_string());

  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty()) << "chaos run recorded no events";

  std::set<int> pids;
  std::size_t bodies = 0;
  for (const JsonValue& ev : events->items()) {
    check_event_shape(ev);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string& phase = ev.get("ph")->as_string();
    if (phase != "M") {
      ++bodies;
      pids.insert(static_cast<int>(ev.get("pid")->as_number()));
    }
  }
  EXPECT_GT(bodies, 0u);
  // Every node ran handler work, so every node id appears as a process.
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(pids.count(static_cast<int>(n)))
        << "node " << n << " missing from trace";
  }
}

TEST_F(ExportTest, WriteChromeTraceRoundTripsThroughAFile) {
  (void)record_chaos_trace();
  // Under TMPDIR, unique per process, and removed however the test ends.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("obs_export_test_trace-" + std::to_string(::getpid()) + ".json"))
          .string();
  const struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } cleanup{path};
  const util::Status st = write_chrome_trace(path);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = parse_json(buf.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const JsonValue* events = parsed.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_FALSE(events->items().empty());
}

TEST_F(ExportTest, VirtualTimestampsAreMonotonePerLane) {
  const std::string doc = record_chaos_trace();
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const JsonValue* events = parsed.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  // The deterministic driver is single-threaded, so one recording lane; its
  // virtual timestamps must never go backwards in dump order. "X" events
  // are exempt: they carry their span's *start* time but are recorded at
  // close, so they legitimately sort behind later instants.
  std::map<double, double> last_ts_by_tid;
  for (const JsonValue& ev : events->items()) {
    const std::string& ph = ev.get("ph")->as_string();
    if (ph == "M" || ph == "X") continue;
    const double tid = ev.get("tid")->as_number();
    const double ts = ev.get("ts")->as_number();
    const auto it = last_ts_by_tid.find(tid);
    if (it != last_ts_by_tid.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regressed on tid " << tid;
      it->second = std::max(it->second, ts);
    } else {
      last_ts_by_tid[tid] = ts;
    }
  }
  EXPECT_FALSE(last_ts_by_tid.empty());
}

TEST(ExportPlainTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ExportPlainTest, MetricsCsvHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.counter("swaps").inc(12);
  reg.histogram("latency").observe(100);
  const std::string csv = metrics_csv(reg.snapshot());
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "name,kind,value,sum,p50,p99");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++rows;
    // Five commas separate the six columns.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5)
        << "malformed row: " << line;
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_NE(csv.find("swaps,counter,12"), std::string::npos);
}

TEST(ExportPlainTest, TextSummaryMentionsTraceAndMetrics) {
  MetricsRegistry reg;
  reg.counter("ticks").inc(3);
  const std::string out =
      text_summary(TraceRecorder::global(), reg.snapshot(), kMaxTracks);
  EXPECT_NE(out.find("trace:"), std::string::npos);
  EXPECT_NE(out.find("ticks"), std::string::npos);
}

}  // namespace
}  // namespace mrts::obs

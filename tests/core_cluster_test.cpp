// Multi-node tests of the MRTS cluster: remote messaging, the lazy-update
// distributed directory, migration, multicast collection, termination
// detection, which driver runs a run (the workers or a sweep on the calling
// thread), the threaded driver's worker lifecycle, which spill stacks run
// their storage inline, the modeled device's virtual clock, and out-of-core
// behaviour under remote traffic on an inline (kMemory) and a threaded
// (kFile) stack.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "util/timer.hpp"

namespace mrts::core {
namespace {

class Box : public MobileObject {
 public:
  std::uint64_t value = 0;
  std::vector<std::uint64_t> data;

  void serialize(util::ByteWriter& out) const override {
    out.write(value);
    out.write_vector(data);
  }
  void deserialize(util::ByteReader& in) override {
    value = in.read<std::uint64_t>();
    data = in.read_vector<std::uint64_t>();
  }
  std::size_t footprint_bytes() const override {
    return sizeof(Box) + data.size() * sizeof(std::uint64_t);
  }
};

std::vector<std::byte> arg_u64(std::uint64_t v) {
  util::ByteWriter w;
  w.write(v);
  return w.take();
}

/// True on the thread that runs the test body: a handler that sees it ran
/// on the thread that called Cluster::run().
thread_local bool t_test_thread = false;

class ClusterTest : public ::testing::Test {
 protected:
  explicit ClusterTest(std::size_t nodes = 4, std::size_t budget_mb = 64,
                       SpillMedium spill = SpillMedium::kMemory) {
    ClusterOptions options;
    options.nodes = nodes;
    options.runtime.ooc.memory_budget_bytes = budget_mb << 20;
    options.spill = spill;
    // kFile spill directories go under the temp path and are removed with
    // the cluster.
    options.spill_tag = "cluster-test-" + std::to_string(::getpid());
    options.max_run_time = std::chrono::seconds(120);
    cluster_ = std::make_unique<Cluster>(options);
    t_test_thread = true;
    type_ = cluster_->registry().register_type<Box>("box");
    h_add_ = cluster_->registry().register_handler(
        type_, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                  util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    // Ping-pong: forward a decrementing counter to the peer given in args.
    h_pingpong_ = cluster_->registry().register_handler(
        type_, [this](Runtime& rt, MobileObject& obj, MobilePtr, NodeId,
                      util::ByteReader& in) {
          const auto ttl = in.read<std::uint64_t>();
          const MobilePtr peer{in.read<std::uint64_t>()};
          auto& box = static_cast<Box&>(obj);
          box.value += 1;
          if (ttl > 0) {
            util::ByteWriter w;
            w.write(ttl - 1);
            w.write(peer.id);  // payload keeps naming the other end
            rt.send(peer, h_pingpong_, w.take());
          }
        });
    // Ballast: sleeps (so nodes on a shared core still overlap) for as long
    // as calibrate_ballast() set.
    h_ballast_ = cluster_->registry().register_handler(
        type_, [this](Runtime&, MobileObject&, MobilePtr, NodeId,
                      util::ByteReader&) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(ballast_seconds_));
        });
    h_where_ = cluster_->registry().register_handler(
        type_, [this](Runtime&, MobileObject&, MobilePtr, NodeId,
                      util::ByteReader&) {
          probe_on_caller_.store(t_test_thread ? 1 : 0);
        });
  }
  ~ClusterTest() override { t_test_thread = false; }

  Box& box_on(NodeId node, MobilePtr p) {
    auto* obj = cluster_->node(node).peek(p);
    EXPECT_NE(obj, nullptr) << "object not in-core on node " << node;
    return static_cast<Box&>(*obj);
  }

  /// Posts the ballast to every node.
  void post_ballast() {
    for (NodeId id = 0; id < cluster_->size(); ++id) {
      if (ballast_.size() == id) {
        auto [p, box] = cluster_->node(id).create<Box>(type_);
        cluster_->node(id).lock_in_core(p);
        ballast_.push_back(p);
      }
      cluster_->node(id).send(ballast_[id], h_ballast_, arg_u64(0));
    }
  }

  /// Posts a probe message from node 0 to an object on the last node; after
  /// the run, probe_swept() tells whether its handler ran on this thread.
  void post_probe() {
    if (!probe_.has_value()) {
      const auto last = static_cast<NodeId>(cluster_->size() - 1);
      probe_ = cluster_->node(last).create<Box>(type_).first;
    }
    probe_on_caller_.store(-1);
    cluster_->node(0).send(*probe_, h_where_, arg_u64(0));
  }
  [[nodiscard]] bool probe_swept() const {
    EXPECT_NE(probe_on_caller_.load(), -1) << "the probe did not run";
    return probe_on_caller_.load() == 1;
  }

  /// One run with a probe (and the ballast when `ballast`): did it sweep?
  bool probe_run_swept(bool ballast = false) {
    post_probe();
    if (ballast) post_ballast();
    const RunReport report = cluster_->run();
    EXPECT_FALSE(report.timed_out);
    last_run_seconds_ = report.total_seconds;
    return probe_swept();
  }

  /// Runs the cluster's first run, a light one, which wakes the workers,
  /// and sizes the ballast from it. The rule sweeps a run when the run
  /// before it did less work on all but its busiest node than the smallest
  /// wall time minus busiest node's work of any threaded run, and that is
  /// at most this run's wall time. A run whose ballast sums to twice that
  /// wall time on all but one node therefore sends the next run to the
  /// workers, however loaded the host.
  void calibrate_ballast() {
    EXPECT_FALSE(probe_run_swept()) << "the first run swept";
    ballast_seconds_ = 2.0 * last_run_seconds_ /
                       static_cast<double>(cluster_->size() - 1);
  }

  /// Readies the cluster for run_threaded(), before any work is posted:
  /// calibrates the ballast on the cluster's first run, then runs the
  /// ballast once, which sweeps because the run before it was light.
  void start_threaded_runs() {
    calibrate_ballast();
    EXPECT_TRUE(probe_run_swept(/*ballast=*/true));
  }

  /// A run that stays on the workers, as its probe checks: the run before
  /// it carried the ballast (see start_threaded_runs()), and so does this
  /// one.
  RunReport run_threaded() {
    EXPECT_GT(ballast_seconds_, 0.0) << "start_threaded_runs() first";
    post_ballast();
    post_probe();
    const RunReport report = cluster_->run();
    EXPECT_FALSE(probe_swept()) << "a run after a ballast run swept";
    return report;
  }

  /// run_threaded() when `threaded`, else a plain run(): its first run
  /// wakes the workers and its light later runs sweep.
  RunReport run_on(bool threaded) {
    return threaded ? run_threaded() : cluster_->run();
  }

  // Test bodies with a threaded and a sweeping instance.
  void two_phase_runs_accumulate(bool threaded);
  void back_to_back_pingpong_runs(bool threaded);

  std::unique_ptr<Cluster> cluster_;
  TypeId type_ = 0;
  HandlerId h_add_ = 0, h_pingpong_ = 0, h_ballast_ = 0, h_where_ = 0;
  std::vector<MobilePtr> ballast_;  // one pinned object per node
  double ballast_seconds_ = 0.0;    // per node; 0 until calibrated
  double last_run_seconds_ = 0.0;   // wall time of the last probe run
  std::optional<MobilePtr> probe_;
  std::atomic<int> probe_on_caller_{-1};
};

TEST_F(ClusterTest, RemoteSendReachesHomeNode) {
  auto [ptr, box] = cluster_->node(2).create<Box>(type_);
  cluster_->node(0).send(ptr, h_add_, arg_u64(21));
  cluster_->node(1).send(ptr, h_add_, arg_u64(21));
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(box_on(2, ptr).value, 42u);
  EXPECT_GE(cluster_->fabric().stats().messages_sent, 2u);
}

TEST_F(ClusterTest, PingPongAcrossNodesTerminates) {
  auto [a, boxa] = cluster_->node(0).create<Box>(type_);
  auto [b, boxb] = cluster_->node(3).create<Box>(type_);
  util::ByteWriter w;
  w.write<std::uint64_t>(99);  // 100 handler executions in total
  w.write(a.id);               // b's peer is a
  cluster_->node(0).send(b, h_pingpong_, w.take());
  // The payload names a fixed peer, so a's peer must be b: reconstruct by
  // sending the first hop to b with peer=a; the chain alternates correctly
  // because each hop swaps target and peer.
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(box_on(0, a).value + box_on(3, b).value, 100u);
}

TEST_F(ClusterTest, MigrationMovesObjectAndQueue) {
  auto [ptr, box] = cluster_->node(0).create<Box>(type_);
  box->data.assign(1000, 17);
  cluster_->node(0).send(ptr, h_add_, arg_u64(1));
  cluster_->node(0).migrate(ptr, 2);
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_FALSE(cluster_->node(0).is_local(ptr));
  ASSERT_TRUE(cluster_->node(2).is_local(ptr));
  cluster_->node(2).lock_in_core(ptr);
  (void)cluster_->run();
  EXPECT_EQ(box_on(2, ptr).value, 1u);
  EXPECT_EQ(box_on(2, ptr).data.size(), 1000u);
  EXPECT_EQ(cluster_->node(2).counters().migrations_in.load(), 1u);
}

TEST_F(ClusterTest, LazyDirectoryForwardsAndLearns) {
  auto [ptr, box] = cluster_->node(0).create<Box>(type_);
  cluster_->node(0).migrate(ptr, 1);
  (void)cluster_->run();
  ASSERT_TRUE(cluster_->node(1).is_local(ptr));

  // Node 3 has never heard of the object: its message goes to the home node
  // (0), which forwards to 1; the delivery triggers location updates.
  cluster_->node(3).send(ptr, h_add_, arg_u64(5));
  (void)cluster_->run();
  EXPECT_EQ(box_on(1, ptr).value, 5u);
  EXPECT_GE(cluster_->node(0).counters().messages_forwarded.load(), 1u);
  const auto updates_after_first =
      cluster_->node(1).counters().location_updates.load();
  EXPECT_GE(updates_after_first, 1u);

  // Second message from node 3 must go directly (no new forwards).
  const auto forwards_before =
      cluster_->node(0).counters().messages_forwarded.load();
  cluster_->node(3).send(ptr, h_add_, arg_u64(5));
  (void)cluster_->run();
  EXPECT_EQ(box_on(1, ptr).value, 10u);
  EXPECT_EQ(cluster_->node(0).counters().messages_forwarded.load(),
            forwards_before);
}

TEST_F(ClusterTest, MulticastCollectsAndDelivers) {
  auto [a, boxa] = cluster_->node(0).create<Box>(type_);
  auto [b, boxb] = cluster_->node(1).create<Box>(type_);
  auto [c, boxc] = cluster_->node(2).create<Box>(type_);
  // Deliver to the first 2 of {a, b, c} once all three are co-resident.
  cluster_->node(0).send_multicast({a, b, c}, 2, h_add_, arg_u64(100));
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  // All three collected on node 0 (owner of the first target).
  EXPECT_TRUE(cluster_->node(0).is_local(a));
  EXPECT_TRUE(cluster_->node(0).is_local(b));
  EXPECT_TRUE(cluster_->node(0).is_local(c));
  EXPECT_EQ(box_on(0, a).value, 100u);
  EXPECT_EQ(box_on(0, b).value, 100u);
  EXPECT_EQ(box_on(0, c).value, 0u);  // beyond deliver_count
}

TEST_F(ClusterTest, MulticastFromNonOwnerRoutesToOwner) {
  auto [a, boxa] = cluster_->node(1).create<Box>(type_);
  auto [b, boxb] = cluster_->node(2).create<Box>(type_);
  cluster_->node(3).send_multicast({a, b}, 1, h_add_, arg_u64(7));
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_TRUE(cluster_->node(1).is_local(a));
  EXPECT_TRUE(cluster_->node(1).is_local(b));  // collected at a's owner
  EXPECT_EQ(box_on(1, a).value, 7u);
  EXPECT_EQ(box_on(1, b).value, 0u);
}

// The first run wakes the workers and the second, a light one, sweeps; the
// threaded instance keeps both on the workers.
void ClusterTest::two_phase_runs_accumulate(bool threaded) {
  if (threaded) start_threaded_runs();
  auto [ptr, box] = cluster_->node(0).create<Box>(type_);
  cluster_->node(1).send(ptr, h_add_, arg_u64(1));
  (void)run_on(threaded);
  EXPECT_EQ(box_on(0, ptr).value, 1u);
  cluster_->node(1).send(ptr, h_add_, arg_u64(2));
  (void)run_on(threaded);
  EXPECT_EQ(box_on(0, ptr).value, 3u);
}

TEST_F(ClusterTest, TwoPhaseRunsAccumulate) {
  two_phase_runs_accumulate(/*threaded=*/false);
}

TEST_F(ClusterTest, TwoPhaseThreadedRunsAccumulate) {
  two_phase_runs_accumulate(/*threaded=*/true);
}

TEST_F(ClusterTest, EmptyRunTerminatesImmediately) {
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_LT(report.total_seconds, 5.0);
}

TEST_F(ClusterTest, SumCountersThrowsWhileRunInFlight) {
  // A handler parks on a gate so the cluster is provably mid-run when the
  // main thread probes the counters.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const HandlerId h_park = cluster_->registry().register_handler(
      type_, [&entered, &release](Runtime&, MobileObject&, MobilePtr, NodeId,
                                  util::ByteReader&) {
        entered.store(true);
        while (!release.load()) std::this_thread::yield();
      });
  auto [ptr, box] = cluster_->node(0).create<Box>(type_);
  cluster_->node(1).send(ptr, h_park, arg_u64(0));

  std::thread runner([this] { (void)cluster_->run(); });
  while (!entered.load()) std::this_thread::yield();
  EXPECT_THROW(
      (void)cluster_->sum_counters(
          [](const NodeCounters& c) { return c.messages_executed.load(); }),
      std::logic_error);
  release.store(true);
  runner.join();

  // Quiescent again: the same call now succeeds and sees the parked handler.
  const auto executed = cluster_->sum_counters(
      [](const NodeCounters& c) { return c.messages_executed.load(); });
  EXPECT_GE(executed, 1u);
}

// --- which driver runs a run -------------------------------------------------

TEST_F(ClusterTest, FirstRunWakesTheWorkers) {
  EXPECT_FALSE(probe_run_swept());
}

TEST_F(ClusterTest, LightRunAfterAThreadedOneSweepsOnTheCallingThread) {
  EXPECT_FALSE(probe_run_swept());
  EXPECT_TRUE(probe_run_swept());
  EXPECT_TRUE(probe_run_swept());
}

TEST_F(ClusterTest, RunAfterAHeavyOneGoesBackToTheWorkers) {
  calibrate_ballast();
  EXPECT_TRUE(probe_run_swept());
  // The run before this one was light, so this one sweeps, ballast and
  // all; its work is what the next run is judged by.
  EXPECT_TRUE(probe_run_swept(/*ballast=*/true));
  EXPECT_FALSE(probe_run_swept());
  EXPECT_TRUE(probe_run_swept());
}

// --- threaded driver lifecycle ----------------------------------------------

TEST_F(ClusterTest, NodeKeepsItsWorkerThreadAcrossRuns) {
  // A thread_local set by a handler in one run is visible to the next run's
  // handler on the same node only if the same thread drives the node. (A
  // std::thread::id comparison would not do: a new thread may reuse an
  // exited thread's descriptor and report the same id.) Each run follows a
  // run that carried the ballast, so both wake the workers.
  static thread_local std::uint64_t t_mark = 0;
  std::atomic<std::uint64_t> seen{~std::uint64_t{0}};
  const HandlerId h_mark = cluster_->registry().register_handler(
      type_, [&seen](Runtime&, MobileObject&, MobilePtr, NodeId,
                     util::ByteReader& in) {
        seen.store(t_mark);
        t_mark = in.read<std::uint64_t>();
      });
  start_threaded_runs();
  auto [ptr, box] = cluster_->node(2).create<Box>(type_);
  cluster_->node(0).send(ptr, h_mark, arg_u64(7));
  ASSERT_FALSE(run_threaded().timed_out);
  EXPECT_EQ(seen.load(), 0u);
  cluster_->node(0).send(ptr, h_mark, arg_u64(8));
  ASSERT_FALSE(run_threaded().timed_out);
  EXPECT_EQ(seen.load(), 7u);
}

// Light ping-pong chains sweep after the first run; the threaded instance
// parks, wakes and stops the workers a thousand times.
void ClusterTest::back_to_back_pingpong_runs(bool threaded) {
  if (threaded) start_threaded_runs();
  auto [a, boxa] = cluster_->node(0).create<Box>(type_);
  auto [b, boxb] = cluster_->node(3).create<Box>(type_);
  constexpr std::uint64_t kHops = 6;  // handler executions per run
  for (std::uint64_t run = 1; run <= 1000; ++run) {
    util::ByteWriter w;
    w.write<std::uint64_t>(kHops - 1);
    w.write(a.id);
    cluster_->node(1).send(b, h_pingpong_, w.take());
    const RunReport report = run_on(threaded);
    ASSERT_FALSE(report.timed_out) << "run " << run;
    ASSERT_EQ(box_on(0, a).value + box_on(3, b).value, run * kHops)
        << "run " << run;
  }
}

TEST_F(ClusterTest, ThousandBackToBackPingPongRunsEachCountExactly) {
  back_to_back_pingpong_runs(/*threaded=*/false);
}

TEST_F(ClusterTest, ThousandBackToBackThreadedPingPongRunsEachCountExactly) {
  back_to_back_pingpong_runs(/*threaded=*/true);
}

TEST_F(ClusterTest, HandlerExceptionEndsTheRunAndIsRethrown) {
  // The fixture's threaded cluster on its first run (on the workers), a
  // threaded cluster after a light run (a sweep on this thread), and a
  // deterministic one: every driver ends the run on the exception and
  // leaves the cluster readable.
  ClusterOptions small;
  small.nodes = 2;
  small.spill = SpillMedium::kMemory;
  small.max_run_time = std::chrono::seconds(120);
  Cluster swept(small);
  ClusterOptions det = small;
  det.deterministic = true;
  Cluster det_cluster(det);
  struct Input {
    const char* driver;
    Cluster* cluster;
    bool on_this_thread;
    HandlerId h_throw = 0;
    MobilePtr target{};
  };
  std::vector<Input> inputs = {{"threaded", cluster_.get(), false},
                               {"swept", &swept, true},
                               {"deterministic", &det_cluster, true}};
  std::atomic<int> thrown_on_this_thread{-1};
  for (Input& in : inputs) {
    Cluster& cluster = *in.cluster;
    const TypeId type = &cluster == cluster_.get()
                            ? type_
                            : cluster.registry().register_type<Box>("box");
    in.h_throw = cluster.registry().register_handler(
        type, [&thrown_on_this_thread](Runtime&, MobileObject&, MobilePtr,
                                       NodeId, util::ByteReader&) {
          thrown_on_this_thread.store(t_test_thread ? 1 : 0);
          throw std::runtime_error("handler failed");
        });
    const auto last = static_cast<NodeId>(cluster.size() - 1);
    in.target = cluster.node(last).create<Box>(type).first;
  }
  ASSERT_FALSE(swept.run().timed_out);  // empty: the next run sweeps
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.driver);
    in.cluster->node(0).send(in.target, in.h_throw, arg_u64(0));
    EXPECT_THROW((void)in.cluster->run(), std::runtime_error);
    EXPECT_EQ(thrown_on_this_thread.exchange(-1), in.on_this_thread ? 1 : 0);
    // Every worker parked again: the counters are readable and the cluster
    // tears down cleanly.
    EXPECT_NO_THROW((void)in.cluster->sum_counters(
        [](const NodeCounters& c) { return c.messages_executed.load(); }));
  }
}

TEST(ClusterLifecycle, DestroyAfterARunOrWithoutOneExitsCleanly) {
  ClusterOptions options;
  options.nodes = 4;
  options.spill = SpillMedium::kMemory;
  options.max_run_time = std::chrono::seconds(120);
  for (int i = 0; i < 50; ++i) {
    { Cluster never_ran(options); }
    Cluster ran(options);
    const TypeId type = ran.registry().register_type<Box>("box");
    const HandlerId add = ran.registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    auto [ptr, box] = ran.node(1).create<Box>(type);
    ran.node(0).send(ptr, add, arg_u64(1));
    ASSERT_FALSE(ran.run().timed_out);
    EXPECT_EQ(static_cast<Box*>(ran.node(1).peek(ptr))->value, 1u);
  }
}

TEST(ClusterLifecycle, DestroyRemovesFileSpillDirectories) {
  // Each node of a kFile cluster spills into its own mrts-<tag>-* directory
  // under the temp path; a destroyed cluster leaves none of them behind.
  namespace fs = std::filesystem;
  const auto entries_tagged = [](const std::string& tag) {
    const std::string prefix = "mrts-" + tag + "-";
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(fs::temp_directory_path())) {
      if (e.path().filename().string().starts_with(prefix)) ++n;
    }
    return n;
  };
  ClusterOptions options;
  options.nodes = 2;
  options.spill = SpillMedium::kFile;
  options.spill_tag = "rmdir-" + std::to_string(::getpid());
  options.runtime.ooc.memory_budget_bytes = 1u << 20;
  options.max_run_time = std::chrono::seconds(120);
  {
    Cluster cluster(options);
    const TypeId type = cluster.registry().register_type<Box>("box");
    const HandlerId add = cluster.registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    // 32 objects of ~80 KB against a 1 MB budget: most must spill.
    for (int i = 0; i < 32; ++i) {
      auto [p, box] = cluster.node(0).create<Box>(type);
      box->data.assign(10000, static_cast<std::uint64_t>(i));
      cluster.node(0).refresh_footprint(p);
      cluster.node(1).send(p, add, arg_u64(1));
    }
    ASSERT_FALSE(cluster.run().timed_out);
    ASSERT_GT(cluster.node(0).counters().objects_spilled.load(), 0u);
    EXPECT_EQ(entries_tagged(options.spill_tag), options.nodes);
  }
  EXPECT_EQ(entries_tagged(options.spill_tag), 0u);
}

TEST(ClusterSpillStack, OnlyABareMemoryStackRunsStorageInline) {
  // Per node: does its runtime do its storage inline (no I/O thread)?
  const auto inline_nodes = [](const ClusterOptions& options) {
    Cluster cluster(options);
    std::vector<bool> out;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      out.push_back(
          cluster.node(static_cast<NodeId>(i)).options().synchronous_storage);
    }
    return out;
  };
  ClusterOptions bare;
  bare.nodes = 2;
  bare.spill = SpillMedium::kMemory;
  bare.spill_tag = "inline-" + std::to_string(::getpid());
  EXPECT_EQ(inline_nodes(bare), std::vector<bool>({true, true}));

  // Every other stack keeps the I/O thread that overlaps its device time,
  // its transient failures' backoff, or its hedged reads.
  ClusterOptions file = bare;
  file.spill = SpillMedium::kFile;
  EXPECT_EQ(inline_nodes(file), std::vector<bool>({false, false}));
  ClusterOptions remote = bare;
  remote.spill = SpillMedium::kRemoteMemory;
  EXPECT_EQ(inline_nodes(remote), std::vector<bool>({false, false}));
  ClusterOptions modeled = bare;
  modeled.device.access_latency = std::chrono::microseconds(10);
  EXPECT_EQ(inline_nodes(modeled), std::vector<bool>({false, false}));
  // A slow window names one node, but every node sits on the one modeled
  // device, so none of them runs inline.
  ClusterOptions degraded = modeled;
  degraded.device.slow_windows.push_back({.node = 0});
  EXPECT_EQ(inline_nodes(degraded), std::vector<bool>({false, false}));
  ClusterOptions remote_modeled = modeled;
  remote_modeled.spill = SpillMedium::kRemoteMemory;
  EXPECT_EQ(inline_nodes(remote_modeled), std::vector<bool>({false, false}));
  // A device that prices nothing is not stacked.
  ClusterOptions unpriced = bare;
  unpriced.device.slow_windows.push_back({.node = 0});
  EXPECT_EQ(inline_nodes(unpriced), std::vector<bool>({true, true}));
  ClusterOptions faulted = bare;
  faulted.storage_faults = storage::FaultPlan{};
  EXPECT_EQ(inline_nodes(faulted), std::vector<bool>({false, false}));
  ClusterOptions replicated = bare;
  replicated.replicate_spills = true;
  EXPECT_EQ(inline_nodes(replicated), std::vector<bool>({false, false}));

  // Inline means a spill has landed on the store by the time the call that
  // issued it returns, with no run and no drain in between.
  bare.runtime.ooc.memory_budget_bytes = 1u << 20;
  Cluster cluster(bare);
  const TypeId type = cluster.registry().register_type<Box>("box");
  Runtime& rt = cluster.node(0);
  for (int i = 0; i < 8; ++i) {
    auto [p, box] = rt.create<Box>(type);
    box->data.assign(10000, static_cast<std::uint64_t>(i));
    rt.refresh_footprint(p);
  }
  rt.set_memory_budget(1u << 10);
  EXPECT_GT(rt.spill_backend().count(), 0u);
  ASSERT_FALSE(cluster.run().timed_out);
  EXPECT_EQ(rt.write_behind_inflight_bytes(), 0u);
}

TEST(ClusterSpillStack, DeterministicDeviceChargesVirtualTimeOnly) {
  // 20 ms per device op, over memory and over peers' RAM. The deterministic
  // driver charges every op in virtual microseconds and never sleeps, so
  // the run takes a small fraction of the time it charges.
  for (SpillMedium spill : {SpillMedium::kMemory, SpillMedium::kRemoteMemory}) {
    SCOPED_TRACE(spill == SpillMedium::kMemory ? "memory" : "remote memory");
    ClusterOptions options;
    options.nodes = 2;
    options.deterministic = true;
    options.spill = spill;
    options.runtime.ooc.memory_budget_bytes = 1u << 20;
    options.device.access_latency = std::chrono::milliseconds(20);
    Cluster cluster(options);
    const TypeId type = cluster.registry().register_type<Box>("box");
    const HandlerId add = cluster.registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    // 32 objects of ~80 KB against a 1 MB budget: most must spill.
    for (int i = 0; i < 32; ++i) {
      auto [p, box] = cluster.node(0).create<Box>(type);
      box->data.assign(10000, static_cast<std::uint64_t>(i));
      cluster.node(0).refresh_footprint(p);
      cluster.node(1).send(p, add, arg_u64(1));
    }
    const util::WallTimer wall;
    ASSERT_FALSE(cluster.run().timed_out);
    const double wall_seconds = wall.seconds();

    std::uint64_t ops = 0, charged_us = 0;
    for (NodeId id : {NodeId{0}, NodeId{1}}) {
      const auto s = cluster.node(id).spill_backend().stats();
      EXPECT_EQ(s.virtual_store_latency_us, s.store_ops * 20000) << id;
      EXPECT_EQ(s.virtual_load_latency_us, s.load_ops * 20000) << id;
      ops += s.store_ops + s.load_ops;
      charged_us += s.virtual_store_latency_us + s.virtual_load_latency_us;
    }
    ASSERT_GE(ops, 32u);
    EXPECT_LT(wall_seconds, 0.1 * static_cast<double>(charged_us) * 1e-6);
  }
}

// A bare kMemory stack runs its storage inline on the node threads; kFile
// keeps the I/O thread, so the same cases still drive stores and loads that
// complete on another thread while the node works (and, for
// LeftoverIdleFlagsCannotEndTheNextRun, while the next run starts).
class OocClusterTest : public ClusterTest,
                       public ::testing::WithParamInterface<SpillMedium> {
 protected:
  OocClusterTest() : ClusterTest(2, /*budget_mb=*/1, GetParam()) {}

  void leftover_idle_flags_cannot_end_the_next_run(bool threaded);
};

INSTANTIATE_TEST_SUITE_P(
    Media, OocClusterTest,
    ::testing::Values(SpillMedium::kMemory, SpillMedium::kFile),
    [](const ::testing::TestParamInfo<SpillMedium>& info) {
      return std::string(info.param == SpillMedium::kFile ? "File" : "Memory");
    });

TEST_P(OocClusterTest, RemoteTrafficDrivesSwapping) {
  // Fill node 0 with ~80 KB objects well past its 1 MB budget, then hammer
  // them with remote messages from node 1.
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 32; ++i) {
    auto [p, box] = cluster_->node(0).create<Box>(type_);
    box->data.assign(10000, static_cast<std::uint64_t>(i));
    cluster_->node(0).refresh_footprint(p);
    ptrs.push_back(p);
  }
  for (int round = 0; round < 2; ++round) {
    for (MobilePtr p : ptrs) {
      cluster_->node(1).send(p, h_add_, arg_u64(1));
    }
  }
  auto report = cluster_->run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_GT(cluster_->node(0).counters().objects_spilled.load(), 0u);
  EXPECT_GT(cluster_->node(0).counters().objects_loaded.load(), 0u);
  // While eviction is possible the budget is honoured (small slack for the
  // object being processed).
  EXPECT_LE(cluster_->node(0).in_core_bytes(),
            2 * cluster_->node(0).options().ooc.memory_budget_bytes);
  // Every message must have been applied exactly once despite the churn.
  // Pinning all objects intentionally exceeds the budget; the runtime must
  // honour the locks rather than deadlock.
  for (MobilePtr p : ptrs) {
    cluster_->node(0).lock_in_core(p);
  }
  auto report2 = cluster_->run();
  EXPECT_FALSE(report2.timed_out);
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_TRUE(cluster_->node(0).is_in_core(ptrs[i]));
    EXPECT_EQ(box_on(0, ptrs[i]).value, 2u);
    EXPECT_EQ(box_on(0, ptrs[i]).data[9999], i);
  }
}

// The plain instance sweeps its light runs after the first; the threaded
// instance keeps every run on the workers, where the detector must not end a
// run on a flag left over from the run before.
void OocClusterTest::leftover_idle_flags_cannot_end_the_next_run(
    bool threaded) {
  if (threaded) start_threaded_runs();
  // After a run every node's idle flag reads true. Shrinking a budget
  // between runs issues spill stores from the calling thread without
  // touching that flag, so a detector that scanned before every node took
  // a turn could end the next run with the store completions undrained.
  Runtime& rt = cluster_->node(0);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) {
    auto [p, box] = rt.create<Box>(type_);
    box->data.assign(10000, static_cast<std::uint64_t>(i));
    rt.refresh_footprint(p);
    ptrs.push_back(p);
  }
  const std::size_t budget = rt.memory_budget_bytes();
  for (int round = 0; round < 10; ++round) {
    ASSERT_FALSE(run_on(threaded).timed_out);
    rt.set_memory_budget(budget / 8);
    ASSERT_GT(rt.write_behind_inflight_bytes(), 0u) << "round " << round;
    ASSERT_FALSE(run_on(threaded).timed_out);
    EXPECT_EQ(rt.write_behind_inflight_bytes(), 0u) << "round " << round;
    // Reload everything for the next round.
    rt.set_memory_budget(budget);
    for (MobilePtr p : ptrs) rt.lock_in_core(p);
    ASSERT_FALSE(run_on(threaded).timed_out);
    for (MobilePtr p : ptrs) {
      ASSERT_TRUE(rt.is_in_core(p));
      rt.unlock(p);
      rt.refresh_footprint(p);  // dirty, so the next shrink really stores
    }
  }
}

TEST_P(OocClusterTest, LeftoverIdleFlagsCannotEndTheNextRun) {
  leftover_idle_flags_cannot_end_the_next_run(/*threaded=*/false);
}

TEST_P(OocClusterTest, LeftoverIdleFlagsCannotEndTheNextThreadedRun) {
  leftover_idle_flags_cannot_end_the_next_run(/*threaded=*/true);
}

TEST_P(OocClusterTest, BreakdownCountersPopulated) {
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 16; ++i) {
    auto [p, box] = cluster_->node(0).create<Box>(type_);
    box->data.assign(10000, 1);
    cluster_->node(0).refresh_footprint(p);
    ptrs.push_back(p);
  }
  for (MobilePtr p : ptrs) cluster_->node(1).send(p, h_add_, arg_u64(1));
  auto report = cluster_->run();
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.comp_seconds, 0.0);
  EXPECT_GT(report.comm_seconds, 0.0);
  EXPECT_GE(report.disk_seconds, 0.0);
}

}  // namespace
}  // namespace mrts::core

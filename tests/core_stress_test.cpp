// Stress / property tests of the cluster runtime:
//  - randomized multi-node workloads (sends, migrations, locks, priorities)
//    under a tight memory budget must conserve every message exactly once,
//    with storage inline (kMemory) and on an I/O thread (kFile);
//  - long-running handlers must not trip the termination detector into a
//    false quiescence (regression for a real bug: the idle flag used to go
//    stale while a handler ran, ending the run with work still queued);
//  - message chains with network jitter still terminate correctly.

#include <gtest/gtest.h>

#include <thread>

#include "core/cluster.hpp"
#include "util/rng.hpp"

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
    return sizeof(Box) + data.size() * 8;
  }
};

std::vector<std::byte> arg_u64(std::uint64_t v) {
  util::ByteWriter w;
  w.write(v);
  return w.take();
}

class RandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

void run_random_workload(std::uint64_t seed, SpillMedium spill) {
  util::Rng rng(seed);
  ClusterOptions options;
  options.nodes = 3;
  options.runtime.ooc.memory_budget_bytes = 200 << 10;  // tight
  options.spill = spill;
  options.spill_tag = "stress";  // kFile: under the temp path, removed after
  options.max_run_time = std::chrono::seconds(120);
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Box>("box");
  const HandlerId h_add = cluster.registry().register_handler(
      type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader& in) {
        static_cast<Box&>(obj).value += in.read<std::uint64_t>();
      });

  std::vector<MobilePtr> ptrs;
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 20; ++i) {
    const auto node = static_cast<NodeId>(rng.below(3));
    auto [p, box] = cluster.node(node).create<Box>(type);
    box->data.assign(2000 + rng.below(4000), 1);
    cluster.node(node).refresh_footprint(p);
    ptrs.push_back(p);
    expected.push_back(0);
  }
  // Random phases of sends, migrations, locks, and priorities.
  for (int phase = 0; phase < 4; ++phase) {
    for (int op = 0; op < 60; ++op) {
      const auto i = rng.below(ptrs.size());
      const auto src = static_cast<NodeId>(rng.below(3));
      const auto kind = rng.below(10);
      if (kind < 7) {
        const std::uint64_t v = 1 + rng.below(100);
        cluster.node(src).send(ptrs[i], h_add, arg_u64(v));
        expected[i] += v;
      } else if (kind == 7) {
        // Migrate if currently local to some node (never mid-run here).
        for (std::size_t n = 0; n < cluster.size(); ++n) {
          if (cluster.node(static_cast<NodeId>(n)).is_local(ptrs[i])) {
            cluster.node(static_cast<NodeId>(n))
                .migrate(ptrs[i], static_cast<NodeId>(rng.below(3)));
            break;
          }
        }
      } else if (kind == 8) {
        for (std::size_t n = 0; n < cluster.size(); ++n) {
          if (cluster.node(static_cast<NodeId>(n)).is_local(ptrs[i])) {
            cluster.node(static_cast<NodeId>(n))
                .set_priority(ptrs[i], static_cast<int>(rng.below(11)));
            break;
          }
        }
      } else {
        cluster.node(src).prefetch(ptrs[i]);
      }
    }
    const auto report = cluster.run();
    ASSERT_FALSE(report.timed_out);
  }
  // Verify: lock everything in, compare values.
  for (MobilePtr p : ptrs) {
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (cluster.node(static_cast<NodeId>(n)).is_local(p)) {
        cluster.node(static_cast<NodeId>(n)).lock_in_core(p);
      }
    }
  }
  ASSERT_FALSE(cluster.run().timed_out);
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    Box* box = nullptr;
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (auto* obj = cluster.node(static_cast<NodeId>(n)).peek(ptrs[i])) {
        box = static_cast<Box*>(obj);
      }
    }
    ASSERT_NE(box, nullptr) << "object " << i << " lost";
    EXPECT_EQ(box->value, expected[i]) << "object " << i;
  }
}

TEST_P(RandomWorkload, EveryMessageAppliedExactlyOnce) {
  run_random_workload(GetParam(), SpillMedium::kMemory);
}

// A bare kMemory stack runs its storage inline on the node threads; kFile
// keeps the I/O thread, so stores and loads complete on another thread
// while sends and migrations race them.
TEST_P(RandomWorkload, EveryMessageAppliedExactlyOnceWithFileSpills) {
  run_random_workload(GetParam(), SpillMedium::kFile);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Termination, LongHandlersDoNotTripFalseQuiescence) {
  // Regression: a handler that runs much longer than the detector's scan
  // interval, then produces follow-up work, must have that work executed.
  ClusterOptions options;
  options.nodes = 2;
  options.spill = SpillMedium::kMemory;
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Box>("box");
  static HandlerId h_slow = 0, h_mark = 0;
  h_mark = cluster.registry().register_handler(
      type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) { static_cast<Box&>(obj).value += 1; });
  h_slow = cluster.registry().register_handler(
      type, [](Runtime& rt, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader& in) {
        const MobilePtr peer{in.read<std::uint64_t>()};
        // Far longer than the detector's 200 us scan cadence.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        static_cast<Box&>(obj).value += 1;
        rt.send(peer, h_mark, std::vector<std::byte>{});
      });

  auto [a, boxa] = cluster.node(0).create<Box>(type);
  auto [b, boxb] = cluster.node(1).create<Box>(type);
  for (int round = 0; round < 10; ++round) {
    util::ByteWriter w;
    w.write(b.id);
    cluster.node(1).send(a, h_slow, w.take());
    const auto report = cluster.run();
    ASSERT_FALSE(report.timed_out);
  }
  EXPECT_EQ(static_cast<Box*>(cluster.node(0).peek(a))->value, 10u);
  // The follow-up work created *inside* the slow handler must never be
  // stranded by premature termination.
  EXPECT_EQ(static_cast<Box*>(cluster.node(1).peek(b))->value, 10u);
}

TEST(Termination, JitteredNetworkStillTerminates) {
  ClusterOptions options;
  options.nodes = 3;
  options.spill = SpillMedium::kMemory;
  options.link.latency = std::chrono::microseconds(300);
  options.link.jitter = std::chrono::microseconds(700);
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Box>("box");
  static HandlerId h_relay = 0;
  h_relay = cluster.registry().register_handler(
      type, [](Runtime& rt, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader& in) {
        auto ttl = in.read<std::uint64_t>();
        const MobilePtr next{in.read<std::uint64_t>()};
        const MobilePtr after{in.read<std::uint64_t>()};
        static_cast<Box&>(obj).value += 1;
        if (ttl > 0) {
          util::ByteWriter w;
          w.write(ttl - 1);
          w.write(after.id);
          w.write(next.id);
          rt.send(next, h_relay, w.take());
        }
      });
  auto [a, boxa] = cluster.node(0).create<Box>(type);
  auto [b, boxb] = cluster.node(1).create<Box>(type);
  auto [c, boxc] = cluster.node(2).create<Box>(type);
  util::ByteWriter w;
  w.write<std::uint64_t>(29);
  w.write(b.id);
  w.write(c.id);
  cluster.node(0).send(a, h_relay, w.take());
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);
  const auto total = static_cast<Box*>(cluster.node(0).peek(a))->value +
                     static_cast<Box*>(cluster.node(1).peek(b))->value +
                     static_cast<Box*>(cluster.node(2).peek(c))->value;
  EXPECT_EQ(total, 30u);
}

}  // namespace
}  // namespace mrts::core

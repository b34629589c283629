// Tests for checkpoint/restore: a computation interrupted at a phase
// boundary and resumed in a fresh cluster must finish with exactly the
// state an uninterrupted run produces — including spilled objects, pending
// message queues, migrated objects, and priorities.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>

#include "core/checkpoint.hpp"
#include "storage/file_store.hpp"
#include "util/crc32.hpp"

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

struct World {
  ClusterOptions options;
  std::unique_ptr<Cluster> cluster;
  TypeId type = 0;
  HandlerId h_add = 0;

  explicit World(std::size_t budget_kb = 1 << 20) {
    options.nodes = 3;
    options.runtime.ooc.memory_budget_bytes = budget_kb << 10;
    options.spill = SpillMedium::kMemory;
    cluster = std::make_unique<Cluster>(options);
    type = cluster->registry().register_type<Box>("box");
    h_add = cluster->registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
  }

  Box* find(MobilePtr p) {
    for (std::size_t n = 0; n < cluster->size(); ++n) {
      if (auto* obj = cluster->node(static_cast<NodeId>(n)).peek(p)) {
        return static_cast<Box*>(obj);
      }
    }
    return nullptr;
  }

  void lock_all(const std::vector<MobilePtr>& ptrs) {
    for (MobilePtr p : ptrs) {
      for (std::size_t n = 0; n < cluster->size(); ++n) {
        if (cluster->node(static_cast<NodeId>(n)).is_local(p)) {
          cluster->node(static_cast<NodeId>(n)).lock_in_core(p);
        }
      }
    }
    (void)cluster->run();
  }
};

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = storage::make_temp_spill_dir("ckpt");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, RoundTripPreservesStateAndContinuation) {
  World w1;
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 9; ++i) {
    auto [p, box] =
        w1.cluster->node(static_cast<NodeId>(i % 3)).create<Box>(w1.type);
    box->data.assign(1000 + 100 * i, static_cast<std::uint64_t>(i));
    ptrs.push_back(p);
  }
  // Phase 1 everywhere, then migrate a few objects.
  for (MobilePtr p : ptrs) w1.cluster->node(0).send(p, w1.h_add, arg_u64(10));
  ASSERT_FALSE(w1.cluster->run().timed_out);
  w1.cluster->node(0).migrate(ptrs[0], 2);
  w1.cluster->node(1).migrate(ptrs[1], 0);
  ASSERT_FALSE(w1.cluster->run().timed_out);
  // Queue messages that have NOT run yet (checkpoint must carry them)...
  // they would run at the next run(); checkpoint first.
  for (MobilePtr p : ptrs) w1.cluster->node(1).send(p, w1.h_add, arg_u64(5));
  // Let the sends route to their host queues without executing handlers:
  // run() would execute them, so instead checkpoint right away only when
  // they are still local... simpler: checkpoint after a full run and test
  // queued delivery separately below.
  ASSERT_FALSE(w1.cluster->run().timed_out);

  ASSERT_TRUE(checkpoint_cluster(*w1.cluster, dir_).is_ok());

  // A different world restores it; phases continue.
  World w2;
  ASSERT_TRUE(restore_cluster(*w2.cluster, dir_).is_ok());
  for (MobilePtr p : ptrs) w2.cluster->node(2).send(p, w2.h_add, arg_u64(1));
  ASSERT_FALSE(w2.cluster->run().timed_out);
  w2.lock_all(ptrs);
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    Box* box = w2.find(ptrs[i]);
    ASSERT_NE(box, nullptr) << "object " << i << " lost across restore";
    EXPECT_EQ(box->value, 16u);
    EXPECT_EQ(box->data.size(), 1000 + 100 * i);
    EXPECT_EQ(box->data.back(), i);
  }
  // Migrated objects restored at their migrated location.
  EXPECT_TRUE(w2.cluster->node(2).is_local(ptrs[0]));
  EXPECT_TRUE(w2.cluster->node(0).is_local(ptrs[1]));
}

TEST_F(CheckpointTest, SpilledObjectsAreCheckpointedToo) {
  World w(/*budget_kb=*/64);  // tiny: most boxes live on "disk"
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 12; ++i) {
    auto [p, box] = w.cluster->node(0).create<Box>(w.type);
    box->data.assign(4000, 7);
    w.cluster->node(0).refresh_footprint(p);
    ptrs.push_back(p);
  }
  for (MobilePtr p : ptrs) w.cluster->node(1).send(p, w.h_add, arg_u64(2));
  ASSERT_FALSE(w.cluster->run().timed_out);
  ASSERT_GT(w.cluster->node(0).counters().objects_spilled.load(), 0u);
  ASSERT_TRUE(checkpoint_cluster(*w.cluster, dir_).is_ok());

  World w2(/*budget_kb=*/64);
  ASSERT_TRUE(restore_cluster(*w2.cluster, dir_).is_ok());
  w2.lock_all(ptrs);
  for (MobilePtr p : ptrs) {
    Box* box = w2.find(p);
    ASSERT_NE(box, nullptr);
    EXPECT_EQ(box->value, 2u);
    EXPECT_EQ(box->data.size(), 4000u);
  }
}

TEST_F(CheckpointTest, PendingQueuesSurviveRestore) {
  // Deliver messages to an object's queue without executing them (send,
  // no run), checkpoint, restore: the restored run must execute them.
  World w;
  auto [p, box] = w.cluster->node(0).create<Box>(w.type);
  ASSERT_FALSE(w.cluster->run().timed_out);
  w.cluster->node(0).send(p, w.h_add, arg_u64(3));  // queued locally
  w.cluster->node(0).send(p, w.h_add, arg_u64(4));
  ASSERT_TRUE(checkpoint_cluster(*w.cluster, dir_).is_ok());

  World w2;
  ASSERT_TRUE(restore_cluster(*w2.cluster, dir_).is_ok());
  ASSERT_FALSE(w2.cluster->run().timed_out);  // executes the restored queue
  Box* restored = w2.find(p);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->value, 7u);
}

TEST_F(CheckpointTest, MismatchedClusterIsRejected) {
  World w;
  w.cluster->node(0).create<Box>(w.type);
  ASSERT_TRUE(checkpoint_cluster(*w.cluster, dir_).is_ok());

  ClusterOptions other;
  other.nodes = 2;  // wrong node count
  Cluster cluster2(other);
  cluster2.registry().register_type<Box>("box");
  EXPECT_FALSE(restore_cluster(cluster2, dir_).is_ok());
}

TEST_F(CheckpointTest, MissingDirectoryIsAnError) {
  World w;
  EXPECT_FALSE(restore_cluster(*w.cluster, dir_ / "nope").is_ok());
}

// --- error paths: damaged images must fail with a clean Status, never
// throw, and never leave a partially restored cluster ----------------------

std::size_t total_objects(Cluster& cluster) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(static_cast<NodeId>(i))
        .for_each_local_object([&](MobilePtr) { ++n; });
  }
  return n;
}

void make_populated_checkpoint(World& w, const std::filesystem::path& dir) {
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 6; ++i) {
    auto [p, box] =
        w.cluster->node(static_cast<NodeId>(i % 3)).create<Box>(w.type);
    box->data.assign(500, static_cast<std::uint64_t>(i));
    ptrs.push_back(p);
  }
  ASSERT_FALSE(w.cluster->run().timed_out);
  ASSERT_TRUE(checkpoint_cluster(*w.cluster, dir).is_ok());
}

TEST_F(CheckpointTest, TruncatedManifestIsRejectedCleanly) {
  World w;
  make_populated_checkpoint(w, dir_);
  std::filesystem::resize_file(dir_ / "manifest", 5);

  World w2;
  util::Status s = restore_cluster(*w2.cluster, dir_);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

TEST_F(CheckpointTest, TruncatedNodeFileLeavesClusterUnchanged) {
  World w;
  make_populated_checkpoint(w, dir_);
  const auto node2 = dir_ / "node2.ckpt";
  std::filesystem::resize_file(node2,
                               std::filesystem::file_size(node2) / 2);

  World w2;
  util::Status s = restore_cluster(*w2.cluster, dir_);
  EXPECT_FALSE(s.is_ok());
  // Two-phase restore: nodes 0 and 1 had readable images, yet nothing may
  // be installed anywhere when node 2's image is unreadable.
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

TEST_F(CheckpointTest, BitFlippedNodeFileIsRejectedByItsCrc) {
  World w;
  make_populated_checkpoint(w, dir_);
  const auto node1 = dir_ / "node1.ckpt";
  {
    std::fstream f(node1, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(node1)) /
            2);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }

  World w2;
  util::Status s = restore_cluster(*w2.cluster, dir_);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

// Applies `damage` to a node file's image and re-seals the file CRC, so only
// restore's own validation can catch it.
void damage_below_file_crc(const std::filesystem::path& file,
                           const std::function<void(std::span<std::byte>)>&
                               damage) {
  std::vector<std::byte> bytes(std::filesystem::file_size(file));
  {
    std::ifstream in(file, std::ios::binary);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(in.good());
  }
  ASSERT_GT(bytes.size(), sizeof(std::uint32_t) + 64);
  std::span<std::byte> image(bytes.data(),
                             bytes.size() - sizeof(std::uint32_t));
  damage(image);
  const std::uint32_t crc = util::crc32(image);
  std::memcpy(bytes.data() + image.size(), &crc, sizeof(crc));
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST_F(CheckpointTest, CorruptImageBelowTheFileCrcIsStillRejected) {
  // Damage the serialized node image but re-seal the file with a correct
  // file-level CRC: only Runtime::parse_checkpoint's inner validation
  // (object blob seals, archive bounds) can catch it — and it must do so
  // before installing anything.
  World w;
  make_populated_checkpoint(w, dir_);
  damage_below_file_crc(dir_ / "node0.ckpt", [](std::span<std::byte> image) {
    // Flip payload bytes mid-image (past the header, before the file CRC).
    for (std::size_t i = image.size() / 2;
         i < image.size() / 2 + 16 && i < image.size(); ++i) {
      image[i] ^= std::byte{0xA5};
    }
  });

  World w2;
  util::Status s = restore_cluster(*w2.cluster, dir_);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

TEST_F(CheckpointTest, CorruptLastNodeImageLeavesClusterUnchanged) {
  // Nodes 0 and 1 hold intact images; node 2's is damaged below its file
  // CRC. Every image is parsed before any is installed, so nothing may land
  // on nodes 0 and 1 either.
  World w;
  make_populated_checkpoint(w, dir_);
  damage_below_file_crc(dir_ / "node2.ckpt", [](std::span<std::byte> image) {
    // 16 bytes inside the last object's blob, ahead of its seal.
    for (std::size_t i = image.size() - 64; i < image.size() - 48; ++i) {
      image[i] ^= std::byte{0xA5};
    }
  });

  World w2;
  util::Status s = restore_cluster(*w2.cluster, dir_);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

TEST_F(CheckpointTest, HugeObjectCountIsCorruptionNotAThrow) {
  // An object count far beyond what the image holds must not size any
  // buffer: the restore fails cleanly once the image runs out.
  World w;
  make_populated_checkpoint(w, dir_);
  damage_below_file_crc(dir_ / "node0.ckpt", [](std::span<std::byte> image) {
    const std::uint64_t huge = std::uint64_t{1} << 62;  // follows next_seq
    std::memcpy(image.data() + sizeof(std::uint64_t), &huge, sizeof(huge));
  });

  World w2;
  util::Status s;
  EXPECT_NO_THROW(s = restore_cluster(*w2.cluster, dir_));
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_EQ(total_objects(*w2.cluster), 0u) << "partial restore";
}

// --- the object image: migration, crash export and checkpoints share one
// layout (ptr, type, epoch, priority, queue, sealed blob) ------------------

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
  }
  return h;
}

// The same image one installation later: its epoch field incremented.
std::vector<std::byte> next_epoch(std::vector<std::byte> frame) {
  constexpr std::size_t kEpochAt = sizeof(std::uint64_t) + sizeof(TypeId);
  std::uint64_t epoch = 0;
  std::memcpy(&epoch, frame.data() + kEpochAt, sizeof(epoch));
  ++epoch;
  std::memcpy(frame.data() + kEpochAt, &epoch, sizeof(epoch));
  return frame;
}

using ObjectImage = CheckpointTest;

TEST_F(ObjectImage, GoldenBytesPinInstallFrameAndCheckpointRecord) {
  // Two boxes on node 0 with non-default priorities: the low-priority one
  // is spilled by soft pressure, the other stays in core. Then each gets
  // queued messages that have not run.
  World w(/*budget_kb=*/40);
  Runtime& rt = w.cluster->node(0);
  auto [cold, cold_box] = rt.create<Box>(w.type);
  cold_box->value = 11;
  cold_box->data.assign(2000, 1);
  rt.refresh_footprint(cold);
  rt.set_priority(cold, 2);
  auto [hot, hot_box] = rt.create<Box>(w.type);
  hot_box->value = 22;
  hot_box->data.assign(2000, 2);
  rt.refresh_footprint(hot);
  rt.set_priority(hot, 8);
  ASSERT_FALSE(w.cluster->run().timed_out);
  ASSERT_FALSE(rt.is_in_core(cold));
  ASSERT_TRUE(rt.is_in_core(hot));
  rt.send(cold, w.h_add, arg_u64(3));
  rt.send(hot, w.h_add, arg_u64(4));
  rt.send(hot, w.h_add, arg_u64(5));

  util::ByteWriter image;
  ASSERT_TRUE(rt.checkpoint_to(image).is_ok());
  EXPECT_EQ(fnv1a(image.bytes()), 0xb73ed227bcaf259bull)
      << std::hex << fnv1a(image.bytes());
  ASSERT_TRUE(checkpoint_cluster(*w.cluster, dir_).is_ok());

  // Crash export: the spilled box's frame carries its stored blob verbatim,
  // the in-core box's frame is serialized in place. Sorted by object id.
  const std::vector<Runtime::RecoveredObject> exported = rt.crash_export();
  rt.crash_wipe();
  ASSERT_EQ(exported.size(), 2u);
  ASSERT_EQ(exported[0].ptr, cold);
  ASSERT_EQ(exported[1].ptr, hot);
  const std::uint64_t golden[] = {0x3022214a8a432fb8ull, 0x6a893cb1d3d87c07ull};
  for (std::size_t i = 0; i < exported.size(); ++i) {
    ASSERT_FALSE(exported[i].lost);
    EXPECT_EQ(fnv1a(exported[i].frame), golden[i])
        << i << ": " << std::hex << fnv1a(exported[i].frame);
  }

  // Rebuilt on node 1, the boxes export the same images one epoch later.
  Runtime& rebuilt = w.cluster->node(1);
  for (const auto& rec : exported) rebuilt.install_recovered(0, rec.frame);
  const auto again = rebuilt.crash_export();
  rebuilt.crash_wipe();
  ASSERT_EQ(again.size(), exported.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].frame, next_epoch(exported[i].frame)) << i;
  }

  // Restored from the checkpoint (epoch 1 again), they export the very same
  // frames.
  World w2(/*budget_kb=*/40);
  ASSERT_TRUE(restore_cluster(*w2.cluster, dir_).is_ok());
  const auto restored = w2.cluster->node(0).crash_export();
  ASSERT_EQ(restored.size(), exported.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].frame, exported[i].frame) << i;
  }
}

}  // namespace
}  // namespace mrts::core

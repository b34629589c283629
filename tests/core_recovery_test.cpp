// Self-healing storage path, runtime layer: the recovery ladder. Rung 1
// re-issues the failed load synchronously, rung 2 reads the per-object
// checkpoint copy (accepted only on exact content identity), rung 3
// quarantines the object (poison) — and failed spills reinstall the object
// in core from the payload the storage layer hands back. The last tests
// corrupt a real FileStore spill file on disk and pin the same outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/runtime.hpp"
#include "simnet/fabric.hpp"
#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "util/format.hpp"

namespace mrts::core {
namespace {

// Deterministic failure switchboard: unlike FaultStore's seeded rates, each
// failure here is scripted by the test.
class FlakyStore final : public storage::StorageBackend {
 public:
  explicit FlakyStore(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  std::atomic<int> fail_next_loads{0};
  std::atomic<bool> fail_all_loads{false};
  std::atomic<bool> fail_all_stores{false};

  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    if (fail_all_stores.load()) {
      return util::Status(util::StatusCode::kIoError,
                          "injected hard store failure");
    }
    return inner_->store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    if (fail_all_loads.load()) {
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    if (fail_next_loads.load() > 0) {
      fail_next_loads.fetch_sub(1);
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    return inner_->load(key);
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_->erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_->contains(key);
  }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override {
    return inner_->stored_bytes();
  }
  storage::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<storage::StorageBackend> inner_;
};

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

struct Harness {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  FlakyStore* flaky = nullptr;  // owned by the runtime
  std::shared_ptr<storage::MemStore> checkpoint_store;
  std::unique_ptr<Runtime> rt;
  TypeId type = 0;
  HandlerId h_add = 0;

  /// `inner` is the spill device under the scripted faults.
  Harness(std::size_t budget_kb, bool with_checkpoint_store,
          std::unique_ptr<storage::StorageBackend> inner =
              std::make_unique<storage::MemStore>()) {
    RuntimeOptions options;
    options.ooc.memory_budget_bytes = budget_kb << 10;
    options.storage_retry.max_retries = 0;  // one attempt: faults are scripted
    if (with_checkpoint_store) {
      checkpoint_store = std::make_shared<storage::MemStore>();
      options.recovery.checkpoint_store = checkpoint_store;
    }
    auto backend = std::make_unique<FlakyStore>(std::move(inner));
    flaky = backend.get();
    rt = std::make_unique<Runtime>(0, fabric.endpoint(0), registry,
                                   std::move(backend), options);
    type = registry.register_type<Box>("box");
    h_add = registry.register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
  }

  MobilePtr make_box(std::size_t words) {
    auto [ptr, box] = rt->create<Box>(type);
    box->data.assign(words, 3);
    rt->refresh_footprint(ptr);
    return ptr;
  }

  void pump(int max_iters = 100000) {
    int quiet = 0;
    for (int i = 0; i < max_iters && quiet < 3; ++i) {
      if (!rt->progress_once()) {
        if (rt->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
  }

  MobilePtr find_cold(const std::vector<MobilePtr>& ptrs) {
    rt->flush_stores();
    for (MobilePtr p : ptrs) {
      if (!rt->is_in_core(p)) return p;
    }
    return kNullPtr;
  }

  static std::vector<std::byte> arg_u64(std::uint64_t v) {
    util::ByteWriter w;
    w.write(v);
    return w.take();
  }
};

bool has_record(const Runtime& rt, MobilePtr ptr, FailureResolution res) {
  for (const auto& rec : rt.failure_ledger().snapshot()) {
    if (rec.object == ptr && rec.resolution == res) return true;
  }
  return false;
}

TEST(RecoveryLadder, RungOneSynchronousReloadRecoversTransientFailure) {
  Harness h(/*budget_kb=*/256, /*with_checkpoint_store=*/false);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  // The single async attempt fails; the ladder's synchronous re-issue sees
  // a healed device and succeeds.
  h.flaky->fail_next_loads = 1;
  h.rt->send(cold, h.h_add, Harness::arg_u64(5));
  h.pump();

  EXPECT_EQ(h.rt->counters().loads_recovered.load(), 1u);
  EXPECT_TRUE(has_record(*h.rt, cold, FailureResolution::kRetried));
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kHealthy);
  h.rt->lock_in_core(cold);
  h.pump();
  auto* obj = h.rt->peek(cold);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 5u);
  EXPECT_EQ(h.rt->counters().objects_poisoned.load(), 0u);
}

TEST(RecoveryLadder, RungTwoCheckpointCopyRecoversDeadPrimary) {
  Harness h(/*budget_kb=*/256, /*with_checkpoint_store=*/true);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  // A phase-boundary checkpoint side-copies every object blob into the
  // recovery store; then the spill device stops answering loads entirely.
  util::ByteWriter image;
  ASSERT_TRUE(h.rt->checkpoint_to(image).is_ok());
  ASSERT_TRUE(h.checkpoint_store->contains(cold.id));
  h.flaky->fail_all_loads = true;

  h.rt->send(cold, h.h_add, Harness::arg_u64(7));
  h.pump();

  EXPECT_EQ(h.rt->counters().checkpoint_recoveries.load(), 1u);
  EXPECT_TRUE(has_record(*h.rt, cold, FailureResolution::kCheckpointRecovered));
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kHealthy);
  auto* obj = h.rt->peek(cold);
  ASSERT_NE(obj, nullptr) << "recovered object should be in core";
  EXPECT_EQ(static_cast<Box&>(*obj).value, 7u);
  EXPECT_EQ(h.rt->counters().objects_poisoned.load(), 0u);
}

TEST(RecoveryLadder, StaleCheckpointCopyIsRejectedNotSilentlyRestored) {
  Harness h(/*budget_kb=*/256, /*with_checkpoint_store=*/true);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  util::ByteWriter image;
  ASSERT_TRUE(h.rt->checkpoint_to(image).is_ok());

  // Mutate the object after the checkpoint, then pressure it back to disk:
  // its spill blob CRC no longer matches the checkpoint copy.
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();
  for (int round = 0; round < 64 && h.rt->is_in_core(cold); ++round) {
    for (MobilePtr p : ptrs) {
      if (p != cold) h.rt->send(p, h.h_add, Harness::arg_u64(0));
    }
    h.pump();
    h.rt->flush_stores();
  }
  ASSERT_FALSE(h.rt->is_in_core(cold)) << "could not pressure the object out";

  // Dead device: rung 1 fails, rung 2 finds only the stale copy. Accepting
  // it would silently roll the object back — it must poison instead.
  h.flaky->fail_all_loads = true;
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();

  EXPECT_EQ(h.rt->counters().checkpoint_recoveries.load(), 0u);
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kPoisoned);
  EXPECT_GE(h.rt->counters().objects_poisoned.load(), 1u);
  EXPECT_TRUE(has_record(*h.rt, cold, FailureResolution::kPoisoned));
  EXPECT_TRUE(h.rt->is_idle()) << "a poisoned object must not stall the node";
}

TEST(RecoveryLadder, FailedSpillReinstallsTheObjectInCore) {
  // Stores fail hard from the start: every spill attempt must hand the
  // payload back and reinstall the object — over-budget churn, but never
  // data loss and never an exception.
  Harness h(/*budget_kb=*/128, /*with_checkpoint_store=*/false);
  h.flaky->fail_all_stores = true;
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 4; ++i) ptrs.push_back(h.make_box(8000));
  for (MobilePtr p : ptrs) h.rt->send(p, h.h_add, Harness::arg_u64(1));
  // The failed spill completes on the store's I/O thread; give it wall time.
  for (int i = 0;
       i < 200000 && h.rt->counters().spills_reinstalled.load() == 0; ++i) {
    h.rt->progress_once();
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  EXPECT_GT(h.rt->counters().spills_reinstalled.load(), 0u);
  EXPECT_EQ(h.rt->counters().objects_poisoned.load(), 0u);
  // Heal the device, let the over-budget churn settle, and verify no work
  // or state was lost while every spill was failing.
  h.flaky->fail_all_stores = false;
  h.pump();
  for (MobilePtr p : ptrs) h.rt->lock_in_core(p);
  h.pump();
  for (MobilePtr p : ptrs) {
    EXPECT_EQ(h.rt->object_health(p), ObjectHealth::kHealthy);
    auto* obj = h.rt->peek(p);
    ASSERT_NE(obj, nullptr) << "object should be in core after lock";
    EXPECT_EQ(static_cast<Box&>(*obj).value, 1u);
  }
  bool ledgered = false;
  for (const auto& rec : h.rt->failure_ledger().snapshot()) {
    if (rec.resolution == FailureResolution::kReinstalled) ledgered = true;
  }
  EXPECT_TRUE(ledgered);
}

// --- on-disk corruption of a real spill file --------------------------------

/// Flips one payload byte of `key`'s spill file in `dir`, leaving the CRC-32
/// trailer FileStore wrote after it.
void corrupt_spill_file(const std::filesystem::path& dir,
                        storage::ObjectKey key) {
  const auto path = dir / util::format("{:016x}.mob", key);
  const std::uintmax_t payload =
      std::filesystem::file_size(path) - sizeof(std::uint32_t);
  const auto at = static_cast<std::streamoff>(payload / 2);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  char byte = 0;
  f.seekg(at);
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(at);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good()) << path;
}

TEST(RecoveryLadder, CorruptSpillFileRoutesIntoCheckpointRecovery) {
  auto files = std::make_unique<storage::FileStore>(
      storage::make_temp_spill_dir("recovery-ladder"));
  const std::filesystem::path dir = files->directory();
  Harness h(/*budget_kb=*/256, /*with_checkpoint_store=*/true,
            std::move(files));
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  util::ByteWriter image;
  ASSERT_TRUE(h.rt->checkpoint_to(image).is_ok());
  corrupt_spill_file(dir, cold.id);

  h.rt->send(cold, h.h_add, Harness::arg_u64(9));
  h.pump();

  EXPECT_EQ(h.rt->counters().checkpoint_recoveries.load(), 1u);
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kHealthy);
  auto* obj = h.rt->peek(cold);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 9u);
  EXPECT_EQ(h.rt->counters().objects_poisoned.load(), 0u);
}

TEST(RecoveryLadder, CorruptSpillFileWithoutCheckpointPoisonsNotHangs) {
  auto files = std::make_unique<storage::FileStore>(
      storage::make_temp_spill_dir("recovery-ladder"));
  const std::filesystem::path dir = files->directory();
  Harness h(/*budget_kb=*/256, /*with_checkpoint_store=*/false,
            std::move(files));
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  corrupt_spill_file(dir, cold.id);
  h.rt->send(cold, h.h_add, Harness::arg_u64(9));
  h.pump();

  // Last rung: the loss is recorded and quarantined, the node stays live.
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kPoisoned);
  EXPECT_GE(h.rt->counters().objects_poisoned.load(), 1u);
  EXPECT_TRUE(h.rt->is_idle());
  EXPECT_TRUE(has_record(*h.rt, cold, FailureResolution::kPoisoned));
}

}  // namespace
}  // namespace mrts::core

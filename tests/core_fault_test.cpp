// Failure-injection tests: the runtime must ride out transient storage
// faults (retried by the object store) and must detect corrupted spill
// blobs instead of silently deserializing garbage.

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "simnet/fabric.hpp"
#include "storage/fault_store.hpp"
#include "storage/mem_store.hpp"

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

/// Flips one byte of the first blob loaded; every later load (the recovery
/// ladder's synchronous re-load included) reads the intact blob.
class CorruptFirstLoad final : public storage::StorageBackend {
 public:
  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    return inner_.store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    auto loaded = inner_.load(key);
    if (loads_.fetch_add(1) == 0 && loaded.is_ok()) {
      std::vector<std::byte> bytes = std::move(loaded).value();
      bytes[bytes.size() / 2] ^= std::byte{0x5A};
      return bytes;
    }
    return loaded;
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_.erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_.contains(key);
  }
  std::size_t count() const override { return inner_.count(); }
  std::uint64_t stored_bytes() const override { return inner_.stored_bytes(); }
  storage::BackendStats stats() const override { return inner_.stats(); }

  [[nodiscard]] std::uint64_t loads() const { return loads_.load(); }

 private:
  storage::MemStore inner_;
  std::atomic<std::uint64_t> loads_{0};
};

struct Harness {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  std::unique_ptr<Runtime> rt;
  TypeId type = 0;
  HandlerId h_add = 0;

  explicit Harness(storage::FaultPlan plan, std::size_t budget_kb = 256)
      : Harness(std::make_unique<storage::FaultStore>(
                    std::make_unique<storage::MemStore>(), std::move(plan)),
                budget_kb) {}

  explicit Harness(std::unique_ptr<storage::StorageBackend> backend,
                   std::size_t budget_kb = 256) {
    RuntimeOptions options;
    options.ooc.memory_budget_bytes = budget_kb << 10;
    options.storage_retry.max_retries = 12;  // ride out bursts of injected faults
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

  void pump() {
    int quiet = 0;
    for (int i = 0; i < 100000 && quiet < 3; ++i) {
      if (!rt->progress_once()) {
        if (rt->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
  }

  static std::vector<std::byte> arg_u64(std::uint64_t v) {
    util::ByteWriter w;
    w.write(v);
    return w.take();
  }
};

TEST(FaultInjection, TransientFaultsAreRetriedTransparently) {
  // 30% of stores and loads fail transiently; the object store retries.
  Harness h(storage::FaultPlan{.store_failure_rate = 0.3,
                               .load_failure_rate = 0.3,
                               .seed = 99});
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 16; ++i) ptrs.push_back(h.make_box(8000));
  for (int round = 0; round < 3; ++round) {
    for (MobilePtr p : ptrs) h.rt->send(p, h.h_add, Harness::arg_u64(1));
    h.pump();
  }
  for (MobilePtr p : ptrs) h.rt->lock_in_core(p);
  h.pump();
  for (MobilePtr p : ptrs) {
    auto* obj = h.rt->peek(p);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(static_cast<Box&>(*obj).value, 3u);
  }
  EXPECT_GT(h.rt->counters().objects_spilled.load(), 0u);
}

TEST(FaultInjection, CorruptedBlobPoisonsObjectInsteadOfDeserializing) {
  // Every load is corrupted and there is no replica or checkpoint copy to
  // recover from: the recovery ladder must exhaust and poison the object —
  // never hand garbage to deserialize(), never throw out of the control
  // loop, and never stall the node.
  Harness h(storage::FaultPlan{.corruption_rate = 1.0, .seed = 7});
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 16; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  h.rt->flush_stores();
  MobilePtr cold = kNullPtr;
  for (MobilePtr p : ptrs) {
    if (!h.rt->is_in_core(p)) cold = p;
  }
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();
  EXPECT_TRUE(h.rt->is_idle());
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kPoisoned);
  EXPECT_GE(h.rt->counters().objects_poisoned.load(), 1u);
  EXPECT_GE(h.rt->counters().poisoned_messages_dropped.load(), 1u);
  bool ledgered = false;
  for (const auto& rec : h.rt->failure_ledger().snapshot()) {
    if (rec.object == cold &&
        rec.resolution == FailureResolution::kPoisoned) {
      ledgered = true;
    }
  }
  EXPECT_TRUE(ledgered);
  // Later messages to the quarantined object are dropped on arrival.
  const auto dropped_before =
      h.rt->counters().poisoned_messages_dropped.load();
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();
  EXPECT_GT(h.rt->counters().poisoned_messages_dropped.load(),
            dropped_before);
}

TEST(FaultInjection, CorruptReloadIsRejectedOnTheIoThreadAndHealedByRetry) {
  // Threaded I/O: the first reload comes back corrupted. The I/O thread's
  // seal verdict must route it to the recovery ladder, never to
  // deserialize(), and the ladder's synchronous re-load reads the intact
  // blob.
  auto backend = std::make_unique<CorruptFirstLoad>();
  const CorruptFirstLoad* store = backend.get();
  Harness h(std::move(backend));
  ASSERT_FALSE(h.rt->options().synchronous_storage);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 16; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  h.rt->flush_stores();
  MobilePtr cold = kNullPtr;
  for (MobilePtr p : ptrs) {
    if (!h.rt->is_in_core(p)) cold = p;
  }
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";
  ASSERT_EQ(store->loads(), 0u);
  h.rt->send(cold, h.h_add, Harness::arg_u64(5));
  h.pump();
  EXPECT_TRUE(h.rt->is_idle());
  EXPECT_EQ(store->loads(), 2u);  // the corrupted async reload, the retry
  EXPECT_EQ(h.rt->counters().loads_recovered.load(), 1u);
  EXPECT_EQ(h.rt->counters().objects_poisoned.load(), 0u);
  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kHealthy);
  h.rt->lock_in_core(cold);
  h.pump();
  const auto* box = static_cast<const Box*>(h.rt->peek(cold));
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->value, 5u);
  EXPECT_EQ(box->data, std::vector<std::uint64_t>(8000, 3));
}

}  // namespace
}  // namespace mrts::core

// Unit tests for the storage layer: backends, decorators, the five swapping
// schemes, and the asynchronous object store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <set>

#include "storage/eviction.hpp"
#include "storage/fault_store.hpp"
#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/modeled_device.hpp"
#include "storage/object_store.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace mrts::storage {
namespace {

std::vector<std::byte> random_blob(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng() & 0xFF);
  return v;
}

template <typename MakeStore>
void backend_contract(MakeStore make) {
  auto store = make();
  EXPECT_EQ(store->count(), 0u);
  EXPECT_FALSE(store->contains(1));
  EXPECT_FALSE(store->load(1).is_ok());
  EXPECT_EQ(store->load(1).status().code(), util::StatusCode::kNotFound);

  const auto b1 = random_blob(1000, 1);
  ASSERT_TRUE(store->store(7, b1).is_ok());
  EXPECT_TRUE(store->contains(7));
  EXPECT_EQ(store->count(), 1u);
  EXPECT_EQ(store->stored_bytes(), 1000u);
  auto r = store->load(7);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), b1);

  // Overwrite shrinks accounting.
  const auto b2 = random_blob(10, 2);
  ASSERT_TRUE(store->store(7, b2).is_ok());
  EXPECT_EQ(store->stored_bytes(), 10u);
  EXPECT_EQ(store->load(7).value(), b2);

  EXPECT_TRUE(store->erase(7).is_ok());
  EXPECT_FALSE(store->contains(7));
  EXPECT_EQ(store->erase(7).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(store->stored_bytes(), 0u);

  const auto stats = store->stats();
  EXPECT_EQ(stats.store_ops, 2u);
  EXPECT_EQ(stats.load_ops, 2u);
}

TEST(MemStore, Contract) {
  backend_contract([] { return std::make_unique<MemStore>(); });
}

TEST(FileStore, Contract) {
  backend_contract([] {
    return std::make_unique<FileStore>(make_temp_spill_dir("test"));
  });
}

TEST(FileStore, EmptyBlobRoundTrips) {
  FileStore store(make_temp_spill_dir("test"));
  ASSERT_TRUE(store.store(1, {}).is_ok());
  auto r = store.load(1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(FileStore, DetectsOnDiskCorruption) {
  FileStore store(make_temp_spill_dir("test"));
  ASSERT_TRUE(store.store(3, random_blob(256, 3)).is_ok());
  // Flip a byte in the middle of the spill file.
  const auto path = store.directory() / "0000000000000003.mob";
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char c;
    f.seekg(100);
    f.get(c);
    f.seekp(100);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  auto r = store.load(3);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);
}

TEST(FileStore, ClearRemovesSpillFiles) {
  namespace fs = std::filesystem;
  auto dir = make_temp_spill_dir("test");
  {
    FileStore store(dir);
    ASSERT_TRUE(store.store(1, random_blob(64, 1)).is_ok());
    ASSERT_TRUE(store.store(2, random_blob(64, 2)).is_ok());
  }  // destructor clears, then removes the emptied directory
  EXPECT_FALSE(fs::exists(dir));

  // A directory that still holds a file the store did not write stays, with
  // that file alone in it.
  dir = make_temp_spill_dir("test");
  std::ofstream(dir / "foreign.txt") << "not a spill file";
  {
    FileStore store(dir);
    ASSERT_TRUE(store.store(1, random_blob(64, 1)).is_ok());
  }
  std::vector<fs::path> left;
  for (const auto& e : fs::directory_iterator(dir)) left.push_back(e.path());
  EXPECT_EQ(left, std::vector<fs::path>{dir / "foreign.txt"});
  fs::remove_all(dir);
}

std::vector<std::byte> read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(chars.size());
  std::memcpy(bytes.data(), chars.data(), chars.size());
  return bytes;
}

TEST(FileStore, ShrinkingOverwriteLeavesPayloadThenCrc) {
  FileStore store(make_temp_spill_dir("test"));
  ASSERT_TRUE(store.store(6, random_blob(1000, 6)).is_ok());
  const auto small = random_blob(10, 66);
  ASSERT_TRUE(store.store(6, small).is_ok());
  // Exactly the payload, then its CRC-32 in little-endian order: nothing of
  // the longer blob it overwrote in place is left past them.
  const auto file = read_whole_file(store.directory() / "0000000000000006.mob");
  ASSERT_EQ(file.size(), small.size() + 4);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), file.begin()));
  const std::uint32_t crc = util::crc32(small);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(file[small.size() + i], static_cast<std::byte>(crc >> (8 * i)))
        << "trailer byte " << i;
  }
  EXPECT_EQ(store.load(6).value(), small);
  EXPECT_EQ(store.stored_bytes(), small.size());
}

TEST(FileStore, FailedOverwriteLeavesKeyAbsent) {
  namespace fs = std::filesystem;
  FileStore store(make_temp_spill_dir("test"));
  ASSERT_TRUE(store.store(4, random_blob(300, 4)).is_ok());
  ASSERT_TRUE(store.store(5, random_blob(200, 5)).is_ok());
  // A directory in place of key 4's file makes the open for writing fail,
  // even for root, which permission bits would not stop.
  const auto path = store.directory() / "0000000000000004.mob";
  ASSERT_TRUE(fs::remove(path));
  ASSERT_TRUE(fs::create_directory(path));

  EXPECT_EQ(store.store(4, random_blob(100, 44)).code(),
            util::StatusCode::kIoError);
  // The old blob may be partly overwritten, so the key must not read as
  // stored: it is gone, and the other key is untouched.
  EXPECT_FALSE(store.contains(4));
  EXPECT_EQ(store.load(4).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.stored_bytes(), 200u);
  EXPECT_EQ(store.load(5).value(), random_blob(200, 5));
  for (const auto& e : fs::directory_iterator(store.directory())) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }

  // The key can be stored again once its path is free.
  std::error_code ec;
  fs::remove(path, ec);
  ASSERT_TRUE(store.store(4, random_blob(100, 44)).is_ok());
  EXPECT_EQ(store.load(4).value(), random_blob(100, 44));
  EXPECT_EQ(store.stored_bytes(), 300u);
}

TEST(ModeledDevice, SleepingDeviceTakesItsModeledTime) {
  DeviceModel model{.access_latency = std::chrono::microseconds(2000),
                    .bandwidth_bytes_per_sec = 0.0};
  ModeledDevice store(std::make_unique<MemStore>(), model, /*node=*/0,
                      /*sleep=*/true);
  util::WallTimer t;
  ASSERT_TRUE(store.store(1, random_blob(10, 1)).is_ok());
  auto r = store.load(1);
  EXPECT_GE(t.seconds(), 0.004);  // two ops, 2 ms each
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), random_blob(10, 1));
  EXPECT_EQ(store.stats().virtual_store_latency_us, 2000u);
  EXPECT_EQ(store.stats().virtual_load_latency_us, 2000u);
}

TEST(ModeledDevice, VirtualClockChargesTheSameWithoutSleeping) {
  // 20 ms + 1000 B at 1 MB/s = 21 ms per op. The sleeping device takes it;
  // the one on the virtual clock charges the same microseconds and returns
  // long before a single op's price has passed.
  const DeviceModel model{.access_latency = std::chrono::microseconds(20000),
                          .bandwidth_bytes_per_sec = 1e6};
  const auto blob = random_blob(1000, 2);
  const auto run = [&](bool sleep) {
    ModeledDevice store(std::make_unique<MemStore>(), model, /*node=*/0,
                        sleep);
    util::WallTimer t;
    EXPECT_TRUE(store.store(1, blob).is_ok());
    EXPECT_EQ(store.load(1).value(), blob);
    return std::pair(t.seconds(), store.stats());
  };
  const auto [slept, real] = run(true);
  const auto [charged, virt] = run(false);
  EXPECT_GE(slept, 0.042);
  EXPECT_LT(charged, 0.0105);
  EXPECT_EQ(real.virtual_store_latency_us, 21000u);
  EXPECT_EQ(real.virtual_load_latency_us, 21000u);
  EXPECT_EQ(virt.virtual_store_latency_us, real.virtual_store_latency_us);
  EXPECT_EQ(virt.virtual_load_latency_us, real.virtual_load_latency_us);
  EXPECT_EQ(virt.bytes_written, real.bytes_written);
}

TEST(ModeledDevice, SlowWindowsInflateByOpIndex) {
  // Node 1's device: 50 us per op, 10x in ops [1, 3) and 4x in [5, 6).
  // Node 0's window is not its own. Stores and loads share one op index;
  // erase is neither charged nor counted.
  DeviceModel model{
      .access_latency = std::chrono::microseconds(50),
      .slow_windows = {{.node = 1, .begin_op = 1, .end_op = 3,
                        .inflation = 10},
                       {.node = 0, .inflation = 99},
                       {.node = 1, .begin_op = 5, .end_op = 6,
                        .inflation = 4}}};
  ModeledDevice store(std::make_unique<MemStore>(), model, /*node=*/1,
                      /*sleep=*/false);
  const auto blob = random_blob(64, 3);
  // Ops 0..3: op 0 and 3 at base cost, ops 1 and 2 inside the window.
  for (ObjectKey k = 0; k < 4; ++k) {
    ASSERT_TRUE(store.store(k, blob).is_ok());
  }
  EXPECT_EQ(store.stats().virtual_store_latency_us, 50u + 500u + 500u + 50u);
  EXPECT_EQ(store.stats().virtual_load_latency_us, 0u);
  ASSERT_TRUE(store.erase(3).is_ok());
  // The payload itself is untouched: a slow device is latency, never loss.
  auto r = store.load(0);  // op 4
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), blob);
  // Op 5 fails, so it moves no bytes, but the device was still asked.
  EXPECT_EQ(store.load(3).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(store.load(1).value(), blob);  // op 6
  EXPECT_EQ(store.stats().virtual_load_latency_us, 50u + 200u + 50u);
  EXPECT_EQ(store.stats().virtual_store_latency_us, 1100u);
}

TEST(ModeledDevice, ForwardsTheMoveStore) {
  // A MemStore under the device still adopts the spill buffer outright.
  ModeledDevice store(std::make_unique<MemStore>(),
                      DeviceModel{.bandwidth_bytes_per_sec = 1e6},
                      /*node=*/0, /*sleep=*/false);
  auto bytes = random_blob(4000, 4);
  ASSERT_TRUE(store.store(1, std::move(bytes)).is_ok());
  EXPECT_TRUE(bytes.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(store.stats().virtual_store_latency_us, 4000u);  // priced first
  // A load is priced by the bytes it returns; a miss returns none.
  EXPECT_EQ(store.load(1).value(), random_blob(4000, 4));
  EXPECT_FALSE(store.load(2).is_ok());
  EXPECT_EQ(store.stats().virtual_load_latency_us, 4000u);
}

TEST(DeviceModel, CostScalesWithBytes) {
  DeviceModel model{.access_latency = std::chrono::microseconds(100),
                    .bandwidth_bytes_per_sec = 1e6};
  const auto small = model.cost(1000);
  const auto big = model.cost(1000000);
  EXPECT_NEAR(static_cast<double>(small.count()), 100e3 + 1e6, 1e3);
  EXPECT_NEAR(static_cast<double>(big.count()), 100e3 + 1e9, 1e6);
}

TEST(FaultStore, InjectsTransientFailures) {
  FaultStore store(std::make_unique<MemStore>(),
                   FaultPlan{.store_failure_rate = 1.0});
  EXPECT_EQ(store.store(1, random_blob(8, 1)).code(),
            util::StatusCode::kUnavailable);
  EXPECT_GE(store.injected_faults(), 1u);
}

TEST(FaultStore, CorruptsLoadedPayload) {
  auto inner = std::make_unique<MemStore>();
  auto* raw = inner.get();
  FaultStore store(std::move(inner), FaultPlan{.corruption_rate = 1.0});
  const auto original = random_blob(64, 9);
  ASSERT_TRUE(raw->store(1, original).is_ok());
  auto r = store.load(1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value(), original);
}

// --- eviction schemes -------------------------------------------------------

std::function<bool(ObjectKey)> all_evictable() {
  return [](ObjectKey) { return true; };
}

TEST(Eviction, LruPicksOldestAccess) {
  EvictionPolicy p(EvictionScheme::kLru);
  for (ObjectKey k : {1, 2, 3}) p.on_insert(k);
  p.on_access(1);  // order now: 2 (oldest), 3, 1
  EXPECT_EQ(p.victim(all_evictable()).value(), 2u);
}

TEST(Eviction, MruPicksNewestAccess) {
  EvictionPolicy p(EvictionScheme::kMru);
  for (ObjectKey k : {1, 2, 3}) p.on_insert(k);
  p.on_access(1);
  EXPECT_EQ(p.victim(all_evictable()).value(), 1u);
}

TEST(Eviction, LuPicksLeastTotalCount) {
  EvictionPolicy p(EvictionScheme::kLu);
  for (ObjectKey k : {1, 2, 3}) p.on_insert(k);
  p.on_access(1);
  p.on_access(1);
  p.on_access(2);
  p.on_access(3);
  p.on_access(3);
  EXPECT_EQ(p.victim(all_evictable()).value(), 2u);
}

TEST(Eviction, MuPicksMostTotalCount) {
  EvictionPolicy p(EvictionScheme::kMu);
  for (ObjectKey k : {1, 2, 3}) p.on_insert(k);
  p.on_access(1);
  p.on_access(2);
  p.on_access(2);
  EXPECT_EQ(p.victim(all_evictable()).value(), 2u);
}

TEST(Eviction, LfuAgesOldHotness) {
  EvictionPolicy p(EvictionScheme::kLfu);
  p.on_insert(1);
  p.on_insert(2);
  // Key 1 was hot long ago; key 2 mildly active now. With a 1024-tick
  // half-life, 6000 intervening ticks decay key 1's score to near zero.
  for (int i = 0; i < 50; ++i) p.on_access(1);
  for (int i = 0; i < 6000; ++i) p.on_access(2);
  EXPECT_EQ(p.victim(all_evictable()).value(), 1u);
}

TEST(Eviction, VictimRespectsPredicate) {
  EvictionPolicy p(EvictionScheme::kLru);
  for (ObjectKey k : {1, 2, 3}) p.on_insert(k);
  auto v = p.victim([](ObjectKey k) { return k != 1; });
  EXPECT_EQ(v.value(), 2u);
  auto none = p.victim([](ObjectKey) { return false; });
  EXPECT_FALSE(none.has_value());
}

TEST(Eviction, EraseStopsTracking) {
  EvictionPolicy p(EvictionScheme::kLru);
  p.on_insert(1);
  p.on_insert(2);
  p.on_erase(1);
  EXPECT_FALSE(p.tracks(1));
  EXPECT_EQ(p.victim(all_evictable()).value(), 2u);
}

TEST(Eviction, SchemeNamesRoundTrip) {
  for (auto s : {EvictionScheme::kLru, EvictionScheme::kLfu,
                 EvictionScheme::kMru, EvictionScheme::kMu,
                 EvictionScheme::kLu}) {
    EXPECT_EQ(parse_scheme(to_string(s)).value(), s);
  }
  EXPECT_FALSE(parse_scheme("bogus").has_value());
}

// --- object store -----------------------------------------------------------

TEST(ObjectStore, AsyncStoreThenLoad) {
  ObjectStore store(std::make_unique<MemStore>());
  const auto blob = random_blob(512, 21);
  std::promise<util::Status> stored;
  store.store_async(5, blob, [&](util::Status s, std::vector<std::byte>) {
    stored.set_value(s);
  });
  ASSERT_TRUE(stored.get_future().get().is_ok());

  std::promise<std::vector<std::byte>> loaded;
  store.load_async(5, [&](util::Result<std::vector<std::byte>> r) {
    ASSERT_TRUE(r.is_ok());
    loaded.set_value(std::move(r).value());
  });
  EXPECT_EQ(loaded.get_future().get(), blob);
}

TEST(ObjectStore, DrainWaitsForQueue) {
  util::TimeAccumulator disk;
  ObjectStore store(
      std::make_unique<ModeledDevice>(
          std::make_unique<MemStore>(),
          DeviceModel{.access_latency = std::chrono::microseconds(500)},
          /*node=*/0, /*sleep=*/true),
      &disk);
  for (ObjectKey k = 0; k < 20; ++k) {
    store.store_async(k, random_blob(16, k), {});
  }
  store.drain();
  EXPECT_EQ(store.pending(), 0u);
  EXPECT_EQ(store.backend().count(), 20u);
  EXPECT_GT(disk.seconds(), 0.008);  // 20 ops x 0.5 ms charged to disk time
}

TEST(ObjectStore, RetriesTransientFaults) {
  // 50% failure rate with 3 retries: chance of 4 consecutive failures per op
  // is 6.25%; use a seed verified to pass deterministically.
  ObjectStore store(
      std::make_unique<FaultStore>(std::make_unique<MemStore>(),
                                   FaultPlan{.store_failure_rate = 0.5,
                                             .seed = 1234}),
      nullptr, ObjectStoreOptions{.retry = {.max_retries = 10}});
  std::promise<util::Status> done;
  store.store_async(1, random_blob(16, 1),
                    [&](util::Status s, std::vector<std::byte>) {
                      done.set_value(s);
                    });
  EXPECT_TRUE(done.get_future().get().is_ok());
  EXPECT_GE(store.retries_performed(), 0u);
}

TEST(ObjectStore, SyncHelpers) {
  ObjectStore store(std::make_unique<MemStore>());
  const auto blob = random_blob(64, 3);
  ASSERT_TRUE(store.store_sync(9, blob).is_ok());
  auto r = store.load_sync(9);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), blob);
  ASSERT_TRUE(store.erase(9).is_ok());
  EXPECT_FALSE(store.load_sync(9).is_ok());
}

TEST(ObjectStore, ManyConcurrentRequestsComplete) {
  ObjectStore store(std::make_unique<MemStore>());
  std::atomic<int> completed{0};
  constexpr int kN = 200;
  for (int k = 0; k < kN; ++k) {
    store.store_async(static_cast<ObjectKey>(k), random_blob(32, k),
                      [&](util::Status s, std::vector<std::byte>) {
                        EXPECT_TRUE(s.is_ok());
                        completed.fetch_add(1);
                      });
  }
  store.drain();
  EXPECT_EQ(completed.load(), kN);
}

}  // namespace
}  // namespace mrts::storage

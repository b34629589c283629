// Self-healing storage path, storage layer: retry policy determinism,
// circuit-breaker state machine, and the replicated store's mirror
// fallback, scrub-on-read repair, stale-replica guard, breaker routing,
// and bounded overflow.

#include <gtest/gtest.h>

#include <cstring>

#include "storage/circuit_breaker.hpp"
#include "storage/fault_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/modeled_device.hpp"
#include "storage/object_store.hpp"
#include "storage/replicated_store.hpp"
#include "storage/retry_policy.hpp"
#include "storage/sealed_blob.hpp"

namespace mrts::storage {
namespace {

std::vector<std::byte> sealed_payload(std::uint64_t fill, std::size_t words) {
  util::ByteWriter w;
  for (std::size_t i = 0; i < words; ++i) w.write(fill + i);
  return seal_blob(std::move(w));
}

// --- Sealed blobs -----------------------------------------------------------

TEST(SealedBlob, WriteSealedMatchesSealAndCopyByteForByte) {
  // The zero-copy seal-in-place must produce exactly the bytes the classic
  // stage-seal-copy pipeline produced: a length-prefixed payload+CRC vector.
  util::ByteWriter staged;
  staged.write<std::uint32_t>(0xC0FFEE);
  {
    util::ByteWriter body;
    body.write<std::uint64_t>(42);
    body.write_string("payload");
    staged.write_vector(seal_blob(std::move(body)));
  }

  util::ByteWriter direct;
  direct.write<std::uint32_t>(0xC0FFEE);
  write_sealed(direct, [](util::ByteWriter& body) {
    body.write<std::uint64_t>(42);
    body.write_string("payload");
  });

  const auto a = staged.bytes();
  const auto b = direct.bytes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  // And the result unseals.
  util::ByteReader r(direct.bytes());
  (void)r.read<std::uint32_t>();
  const auto blob = r.read_byte_span();
  auto payload = unseal_blob(blob);
  ASSERT_TRUE(payload.is_ok());
  util::ByteReader body(payload.value());
  EXPECT_EQ(body.read<std::uint64_t>(), 42u);
  EXPECT_EQ(body.read_string(), "payload");
}

TEST(SealedBlob, GoldenBytesPinTheOnDiskFormat) {
  // Exact bytes of a sealed blob: the payload, then its CRC-32 (reflected
  // IEEE polynomial) little-endian. Spill files and checkpoint images
  // written by earlier builds hold these bytes, so a change to the checksum
  // kernel or polynomial must fail here as a format change.
  util::ByteWriter body;
  body.write_string("MRTS sealed blob");
  body.write<std::uint64_t>(0x0123456789ABCDEFull);
  body.write<std::uint16_t>(0xBEEF);
  body.write<std::uint8_t>(0x7F);
  const std::vector<std::byte> blob = seal_blob(std::move(body));
  const std::uint8_t golden[] = {
      0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // string length
      0x4D, 0x52, 0x54, 0x53, 0x20, 0x73, 0x65, 0x61,  // "MRTS sea"
      0x6C, 0x65, 0x64, 0x20, 0x62, 0x6C, 0x6F, 0x62,  // "led blob"
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0xEF, 0xBE, 0x7F,                                // u16, u8
      0xBC, 0x01, 0x1E, 0x25,                          // CRC 0x251E01BC
  };
  ASSERT_EQ(blob.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(blob.data(), golden, sizeof(golden)), 0);
  EXPECT_EQ(sealed_crc(blob), 0x251E01BCu);
  EXPECT_TRUE(sealed_blob_valid(blob));
  const auto payload = verified_payload(blob);
  EXPECT_EQ(payload.size(), blob.size() - 4);
  EXPECT_EQ(payload.data(), blob.data());
}

TEST(SealedBlob, WriteSealedIntoSinkSealsOnlyItsOwnSpan) {
  // In sink mode the writer appends into a buffer that already has
  // contents; the CRC must cover only the payload written by `fn`.
  std::vector<std::byte> sink(13, std::byte{0x5A});
  util::ByteWriter w(sink);
  write_sealed(w, [](util::ByteWriter& body) { body.write_string("inner"); });
  util::ByteReader r(std::span<const std::byte>(sink).subspan(13));
  auto payload = unseal_blob(r.read_byte_span());
  ASSERT_TRUE(payload.is_ok());
  util::ByteReader body(payload.value());
  EXPECT_EQ(body.read_string(), "inner");
}

TEST(MemStore, MoveStoreAdoptsBufferAndBalancesStats) {
  MemStore store;
  auto blob = sealed_payload(7, 16);
  const auto size = blob.size();
  ASSERT_TRUE(store.store(1, std::move(blob)).is_ok());
  EXPECT_EQ(store.stored_bytes(), size);
  EXPECT_EQ(store.stats().bytes_written, size);
  // Overwrite through the move path rebalances the byte gauge.
  auto blob2 = sealed_payload(9, 4);
  const auto size2 = blob2.size();
  ASSERT_TRUE(store.store(1, std::move(blob2)).is_ok());
  EXPECT_EQ(store.stored_bytes(), size2);
  auto loaded = store.load(1);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value(), sealed_payload(9, 4));
}

TEST(ObjectStore, FailedStoreStillHandsPayloadBackUnderMovePath) {
  // The execute path now offers the backend a move; a failing backend (no
  // move override, faults injected before delegation) must leave the bytes
  // for the hand-back — the caller holds the object's only copy.
  FaultPlan plan;
  plan.store_failure_rate = 1.0;
  plan.seed = 7;
  auto fault = std::make_unique<FaultStore>(std::make_unique<MemStore>(), plan);
  ObjectStore store(std::move(fault), nullptr,
                    ObjectStoreOptions{.retry = RetryPolicy{.max_retries = 1},
                                       .synchronous = true});
  const auto payload = sealed_payload(3, 8);
  util::Status seen = util::Status::ok();
  std::vector<std::byte> handed_back;
  store.store_async(5, payload, [&](util::Status s, std::vector<std::byte> b) {
    seen = std::move(s);
    handed_back = std::move(b);
  });
  ASSERT_FALSE(seen.is_ok());
  EXPECT_EQ(handed_back, payload);
}

// --- RetryPolicy ------------------------------------------------------------

TEST(RetryPolicy, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(RetryPolicy::retryable(util::StatusCode::kUnavailable));
  EXPECT_FALSE(RetryPolicy::retryable(util::StatusCode::kIoError));
  EXPECT_FALSE(RetryPolicy::retryable(util::StatusCode::kCorruption));
  EXPECT_FALSE(RetryPolicy::retryable(util::StatusCode::kNotFound));
  EXPECT_FALSE(RetryPolicy::retryable(util::StatusCode::kOk));
}

TEST(RetryPolicy, DelayGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.base_delay = std::chrono::microseconds(100);
  p.max_delay = std::chrono::microseconds(450);
  p.multiplier = 2.0;
  p.jitter = 0.0;
  EXPECT_EQ(p.delay_for(7, 1).count(), 100);
  EXPECT_EQ(p.delay_for(7, 2).count(), 200);
  EXPECT_EQ(p.delay_for(7, 3).count(), 400);
  EXPECT_EQ(p.delay_for(7, 4).count(), 450);  // capped
  EXPECT_EQ(p.delay_for(7, 9).count(), 450);
}

TEST(RetryPolicy, ZeroBaseDisablesBackoff) {
  RetryPolicy p;  // base_delay defaults to 0
  for (int attempt = 1; attempt < 8; ++attempt) {
    EXPECT_EQ(p.delay_for(3, attempt).count(), 0);
  }
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.base_delay = std::chrono::microseconds(1000);
  p.max_delay = std::chrono::microseconds(1u << 20);
  p.jitter = 0.25;
  bool saw_distinct = false;
  for (std::uint64_t key : {1ull, 2ull, 99ull}) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const auto a = p.delay_for(key, attempt);
      const auto b = p.delay_for(key, attempt);
      EXPECT_EQ(a.count(), b.count()) << "jitter must be a pure function";
      double nominal = 1000.0;
      for (int i = 1; i < attempt; ++i) nominal *= p.multiplier;
      EXPECT_GE(static_cast<double>(a.count()), nominal * 0.75 - 1);
      EXPECT_LE(static_cast<double>(a.count()), nominal * 1.25 + 1);
      if (a != p.delay_for(key + 1, attempt)) saw_distinct = true;
    }
  }
  EXPECT_TRUE(saw_distinct) << "jitter should vary across keys";
}

// --- CircuitBreaker ---------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresOnly) {
  CircuitBreaker b(/*failure_threshold=*/3, /*cooldown_ops=*/4);
  EXPECT_TRUE(b.allow());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_success());  // resets the streak, no transition
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_TRUE(b.on_failure());  // third consecutive: opens
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.opens(), 1u);
}

TEST(CircuitBreaker, CooldownAdmitsOneProbeThenCloses) {
  CircuitBreaker b(1, /*cooldown_ops=*/3);
  ASSERT_TRUE(b.on_failure());
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow());  // skip 1
  EXPECT_FALSE(b.allow());  // skip 2
  EXPECT_TRUE(b.allow());   // skip 3 reaches the cooldown: probe admitted
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.probes(), 1u);
  EXPECT_FALSE(b.allow());  // one probe at a time
  EXPECT_TRUE(b.on_success());
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.allow());
}

TEST(CircuitBreaker, FailedProbeReopensAndRestartsCooldown) {
  CircuitBreaker b(1, /*cooldown_ops=*/2);
  ASSERT_TRUE(b.on_failure());
  EXPECT_FALSE(b.allow());
  EXPECT_TRUE(b.allow());  // probe
  EXPECT_TRUE(b.on_failure());
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow());  // cooldown restarted from zero
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.probes(), 2u);
}

// --- ObjectStore backoff ----------------------------------------------------

TEST(ObjectStoreBackoff, SynchronousModeAccumulatesVirtualDelayOnly) {
  // Deterministic-mode contract: backoff is computed and counted but never
  // slept, so two identical schedules report identical virtual backoff.
  auto run_once = [] {
    ObjectStoreOptions opts;
    opts.synchronous = true;
    opts.retry.max_retries = 8;
    opts.retry.base_delay = std::chrono::microseconds(250);
    ObjectStore store(
        std::make_unique<FaultStore>(
            std::make_unique<MemStore>(),
            FaultPlan{.store_failure_rate = 0.5, .seed = 77}),
        nullptr, opts);
    for (ObjectKey k = 0; k < 32; ++k) {
      store.store_async(k, sealed_payload(k, 4), {});
    }
    store.drain();
    return std::pair{store.retries_performed(), store.backoff_microseconds()};
  };
  const auto [retries_a, backoff_a] = run_once();
  const auto [retries_b, backoff_b] = run_once();
  EXPECT_GT(retries_a, 0u);
  EXPECT_GT(backoff_a, 0u);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(backoff_a, backoff_b);
}

TEST(ObjectStoreBackoff, EraseIsRetriedUnderTheSamePolicy) {
  ObjectStoreOptions opts;
  opts.synchronous = true;
  ObjectStore store(std::make_unique<MemStore>(), nullptr, opts);
  ASSERT_TRUE(store.store_sync(4, sealed_payload(4, 4)).is_ok());
  ASSERT_TRUE(store.erase(4).is_ok());
  EXPECT_FALSE(store.load_sync(4).is_ok());
  EXPECT_EQ(store.backend().stats().erase_ops, 1u);
}

// --- ReplicatedStore --------------------------------------------------------

TEST(ReplicatedStore, MirrorServesAndScrubRepairsCorruptPrimary) {
  auto primary = std::make_unique<MemStore>();
  MemStore* raw_primary = primary.get();
  ReplicatedStore store(std::move(primary), std::make_unique<MemStore>());

  const auto blob = sealed_payload(11, 16);
  ASSERT_TRUE(store.store(1, blob).is_ok());
  EXPECT_EQ(store.replicated_stats().mirror_writes, 1u);

  // Rot the primary copy underneath the decorator: an unsealed garbage blob.
  std::vector<std::byte> garbage(blob.size(), std::byte{0xEE});
  ASSERT_TRUE(raw_primary->store(1, garbage).is_ok());

  auto r = store.load(1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), blob);  // the mirror's good copy, not the garbage
  auto rs = store.replicated_stats();
  EXPECT_EQ(rs.mirror_hits, 1u);
  EXPECT_EQ(rs.repairs, 1u);

  // Scrub-on-read rewrote the primary: the next load is served there.
  auto again = store.load(1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), blob);
  EXPECT_EQ(store.replicated_stats().mirror_hits, 1u);
}

TEST(ReplicatedStore, StaleReplicaGuardNeverServesOldPrimaryBlob) {
  // v1 lands on both replicas; then the primary refuses all stores, so v2
  // lands only on the mirror. The primary's v1 blob is seal-valid yet stale
  // — a load must return v2.
  FaultPlan plan;
  plan.schedule.push_back(FaultWindow{
      .begin_op = 1, .end_op = 1u << 30, .store_failure_rate = 1.0});
  ReplicatedStoreOptions ropts;
  ropts.breaker_failure_threshold = 100;  // keep the breaker out of this test
  ReplicatedStore store(
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), plan),
      std::make_unique<MemStore>(), ropts);

  const auto v1 = sealed_payload(100, 8);
  const auto v2 = sealed_payload(200, 8);
  ASSERT_TRUE(store.store(5, v1).is_ok());  // op 0: primary accepts
  ASSERT_TRUE(store.store(5, v2).is_ok());  // primary refuses, mirror has v2
  auto r = store.load(5);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), v2);
  EXPECT_GE(store.replicated_stats().mirror_hits, 1u);
}

TEST(ReplicatedStore, BreakerOpensDuringBlackoutAndHealsAfter) {
  // The primary's first six device operations fail hard (a blackout — note
  // the window is indexed on *offered* primary ops, which advance slowly
  // while the breaker routes around the device); afterwards it answers
  // again. The breaker must open after 3 consecutive failures, route stores
  // to the mirror meanwhile, and close again via a cooldown probe once the
  // blackout ends — with every blob still readable afterwards.
  FaultPlan plan;
  plan.schedule.push_back(FaultWindow{.begin_op = 0,
                                      .end_op = 6,
                                      .store_failure_rate = 1.0,
                                      .load_failure_rate = 1.0});
  ReplicatedStoreOptions ropts;
  ropts.breaker_failure_threshold = 3;
  ropts.breaker_cooldown_ops = 8;
  ReplicatedStore store(
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), plan),
      std::make_unique<MemStore>(), ropts);

  std::vector<std::vector<std::byte>> blobs;
  for (ObjectKey k = 0; k < 64; ++k) {
    blobs.push_back(sealed_payload(k * 7 + 1, 8));
    ASSERT_TRUE(store.store(k, blobs.back()).is_ok()) << "key " << k;
  }
  auto rs = store.replicated_stats();
  EXPECT_GE(rs.breaker_opens, 1u);
  EXPECT_GT(rs.redirected_stores, 0u);
  EXPECT_GE(rs.breaker_probes, 1u);
  EXPECT_EQ(rs.breaker_state, BreakerState::kClosed)
      << "breaker should heal once the blackout window has passed";
  for (ObjectKey k = 0; k < 64; ++k) {
    auto r = store.load(k);
    ASSERT_TRUE(r.is_ok()) << "key " << k;
    EXPECT_EQ(r.value(), blobs[k]);
  }
}

TEST(ReplicatedStore, OverflowParksWritesWhenBothReplicasRefuse) {
  FaultPlan sick{.store_failure_rate = 1.0};
  ReplicatedStore store(
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), sick),
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), sick));

  const auto blob = sealed_payload(9, 8);
  ASSERT_TRUE(store.store(3, blob).is_ok()) << "overflow must absorb it";
  auto rs = store.replicated_stats();
  EXPECT_EQ(rs.overflow_stores, 1u);
  EXPECT_EQ(rs.overflow_bytes, blob.size());
  EXPECT_TRUE(store.contains(3));
  auto r = store.load(3);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), blob);
  ASSERT_TRUE(store.erase(3).is_ok());
  EXPECT_EQ(store.replicated_stats().overflow_bytes, 0u);
  EXPECT_FALSE(store.contains(3));
}

TEST(ReplicatedStore, OverflowCapacityBoundIsEnforced) {
  FaultPlan sick{.store_failure_rate = 1.0};
  ReplicatedStoreOptions ropts;
  ropts.overflow_capacity_bytes = 64;
  ReplicatedStore store(
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), sick),
      std::make_unique<FaultStore>(std::make_unique<MemStore>(), sick),
      ropts);
  EXPECT_TRUE(store.store(1, sealed_payload(1, 4)).is_ok());   // 36 bytes
  EXPECT_FALSE(store.store(2, sealed_payload(2, 8)).is_ok());  // would exceed
}

TEST(ReplicatedStore, EraseRemovesFromBothReplicas) {
  auto primary = std::make_unique<MemStore>();
  auto mirror = std::make_unique<MemStore>();
  MemStore* raw_primary = primary.get();
  MemStore* raw_mirror = mirror.get();
  ReplicatedStore store(std::move(primary), std::move(mirror));
  ASSERT_TRUE(store.store(8, sealed_payload(8, 4)).is_ok());
  ASSERT_TRUE(raw_primary->contains(8));
  ASSERT_TRUE(raw_mirror->contains(8));
  ASSERT_TRUE(store.erase(8).is_ok());
  EXPECT_FALSE(store.contains(8));
  EXPECT_FALSE(raw_primary->contains(8));
  EXPECT_FALSE(raw_mirror->contains(8));
  EXPECT_EQ(raw_primary->stats().erase_ops, 1u);
  EXPECT_EQ(raw_mirror->stats().erase_ops, 1u);
}

// --- Hedged reads (gray-failure mitigation) ---------------------------------

/// A primary device on the virtual clock: every op costs `inflation` x
/// `base_us`, and nothing sleeps.
std::unique_ptr<ModeledDevice> slow_primary(std::uint64_t base_us,
                                            std::uint32_t inflation) {
  return std::make_unique<ModeledDevice>(
      std::make_unique<MemStore>(),
      DeviceModel{.access_latency = std::chrono::microseconds(base_us),
                  .slow_windows = {{.inflation = inflation}}},
      /*node=*/0, /*sleep=*/false);
}

TEST(ReplicatedStore, HedgedReadWinsOnMirrorAndSkipsSlowPrimary) {
  // Primary charges 1600us per load (always-degraded window); the hedge
  // trigger is 400us. The first load primes the EWMA on the primary path;
  // from the second load on, the mirror is raced first and a sealed hit
  // skips the primary device op entirely.
  auto primary = slow_primary(100, /*inflation=*/16);
  StorageBackend* raw_primary = primary.get();
  ReplicatedStoreOptions ropts;
  ropts.hedged_reads = true;
  ropts.hedge_latency_us = 400;
  ReplicatedStore store(std::move(primary), std::make_unique<MemStore>(),
                        ropts);

  const auto blob = sealed_payload(21, 16);
  ASSERT_TRUE(store.store(7, blob).is_ok());

  auto first = store.load(7);
  ASSERT_TRUE(first.is_ok());
  auto rs = store.replicated_stats();
  EXPECT_EQ(rs.hedged_reads, 0u);  // EWMA still cold
  EXPECT_EQ(rs.primary_load_ewma_us, 1600u);

  const std::uint64_t primary_loads = raw_primary->stats().load_ops;
  auto second = store.load(7);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value(), blob);
  rs = store.replicated_stats();
  EXPECT_EQ(rs.hedged_reads, 1u);
  EXPECT_EQ(rs.hedge_wins, 1u);
  EXPECT_EQ(rs.hedge_losses, 0u);
  EXPECT_EQ(raw_primary->stats().load_ops, primary_loads)
      << "a hedge win must not touch the slow primary";
  // Each win decays the EWMA (1/16), so a healed primary is re-probed
  // eventually instead of being hedged around forever.
  EXPECT_EQ(rs.primary_load_ewma_us, 1600u - 1600u / 16u);
}

TEST(ReplicatedStore, HedgeLossFallsThroughToPrimary) {
  // The mirror refuses every store, so a hedge can never be served there:
  // each hedged load must count a loss and still return the primary's blob.
  ReplicatedStoreOptions ropts;
  ropts.hedged_reads = true;
  ropts.hedge_latency_us = 400;
  ReplicatedStore store(
      slow_primary(500, /*inflation=*/4),
      std::make_unique<FaultStore>(std::make_unique<MemStore>(),
                                   FaultPlan{.store_failure_rate = 1.0}),
      ropts);

  const auto blob = sealed_payload(33, 8);
  ASSERT_TRUE(store.store(9, blob).is_ok());
  EXPECT_EQ(store.replicated_stats().mirror_write_failures, 1u);

  ASSERT_TRUE(store.load(9).is_ok());  // primes the EWMA
  auto r = store.load(9);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), blob);
  auto rs = store.replicated_stats();
  EXPECT_EQ(rs.hedged_reads, 1u);
  EXPECT_EQ(rs.hedge_wins, 0u);
  EXPECT_EQ(rs.hedge_losses, 1u);
}

TEST(ReplicatedStore, HedgingOffByDefaultNeverTouchesMirrorFirst) {
  auto mirror = std::make_unique<MemStore>();
  MemStore* raw_mirror = mirror.get();
  // 5000 us per load, far above any trigger.
  ReplicatedStore store(slow_primary(5000, /*inflation=*/1), std::move(mirror));
  ASSERT_TRUE(store.store(2, sealed_payload(2, 4)).is_ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.load(2).is_ok());
  }
  auto rs = store.replicated_stats();
  EXPECT_EQ(rs.hedged_reads, 0u);
  EXPECT_EQ(rs.hedge_wins, 0u);
  EXPECT_EQ(raw_mirror->stats().load_ops, 0u)
      << "with the knob off the mirror serves only failures, as before";
}

TEST(ReplicatedStore, StatsReportThePrimaryDeviceView) {
  auto primary = std::make_unique<MemStore>();
  MemStore* raw_primary = primary.get();
  ReplicatedStore store(std::move(primary), std::make_unique<MemStore>());
  ASSERT_TRUE(store.store(1, sealed_payload(1, 8)).is_ok());
  ASSERT_TRUE(store.store(2, sealed_payload(2, 8)).is_ok());
  EXPECT_EQ(store.count(), raw_primary->count());
  EXPECT_EQ(store.stored_bytes(), raw_primary->stored_bytes());
  EXPECT_EQ(store.stats().store_ops, raw_primary->stats().store_ops);
}

}  // namespace
}  // namespace mrts::storage

// Unit tests for the util module: archives, CRC, RNG, stats, format.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <span>

#include "util/archive.hpp"
#include "util/crc32.hpp"
#include "util/crc32_detail.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace mrts::util {
namespace {

TEST(Archive, RoundTripPrimitives) {
  ByteWriter w;
  w.write<std::uint32_t>(42);
  w.write<double>(3.5);
  w.write<std::int8_t>(-7);
  w.write_string("hello mesh");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read<std::int8_t>(), -7);
  EXPECT_EQ(r.read_string(), "hello mesh");
  EXPECT_TRUE(r.exhausted());
}

TEST(Archive, RoundTripVectorsAndMaps) {
  ByteWriter w;
  std::vector<std::uint64_t> v{1, 2, 3, 5, 8, 13};
  std::unordered_map<std::uint32_t, double> m{{1, 1.5}, {2, 2.5}};
  w.write_vector(v);
  w.write_map(m);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vector<std::uint64_t>(), v);
  EXPECT_EQ((r.read_map<std::uint32_t, double>()), m);
}

TEST(Archive, RoundTripNestedWith) {
  struct Item {
    std::string name;
    std::uint32_t n;
  };
  std::vector<Item> items{{"a", 1}, {"bc", 2}, {"def", 3}};
  ByteWriter w;
  w.write_vector_with(items, [](ByteWriter& out, const Item& it) {
    out.write_string(it.name);
    out.write(it.n);
  });
  ByteReader r(w.bytes());
  auto back = r.read_vector_with<Item>([](ByteReader& in) {
    Item it;
    it.name = in.read_string();
    it.n = in.read<std::uint32_t>();
    return it;
  });
  ASSERT_EQ(back.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(back[i].name, items[i].name);
    EXPECT_EQ(back[i].n, items[i].n);
  }
}

TEST(Archive, ReadPastEndThrows) {
  ByteWriter w;
  w.write<std::uint16_t>(1);
  ByteReader r(w.bytes());
  (void)r.read<std::uint16_t>();
  EXPECT_THROW((void)r.read<std::uint32_t>(), ArchiveError);
}

TEST(Archive, BogusLengthFieldThrows) {
  ByteWriter w;
  w.write<std::uint64_t>(1ull << 40);  // implausible element count
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.read_vector<std::uint32_t>(), ArchiveError);
}

TEST(Archive, TakeResetsWriter) {
  ByteWriter w;
  w.write<std::uint32_t>(7);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u);
  EXPECT_TRUE(w.empty());
}

// Corrupt-length regressions: a poisoned element count must fail with
// ArchiveError BEFORE any allocation sized by it. The counts below would
// demand gigabytes (or wrap the n*sizeof multiplication entirely) if the
// readers still reserved first and bounds-checked later.

TEST(Archive, CorruptVectorWithLengthThrowsBeforeReserve) {
  ByteWriter w;
  // Claims ~2^40 elements but carries only two real ones.
  w.write<std::uint64_t>(1ull << 40);
  w.write_string("a");
  w.write<std::uint32_t>(1);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.read_vector_with<std::string>(
                   [](ByteReader& in) { return in.read_string(); }),
               ArchiveError);
}

TEST(Archive, CorruptVectorWithOverflowingLengthThrows) {
  ByteWriter w;
  // A count chosen so n * element_size wraps 64-bit arithmetic; the
  // division-form check must still refuse it.
  w.write<std::uint64_t>(~0ull);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.read_vector<std::uint64_t>(), ArchiveError);
}

TEST(Archive, CorruptMapLengthThrowsBeforeReserve) {
  ByteWriter w;
  std::unordered_map<std::uint64_t, std::uint64_t> m{{1, 2}, {3, 4}};
  w.write_map(m);
  auto bytes = w.take();
  // Stamp the 8-byte count prefix with an implausible pair count. The
  // payload that follows could never hold it.
  const std::uint64_t bogus = 1ull << 50;
  std::memcpy(bytes.data(), &bogus, sizeof(bogus));
  ByteReader r(bytes);
  EXPECT_THROW((void)(r.read_map<std::uint64_t, std::uint64_t>()),
               ArchiveError);
}

TEST(Archive, TruncatedFrameLengthCountsRemainingNotTotal) {
  // The length check must be against the bytes REMAINING at the field, not
  // the total buffer: a count that fits the buffer but not the tail is
  // corrupt. 32 bytes of padding up front, then a claim of 3 u64s with only
  // 8 bytes left behind it.
  ByteWriter w;
  for (int i = 0; i < 4; ++i) w.write<std::uint64_t>(0);
  w.write<std::uint64_t>(3);  // element count
  w.write<std::uint64_t>(7);  // ...but a single element follows
  ByteReader r(w.bytes());
  for (int i = 0; i < 4; ++i) (void)r.read<std::uint64_t>();
  EXPECT_THROW((void)r.read_vector<std::uint64_t>(), ArchiveError);
}

TEST(Archive, SinkModeAppendsInPlace) {
  std::vector<std::byte> sink;
  sink.push_back(std::byte{0xAB});  // pre-existing contents survive
  ByteWriter w(sink);
  w.write<std::uint32_t>(7);
  w.write_string("xy");
  EXPECT_FALSE(w.owning());
  EXPECT_EQ(sink.size(), 1 + 4 + 8 + 2);
  ByteReader r(std::span<const std::byte>(sink).subspan(1));
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_EQ(r.read_string(), "xy");
}

TEST(Archive, PatchBackfillsPlaceholder) {
  ByteWriter w;
  const std::size_t at = w.write_placeholder<std::uint64_t>();
  w.write_string("body");
  w.patch<std::uint64_t>(at, w.size() - at - sizeof(std::uint64_t));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint64_t>(), 8u + 4u);  // string length field + text
  EXPECT_EQ(r.read_string(), "body");
}

TEST(Archive, ZeroCopyViewsMatchOwningReads) {
  ByteWriter w;
  w.write_string("view me");
  std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.write_vector(payload);
  ByteReader owning(w.bytes());
  ByteReader viewing(w.bytes());
  EXPECT_EQ(owning.read_string(), viewing.read_string_view());
  const auto copy = owning.read_vector<std::byte>();
  const auto view = viewing.read_byte_span();
  ASSERT_EQ(copy.size(), view.size());
  EXPECT_EQ(std::memcmp(copy.data(), view.data(), copy.size()), 0);
  EXPECT_TRUE(viewing.exhausted());
}

TEST(Archive, EmptyVectorRoundTrip) {
  // A zero count decodes to an empty vector, whose data() may be null.
  ByteWriter w;
  w.write_vector(std::vector<std::uint64_t>{});
  w.write_vector(std::vector<std::byte>{});
  w.write<std::uint32_t>(7);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.read_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.read_vector<std::byte>().empty());
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_TRUE(r.exhausted());
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial), independent of the
/// table-driven kernel under test.
std::uint32_t reference_crc32(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthOffsetAndSplit) {
  // Both kernels: util::crc32 as dispatched (carry-less folding of the
  // 16-byte-multiple prefix of inputs of 64 bytes or more, where the CPU has
  // it) and the portable slicing-by-8 loop, so a host that takes the fast
  // path still checks the fallback. Every length up to 1,100 covers the
  // bytewise tail alone, every word/tail mix, the 64-byte threshold and the
  // 16-byte fold loop; the long lengths cover many 64-byte lane steps; the
  // offsets give unaligned starts. Chaining through `seed` checks that a
  // continued checksum equals the one-shot one: at every split of a short
  // input, and elsewhere at 63, 64, 65 and multiples of 16.
  constexpr std::size_t kLong = 620000;
  std::vector<std::byte> buf(kLong + 7);
  Rng rng(11);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  std::vector<std::size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  for (std::size_t extra = 0; extra <= 17; ++extra) {
    lengths.push_back(65536 + extra);
  }
  lengths.push_back(kLong);
  const auto splits_of = [](std::size_t len) {
    std::vector<std::size_t> splits;
    for (std::size_t s = 0; s <= len; ++s) {
      const bool near_threshold = s >= 63 && s <= 65;
      const bool every = len <= 80 || (len <= 1100 && s % 16 == 0);
      const bool sparse = s % 16 == 0 && (s <= 128 || s + 128 >= len ||
                                          s == (len / 2 & ~std::size_t{15}));
      if (every || near_threshold || sparse) splits.push_back(s);
    }
    return splits;
  };
  using Kernel = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);
  const std::pair<const char*, Kernel> kernels[] = {
      {"dispatched", &crc32}, {"slicing-by-8", &detail::crc32_slicing_by_8}};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len : lengths) {
      const auto data = std::span<const std::byte>(buf).subspan(offset, len);
      const std::uint32_t want = reference_crc32(data);
      const auto splits = splits_of(len);
      for (const auto& [name, kernel] : kernels) {
        ASSERT_EQ(kernel(data, 0), want)
            << name << " offset " << offset << " len " << len;
        for (std::size_t split : splits) {
          const std::uint32_t head = kernel(data.first(split), 0);
          ASSERT_EQ(kernel(data.subspan(split), head), want)
              << name << " offset " << offset << " len " << len << " split "
              << split;
        }
      }
    }
  }
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926, the classic check value.
  const char* s = "123456789";
  const auto crc = crc32(std::as_bytes(std::span(s, 9)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::byte> data(1000);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
  const auto whole = crc32(data);
  auto part = crc32(std::span(data).subspan(0, 400));
  part = crc32(std::span(data).subspan(400), part);
  EXPECT_EQ(whole, part);
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x5A});
  const auto before = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(before, crc32(data));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Histogram, BinningAndQuantile) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bin_count(i), 10u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.5);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 0.5);
}

TEST(Histogram, EdgeSaturation) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Format, Basics) {
  EXPECT_EQ(format("a{}c", "b"), "abc");
  EXPECT_EQ(format("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(format("{:016x}", 0xABCDull), "000000000000abcd");
  EXPECT_EQ(format("{{literal}}"), "{literal}");  // escaped braces
  EXPECT_EQ(format("{{{}}}", 5), "{5}");
  EXPECT_EQ(format("no placeholders", 1), "no placeholders");
}

TEST(Timer, AccumulatorAddsUp) {
  TimeAccumulator acc;
  acc.add(std::chrono::milliseconds(3));
  acc.add(std::chrono::milliseconds(4));
  EXPECT_NEAR(acc.seconds(), 0.007, 1e-9);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);
}

TEST(Timer, ScopedChargeMeasuresScope) {
  TimeAccumulator acc;
  {
    ScopedCharge charge(acc);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
  }
  EXPECT_GT(acc.total().count(), 0);
}

}  // namespace
}  // namespace mrts::util

#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "util/crc32_detail.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define MRTS_CRC32_CLMUL 1
#endif

namespace mrts::util {
namespace {

// Slicing-by-8 loads eight payload bytes as native 32-bit words; the lane
// order of the tables below assumes little-endian (util/archive.hpp does
// too).
static_assert(std::endian::native == std::endian::little,
              "crc32 slicing-by-8 assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table of the reflected IEEE polynomial;
// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight table
// lookups advance the checksum over one 8-byte word.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Advances the running (pre-inverted) CRC `c` over `n` bytes at `p`.
std::uint32_t slicing_by_8(const std::byte* p, std::size_t n, std::uint32_t c) {
  for (; n >= 8; p += 8, n -= 8) {
    // One 8-byte load, kept as its two 32-bit halves (measured faster than
    // splitting a 64-bit word). The high half does not depend on the
    // running CRC: its lookups start before the previous step finishes, and
    // only the low half's four lookups sit on the loop-carried path.
    std::uint32_t half[2] = {};
    std::memcpy(half, p, sizeof(half));
    const std::uint32_t hi = half[1];
    const std::uint32_t ahead =
        (kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu]) ^
        (kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24]);
    const std::uint32_t lo = half[0] ^ c;
    c = ((kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu]) ^
         (kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24])) ^
        ahead;
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef MRTS_CRC32_CLMUL

// Folding by carry-less multiply (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel, 2009), in the bit-reflected
// domain of 0xEDB88320. Each constant is x^d mod P for the fold distance d
// it serves, reflected to 33 bits; only these functions carry the pclmul and
// sse4.1 target, and crc32() calls them only on a CPU that has both.
#define MRTS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

constexpr std::uint64_t kFold512Lo = 0x154442bd4;  // k1: lanes 64 bytes apart
constexpr std::uint64_t kFold512Hi = 0x1c6e41596;  // k2
constexpr std::uint64_t kFold128Lo = 0x1751997d0;  // k3: blocks 16 bytes apart
constexpr std::uint64_t kFold128Hi = 0x0ccaa009e;  // k4
constexpr std::uint64_t kFold64 = 0x163cd6124;     // k5: 96 bits to 64
constexpr std::uint64_t kPoly = 0x1db710641;       // P'
constexpr std::uint64_t kMu = 0x1f7011641;         // µ' = x^64 / P

/// Folds the 128-bit remainder `x` forward by the distance `k` encodes
/// (low half times k.lo, high half times k.hi) onto the next block.
MRTS_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

MRTS_CLMUL_TARGET inline __m128i load(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The running CRC `c` advanced over `n` bytes at `p`, where n >= 64 and n
/// is a multiple of 16.
MRTS_CLMUL_TARGET std::uint32_t fold_clmul(const std::byte* p, std::size_t n,
                                           std::uint32_t c) {
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));
  // Four lanes 16 bytes apart, each folded 64 bytes forward per step, keep
  // four independent multiplies in flight.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  // Merge the lanes, then fold any 16-byte blocks left.
  x0 = fold(x0, k128, x1);
  x0 = fold(x0, k128, x2);
  x0 = fold(x0, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k128, load(p));

  // 128 bits to 96: the low half times k4 onto the high half ...
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  // ... 96 to 64: the low 32 bits times k5 onto the rest ...
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // ... and a Barrett reduction of the 64 bits left to the 32-bit CRC.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kMu),
                                         static_cast<long long>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool cpu_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // MRTS_CRC32_CLMUL

}  // namespace

std::uint32_t detail::crc32_slicing_by_8(std::span<const std::byte> bytes,
                                         std::uint32_t seed) {
  return slicing_by_8(bytes.data(), bytes.size(), seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed) {
#ifdef MRTS_CRC32_CLMUL
  if (bytes.size() >= 64 && cpu_has_clmul()) {
    // The 16-byte-multiple prefix by folding, the tail by table.
    const std::size_t head = bytes.size() & ~std::size_t{15};
    const std::uint32_t c = fold_clmul(bytes.data(), head, seed ^ 0xFFFFFFFFu);
    return slicing_by_8(bytes.data() + head, bytes.size() - head, c) ^
           0xFFFFFFFFu;
  }
#endif
  return detail::crc32_slicing_by_8(bytes, seed);
}

}  // namespace mrts::util

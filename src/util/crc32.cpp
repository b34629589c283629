#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
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
  return c ^ 0xFFFFFFFFu;
}

}  // namespace mrts::util

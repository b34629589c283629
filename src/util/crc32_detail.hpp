#pragma once

// Internal to util/crc32.cpp and its tests: the portable CRC-32 kernel that
// util::crc32 falls back to when the CPU has no carry-less multiply. Tests
// call it directly so a host that takes the fast path still checks it.

#include <cstddef>
#include <cstdint>
#include <span>

namespace mrts::util::detail {

/// util::crc32 computed by the slicing-by-8 table loop alone, on every CPU.
[[nodiscard]] std::uint32_t crc32_slicing_by_8(std::span<const std::byte> bytes,
                                               std::uint32_t seed = 0);

}  // namespace mrts::util::detail

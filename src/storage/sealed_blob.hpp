#pragma once

// Sealed-blob helpers shared by the runtime's spill path, the checkpoint
// writer, and the replicated store's scrub-on-read: a sealed blob is the
// serialized payload followed by its CRC32 (little-endian, 4 bytes), so
// corruption introduced anywhere between serialization and deserialization
// — including below a CRC-checking backend — is detected at reload.
//
// All verification is Status-based: a bad seal is an expected runtime
// outcome (injected corruption, torn write, bit rot) handled by the
// recovery ladder, never an exception.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/archive.hpp"
#include "util/crc32.hpp"
#include "util/status.hpp"

namespace mrts::storage {

/// Takes the writer's bytes and appends the payload CRC32 trailer.
[[nodiscard]] std::vector<std::byte> seal_blob(util::ByteWriter&& w);

/// Zero-copy seal-in-place: writes a length-prefixed sealed blob (the exact
/// bytes `w.write_vector(seal_blob(std::move(body)))` would produce) into
/// `w` by serializing the payload via `fn(ByteWriter&)` directly at its
/// final position, computing the CRC over the written span, and patching
/// the length prefix — no intermediate payload vector, no blob copy.
template <typename Fn>
void write_sealed(util::ByteWriter& w, Fn&& fn) {
  const std::size_t len_at = w.write_placeholder<std::uint64_t>();
  const std::size_t body_at = w.size();
  fn(w);
  const std::size_t body_len = w.size() - body_at;
  const std::uint32_t crc = util::crc32(w.bytes().subspan(body_at, body_len));
  w.write(crc);
  w.patch<std::uint64_t>(len_at,
                         static_cast<std::uint64_t>(body_len + sizeof(crc)));
}

/// The trailing CRC32 of a sealed blob (0 for blobs too short to carry
/// one). Two sealed blobs with equal seal CRCs carry identical payloads
/// modulo CRC collision — the cheap content-identity check the recovery
/// ladder uses before accepting a checkpoint copy.
[[nodiscard]] std::uint32_t sealed_crc(std::span<const std::byte> blob);

/// True when the blob is long enough and its payload matches the trailer.
[[nodiscard]] bool sealed_blob_valid(std::span<const std::byte> blob);

/// Returns the payload view of a sealed blob, or kCorruption when the blob
/// is truncated or fails its checksum.
[[nodiscard]] util::Result<std::span<const std::byte>> unseal_blob(
    std::span<const std::byte> blob);

/// The payload view of a sealed blob whose seal the caller has already
/// verified (sealed_blob_valid): the blob minus its CRC trailer, without a
/// second checksum pass.
[[nodiscard]] std::span<const std::byte> verified_payload(
    std::span<const std::byte> blob);

}  // namespace mrts::storage

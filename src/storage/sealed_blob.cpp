#include "storage/sealed_blob.hpp"

#include <cassert>
#include <cstring>

#include "util/crc32.hpp"

namespace mrts::storage {

std::vector<std::byte> seal_blob(util::ByteWriter&& w) {
  auto blob = w.take();
  const std::uint32_t crc = util::crc32(blob);
  const auto* p = reinterpret_cast<const std::byte*>(&crc);
  blob.insert(blob.end(), p, p + sizeof(crc));
  return blob;
}

std::uint32_t sealed_crc(std::span<const std::byte> blob) {
  if (blob.size() < sizeof(std::uint32_t)) return 0;
  std::uint32_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - sizeof(stored),
              sizeof(stored));
  return stored;
}

bool sealed_blob_valid(std::span<const std::byte> blob) {
  if (blob.size() < sizeof(std::uint32_t)) return false;
  const auto payload = blob.subspan(0, blob.size() - sizeof(std::uint32_t));
  return util::crc32(payload) == sealed_crc(blob);
}

util::Result<std::span<const std::byte>> unseal_blob(
    std::span<const std::byte> blob) {
  if (blob.size() < sizeof(std::uint32_t)) {
    return util::Status(util::StatusCode::kCorruption,
                        "sealed blob shorter than its checksum");
  }
  const auto payload = blob.subspan(0, blob.size() - sizeof(std::uint32_t));
  if (util::crc32(payload) != sealed_crc(blob)) {
    return util::Status(util::StatusCode::kCorruption,
                        "sealed blob failed checksum verification");
  }
  return payload;
}

std::span<const std::byte> verified_payload(std::span<const std::byte> blob) {
  assert(blob.size() >= sizeof(std::uint32_t));
  return blob.first(blob.size() - sizeof(std::uint32_t));
}

}  // namespace mrts::storage

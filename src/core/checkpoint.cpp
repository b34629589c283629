#include "core/checkpoint.hpp"

#include <fstream>

#include "util/crc32.hpp"
#include "util/format.hpp"

namespace mrts::core {
namespace {

// "MRTSCP02": object records take the install-frame layout (with an epoch).
constexpr std::uint64_t kMagic = 0x4D52545343503032ull;

util::Status write_sealed_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return {util::StatusCode::kIoError, "cannot open " + path.string()};
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  const std::uint32_t crc = util::crc32(bytes);
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.flush();
  if (!out) {
    return {util::StatusCode::kIoError, "short write to " + path.string()};
  }
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> read_sealed_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return util::Status(util::StatusCode::kNotFound,
                        "cannot open " + path.string());
  }
  const auto total = static_cast<std::size_t>(in.tellg());
  if (total < sizeof(std::uint32_t)) {
    return util::Status(util::StatusCode::kCorruption, "file too short");
  }
  std::vector<std::byte> bytes(total - sizeof(std::uint32_t));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in) {
    return util::Status(util::StatusCode::kIoError, "short read");
  }
  if (util::crc32(bytes) != crc) {
    return util::Status(util::StatusCode::kCorruption,
                        "checkpoint CRC mismatch: " + path.string());
  }
  return bytes;
}

std::filesystem::path node_file(const std::filesystem::path& dir, NodeId n) {
  return dir / util::format("node{}.ckpt", n);
}

}  // namespace

util::Status checkpoint_cluster(Cluster& cluster,
                                const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return {util::StatusCode::kIoError,
            "cannot create " + dir.string() + ": " + ec.message()};
  }
  // Manifest: magic + node count + registered type count (sanity only).
  {
    util::ByteWriter w;
    w.write(kMagic);
    w.write<std::uint64_t>(cluster.size());
    w.write<std::uint64_t>(cluster.registry().type_count());
    const auto bytes = w.take();
    if (auto s = write_sealed_file(dir / "manifest", bytes); !s.is_ok()) {
      return s;
    }
  }
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    util::ByteWriter w;
    if (auto s = cluster.node(static_cast<NodeId>(n)).checkpoint_to(w);
        !s.is_ok()) {
      return s;
    }
    const auto bytes = w.take();
    if (auto s = write_sealed_file(node_file(dir, static_cast<NodeId>(n)),
                                   bytes);
        !s.is_ok()) {
      return s;
    }
  }
  return util::Status::ok();
}

util::Status restore_cluster(Cluster& cluster,
                             const std::filesystem::path& dir) {
  auto manifest = read_sealed_file(dir / "manifest");
  if (!manifest.is_ok()) return manifest.status();
  if (manifest.value().size() != 3 * sizeof(std::uint64_t)) {
    return {util::StatusCode::kCorruption, "malformed checkpoint manifest"};
  }
  {
    util::ByteReader r(manifest.value());
    if (r.read<std::uint64_t>() != kMagic) {
      return {util::StatusCode::kCorruption, "not an MRTS checkpoint"};
    }
    if (r.read<std::uint64_t>() != cluster.size()) {
      return {util::StatusCode::kInvalidArgument,
              "checkpoint node count does not match the cluster"};
    }
    if (r.read<std::uint64_t>() != cluster.registry().type_count()) {
      return {util::StatusCode::kInvalidArgument,
              "checkpoint type count does not match the registry"};
    }
  }
  // Two-phase: read, CRC-check and parse every node image before installing
  // a single object, so a truncated or corrupt file — or an image damaged
  // below its file CRC — leaves the whole cluster unchanged.
  std::vector<Runtime::CheckpointImage> images;
  images.reserve(cluster.size());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    auto bytes = read_sealed_file(node_file(dir, static_cast<NodeId>(n)));
    if (!bytes.is_ok()) return bytes.status();
    util::ByteReader r(bytes.value());
    auto image = cluster.node(static_cast<NodeId>(n)).parse_checkpoint(r);
    if (!image.is_ok()) return image.status();
    images.push_back(std::move(image).value());
  }
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    cluster.node(static_cast<NodeId>(n)).restore(std::move(images[n]));
  }
  // Teach every home node where its migrated objects live now.
  std::vector<std::pair<MobilePtr, NodeId>> locations;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    Runtime& rt = cluster.node(static_cast<NodeId>(n));
    rt.for_each_local_object([&](MobilePtr ptr) {
      locations.emplace_back(ptr, static_cast<NodeId>(n));
    });
  }
  for (const auto& [ptr, where] : locations) {
    const NodeId home = ptr.home_node();
    if (home != where && home < cluster.size()) {
      cluster.node(home).note_remote_location(ptr, where);
    }
  }
  return util::Status::ok();
}

}  // namespace mrts::core

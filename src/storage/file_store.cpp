#include "storage/file_store.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "util/crc32.hpp"
#include "util/format.hpp"

namespace mrts::storage {
namespace fs = std::filesystem;
namespace {

util::Status io_error(const char* what, const fs::path& path, int err) {
  return {util::StatusCode::kIoError,
          util::format("{} {}: {}", what, path.string(), std::strerror(err))};
}

/// Moves every byte of `iov` from or to offset 0 of `fd` with `io`
/// (::preadv or ::pwritev), resuming after short transfers and EINTR.
/// Returns the bytes moved, fewer if `io` moves none (end of file), or -1
/// with errno set.
ssize_t transfer(ssize_t (*io)(int, const iovec*, int, off_t), int fd,
                 iovec* iov, int count) {
  ssize_t done = 0;
  while (count > 0) {
    if (iov->iov_len == 0) {
      ++iov;
      --count;
      continue;
    }
    const ssize_t n = io(fd, iov, count, done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n < 0 ? -1 : done;
    done += n;
    for (auto left = static_cast<std::size_t>(n); left > 0;) {
      const std::size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
  return done;
}

/// Overwrites `path` in place with `bytes` and their CRC-32 trailer.
util::Status write_blob(const fs::path& path,
                        std::span<const std::byte> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) return io_error("cannot open", path, errno);
  // The trailer is the CRC's native bytes: little-endian, as util::crc32
  // requires of its host.
  std::uint32_t crc = util::crc32(bytes);
  iovec iov[2] = {{const_cast<std::byte*>(bytes.data()), bytes.size()},
                  {&crc, sizeof(crc)}};
  const auto total = static_cast<ssize_t>(bytes.size() + sizeof(crc));
  int err = 0;
  const char* what = "cannot write";
  if (const ssize_t n = transfer(::pwritev, fd, iov, 2); n != total) {
    err = n < 0 ? errno : EIO;
  } else if (::ftruncate(fd, total) != 0) {
    err = errno;
    what = "cannot truncate";
  }
  if (::close(fd) != 0 && err == 0) {
    err = errno;
    what = "cannot close";
  }
  return err == 0 ? util::Status::ok() : io_error(what, path, err);
}

}  // namespace

FileStore::FileStore(fs::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

FileStore::~FileStore() {
  clear();
  // Only an empty directory goes: one that holds files this store did not
  // write stays.
  std::error_code ec;
  fs::remove(dir_, ec);
}

fs::path FileStore::path_for(ObjectKey key) const {
  return dir_ / util::format("{:016x}.mob", key);
}

util::Status FileStore::store(ObjectKey key, std::span<const std::byte> bytes) {
  const fs::path path = path_for(key);
  const util::Status written = write_blob(path, bytes);
  std::lock_guard lock(mutex_);
  auto it = sizes_.find(key);
  if (it != sizes_.end()) stored_bytes_ -= it->second;
  if (!written.is_ok()) {
    // The old blob may already be partly overwritten: the key leaves the
    // index, so it reads kNotFound rather than a torn blob.
    if (it != sizes_.end()) sizes_.erase(it);
    std::error_code ec;
    fs::remove(path, ec);
    return written;
  }
  if (it == sizes_.end()) it = sizes_.emplace(key, 0).first;
  it->second = bytes.size();
  stored_bytes_ += bytes.size();
  stats_.bytes_written += bytes.size();
  ++stats_.store_ops;
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> FileStore::load(ObjectKey key) {
  std::size_t payload = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = sizes_.find(key);
    if (it == sizes_.end()) {
      return util::Status(util::StatusCode::kNotFound, "no such object");
    }
    payload = it->second;
  }
  const fs::path path = path_for(key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return io_error("cannot open", path, errno);
  }
  // One read of the payload and its trailer, sized by the index.
  std::vector<std::byte> bytes(payload);
  std::uint32_t stored_crc = 0;
  iovec iov[2] = {{bytes.data(), payload}, {&stored_crc, sizeof(stored_crc)}};
  const ssize_t got = transfer(::preadv, fd, iov, 2);
  const int read_errno = errno;
  ::close(fd);
  if (got < 0) {
    return io_error("cannot read", path, read_errno);
  }
  if (static_cast<std::size_t>(got) != payload + sizeof(stored_crc)) {
    return util::Status(
        util::StatusCode::kCorruption,
        util::format("{}: read {} of {} bytes", path.string(), got,
                     payload + sizeof(stored_crc)));
  }
  if (util::crc32(bytes) != stored_crc) {
    return util::Status(util::StatusCode::kCorruption, "CRC mismatch");
  }
  std::lock_guard lock(mutex_);
  stats_.bytes_read += payload;
  ++stats_.load_ops;
  return bytes;
}

util::Status FileStore::erase(ObjectKey key) {
  {
    std::lock_guard lock(mutex_);
    auto it = sizes_.find(key);
    if (it == sizes_.end()) {
      return {util::StatusCode::kNotFound, "no such object"};
    }
    stored_bytes_ -= it->second;
    sizes_.erase(it);
    ++stats_.erase_ops;
  }
  std::error_code ec;
  fs::remove(path_for(key), ec);
  if (ec) {
    return {util::StatusCode::kIoError, "remove failed: " + ec.message()};
  }
  return util::Status::ok();
}

bool FileStore::contains(ObjectKey key) const {
  std::lock_guard lock(mutex_);
  return sizes_.contains(key);
}

std::size_t FileStore::count() const {
  std::lock_guard lock(mutex_);
  return sizes_.size();
}

std::uint64_t FileStore::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_bytes_;
}

BackendStats FileStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void FileStore::clear() {
  std::lock_guard lock(mutex_);
  std::error_code ec;
  for (const auto& [key, size] : sizes_) {
    fs::remove(path_for(key), ec);
  }
  sizes_.clear();
  stored_bytes_ = 0;
}

fs::path make_temp_spill_dir(const std::string& tag) {
  static std::atomic<std::uint64_t> counter{0};
  const auto n = counter.fetch_add(1);
  auto dir = fs::temp_directory_path() /
             util::format("mrts-{}-{}-{}", tag, ::getpid(), n);
  fs::create_directories(dir);
  return dir;
}

}  // namespace mrts::storage

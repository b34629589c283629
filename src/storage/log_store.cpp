#include "storage/log_store.hpp"

#include <algorithm>
#include <fstream>

#include "obs/metrics.hpp"

namespace mrts::storage {
namespace fs = std::filesystem;
namespace {

util::Result<std::vector<std::byte>> read_file_range(const fs::path& path,
                                                     std::uint64_t offset,
                                                     std::uint64_t length) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status(util::StatusCode::kIoError,
                        "cannot open " + path.string());
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::vector<std::byte> buf(length);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(length));
  if (!in) {
    return util::Status(util::StatusCode::kCorruption,
                        "short segment read from " + path.string());
  }
  return buf;
}

}  // namespace

LogStore::LogStore(LogStoreOptions options)
    : options_(std::move(options)),
      m_group_commits_(
          &obs::MetricsRegistry::global().counter("logstore.group_commits")),
      m_segments_sealed_(
          &obs::MetricsRegistry::global().counter("logstore.segments_sealed")),
      m_compactions_(
          &obs::MetricsRegistry::global().counter("logstore.compactions")),
      m_records_dropped_(
          &obs::MetricsRegistry::global().counter("logstore.records_dropped")) {
  // A directory-less store can only live in memory.
  if (options_.dir.empty()) options_.in_memory = true;
  open_id_ = 0;
  next_id_ = 1;
  if (!options_.in_memory) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (options_.recover_on_open) recover_locked();
  }
  open_new_segment_locked();
}

LogStore::~LogStore() {
  std::lock_guard lock(mutex_);
  (void)commit_locked();  // clean shutdown lands the buffered tail
  if (options_.in_memory || options_.retain_on_close) return;
  std::error_code ec;
  for (const auto& [id, seg] : segments_) fs::remove(path_of(id), ec);
  fs::remove(options_.dir, ec);  // only if nothing else is left in it
}

fs::path LogStore::path_of(std::uint64_t id) const {
  return options_.dir / segment_file_name(id);
}

void LogStore::open_new_segment_locked() {
  open_id_ = next_id_++;
  segments_.emplace(open_id_, Segment{});
}

util::Status LogStore::commit_locked() {
  if (pending_.empty()) return util::Status::ok();
  Segment& seg = segments_.at(open_id_);
  if (options_.in_memory) {
    seg.mem.insert(seg.mem.end(), pending_.begin(), pending_.end());
  } else {
    std::ofstream out(path_of(open_id_),
                      std::ios::binary | std::ios::app);
    if (out) {
      out.write(reinterpret_cast<const char*>(pending_.data()),
                static_cast<std::streamsize>(pending_.size()));
      out.flush();
    }
    if (!out) {
      // Keep the buffer: the records stay loadable from memory and the next
      // commit retries the whole append.
      return {util::StatusCode::kIoError,
              "segment append failed: " + path_of(open_id_).string()};
    }
  }
  seg.committed_bytes += pending_.size();
  pending_.clear();
  pending_records_ = 0;
  ++stats_.device_write_ops;
  ++stats_.group_commits;
  m_group_commits_->inc();
  return util::Status::ok();
}

void LogStore::seal_locked() {
  if (!commit_locked().is_ok()) return;  // stay open; the next commit retries
  segments_.at(open_id_).sealed = true;
  ++stats_.segments_sealed;
  m_segments_sealed_->inc();
  open_new_segment_locked();
}

std::pair<std::uint64_t, RecordExtent> LogStore::raw_append_locked(
    ObjectKey key, std::uint64_t generation, RecordKind kind,
    std::span<const std::byte> payload) {
  const std::uint64_t sid = open_id_;
  Segment& seg = segments_.at(sid);
  RecordExtent extent = append_record(pending_, key, generation, kind, payload);
  extent.offset = seg.committed_bytes + extent.offset;
  seg.valid_bytes += extent.length;
  if (++pending_records_ == 1) pending_since_tick_ = last_tick_;
  if (seg.valid_bytes >= options_.segment_target_bytes) {
    seal_locked();
  } else if (pending_.size() >= options_.group_commit_bytes ||
             pending_records_ >= options_.group_commit_records) {
    (void)commit_locked();
  }
  return {sid, extent};
}

void LogStore::retire_put_locked(const IndexEntry& e) {
  Segment& seg = segments_.at(e.segment);
  seg.live_bytes -= e.extent.length;
  --seg.live_records;
}

void LogStore::retire_tombstone_locked(const Tombstone& t) {
  segments_.at(t.segment).tomb_bytes -= t.extent.length;
}

util::Status LogStore::store(ObjectKey key, std::span<const std::byte> bytes) {
  std::lock_guard lock(mutex_);
  const std::uint64_t gen = next_gen_++;
  if (auto it = index_.find(key); it != index_.end()) {
    retire_put_locked(it->second);
    stored_payload_bytes_ -= it->second.payload_bytes;
  } else if (auto t = tombstones_.find(key); t != tombstones_.end()) {
    // A fresher put masks the tombstone everywhere; it is garbage now.
    retire_tombstone_locked(t->second);
    tombstones_.erase(t);
  }
  const auto [sid, extent] =
      raw_append_locked(key, gen, RecordKind::kPut, bytes);
  index_[key] = IndexEntry{sid, extent, bytes.size(), gen};
  Segment& seg = segments_.at(sid);
  seg.live_bytes += extent.length;
  ++seg.live_records;
  stored_payload_bytes_ += bytes.size();
  stats_.bytes_written += bytes.size();
  ++stats_.store_ops;
  return util::Status::ok();
}

util::Result<std::vector<std::byte>> LogStore::load(ObjectKey key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return util::Status(util::StatusCode::kNotFound, "no such object");
  }
  const IndexEntry& e = it->second;
  const Segment& seg = segments_.at(e.segment);
  std::vector<std::byte> framed;
  if (e.segment == open_id_ && e.extent.offset >= seg.committed_bytes) {
    // Still in the group-commit buffer: a memory hit, no device op.
    const auto rel = static_cast<std::size_t>(e.extent.offset -
                                              seg.committed_bytes);
    framed.assign(pending_.begin() + rel,
                  pending_.begin() + rel + e.extent.length);
  } else if (options_.in_memory) {
    framed.assign(seg.mem.begin() + static_cast<std::size_t>(e.extent.offset),
                  seg.mem.begin() +
                      static_cast<std::size_t>(e.extent.offset +
                                               e.extent.length));
    ++stats_.device_read_ops;
  } else {
    auto read = read_file_range(path_of(e.segment), e.extent.offset,
                                e.extent.length);
    ++stats_.device_read_ops;
    if (!read.is_ok()) return read.status();
    framed = std::move(read).value();
  }
  auto rec = read_record_at(framed, 0);
  if (!rec.is_ok()) return rec.status();
  SegmentRecord record = std::move(rec).value();
  if (record.key != key || record.generation != e.generation ||
      record.kind != RecordKind::kPut) {
    return util::Status(util::StatusCode::kCorruption,
                        "segment record identity mismatch");
  }
  stats_.bytes_read += record.payload.size();
  ++stats_.load_ops;
  return std::move(record.payload);
}

util::Status LogStore::erase(ObjectKey key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return {util::StatusCode::kNotFound, "no such object"};
  }
  retire_put_locked(it->second);
  stored_payload_bytes_ -= it->second.payload_bytes;
  index_.erase(it);
  const std::uint64_t gen = next_gen_++;
  if (auto t = tombstones_.find(key); t != tombstones_.end()) {
    retire_tombstone_locked(t->second);
    tombstones_.erase(t);
  }
  const auto [sid, extent] =
      raw_append_locked(key, gen, RecordKind::kTombstone, {});
  tombstones_[key] = Tombstone{sid, extent, gen};
  segments_.at(sid).tomb_bytes += extent.length;
  ++stats_.erase_ops;
  return util::Status::ok();
}

bool LogStore::contains(ObjectKey key) const {
  std::lock_guard lock(mutex_);
  return index_.contains(key);
}

std::size_t LogStore::count() const {
  std::lock_guard lock(mutex_);
  return index_.size();
}

std::uint64_t LogStore::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_payload_bytes_;
}

BackendStats LogStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t LogStore::segment_count() const {
  std::lock_guard lock(mutex_);
  return segments_.size();
}

std::size_t LogStore::pending_records() const {
  std::lock_guard lock(mutex_);
  return pending_records_;
}

void LogStore::tick(std::uint64_t virtual_now) {
  std::lock_guard lock(mutex_);
  last_tick_ = virtual_now;
  if (!pending_.empty() &&
      virtual_now >= pending_since_tick_ + options_.flush_interval_ticks) {
    (void)commit_locked();
  }
  compact_locked(options_.compactions_per_tick,
                 options_.compact_garbage_ratio);
}

util::Status LogStore::flush() {
  std::lock_guard lock(mutex_);
  return commit_locked();
}

std::size_t LogStore::compact(std::size_t max_segments,
                              double min_garbage_ratio) {
  std::lock_guard lock(mutex_);
  return compact_locked(max_segments, min_garbage_ratio);
}

std::size_t LogStore::compact_locked(std::size_t max_segments,
                                     double min_garbage_ratio) {
  std::size_t done = 0;
  while (done < max_segments) {
    std::uint64_t best = 0;
    double best_ratio = -1.0;
    for (const auto& [id, seg] : segments_) {
      if (!seg.sealed) continue;
      const std::uint64_t kept = seg.live_bytes + seg.tomb_bytes;
      if (seg.committed_bytes == 0 && kept == 0) {
        // Fully damaged / empty recovered segment: plain drop.
        best = id;
        best_ratio = 1.0;
        break;
      }
      if (seg.committed_bytes == 0) continue;
      const double ratio =
          static_cast<double>(seg.committed_bytes - kept) /
          static_cast<double>(seg.committed_bytes);
      if (ratio >= min_garbage_ratio && ratio > best_ratio) {
        best = id;
        best_ratio = ratio;
      }
    }
    if (best_ratio < 0.0) break;
    if (!compact_segment_locked(best)) break;
    ++done;
  }
  return done;
}

bool LogStore::compact_segment_locked(std::uint64_t id) {
  auto node = segments_.extract(id);
  if (node.empty()) return false;
  Segment& seg = node.mapped();
  std::vector<std::byte> contents;
  if (seg.committed_bytes > 0) {
    auto read = read_committed_locked(id, seg);
    // One segment-scan read is the physical cost of compacting it.
    ++stats_.device_read_ops;
    if (!read.is_ok()) {
      segments_.insert(std::move(node));
      return false;
    }
    contents = std::move(read).value();
  }
  scan_segment(contents, [&](const RecordExtent& extent, SegmentRecord&& rec) {
    if (rec.kind == RecordKind::kPut) {
      const auto it = index_.find(rec.key);
      const bool live = it != index_.end() && it->second.segment == id &&
                        it->second.extent.offset == extent.offset;
      if (!live) {
        ++stats_.records_dropped;
        m_records_dropped_->inc();
        return;
      }
      const auto [sid, moved] = raw_append_locked(
          rec.key, rec.generation, RecordKind::kPut, rec.payload);
      index_[rec.key] =
          IndexEntry{sid, moved, rec.payload.size(), rec.generation};
      Segment& dst = segments_.at(sid);
      dst.live_bytes += moved.length;
      ++dst.live_records;
      stats_.compacted_bytes += moved.length;
    } else {
      const auto t = tombstones_.find(rec.key);
      const bool kept = t != tombstones_.end() && t->second.segment == id &&
                        t->second.extent.offset == extent.offset;
      if (!kept) {
        ++stats_.records_dropped;
        m_records_dropped_->inc();
        return;
      }
      // Still masking an older put in some other segment: must survive.
      const auto [sid, moved] =
          raw_append_locked(rec.key, rec.generation, RecordKind::kTombstone,
                            {});
      tombstones_[rec.key] = Tombstone{sid, moved, rec.generation};
      segments_.at(sid).tomb_bytes += moved.length;
      stats_.compacted_bytes += moved.length;
    }
  });
  // Land the rewrites before the source segment disappears (write-ahead
  // discipline: a crash in between must never lose the only copy).
  (void)commit_locked();
  if (!options_.in_memory) {
    std::error_code ec;
    fs::remove(path_of(id), ec);
  }
  ++stats_.compactions;
  m_compactions_->inc();
  return true;
}

util::Result<std::vector<std::byte>> LogStore::read_committed_locked(
    std::uint64_t id, const Segment& seg) {
  if (options_.in_memory) return seg.mem;
  return read_file_range(path_of(id), 0, seg.committed_bytes);
}

void LogStore::recover_locked() {
  std::map<std::uint64_t, fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const auto id = parse_segment_file_name(entry.path().filename().string());
    if (id.has_value()) files.emplace(*id, entry.path());
  }
  for (const auto& [id, path] : files) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) continue;
    const auto total = static_cast<std::size_t>(in.tellg());
    std::vector<std::byte> bytes(total);
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(total));
    if (!in) continue;
    const SegmentScan scan = scan_segment(
        bytes, [&](const RecordExtent& extent, SegmentRecord&& rec) {
          // Generation order is the only ordering replay relies on, so a
          // compacted record applies correctly wherever it was rewritten.
          std::uint64_t current = 0;
          if (const auto it = index_.find(rec.key); it != index_.end()) {
            current = it->second.generation;
          } else if (const auto t = tombstones_.find(rec.key);
                     t != tombstones_.end()) {
            current = t->second.generation;
          }
          if (rec.generation <= current) return;
          if (rec.kind == RecordKind::kPut) {
            tombstones_.erase(rec.key);
            index_[rec.key] = IndexEntry{id, extent, rec.payload.size(),
                                         rec.generation};
          } else {
            index_.erase(rec.key);
            tombstones_[rec.key] = Tombstone{id, extent, rec.generation};
          }
        });
    Segment seg;
    seg.committed_bytes = scan.valid_bytes;
    seg.valid_bytes = scan.valid_bytes;
    seg.sealed = true;  // recovered segments never take new appends
    segments_.emplace(id, std::move(seg));
    ++recovery_.segments;
    recovery_.records += scan.records;
    if (scan.damaged) ++recovery_.damaged_segments;
    next_id_ = std::max(next_id_, id + 1);
  }
  for (const auto& [key, e] : index_) {
    Segment& seg = segments_.at(e.segment);
    seg.live_bytes += e.extent.length;
    ++seg.live_records;
    stored_payload_bytes_ += e.payload_bytes;
    next_gen_ = std::max(next_gen_, e.generation + 1);
  }
  for (const auto& [key, t] : tombstones_) {
    segments_.at(t.segment).tomb_bytes += t.extent.length;
    next_gen_ = std::max(next_gen_, t.generation + 1);
  }
}

}  // namespace mrts::storage

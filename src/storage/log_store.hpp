#pragma once

// Log-structured spill engine (ROADMAP item 1): a segmented, append-only
// StorageBackend that replaces blob-per-object file traffic with group
// commit. Stores append framed records (storage/segment_log.hpp) into the
// open segment's write buffer; the buffer is committed to the device as ONE
// append — one device op covering many spill stores — when it reaches the
// group-commit thresholds, or on a virtual-tick deadline. An in-memory
// key -> (segment, extent, generation) index serves loads; erases append
// tombstones. Segments seal at a target size and a bounded compaction pass,
// driven from the runtime's control loop via tick() (never a background
// thread, so chaos replay stays byte-identical), rewrites live records into
// the open segment and drops dead generations and superseded tombstones.
//
// Recovery: on open (file mode) every segment file is scanned sequentially;
// intact records up to the first damage are replayed in generation order
// (monotone store-wide), so truncation or a bit flip loses only the damaged
// record and the tail of its own segment. A key whose newest record is lost
// either disappears (kNotFound) or resurfaces at an older generation — the
// runtime's blob-CRC identity check rejects the stale bytes and routes the
// key into the recovery ladder, exactly like any other unreadable blob.
//
// Engine seam: LogStore is a sibling of FileStore/MemStore behind the same
// StorageBackend interface, so ObjectStore, ReplicatedStore, the
// retry/circuit-breaker decorators, and the recovery ladder compose
// unchanged (ClusterOptions::spill = SpillMedium::kSegmentLog).

#include <filesystem>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/backend.hpp"
#include "storage/segment_log.hpp"

namespace mrts::obs {
class Counter;
}  // namespace mrts::obs

namespace mrts::storage {

struct LogStoreOptions {
  /// Segment directory (file mode). The cluster assigns a per-node temp dir
  /// when left empty; single-node tests may pin it to reach the files.
  std::filesystem::path dir;
  /// Keep segments in RAM instead of files. Device-op accounting is
  /// unchanged (a "device op" is a segment-level I/O, whatever the medium),
  /// so chaos twins and unit tests exercise the same policy decisions.
  bool in_memory = false;
  /// Group commit: the open segment's append buffer is committed to the
  /// device as one append once it holds this many bytes ...
  std::size_t group_commit_bytes = 256u << 10;
  /// ... or this many records, whichever comes first.
  std::size_t group_commit_records = 64;
  /// A non-empty buffer older than this many virtual ticks is committed by
  /// tick() even under both thresholds (bounded commit latency).
  std::uint64_t flush_interval_ticks = 4;
  /// Segments seal (and become compaction candidates) at this size.
  std::size_t segment_target_bytes = 4u << 20;
  /// Sealed segments whose dead fraction reaches this ratio are compacted.
  double compact_garbage_ratio = 0.5;
  /// Sealed segments compacted per tick — bounds maintenance work per
  /// control-loop iteration.
  std::size_t compactions_per_tick = 1;
  /// Keep segment files and `dir` on destruction (crash-point tests reopen
  /// them); the default removes both, like FileStore (the directory only if
  /// nothing else is left in it).
  bool retain_on_close = false;
  /// Scan pre-existing segment files on open and rebuild the index.
  bool recover_on_open = true;
};

/// What the reopen scan found; exposed for the crash-point tests.
struct LogRecoveryStats {
  std::uint64_t segments = 0;          // segment files scanned
  std::uint64_t damaged_segments = 0;  // scans stopped by damage
  std::uint64_t records = 0;           // intact records replayed
};

class LogStore final : public StorageBackend {
 public:
  explicit LogStore(LogStoreOptions options);
  ~LogStore() override;

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  util::Status store(ObjectKey key, std::span<const std::byte> bytes) override;
  util::Result<std::vector<std::byte>> load(ObjectKey key) override;
  util::Status erase(ObjectKey key) override;
  bool contains(ObjectKey key) const override;
  std::size_t count() const override;
  std::uint64_t stored_bytes() const override;
  BackendStats stats() const override;
  void tick(std::uint64_t virtual_now) override;

  /// Commits the open append buffer to the device now (one group commit).
  util::Status flush();

  /// Compacts up to `max_segments` sealed segments whose dead fraction is at
  /// least `min_garbage_ratio` (worst first); returns segments rewritten or
  /// dropped. tick()'s maintenance pass and the tests both funnel through
  /// here.
  std::size_t compact(std::size_t max_segments, double min_garbage_ratio);

  [[nodiscard]] const std::filesystem::path& directory() const {
    return options_.dir;
  }
  [[nodiscard]] std::size_t segment_count() const;
  /// Records sitting in the uncommitted append buffer.
  [[nodiscard]] std::size_t pending_records() const;
  [[nodiscard]] const LogRecoveryStats& recovery_stats() const {
    return recovery_;
  }

 private:
  struct IndexEntry {
    std::uint64_t segment = 0;
    RecordExtent extent;
    std::uint64_t payload_bytes = 0;
    std::uint64_t generation = 0;
  };
  /// A tombstone that must survive compaction: its key is still erased, and
  /// an older put for it may exist in another segment.
  struct Tombstone {
    std::uint64_t segment = 0;
    RecordExtent extent;
    std::uint64_t generation = 0;
  };
  struct Segment {
    std::uint64_t committed_bytes = 0;  // durably appended to the device
    std::uint64_t valid_bytes = 0;      // committed + pending (open segment)
    std::uint64_t live_bytes = 0;       // framed bytes of index-live puts
    std::uint64_t live_records = 0;
    std::uint64_t tomb_bytes = 0;       // framed bytes of kept tombstones
    bool sealed = false;
    std::vector<std::byte> mem;         // in-memory mode: committed contents
  };

  [[nodiscard]] std::filesystem::path path_of(std::uint64_t id) const;
  /// Appends one framed record to the open segment's buffer; may group-
  /// commit and/or seal as thresholds are crossed. Returns the segment the
  /// record landed in and its extent there.
  std::pair<std::uint64_t, RecordExtent> raw_append_locked(
      ObjectKey key, std::uint64_t generation, RecordKind kind,
      std::span<const std::byte> payload);
  util::Status commit_locked();
  void seal_locked();
  void open_new_segment_locked();
  /// Marks the framed bytes of a superseded put dead in its segment.
  void retire_put_locked(const IndexEntry& e);
  void retire_tombstone_locked(const Tombstone& t);
  /// Reads a segment's committed contents (compaction / recovery path).
  [[nodiscard]] util::Result<std::vector<std::byte>> read_committed_locked(
      std::uint64_t id, const Segment& seg);
  std::size_t compact_locked(std::size_t max_segments,
                             double min_garbage_ratio);
  bool compact_segment_locked(std::uint64_t id);
  void recover_locked();

  LogStoreOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Segment> segments_;  // ordered: recovery replays asc
  std::uint64_t open_id_ = 1;
  std::uint64_t next_id_ = 2;
  std::uint64_t next_gen_ = 1;
  std::vector<std::byte> pending_;  // open segment's uncommitted tail
  std::size_t pending_records_ = 0;
  std::uint64_t pending_since_tick_ = 0;
  std::uint64_t last_tick_ = 0;
  std::unordered_map<ObjectKey, IndexEntry> index_;
  std::unordered_map<ObjectKey, Tombstone> tombstones_;
  std::uint64_t stored_payload_bytes_ = 0;
  BackendStats stats_{};
  LogRecoveryStats recovery_{};
  // Registry-owned observability counters (process lifetime).
  obs::Counter* m_group_commits_;
  obs::Counter* m_segments_sealed_;
  obs::Counter* m_compactions_;
  obs::Counter* m_records_dropped_;
};

}  // namespace mrts::storage

#pragma once

// Observability layer, part 1: low-overhead span/event tracing.
//
// TraceRecorder captures span begin/end, instant, counter, and complete
// events into per-thread bounded ring buffers. A full ring overwrites its
// oldest events and counts exactly how many were lost, so a trace is always
// "the most recent window, plus an exact drop count" — never a silent
// truncation. Closed spans are additionally folded into per-(track,category)
// busy-time aggregates that survive ring wrap, which is what the
// span-derived Tables IV-VI overlap breakdown is computed from.
//
// Timestamps come from the wall clock (nanoseconds since enable()) or, under
// the deterministic chaos driver, from the driver's virtual step counter
// (TraceClock::kVirtual; a deterministic Cluster::run publishes each sweep via
// set_virtual_time). Busy-time aggregates always use the wall clock so the
// overlap cross-check against NodeCounters is meaningful in either mode.
//
// Threading contract: begin/end/instant/counter/complete may be called from
// any thread (each writes its own ring). enable/disable/reset and dump()
// are control operations: call them only while no thread is recording
// (before a run, or after quiescence).
//
// Compile-out: building with -DMRTS_TRACE=OFF defines MRTS_TRACE_ENABLED=0
// and every recording call collapses to an empty inline function; ChargedSpan
// degrades to a plain accumulator charge, so the timing breakdown the paper's
// tables need keeps working with zero tracing overhead.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

#if !defined(MRTS_TRACE_ENABLED)
#define MRTS_TRACE_ENABLED 1
#endif

namespace mrts::obs {

/// Span categories, mirroring the paper's time breakdown: computation,
/// communication, disk I/O, and everything else.
enum class Cat : std::uint8_t { kComp, kComm, kDisk, kOther };
inline constexpr std::size_t kCatCount = 4;

[[nodiscard]] constexpr std::string_view to_string(Cat c) {
  switch (c) {
    case Cat::kComp: return "comp";
    case Cat::kComm: return "comm";
    case Cat::kDisk: return "disk";
    case Cat::kOther: return "other";
  }
  return "?";
}

enum class EventKind : std::uint8_t {
  kBegin,     // span opened
  kEnd,       // span closed (innermost open span of the thread)
  kInstant,   // point event; `value` is a free argument
  kCounter,   // sampled series; `value` is the sample
  kComplete,  // span with explicit start/duration (async: queue waits etc.)
};

/// One trace record. `name` must be a string literal (or otherwise outlive
/// the recorder); events never own memory.
struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  Cat cat = Cat::kOther;
  std::uint16_t track = 0;  // node id; one Chrome-trace process per track
  const char* name = "";
  std::uint64_t ts = 0;     // ns since enable() (wall) or virtual step
  std::uint64_t dur = 0;    // kComplete only
  std::uint64_t value = 0;  // kCounter sample / kInstant & kComplete argument
};

enum class TraceClock : std::uint8_t { kWall, kVirtual };

struct TraceConfig {
  /// Events retained per thread; older events are overwritten (and counted).
  std::size_t ring_capacity = std::size_t{1} << 14;
  TraceClock clock = TraceClock::kWall;
};

/// Tracks above this index share the last busy-time slot (rings still record
/// the real track id, so only the aggregate view clamps).
inline constexpr std::size_t kMaxTracks = 64;

class TraceRecorder {
 public:
  /// Process-wide recorder; instrumentation sites are spread across layers
  /// that share no common object, like the logger.
  static TraceRecorder& global();

  /// True when tracing support was compiled in (MRTS_TRACE=ON).
  [[nodiscard]] static constexpr bool compiled_in() {
    return MRTS_TRACE_ENABLED != 0;
  }

#if MRTS_TRACE_ENABLED
  /// Starts recording. Quiescent-only; implies reset().
  void enable(TraceConfig config = {});
  /// Stops recording; buffers remain readable for export.
  void disable();
  /// Drops every buffer and aggregate. Quiescent-only.
  void reset();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] TraceClock clock() const { return config_.clock; }

  /// Publishes the deterministic driver's step counter (TraceClock::kVirtual).
  void set_virtual_time(std::uint64_t step) {
    virtual_time_.store(step, std::memory_order_relaxed);
  }

  /// Current timestamp in the configured clock.
  [[nodiscard]] std::uint64_t now() const {
    if (config_.clock == TraceClock::kVirtual) {
      return virtual_time_.load(std::memory_order_relaxed);
    }
    return wall_now();
  }

  // --- recording (any thread; no-ops while disabled) ---------------------
  void begin(Cat cat, const char* name, std::uint16_t track);
  /// Closes the calling thread's innermost open span.
  void end();
  void instant(Cat cat, const char* name, std::uint16_t track,
               std::uint64_t value = 0);
  void counter(const char* name, std::uint16_t track, std::uint64_t value);
  void complete(Cat cat, const char* name, std::uint16_t track,
                std::uint64_t ts, std::uint64_t dur, std::uint64_t value = 0);

  // --- aggregates (exact regardless of ring wrap) ------------------------
  /// Wall-clock busy seconds of closed spans charged to (track, cat).
  [[nodiscard]] double busy_seconds(std::size_t track, Cat cat) const;
  /// Closed spans charged to (track, cat).
  [[nodiscard]] std::uint64_t spans_closed(std::size_t track, Cat cat) const;

  // --- inspection (quiescent-only) ---------------------------------------
  struct ThreadDump {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;  // oldest to newest
    std::uint64_t recorded = 0;      // events ever recorded by this thread
    std::uint64_t dropped = 0;       // overwritten by ring wrap (exact)
    std::uint64_t open_spans = 0;    // begins without a matching end
    std::uint64_t unmatched_ends = 0;
  };
  [[nodiscard]] std::vector<ThreadDump> dump() const;
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

 private:
  struct ThreadBuffer;
  struct OpenSpan {
    const char* name;
    Cat cat;
    std::uint16_t track;
    std::uint64_t ts;  // configured clock
    util::Clock::time_point wall_start;
  };

  friend class ChargedSpan;
  void begin_at(Cat cat, const char* name, std::uint16_t track,
                util::Clock::time_point wall_start);
  void end_at(util::Clock::time_point wall_end);

  [[nodiscard]] std::uint64_t wall_now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            util::Clock::now() - epoch_)
            .count());
  }
  [[nodiscard]] std::uint64_t ts_of(util::Clock::time_point wall) const;
  ThreadBuffer* local_buffer();
  static std::size_t slot(std::size_t track, Cat cat) {
    const std::size_t t = track < kMaxTracks ? track : kMaxTracks - 1;
    return t * kCatCount + static_cast<std::size_t>(cat);
  }

  mutable std::mutex mutex_;  // guards buffers_ / config_ / epoch_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  TraceConfig config_;
  util::Clock::time_point epoch_{};
  std::uint32_t next_tid_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> virtual_time_{0};
  std::array<std::atomic<std::uint64_t>, kMaxTracks * kCatCount> busy_ns_{};
  std::array<std::atomic<std::uint64_t>, kMaxTracks * kCatCount> span_count_{};
#else   // MRTS_TRACE_ENABLED == 0: every call collapses to nothing.
  void enable(TraceConfig = {}) {}
  void disable() {}
  void reset() {}
  [[nodiscard]] bool enabled() const { return false; }
  [[nodiscard]] TraceClock clock() const { return TraceClock::kWall; }
  void set_virtual_time(std::uint64_t) {}
  [[nodiscard]] std::uint64_t now() const { return 0; }
  void begin(Cat, const char*, std::uint16_t) {}
  void end() {}
  void instant(Cat, const char*, std::uint16_t, std::uint64_t = 0) {}
  void counter(const char*, std::uint16_t, std::uint64_t) {}
  void complete(Cat, const char*, std::uint16_t, std::uint64_t, std::uint64_t,
                std::uint64_t = 0) {}
  [[nodiscard]] double busy_seconds(std::size_t, Cat) const { return 0.0; }
  [[nodiscard]] std::uint64_t spans_closed(std::size_t, Cat) const {
    return 0;
  }
  struct ThreadDump {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t open_spans = 0;
    std::uint64_t unmatched_ends = 0;
  };
  [[nodiscard]] std::vector<ThreadDump> dump() const { return {}; }
  [[nodiscard]] std::uint64_t total_recorded() const { return 0; }
  [[nodiscard]] std::uint64_t total_dropped() const { return 0; }
#endif  // MRTS_TRACE_ENABLED
};

/// RAII span that optionally charges its wall-clock duration to a
/// TimeAccumulator with the SAME two clock reads the trace event uses, so a
/// span-derived breakdown and the NodeCounters breakdown measure identical
/// intervals. With tracing compiled out (or disabled and no accumulator),
/// construction costs one relaxed atomic load.
class ChargedSpan {
 public:
  ChargedSpan(Cat cat, const char* name, std::uint16_t track,
              util::TimeAccumulator* charge = nullptr)
      : charge_(charge) {
#if MRTS_TRACE_ENABLED
    TraceRecorder& tr = TraceRecorder::global();
    active_ = tr.enabled();
    if (active_ || charge_ != nullptr) wall_start_ = util::Clock::now();
    if (active_) tr.begin_at(cat, name, track, wall_start_);
#else
    if (charge_ != nullptr) wall_start_ = util::Clock::now();
    (void)cat;
    (void)name;
    (void)track;
#endif
  }

  ChargedSpan(const ChargedSpan&) = delete;
  ChargedSpan& operator=(const ChargedSpan&) = delete;

  ~ChargedSpan() { close(); }

  /// Ends the span early (e.g. before running a completion callback whose
  /// time must not be charged).
  void close() {
#if MRTS_TRACE_ENABLED
    if (!active_ && charge_ == nullptr) return;
    const auto wall_end = util::Clock::now();
    if (charge_ != nullptr) {
      charge_->add(std::chrono::duration_cast<std::chrono::nanoseconds>(
          wall_end - wall_start_));
      charge_ = nullptr;
    }
    if (active_) {
      TraceRecorder::global().end_at(wall_end);
      active_ = false;
    }
#else
    if (charge_ == nullptr) return;
    charge_->add(std::chrono::duration_cast<std::chrono::nanoseconds>(
        util::Clock::now() - wall_start_));
    charge_ = nullptr;
#endif
  }

 private:
  util::TimeAccumulator* charge_;
  util::Clock::time_point wall_start_{};
#if MRTS_TRACE_ENABLED
  bool active_ = false;
#endif
};

}  // namespace mrts::obs

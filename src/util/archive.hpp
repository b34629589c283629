#pragma once

// Byte-oriented serialization archives used by the MRTS storage layer and by
// mobile-object (de)serialization. Writers append into a growable byte
// buffer; readers consume a read-only view. All multi-byte values are stored
// in native byte order: archives are exchanged only between simulated nodes
// of one process, never across machines.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mrts::util {

/// Thrown by ByteReader when a read would run past the end of the buffer or
/// when a decoded length field is implausible.
class ArchiveError : public std::runtime_error {
 public:
  explicit ArchiveError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values, strings, and containers into a byte buffer.
///
/// Two modes share one write API:
///   - owning (default): writes land in an internal vector, moved out via
///     take(). The classic serialize-then-send staging buffer.
///   - sink: constructed over an external vector (an open batch frame),
///     writes append to it directly — the zero-copy path. take() is
///     invalid in sink mode; the sink owner keeps the bytes.
///
/// Length-prefixed framing that is only known after the fact is handled with
/// write_placeholder<T>() + patch<T>(): reserve the field, write the body,
/// then patch the recorded position. Positions are absolute offsets into the
/// underlying buffer (returned by size()/write_placeholder), so they remain
/// valid across reallocation.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { own_.reserve(reserve_bytes); }
  /// Sink mode: append directly into `sink` (not owned; must outlive the
  /// writer). Existing sink contents are preserved — size() and patch
  /// positions are absolute offsets into the full sink.
  explicit ByteWriter(std::vector<std::byte>& sink) : sink_(&sink) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf().insert(buf().end(), p, p + sizeof(T));
  }

  void write_bytes(std::span<const std::byte> bytes) {
    buf().insert(buf().end(), bytes.begin(), bytes.end());
  }

  void write_string(std::string_view s) {
    write<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf().insert(buf().end(), p, p + s.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf().insert(buf().end(), p, p + v.size() * sizeof(T));
  }

  /// Element-wise variant for non-trivially-copyable payloads serialized via
  /// a callable `fn(ByteWriter&, const T&)`.
  template <typename T, typename Fn>
  void write_vector_with(const std::vector<T>& v, Fn&& fn) {
    write<std::uint64_t>(v.size());
    for (const T& item : v) fn(*this, item);
  }

  template <typename K, typename V>
    requires(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>)
  void write_map(const std::unordered_map<K, V>& m) {
    write<std::uint64_t>(m.size());
    for (const auto& [k, v] : m) {
      write(k);
      write(v);
    }
  }

  /// Reserves room for a T written later (a length field framing a body of
  /// as-yet-unknown size); returns its absolute position for patch().
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::size_t write_placeholder() {
    const std::size_t at = buf().size();
    write(T{});
    return at;
  }

  /// Overwrites the T at absolute position `at` (from write_placeholder or a
  /// recorded size()). The position must already be fully written.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void patch(std::size_t at, const T& value) {
    assert(at + sizeof(T) <= buf().size());
    std::memcpy(buf().data() + at, &value, sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return cbuf().size(); }
  [[nodiscard]] bool empty() const { return cbuf().empty(); }
  [[nodiscard]] std::span<const std::byte> bytes() const { return cbuf(); }
  [[nodiscard]] bool owning() const { return sink_ == nullptr; }

  /// Moves the accumulated buffer out; the writer is left empty and
  /// reusable. Owning mode only — a sink writer never owns its bytes.
  [[nodiscard]] std::vector<std::byte> take() {
    assert(owning() && "take() on a sink-mode ByteWriter");
    return std::exchange(own_, {});
  }

 private:
  [[nodiscard]] std::vector<std::byte>& buf() {
    return sink_ != nullptr ? *sink_ : own_;
  }
  [[nodiscard]] const std::vector<std::byte>& cbuf() const {
    return sink_ != nullptr ? *sink_ : own_;
  }

  std::vector<std::byte>* sink_ = nullptr;  // not owned
  std::vector<std::byte> own_;
};

/// Consumes values from a byte buffer previously produced by ByteWriter.
/// Does not own the underlying storage.
///
/// Every length-prefixed read validates the decoded element count against
/// the bytes actually remaining (scaled by the minimum encoded element size,
/// overflow-free) BEFORE allocating: a corrupt or truncated frame fails with
/// ArchiveError instead of demanding gigabytes from the allocator.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string read_string() {
    const auto n = read_length(1);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Zero-copy variant of read_string: a view into the underlying buffer
  /// (valid only while the buffer lives).
  std::string_view read_string_view() {
    const auto n = read_length(1);
    std::string_view s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read_length(sizeof(T));
    std::vector<T> v(n);
    // An empty vector's data() may be null, which memcpy must not receive
    // even for a zero-byte copy.
    if (n != 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Zero-copy variant of read_vector<std::byte>: wire-compatible with
  /// write_vector (u64 count + raw bytes) but returns a view instead of an
  /// owned copy. The hot dispatch paths use this to hand handlers a window
  /// into the arrival buffer.
  std::span<const std::byte> read_byte_span() {
    const auto n = read_length(1);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T, typename Fn>
  std::vector<T> read_vector_with(Fn&& fn) {
    // Minimum one encoded byte per element: an element count larger than the
    // remaining payload is corrupt no matter how the elements decode.
    const auto n = read_length(1);
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(fn(*this));
    return v;
  }

  template <typename K, typename V>
    requires(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>)
  std::unordered_map<K, V> read_map() {
    const auto n = read_length(sizeof(K) + sizeof(V));
    std::unordered_map<K, V> m;
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k = read<K>();
      V v = read<V>();
      m.emplace(std::move(k), std::move(v));
    }
    return m;
  }

  std::span<const std::byte> read_bytes(std::size_t n) {
    require(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  /// Reads a u64 element count and proves `n * min_element_bytes` fits in
  /// the REMAINING payload before the caller reserves anything. The division
  /// form is overflow-free where the naive multiplication would wrap and
  /// wave a poisoned count through.
  std::size_t read_length(std::size_t min_element_bytes) {
    const auto n = read<std::uint64_t>();
    assert(min_element_bytes > 0);
    if (n > remaining() / min_element_bytes) {
      throw ArchiveError("archive length field exceeds remaining payload");
    }
    return static_cast<std::size_t>(n);
  }

  void require(std::size_t n) const {
    if (n > bytes_.size() - pos_) {
      throw ArchiveError("archive read past end of buffer");
    }
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mrts::util

// Hardened on-disk persistence primitives, shared by every binary artifact
// (trained models, training checkpoints).
//
// Three layers, each defending against a different failure mode:
//
//   1. A versioned container frame —
//        magic(8) | u32 format_version | u64 payload_size | payload | u32 crc
//      where the CRC32 trailer covers everything after the magic. Readers
//      consume the payload in bounded chunks, so a hostile declared size can
//      never allocate more memory than the stream actually holds, and any
//      truncation or bit flip is rejected before a single field is parsed.
//   2. ByteReader — a bounds-checked cursor over the verified payload. Every
//      section count is validated against the bytes that actually remain
//      *before* any allocation (the check `count <= remaining / sizeof(T)`
//      is also immune to `count * sizeof(T)` overflow).
//   3. AtomicWriteFile — write `path.tmp`, flush, fsync, rename. With
//      `keep_previous`, the file being replaced is retained as `path.prev`,
//      giving callers a last-good artifact to fall back to when a crash (or
//      torn write at any other layer) destroys `path`.
//
// See docs/persistence.md for the full protocol and its crash matrix.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace culda::io {

/// Incremental CRC32 (IEEE 802.3 polynomial, zlib-compatible):
/// Crc32(b, Crc32(a)) == Crc32(a ++ b), and Crc32 of "123456789" from a zero
/// seed is 0xCBF43926. Slicing-by-16 over compile-time tables, so a model
/// file is checksummed at a few GB/s rather than one table step per byte.
uint32_t Crc32(std::span<const char> data, uint32_t crc = 0);

/// The bounded step of the input readers (and of the save path's
/// CRC-then-write loop): a reader holds at most this much input beyond
/// what it has already parsed, however large the input claims to be.
inline constexpr uint64_t kIoPieceBytes = 1 << 20;

// ---------------------------------------------------------------- container

/// Payload builder for the container frame. Sections are recorded with
/// WritePod/WriteSpan and emitted as one framed blob by Finish, which knows
/// the exact payload length up front (so the header carries it without a
/// seekable output stream) and streams header, sections and trailer through
/// one running CRC. PODs are copied into a small owned buffer; spans are
/// held by reference and must outlive Finish, which every caller calls in
/// the scope that recorded them — the payload is never copied as a whole.
class ContainerWriter {
 public:
  template <typename T>
  void WritePod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pods_.append(reinterpret_cast<const char*>(&v), sizeof(T));
    Record(nullptr, sizeof(T));
  }

  template <typename T>
  void WriteSpan(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    Record(reinterpret_cast<const char*>(data.data()), data.size_bytes());
  }

  /// An owning container is held by reference too, so only an lvalue that
  /// outlives Finish is accepted; a temporary does not compile.
  template <typename T>
  void WriteSpan(const std::vector<T>& data) {
    WriteSpan(std::span<const T>(data));
  }
  template <typename T>
  void WriteSpan(std::vector<T>&& data) = delete;

  size_t payload_size() const { return payload_size_; }

  /// Writes magic | version | size | payload | crc to `out`. Throws
  /// culda::Error if the stream fails.
  void Finish(std::ostream& out, const char (&magic)[8],
              uint32_t version) const;

 private:
  /// A run of payload bytes: `size` bytes at `data`, or — when `data` is
  /// null — at `pod_offset` in pods_ (an offset, since pods_ may grow).
  struct Section {
    const char* data;
    size_t pod_offset;
    size_t size;
  };

  void Record(const char* data, size_t size);

  std::string pods_;
  std::vector<Section> sections_;
  size_t payload_size_ = 0;
};

/// Reads one container frame from `in` and returns its verified payload.
/// Validates, in order: the magic, the format version (before the payload is
/// consumed, so a pre-container v1 file gets a descriptive version error
/// instead of a garbage-length one), the declared length against the bytes
/// actually present (reading in bounded chunks — memory grows with real
/// bytes, never with the declared size), and the CRC32 trailer. With
/// `require_eof`, any bytes after the trailer are rejected as trailing
/// garbage. `context` names the artifact in error messages ("model",
/// "checkpoint"). Throws culda::Error on any defect.
std::string ReadContainer(std::istream& in, const char (&magic)[8],
                          uint32_t expected_version, std::string_view context,
                          bool require_eof = true);

/// Bounds-checked sequential reader over a verified payload. All sizes are
/// validated against the remaining bytes before allocating.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string_view context)
      : bytes_(bytes), context_(context) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  template <typename T>
  T ReadPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    Require(sizeof(T), "field");
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Fails unless `count` elements of T remain. Callers that allocate a
  /// section's destination themselves call this first, so an inflated
  /// header count fails with a clean error instead of std::bad_alloc.
  template <typename T>
  void RequireElements(uint64_t count) const {
    CULDA_CHECK_MSG(count <= remaining() / sizeof(T),
                    context_ << " declares a section of " << count
                             << " elements (" << sizeof(T)
                             << " bytes each) but only " << remaining()
                             << " payload bytes remain");
  }

  /// Copies the next `out.size()` elements straight into `out` — the one
  /// copy from the verified payload to the caller's own storage.
  template <typename T>
  void ReadInto(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    RequireElements<T>(out.size());
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
  }

  /// Reads `count` elements. The count is validated against remaining()
  /// before the vector is allocated.
  template <typename T>
  std::vector<T> ReadVector(uint64_t count) {
    RequireElements<T>(count);
    std::vector<T> v(static_cast<size_t>(count));
    ReadInto(std::span<T>(v));
    return v;
  }

  /// Rejects payloads longer than their sections: every byte must have been
  /// consumed (bit flips that enlarge an early count would otherwise shift
  /// later sections silently).
  void ExpectEnd() const {
    CULDA_CHECK_MSG(remaining() == 0,
                    context_ << " payload has " << remaining()
                             << " trailing bytes after the last section");
  }

 private:
  void Require(size_t bytes, const char* what) const {
    CULDA_CHECK_MSG(bytes <= remaining(),
                    context_ << " payload truncated: " << what << " needs "
                             << bytes << " bytes, " << remaining()
                             << " remain");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  std::string context_;
};

// ------------------------------------------------------------ atomic files

bool FileExists(const std::string& path);

/// Crash-safe file replacement: `write` streams into `path.tmp`, which is
/// flushed, fsync'd, and renamed over `path` only on success. A crash at any
/// point leaves either the old `path` or the fully-written new one — never a
/// torn file under the final name. With `keep_previous`, an existing `path`
/// is rotated to `path.prev` before the rename, so the last-good artifact
/// survives even a later corruption of `path` itself. Throws culda::Error on
/// stream or rename failure (the target is left untouched).
void AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& write,
                     bool keep_previous = false);

}  // namespace culda::io

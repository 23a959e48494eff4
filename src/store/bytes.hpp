#pragma once
// Canonical byte serialization primitives for the persistent evaluation
// store (DESIGN.md §16).
//
// The store's contract is exactness: a record read back from disk must be
// byte-for-byte what was written, and a decoded value must be bit-identical
// to the encoded one.  ByteWriter/ByteReader therefore copy raw object
// bytes of trivially-copyable scalars field by field — never whole structs,
// whose padding bytes are unspecified — in host byte order (the store is a
// host-local cache, not an interchange format; a foreign-endian store would
// fail its per-record checksum and be recomputed, never misread).
//
// crc32() guards each on-disk record against truncation and bit rot;
// fnv1a64() is the index hash over full content-addressed keys (collisions
// are resolved by comparing the stored key bytes, so a hash collision can
// never alias two different computations).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vfimr::store {

/// Append-only canonical byte writer.  put() accepts trivially-copyable
/// scalar types (integers, doubles, enums), one or more per call, written
/// in argument order; aggregates must be serialized field by field so
/// struct padding never leaks into the stream.
class ByteWriter {
 public:
  template <typename... T>
  void put(const T&... v) {
    static_assert((std::is_trivially_copyable_v<T> && ...),
                  "ByteWriter::put requires trivially copyable types");
    static_assert((!std::is_pointer_v<T> && ...),
                  "pointers must never enter a serialized record");
    (buf_.append(reinterpret_cast<const char*>(&v), sizeof(T)), ...);
  }

  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  /// Length-prefixed string / blob.
  void put_string(std::string_view s) {
    put(static_cast<std::uint64_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Length-prefixed vector of trivially-copyable elements, element by
  /// element.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) put(x);
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential reader over a byte span.  Every get() validates bounds; the
/// first short read latches ok() to false and later reads return zeroed
/// values, so decoders can check ok() once at the end instead of after
/// every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool get(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      out = T{};
      return false;
    }
    std::memcpy(&out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool get_string(std::string& out) {
    std::uint64_t n = 0;
    if (!get(n) || data_.size() - pos_ < n) {
      ok_ = false;
      out.clear();
      return false;
    }
    out.assign(data_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  template <typename T>
  bool get_vector(std::vector<T>& out) {
    std::uint64_t n = 0;
    out.clear();
    if (!get(n)) return false;
    // Reject sizes the remaining bytes cannot possibly hold, so a corrupt
    // length field fails fast instead of attempting a huge allocation.
    if ((data_.size() - pos_) / sizeof(T) < n) {
      ok_ = false;
      return false;
    }
    out.resize(static_cast<std::size_t>(n));
    for (T& x : out) {
      if (!get(x)) return false;
    }
    return true;
  }

  bool ok() const { return ok_; }
  /// True when the reader is still healthy and every byte was consumed —
  /// the decoder-side schema check against trailing garbage.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) over a byte span.
std::uint32_t crc32(const void* data, std::size_t n);
inline std::uint32_t crc32(std::string_view s) {
  return crc32(s.data(), s.size());
}

/// FNV-1a 64-bit content hash — the store's index hash over full keys.
std::uint64_t fnv1a64(std::string_view s);

}  // namespace vfimr::store

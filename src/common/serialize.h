// Byte-stream writer and reader for the wire formats: the control
// protocols (reconfiguration, connectivity, host addressing, SRP), ARP, the
// client data tag and the driver's loopback token.
//
// Each format is described once, by a field walk
//
//   template <class Io, class M> static void Walk(Io& io, M& m);
//
// that names the message's fields in wire order.  ByteWriter and ByteReader
// have the same field methods: the writer's take values and append them,
// the reader's take references, fill them in and validate as they read.  So
// one walk is both the encoder (Io = ByteWriter, M = const Msg) and the
// decoder (Io = ByteReader, M = Msg); Encode and Decode below wrap it.
// Integers are little-endian except U64BE.
#ifndef SRC_COMMON_SERIALIZE_H_
#define SRC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "src/common/ids.h"

namespace autonet {

class ByteWriter {
 public:
  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U16(std::uint16_t v) {
    U8(static_cast<std::uint8_t>(v));
    U8(static_cast<std::uint8_t>(v >> 8));
  }
  void U32(std::uint32_t v) {
    U16(static_cast<std::uint16_t>(v));
    U16(static_cast<std::uint16_t>(v >> 16));
  }
  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v));
    U32(static_cast<std::uint32_t>(v >> 32));
  }
  void U64BE(std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      U8(static_cast<std::uint8_t>(v >> shift));
    }
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // A double travels as its IEEE-754 bit pattern.
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Id(Uid uid) { U64(uid.value()); }
  void Address(ShortAddress a) { U16(a.value()); }
  // One byte; the reader accepts only values in [first, last].
  template <class E>
  void Enum(E e, E /*first*/, E /*last*/) {
    U8(static_cast<std::uint8_t>(e));
  }
  // A condition only the reader checks.
  void Check(bool /*valid*/) {}
  // The element count of `c`, as one or two bytes; the reader refuses a
  // count above `limit` and otherwise resizes `c` to it, so the walk goes
  // on to write or read the elements themselves.
  template <class C>
  void Size8(const C& c, std::size_t /*limit*/ = 0xFF) {
    U8(static_cast<std::uint8_t>(c.size()));
  }
  template <class C>
  void Size16(const C& c, std::size_t /*limit*/ = 0xFFFF) {
    U16(static_cast<std::uint16_t>(c.size()));
  }
  // Exactly c.size() raw bytes of a byte container (vector, array, string).
  template <class C>
  void Bytes(const C& c) {
    bytes_.insert(bytes_.end(), c.begin(), c.end());
  }

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Reader with saturating error handling: reading past the end clears ok()
// and yields the value of the bytes present (zeros for a little-endian
// field's missing high bytes), so malformed (truncated or corrupted) input
// degrades to a rejectable message instead of undefined behavior.  Every
// other validation failure clears ok() the same way.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes.data()), size_(bytes.size()) {}
  // The reader borrows the vector's storage, so binding a temporary would
  // leave bytes_ dangling before the first read.
  explicit ByteReader(const std::vector<std::uint8_t>&&) = delete;

  void U8(std::uint8_t& v) {
    if (pos_ >= size_) {
      ok_ = false;
      v = 0;
      return;
    }
    v = bytes_[pos_++];
  }
  void U16(std::uint16_t& v) {
    std::uint8_t lo = 0, hi = 0;
    U8(lo);
    U8(hi);
    v = static_cast<std::uint16_t>(lo | (hi << 8));
  }
  void U32(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    U16(lo);
    U16(hi);
    v = lo | (std::uint32_t{hi} << 16);
  }
  void U64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    U32(lo);
    U32(hi);
    v = lo | (std::uint64_t{hi} << 32);
  }
  void U64BE(std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 8; ++i) {
      if (pos_ >= size_) {
        ok_ = false;
        return;
      }
      v = v << 8 | bytes_[pos_++];
    }
  }
  // Wire bools must be canonical (0 or 1): any other value would be
  // accepted, then re-serialize differently from what was received — the
  // corruption would survive the parse undetected.
  void Bool(bool& v) {
    std::uint8_t b = 0;
    U8(b);
    v = b != 0;
    Check(b <= 1);
  }
  void F64(double& v) {
    std::uint64_t bits = 0;
    U64(bits);
    std::memcpy(&v, &bits, sizeof v);
  }
  // Wire UIDs occupy 48 bits of a 64-bit field and wire short addresses 11
  // bits of 16; every writer masks, so set bits above the mask can only be
  // corruption.  Constructing the value types would silently drop them and
  // make the accepted message re-serialize differently, so flag them as a
  // read error instead.
  void Id(Uid& uid) {
    std::uint64_t v = 0;
    U64(v);
    Check((v & ~Uid::kMask) == 0);
    uid = Uid(v);
  }
  void Address(ShortAddress& a) {
    std::uint16_t v = 0;
    U16(v);
    Check((v & ~ShortAddress::kMask) == 0);
    a = ShortAddress(v);
  }
  template <class E>
  void Enum(E& e, E first, E last) {
    std::uint8_t v = 0;
    U8(v);
    e = static_cast<E>(v);
    Check(v >= static_cast<std::uint8_t>(first) &&
          v <= static_cast<std::uint8_t>(last));
  }
  void Check(bool valid) {
    if (!valid) {
      ok_ = false;
    }
  }
  template <class C>
  void Size8(C& c, std::size_t limit = 0xFF) {
    std::uint8_t n = 0;
    U8(n);
    Resize(c, n, limit);
  }
  template <class C>
  void Size16(C& c, std::size_t limit = 0xFFFF) {
    std::uint16_t n = 0;
    U16(n);
    Resize(c, n, limit);
  }
  template <class C>
  void Bytes(C& c) {
    std::size_t n = c.size();
    if (n > size_ - pos_) {
      ok_ = false;
      n = size_ - pos_;
    }
    if (n > 0) {
      std::memcpy(c.data(), bytes_ + pos_, n);
      pos_ += n;
    }
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <class C>
  void Resize(C& c, std::size_t n, std::size_t limit) {
    Check(n <= limit);
    c.resize(n <= limit ? n : 0);
  }

  const std::uint8_t* bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The bytes of `m`, as M::Walk lays them out.
template <class M>
std::vector<std::uint8_t> Encode(const M& m) {
  ByteWriter w;
  M::Walk(w, m);
  return w.Take();
}

// `bytes` read through M::Walk, or nullopt unless every field validated
// and no byte is left over.
template <class M>
std::optional<M> Decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  M m;
  M::Walk(r, m);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

}  // namespace autonet

#endif  // SRC_COMMON_SERIALIZE_H_

// The one byte codec: little-endian values and CRC-32 frames.
//
// Every byte scandiag writes for a machine to read back goes through here:
// journal records (checkpoints, shard manifests, the serve ledger) on disk
// and serve requests/replies on the socket. Values are u16/u32/u64
// little-endian, doubles as their u64 bit pattern, strings as a u32 length
// then the bytes. A frame is
//
//     [u32 bodyLen][u32 crc32(body)][body],   body = [u16 type][payload]
//
// so a journal record and a serve message with the same (type, payload) are
// the same bytes.
//
// The read side trusts no length field. Cursor bounds-checks every read and
// throws the caller's error type; scanFrame checks a frame's length against
// the caller's cap before anything is sized from it. The caller keeps its own
// caps and maps each failure to its own typed errors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace scandiag::wire {

inline void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void putDouble(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  putU64(out, bits);
}

/// Length-prefixed string; the prefix is validated against a cap on read.
inline void putString(std::string& out, std::string_view s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader over one payload. Every accessor throws `Error`
/// (constructed from a message naming `what`) when the payload is too short,
/// so a truncated or length-lying record can never read past the buffer.
template <typename Error>
class Cursor {
 public:
  explicit Cursor(std::string_view bytes, const char* what = "record")
      : bytes_(bytes), what_(what) {}

  std::uint16_t u16() { return static_cast<std::uint16_t>(integer(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(integer(4)); }
  std::uint64_t u64() { return integer(8); }

  double f64() {
    const std::uint64_t bits = integer(8);
    double v;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Reads a length-prefixed string, rejecting prefixes beyond `maxLen` or
  /// beyond the remaining payload *before* allocating.
  std::string str(std::size_t maxLen) {
    const std::uint32_t len = u32();
    if (len > maxLen) {
      fail("string length " + std::to_string(len) + " exceeds cap " + std::to_string(maxLen));
    }
    if (len > remaining()) {
      fail("string length " + std::to_string(len) + " overruns payload (" +
           std::to_string(remaining()) + " bytes left)");
    }
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

  /// Records are fixed layouts: trailing bytes mean a framing bug or a
  /// forged record, both of which must be loud.
  void expectExhausted() const {
    if (!exhausted()) fail("has " + std::to_string(remaining()) + " trailing byte(s)");
  }

 private:
  [[noreturn]] void fail(const std::string& detail) const {
    throw Error(std::string(what_) + ": " + detail);
  }

  std::uint64_t integer(std::size_t width) {
    if (width > remaining()) {
      fail("truncated (need " + std::to_string(width) + " bytes, have " +
           std::to_string(remaining()) + ")");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  std::string_view bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected). `seed` chains partial buffers.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Bytes of framing ahead of each body (u32 length + u32 CRC).
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Encodes one frame. Caps are the caller's: this never refuses a payload.
std::string encodeFrame(std::uint16_t type, std::string_view payload);

enum class FrameStatus {
  Complete,   // a whole, CRC-verified frame starts at the front of the bytes
  NeedMore,   // the bytes are a valid prefix of a frame
  BadLength,  // the length prefix is below 2 (no type tag) or above the cap
  BadCrc,     // the frame is all there but its CRC does not match
};

struct FrameScan {
  FrameStatus status = FrameStatus::NeedMore;
  /// Body length (type tag + payload) from the prefix; 0 until 8 bytes arrive.
  std::uint32_t bodyLength = 0;
  std::uint32_t storedCrc = 0;
  std::uint32_t computedCrc = 0;  // set for Complete and BadCrc
  std::uint16_t type = 0;
  std::string_view payload;  // Complete: the bytes after the type tag

  std::size_t frameSize() const { return kFrameHeaderBytes + bodyLength; }
};

/// Scans the frame at the front of `bytes`, whose body may be at most
/// `maxBody` bytes. The length is checked before the body is waited for, so
/// a wild prefix is BadLength from the 8 header bytes alone.
FrameScan scanFrame(std::string_view bytes, std::uint32_t maxBody);

}  // namespace scandiag::wire

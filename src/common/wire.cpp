#include "common/wire.hpp"

#include <array>
#include <stdexcept>

namespace scandiag::wire {

namespace {

const std::array<std::uint32_t, 256>& crcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (~(c & 1) + 1));
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) c = crcTable()[(c ^ bytes[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string encodeFrame(std::uint16_t type, std::string_view payload) {
  std::string tag;
  putU16(tag, type);
  std::string out;
  out.reserve(kFrameHeaderBytes + tag.size() + payload.size());
  putU32(out, static_cast<std::uint32_t>(tag.size() + payload.size()));
  putU32(out, crc32(payload.data(), payload.size(), crc32(tag.data(), tag.size())));
  out.append(tag);
  out.append(payload);
  return out;
}

FrameScan scanFrame(std::string_view bytes, std::uint32_t maxBody) {
  FrameScan scan;
  if (bytes.size() < kFrameHeaderBytes) return scan;
  Cursor<std::logic_error> header(bytes);  // cannot throw: the 8 bytes are present
  scan.bodyLength = header.u32();
  scan.storedCrc = header.u32();
  if (scan.bodyLength < 2 || scan.bodyLength > maxBody) {
    scan.status = FrameStatus::BadLength;
    return scan;
  }
  if (bytes.size() - kFrameHeaderBytes < scan.bodyLength) return scan;
  const std::string_view body = bytes.substr(kFrameHeaderBytes, scan.bodyLength);
  scan.computedCrc = crc32(body.data(), body.size());
  if (scan.computedCrc != scan.storedCrc) {
    scan.status = FrameStatus::BadCrc;
    return scan;
  }
  scan.status = FrameStatus::Complete;
  scan.type = Cursor<std::logic_error>(body).u16();
  scan.payload = body.substr(2);
  return scan;
}

}  // namespace scandiag::wire

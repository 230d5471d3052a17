#include "net/wire.h"

#include <cassert>
#include <cstring>

#include "common/binary_io.h"

namespace tcdp {
namespace net {
namespace {

/// Compact the consumed prefix once it is both sizable and a majority
/// of the buffer, so a long-lived connection doesn't grow its buffer
/// without bound while the erase stays O(1) amortized per byte (a
/// fixed threshold alone would re-move a large partial frame every
/// few KB).
constexpr std::size_t kCompactThreshold = 4096;

std::uint32_t DecodeFixed32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void EncodeFixed32(char* p, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(value >> (8 * i));
}

}  // namespace

void AppendPreamble(std::string* dst) {
  dst->append(kNetMagic, sizeof(kNetMagic));
  PutFixed32(dst, kProtocolVersion);
}

void AppendFrame(std::string* dst, MsgType type, const std::string& payload) {
  const std::size_t frame = BeginFrame(dst, type);
  dst->append(payload);
  FinishFrame(dst, frame);
}

std::size_t BeginFrame(std::string* dst, MsgType type) {
  const std::size_t frame = dst->size();
  dst->push_back(static_cast<char>(type));
  dst->append(kFrameHeaderBytes - 1, '\0');  // length and CRC, patched
  return frame;
}

void FinishFrame(std::string* dst, std::size_t frame) {
  const std::size_t payload = frame + kFrameHeaderBytes;
  const std::size_t size = dst->size() - payload;
  assert(size <= kMaxFramePayload);
  char* header = &(*dst)[frame];
  std::uint32_t crc = Crc32(header, 1);
  crc = Crc32(dst->data() + payload, size, crc);
  EncodeFixed32(header + 1, static_cast<std::uint32_t>(size));
  EncodeFixed32(header + 5, crc);
}

Status FrameDecoder::Feed(const char* data, std::size_t size) {
  if (!error_.ok()) return error_;
  buffer_.append(data, size);
  error_ = Parse();
  return error_;
}

Status FrameDecoder::Parse() {
  for (;;) {
    const char* base = buffer_.data() + consumed_;
    const std::size_t available = buffer_.size() - consumed_;
    if (!preamble_done_) {
      if (available < kPreambleBytes) break;
      if (std::memcmp(base, kNetMagic, sizeof(kNetMagic)) != 0) {
        return Status::InvalidArgument("stream preamble: bad magic");
      }
      const std::uint32_t version =
          DecodeFixed32(base + sizeof(kNetMagic));
      if (version != kProtocolVersion) {
        return Status::InvalidArgument(
            "stream preamble: unsupported protocol version " +
            std::to_string(version));
      }
      consumed_ += kPreambleBytes;
      preamble_done_ = true;
      continue;
    }
    if (available < kFrameHeaderBytes) break;
    const std::uint32_t length = DecodeFixed32(base + 1);
    if (length > kMaxFramePayload) {
      return Status::InvalidArgument(
          "frame announces oversized payload (" + std::to_string(length) +
          " bytes)");
    }
    if (available < kFrameHeaderBytes + length) break;
    const std::uint32_t stored_crc = DecodeFixed32(base + 5);
    std::uint32_t crc = Crc32(base, 1);
    crc = Crc32(base + kFrameHeaderBytes, length, crc);
    if (crc != stored_crc) {
      return Status::InvalidArgument("frame CRC mismatch");
    }
    Frame frame;
    frame.type = static_cast<MsgType>(static_cast<unsigned char>(*base));
    frame.payload.assign(base + kFrameHeaderBytes, length);
    frames_.push_back(std::move(frame));
    consumed_ += kFrameHeaderBytes + length;
  }
  if (consumed_ == buffer_.size() ||
      (consumed_ >= kCompactThreshold && consumed_ * 2 >= buffer_.size())) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return Status::OK();
}

Frame FrameDecoder::PopFrame() {
  assert(!frames_.empty());
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

}  // namespace net
}  // namespace tcdp

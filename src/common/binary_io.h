#ifndef TCDP_COMMON_BINARY_IO_H_
#define TCDP_COMMON_BINARY_IO_H_

/// \file
/// Little-endian binary primitives shared by the durable-state formats
/// (write-ahead event log, snapshots, packed participation masks).
///
/// Writers append to a std::string buffer; readers consume a
/// BinaryCursor and return Status on truncation or malformed varints
/// instead of reading past the end — every durable-format parser in the
/// repo is built on these so "corrupted input never crashes" only has
/// to be proven here once.
///
/// Doubles travel as their raw IEEE-754 bit pattern (fixed 64-bit),
/// which is what makes replayed accounting *bitwise* reproducible; a
/// decimal round-trip would be close, not identical.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace tcdp {

/// \name Appending writers.
/// @{
void PutFixed32(std::string* dst, std::uint32_t value);
void PutFixed64(std::string* dst, std::uint64_t value);
/// LEB128: 1 byte for values < 128, at most 10 bytes for 64-bit.
void PutVarint64(std::string* dst, std::uint64_t value);
/// Bytes PutVarint64 writes for \p value.
std::size_t VarintLength(std::uint64_t value);
/// The exact bit pattern of \p value (NaNs and signed zeros included).
void PutDoubleBits(std::string* dst, double value);
/// \p count doubles as consecutive PutDoubleBits fields, appended in
/// one piece.
void PutDoubleBitsArray(std::string* dst, const double* values,
                        std::size_t count);
/// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, const std::string& value);
/// @}

/// \name Writers into room the caller has already made (say, a string
/// resized once to an exact size): each writes the bytes its Put*
/// counterpart appends and returns the position after them. A writer
/// that checks room per value, as the Put* ones must, is what makes a
/// large payload slow to encode.
/// @{
inline char* EncodeFixed64(char* dst, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<char>(value >> (8 * i));
  return dst + 8;
}
inline char* EncodeVarint64(char* dst, std::uint64_t value) {
  while (value >= 0x80) {
    *dst++ = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  *dst++ = static_cast<char>(value);
  return dst;
}
inline char* EncodeDoubleBits(char* dst, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return EncodeFixed64(dst, bits);
}
/// @}

/// \brief Bounded forward reader over a byte range. Every Read* returns
/// OutOfRange on truncation; the cursor never advances past `end`.
class BinaryCursor {
 public:
  BinaryCursor(const char* data, std::size_t size)
      : pos_(data), end_(data + size) {}
  explicit BinaryCursor(const std::string& data)
      : BinaryCursor(data.data(), data.size()) {}

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }
  bool empty() const { return pos_ == end_; }

  Status ReadByte(std::uint8_t* value);
  Status ReadFixed32(std::uint32_t* value);
  Status ReadFixed64(std::uint64_t* value);
  /// InvalidArgument on a varint running past 10 bytes or the range end.
  Status ReadVarint64(std::uint64_t* value);
  Status ReadDoubleBits(double* value);
  /// \p count consecutive ReadDoubleBits fields into \p values.
  Status ReadDoubleBitsArray(double* values, std::size_t count);
  /// Reads a varint length then that many raw bytes.
  Status ReadLengthPrefixed(std::string* value);

 private:
  const char* pos_;
  const char* end_;
};

/// \brief CRC-32/ISO-HDLC (reflected polynomial 0xEDB88320, check value
/// 0xCBF43926) of \p size bytes, seedable for incremental computation
/// over discontiguous spans. Inputs of 64 bytes and more are folded
/// with carry-less multiplies when the CPU has them (Crc32UsesFold);
/// the slice-by-8 table finishes the tail and runs everything else.
/// Both paths compute the same value.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);
/// The slice-by-8 table path alone, on any CPU: what Crc32 runs on
/// short inputs and CPUs without carry-less multiply.
std::uint32_t Crc32Table(const void* data, std::size_t size,
                         std::uint32_t seed = 0);
/// True when Crc32 takes the fold: an x86-64 build on a CPU reporting
/// PCLMULQDQ and SSE4.1, probed once.
bool Crc32UsesFold();

}  // namespace tcdp

#endif  // TCDP_COMMON_BINARY_IO_H_

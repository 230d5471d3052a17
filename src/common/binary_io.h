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
/// \p count doubles as consecutive PutDoubleBits fields, written with
/// one resize of \p dst.
void PutDoubleBitsArray(std::string* dst, const double* values,
                        std::size_t count);
/// Varint length prefix followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, const std::string& value);
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

/// \brief CRC-32 (ISO-HDLC, polynomial 0xEDB88320) of \p size bytes,
/// seedable for incremental computation over discontiguous spans.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace tcdp

#endif  // TCDP_COMMON_BINARY_IO_H_

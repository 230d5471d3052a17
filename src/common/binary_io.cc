#include "common/binary_io.h"

#include <cstring>

namespace tcdp {

void PutFixed32(std::string* dst, std::uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, std::uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutVarint64(std::string* dst, std::uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

std::size_t VarintLength(std::uint64_t value) {
  std::size_t length = 1;
  for (; value >= 0x80; value >>= 7) ++length;
  return length;
}

void PutDoubleBits(std::string* dst, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutDoubleBitsArray(std::string* dst, const double* values,
                        std::size_t count) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  const std::size_t offset = dst->size();
  dst->resize(offset + 8 * count);
  char* out = &(*dst)[offset];
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    bits = __builtin_bswap64(bits);
    std::memcpy(out + 8 * i, &bits, sizeof(bits));
  }
#else
  // The doubles' bytes are already in little-endian order: one append
  // copies them, without zero-filling the grown string first.
  static_assert(sizeof(double) == 8, "doubles travel as 8 bytes");
  dst->append(reinterpret_cast<const char*>(values), 8 * count);
#endif
}

void PutLengthPrefixed(std::string* dst, const std::string& value) {
  PutVarint64(dst, value.size());
  dst->append(value);
}

Status BinaryCursor::ReadByte(std::uint8_t* value) {
  if (pos_ == end_) {
    return Status::OutOfRange("BinaryCursor: truncated byte");
  }
  *value = static_cast<std::uint8_t>(*pos_++);
  return Status::OK();
}

Status BinaryCursor::ReadFixed32(std::uint32_t* value) {
  if (remaining() < 4) {
    return Status::OutOfRange("BinaryCursor: truncated fixed32");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(pos_[i]))
         << (8 * i);
  }
  pos_ += 4;
  *value = v;
  return Status::OK();
}

Status BinaryCursor::ReadFixed64(std::uint64_t* value) {
  if (remaining() < 8) {
    return Status::OutOfRange("BinaryCursor: truncated fixed64");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(pos_[i]))
         << (8 * i);
  }
  pos_ += 8;
  *value = v;
  return Status::OK();
}

Status BinaryCursor::ReadVarint64(std::uint64_t* value) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (pos_ == end_) {
      return Status::OutOfRange("BinaryCursor: truncated varint");
    }
    const unsigned char byte = static_cast<unsigned char>(*pos_++);
    if (shift == 63 && (byte & ~1u) != 0) {
      return Status::InvalidArgument("BinaryCursor: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("BinaryCursor: varint longer than 10 bytes");
}

Status BinaryCursor::ReadDoubleBits(double* value) {
  std::uint64_t bits = 0;
  TCDP_RETURN_IF_ERROR(ReadFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status BinaryCursor::ReadDoubleBitsArray(double* values, std::size_t count) {
  if (count > remaining() / 8) {
    return Status::OutOfRange("BinaryCursor: truncated double array");
  }
  const unsigned char* in = reinterpret_cast<const unsigned char*>(pos_);
  for (std::size_t i = 0; i < count; ++i, in += 8) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 8; ++b) {
      bits |= static_cast<std::uint64_t>(in[b]) << (8 * b);
    }
    std::memcpy(&values[i], &bits, sizeof(bits));
  }
  pos_ += 8 * count;
  return Status::OK();
}

Status BinaryCursor::ReadLengthPrefixed(std::string* value) {
  std::uint64_t length = 0;
  TCDP_RETURN_IF_ERROR(ReadVarint64(&length));
  if (length > remaining()) {
    return Status::OutOfRange("BinaryCursor: length-prefixed field of " +
                              std::to_string(length) +
                              " bytes exceeds remaining input");
  }
  value->assign(pos_, static_cast<std::size_t>(length));
  pos_ += length;
  return Status::OK();
}

namespace {

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table
/// and entries[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups advance the register over eight input bytes.
struct Crc32Tables {
  std::uint32_t entries[8][256];
  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

/// The slice-by-8 loop over the register \p crc.
std::uint32_t Crc32TableUpdate(const unsigned char* p, std::size_t size,
                               std::uint32_t crc) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  // Byte loads keep this independent of host endianness and alignment.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

// Implemented in crc32_fold.cc, the one TU built with PCLMULQDQ and
// SSE4.1 enabled (as is Crc32UsesFold). Advances the (pre-inverted)
// register over \p size bytes, size >= 64 and a multiple of 16; may
// only run when Crc32UsesFold() is true.
std::uint32_t Crc32Fold(const unsigned char* p, std::size_t size,
                        std::uint32_t crc);

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  if (size >= 64 && Crc32UsesFold()) {
    // The fold takes whole 16-byte blocks; the table finishes the tail.
    const std::size_t bulk = size & ~std::size_t{15};
    crc = Crc32Fold(p, bulk, crc);
    p += bulk;
    size -= bulk;
  }
  return Crc32TableUpdate(p, size, crc) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Table(const void* data, std::size_t size,
                         std::uint32_t seed) {
  return Crc32TableUpdate(static_cast<const unsigned char*>(data), size,
                          seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace tcdp

#include "common/packed_mask.h"

#include <utility>

#include "common/binary_io.h"

namespace tcdp {
namespace {

/// Rows narrower than this stay dense: the bookkeeping of runs is not
/// worth its few saved bytes.
constexpr std::size_t kMinRleWords = 4;

}  // namespace

PackedMask PackedMask::FromWords(std::vector<std::uint64_t> words) {
  PackedMask mask = FromWordSpan(words.data(), words.size());
  if (!mask.is_rle()) mask.dense_ = std::move(words);  // reuse the storage
  return mask;
}

PackedMask PackedMask::FromWordSpan(const std::uint64_t* words,
                                    std::size_t n) {
  PackedMask mask;
  mask.num_words_ = n;
  std::vector<std::uint64_t> run_end;
  std::vector<std::uint64_t> run_value;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && words[j] == words[i]) ++j;
    run_end.push_back(j);
    run_value.push_back(words[i]);
    i = j;
  }
  // RLE stores two u64 per run vs one per word densely.
  if (n >= kMinRleWords && 2 * run_end.size() < n) {
    mask.kind_ = Kind::kRle;
    mask.run_end_ = std::move(run_end);
    mask.run_value_ = std::move(run_value);
  } else {
    mask.kind_ = Kind::kDense;
    mask.dense_.assign(words, words + n);
  }
  return mask;
}

std::vector<std::uint64_t> PackedMask::ToWords(std::size_t num_words) const {
  if (kind_ == Kind::kAll) {
    return std::vector<std::uint64_t>(num_words, ~std::uint64_t{0});
  }
  std::vector<std::uint64_t> words(num_words_, 0);
  if (kind_ == Kind::kDense) {
    words = dense_;
  } else {
    std::size_t begin = 0;
    for (std::size_t r = 0; r < run_end_.size(); ++r) {
      for (std::size_t w = begin; w < run_end_[r]; ++w) {
        words[w] = run_value_[r];
      }
      begin = run_end_[r];
    }
  }
  words.resize(num_words, 0);
  return words;
}

void PackedMask::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(kind_));
  if (kind_ == Kind::kAll) return;
  PutVarint64(dst, num_words_);
  if (kind_ == Kind::kDense) {
    for (std::uint64_t w : dense_) PutFixed64(dst, w);
    return;
  }
  PutVarint64(dst, run_end_.size());
  std::uint64_t begin = 0;
  for (std::size_t r = 0; r < run_end_.size(); ++r) {
    PutVarint64(dst, run_end_[r] - begin);  // run length, always >= 1
    PutFixed64(dst, run_value_[r]);
    begin = run_end_[r];
  }
}

StatusOr<PackedMask> PackedMask::Decode(BinaryCursor& cursor) {
  std::uint8_t kind_byte = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&kind_byte));
  if (kind_byte > static_cast<std::uint64_t>(Kind::kRle)) {
    return Status::InvalidArgument("PackedMask: unknown kind " +
                                   std::to_string(kind_byte));
  }
  const Kind kind = static_cast<Kind>(kind_byte);
  PackedMask mask;
  if (kind == Kind::kAll) return mask;
  std::uint64_t num_words = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&num_words));
  mask.kind_ = kind;
  mask.num_words_ = static_cast<std::size_t>(num_words);
  if (kind == Kind::kDense) {
    if (num_words > cursor.remaining() / 8) {
      return Status::OutOfRange("PackedMask: dense words exceed input");
    }
    mask.dense_.resize(static_cast<std::size_t>(num_words));
    for (auto& w : mask.dense_) TCDP_RETURN_IF_ERROR(cursor.ReadFixed64(&w));
    return mask;
  }
  std::uint64_t num_runs = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&num_runs));
  if (num_runs > num_words || num_runs > cursor.remaining()) {
    return Status::InvalidArgument("PackedMask: run count " +
                                   std::to_string(num_runs) +
                                   " inconsistent with width");
  }
  mask.run_end_.reserve(static_cast<std::size_t>(num_runs));
  mask.run_value_.reserve(static_cast<std::size_t>(num_runs));
  std::uint64_t covered = 0;
  for (std::uint64_t r = 0; r < num_runs; ++r) {
    std::uint64_t length = 0;
    std::uint64_t value = 0;
    TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&length));
    TCDP_RETURN_IF_ERROR(cursor.ReadFixed64(&value));
    if (length == 0 || covered + length > num_words) {
      return Status::InvalidArgument(
          "PackedMask: run lengths inconsistent with declared width");
    }
    covered += length;
    mask.run_end_.push_back(covered);
    mask.run_value_.push_back(value);
  }
  if (covered != num_words) {
    return Status::InvalidArgument(
        "PackedMask: runs cover " + std::to_string(covered) + " of " +
        std::to_string(num_words) + " words");
  }
  return mask;
}

bool PackedMask::operator==(const PackedMask& other) const {
  if (kind_ == Kind::kAll || other.kind_ == Kind::kAll) {
    return kind_ == other.kind_;
  }
  return num_words_ == other.num_words_ &&
         ToWords(num_words_) == other.ToWords(num_words_);
}

}  // namespace tcdp

#ifndef TCDP_COMMON_PACKED_MASK_H_
#define TCDP_COMMON_PACKED_MASK_H_

/// \file
/// The participation-row codec of the write-ahead log and snapshots.
///
/// A release's participation row is one bit per enrolled user. Fleets
/// are large and sparse schedules repeat long stretches of identical
/// words (all-zeros between coherent cohort blocks, all-ones in dense
/// phases), so rows beyond a small threshold are encoded with
/// **word-level run-length encoding**: consecutive equal 64-bit words
/// collapse into (run length, word) pairs. Short rows stay dense — at a
/// handful of words RLE bookkeeping costs more than it saves.
///
/// Three states:
///   * kAll   — "every user enrolled at write time participated";
///   * kDense — raw word vector;
///   * kRle   — runs, with cumulative word offsets.
///
/// A user at or past the row's word width was not enrolled when the
/// row was written and is not selected by it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcdp {

class PackedMask {
 public:
  /// "Everyone enrolled participated" (width-less).
  PackedMask() = default;
  static PackedMask All() { return PackedMask(); }

  /// Packs a dense word vector, choosing RLE automatically when it is
  /// strictly smaller. An empty vector is a zero-width explicit mask
  /// (nobody participates), NOT kAll.
  static PackedMask FromWords(std::vector<std::uint64_t> words);

  /// FromWords without taking ownership: packs words[0, n) and leaves
  /// the caller's buffer untouched, so a reusable scratch buffer (the
  /// bank's ExportImage rows) never churns. Copies only when the dense
  /// representation wins.
  static PackedMask FromWordSpan(const std::uint64_t* words, std::size_t n);

  bool is_all() const { return kind_ == Kind::kAll; }
  bool is_rle() const { return kind_ == Kind::kRle; }
  /// Width in 64-bit words (0 for kAll).
  std::size_t num_words() const { return num_words_; }

  /// The dense representation (kAll expands to \p num_words ones-words).
  std::vector<std::uint64_t> ToWords(std::size_t num_words) const;

  /// Calls \p fn(i) for every set bit i of an explicit (non-kAll) row,
  /// in increasing order. Zero runs are skipped without being expanded,
  /// so the cost is the row's runs plus the words that hold set bits.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    auto visit = [&fn](std::size_t word, std::uint64_t bits) {
      for (; bits != 0; bits &= bits - 1) {
        fn(word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
      }
    };
    if (kind_ == Kind::kDense) {
      for (std::size_t w = 0; w < dense_.size(); ++w) visit(w, dense_[w]);
      return;
    }
    std::size_t begin = 0;
    for (std::size_t r = 0; r < run_end_.size(); ++r) {
      if (run_value_[r] != 0) {
        for (std::size_t w = begin; w < run_end_[r]; ++w) {
          visit(w, run_value_[r]);
        }
      }
      begin = static_cast<std::size_t>(run_end_[r]);
    }
  }

  /// \name Durable wire format (varint-framed, see binary_io.h).
  /// @{
  void EncodeTo(std::string* dst) const;
  /// Consumes one encoded mask from \p cursor. Rejects unknown kinds,
  /// zero-length runs, run overflow past the declared width, and
  /// truncation — corrupted log/snapshot bytes surface as Status.
  static StatusOr<PackedMask> Decode(class BinaryCursor& cursor);
  /// @}

  bool operator==(const PackedMask& other) const;

 private:
  enum class Kind : std::uint8_t { kAll = 0, kDense = 1, kRle = 2 };

  Kind kind_ = Kind::kAll;
  std::size_t num_words_ = 0;
  std::vector<std::uint64_t> dense_;
  /// run_end_[r] = total words covered by runs [0, r]; strictly
  /// increasing, back() == num_words_.
  std::vector<std::uint64_t> run_end_;
  std::vector<std::uint64_t> run_value_;
};

}  // namespace tcdp

#endif  // TCDP_COMMON_PACKED_MASK_H_

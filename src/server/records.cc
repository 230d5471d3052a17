#include "server/records.h"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/hash.h"
#include "markov/stochastic_matrix.h"

namespace tcdp {
namespace server {
namespace {

/// Per-thread memo of history-free correlation images, keyed by
/// content. Whole populations share a handful of (P^B, P^F) profiles,
/// so each distinct image is printed or parsed once per thread instead
/// of once per Join, WAL kAddUser record and snapshot kSnapUser record.
/// An entry is valid in the direction that made it: a parsed entry
/// holds ParseAccountantImage(blob), a printed one holds
/// SerializeAccountantImage(image), and neither serves the other's
/// lookups, since a hand-written blob need not be the canonical print
/// of what it parses to. Every hit is confirmed by an exact compare
/// (blob bytes, or matrix bits and quantization bits), so the memo
/// never changes a byte or a verdict; only successful parses are kept.
/// Least recently used entries go first once kImageMemoMaxEntries or
/// kImageMemoMaxBytes would be exceeded.
class ImageMemo {
 public:
  static ImageMemo& ForThread() {
    thread_local ImageMemo memo;
    return memo;
  }

  /// DecodeAddUser/DecodeSnapUser's blob step: parse and check that
  /// the image carries no history (\p record names the refusal).
  StatusOr<AccountantImage> Parse(std::string blob, const char* record) {
    const std::uint64_t key = HashBytes(blob.data(), blob.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i].hash == key && !keys_[i].printed &&
          entries_[i].blob == blob) {
        return Touch(i).image;
      }
    }
    ++stats_.misses;
    TCDP_ASSIGN_OR_RETURN(AccountantImage image, ParseAccountantImage(blob));
    if (!image.epsilons.empty()) {
      return Status::InvalidArgument(std::string(record) +
                                     ": embedded accountant blob carries "
                                     "history");
    }
    Insert(key, /*printed=*/false, std::move(blob), image);
    return image;
  }

  /// EncodeAddUser/EncodeSnapUser's blob step: appends the
  /// length-prefixed text of \p image with its epsilon list dropped —
  /// records carry history as release rows, not per-user epsilon lists
  /// (which would duplicate it num_users times).
  void AppendPrinted(const AccountantImage& image, std::string* out) {
    const std::uint64_t key = ImageKey(image);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i].hash == key && keys_[i].printed &&
          SameImage(entries_[i].image, image)) {
        PutLengthPrefixed(out, Touch(i).blob);
        return;
      }
    }
    ++stats_.misses;
    AccountantImage stripped;
    stripped.correlations = image.correlations;
    stripped.cache_alpha_resolution = image.cache_alpha_resolution;
    std::string blob = SerializeAccountantImage(stripped);
    PutLengthPrefixed(out, blob);
    Insert(key, /*printed=*/true, std::move(blob), stripped);
  }

  ImageMemoStats stats() const { return stats_; }

 private:
  struct Key {
    std::uint64_t hash = 0;  ///< of the blob if parsed, else of the image
    std::uint64_t last_use = 0;
    bool printed = false;
  };
  struct Entry {
    std::string blob;
    AccountantImage image;
    std::size_t bytes = 0;
  };

  static std::uint64_t Bits(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
  }

  static std::size_t MatrixBytes(const TemporalCorrelations& corr) {
    std::size_t entries = 0;
    if (corr.has_backward()) entries += corr.backward().matrix().data().size();
    if (corr.has_forward()) entries += corr.forward().matrix().data().size();
    return entries * sizeof(double);
  }

  static std::uint64_t ImageKey(const AccountantImage& image) {
    return FingerprintCorrelations(image.correlations,
                                   Bits(image.cache_alpha_resolution));
  }

  static bool SameImage(const AccountantImage& a, const AccountantImage& b) {
    return Bits(a.cache_alpha_resolution) == Bits(b.cache_alpha_resolution) &&
           SameCorrelations(a.correlations, b.correlations);
  }

  Entry& Touch(std::size_t i) {
    ++stats_.hits;
    keys_[i].last_use = ++clock_;
    return entries_[i];
  }

  void Insert(std::uint64_t hash, bool printed, std::string blob,
              const AccountantImage& image) {
    const std::size_t bytes = blob.size() + MatrixBytes(image.correlations);
    if (bytes > kImageMemoMaxEntryBytes) return;  // too big to share
    while (keys_.size() >= kImageMemoMaxEntries ||
           stats_.bytes + bytes > kImageMemoMaxBytes) {
      std::size_t oldest = 0;
      for (std::size_t i = 1; i < keys_.size(); ++i) {
        if (keys_[i].last_use < keys_[oldest].last_use) oldest = i;
      }
      stats_.bytes -= entries_[oldest].bytes;
      if (oldest + 1 != keys_.size()) {
        keys_[oldest] = keys_.back();
        entries_[oldest] = std::move(entries_.back());
      }
      keys_.pop_back();
      entries_.pop_back();
    }
    keys_.push_back({hash, ++clock_, printed});
    entries_.push_back({std::move(blob), image, bytes});
    stats_.bytes += bytes;
    stats_.entries = keys_.size();
  }

  // Parallel arrays: a lookup scans only the compact keys.
  std::vector<Key> keys_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  ImageMemoStats stats_;
};

Status ExpectConsumed(const BinaryCursor& cursor, const char* what) {
  if (!cursor.empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes in payload");
  }
  return Status::OK();
}

}  // namespace

ImageMemoStats ThreadImageMemoStats() {
  return ImageMemo::ForThread().stats();
}

std::string EncodeManifest(const ManifestRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutVarint64(&out, record.shard_index);
  PutVarint64(&out, record.num_shards);
  out.push_back(record.share_loss_cache ? 1 : 0);
  PutDoubleBits(&out, record.alpha_resolution);
  return out;
}

StatusOr<ManifestRecord> DecodeManifest(const std::string& payload) {
  BinaryCursor cursor(payload);
  ManifestRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeManifest: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.shard_index));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.num_shards));
  std::uint8_t share = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&share));
  if (share > 1) {
    return Status::InvalidArgument("DecodeManifest: bad share_loss_cache");
  }
  record.share_loss_cache = share == 1;
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.alpha_resolution));
  if (!std::isfinite(record.alpha_resolution)) {
    return Status::InvalidArgument(
        "DecodeManifest: alpha_resolution not finite");
  }
  if (record.num_shards == 0 || record.shard_index >= record.num_shards) {
    return Status::InvalidArgument("DecodeManifest: shard " +
                                   std::to_string(record.shard_index) +
                                   " of " +
                                   std::to_string(record.num_shards));
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeManifest"));
  return record;
}

std::string EncodeAddUser(const AddUserRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, record.name);
  ImageMemo::ForThread().AppendPrinted(record.image, &out);
  return out;
}

StatusOr<AddUserRecord> DecodeAddUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  AddUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  std::string blob;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&blob));
  TCDP_ASSIGN_OR_RETURN(record.image,
                        ImageMemo::ForThread().Parse(std::move(blob), "DecodeAddUser"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeAddUser"));
  return record;
}

std::string EncodeRelease(const ReleaseRecord& record) {
  std::string out;
  PutDoubleBits(&out, record.epsilon);
  out.push_back(record.all ? 1 : 0);
  if (!record.all) record.mask.EncodeTo(&out);
  return out;
}

StatusOr<ReleaseRecord> DecodeRelease(const std::string& payload) {
  BinaryCursor cursor(payload);
  ReleaseRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.epsilon));
  if (!(record.epsilon > 0.0) || !std::isfinite(record.epsilon)) {
    return Status::InvalidArgument(
        "DecodeRelease: epsilon not finite and > 0");
  }
  std::uint8_t all = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&all));
  if (all > 1) {
    return Status::InvalidArgument("DecodeRelease: bad 'all' flag");
  }
  record.all = all == 1;
  if (!record.all) {
    TCDP_ASSIGN_OR_RETURN(record.mask, PackedMask::Decode(cursor));
    if (record.mask.is_all()) {
      return Status::InvalidArgument(
          "DecodeRelease: explicit mask cannot be the All mask");
    }
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeRelease"));
  return record;
}

std::string EncodeCompaction(const CompactionRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutVarint64(&out, record.base_records);
  PutVarint64(&out, record.base_releases);
  PutVarint64(&out, record.base_users);
  return out;
}

StatusOr<CompactionRecord> DecodeCompaction(const std::string& payload) {
  BinaryCursor cursor(payload);
  CompactionRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeCompaction: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_records));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_releases));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.base_users));
  // The replaced prefix is manifest + adds + releases (nothing else is
  // a WAL record type), so the base counts must tile it exactly.
  if (record.base_records < 1 ||
      1 + record.base_releases + record.base_users != record.base_records) {
    return Status::InvalidArgument(
        "DecodeCompaction: base counts 1+" +
        std::to_string(record.base_users) + "+" +
        std::to_string(record.base_releases) + " do not tile " +
        std::to_string(record.base_records) + " records");
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeCompaction"));
  return record;
}

std::string EncodeRouterEndpoint(const RouterEndpointRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutLengthPrefixed(&out, record.endpoint);
  out.push_back(record.removed ? 1 : 0);
  return out;
}

StatusOr<RouterEndpointRecord> DecodeRouterEndpoint(
    const std::string& payload) {
  BinaryCursor cursor(payload);
  RouterEndpointRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeRouterEndpoint: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.endpoint));
  if (record.endpoint.empty()) {
    return Status::InvalidArgument("DecodeRouterEndpoint: empty endpoint");
  }
  std::uint8_t removed = 0;
  TCDP_RETURN_IF_ERROR(cursor.ReadByte(&removed));
  if (removed > 1) {
    return Status::InvalidArgument("DecodeRouterEndpoint: bad removed flag");
  }
  record.removed = removed == 1;
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeRouterEndpoint"));
  return record;
}

std::string EncodeMigrateUser(const MigrateUserRecord& record) {
  std::string out;
  PutVarint64(&out, record.format_version);
  PutLengthPrefixed(&out, record.name);
  PutLengthPrefixed(&out, record.endpoint);
  return out;
}

StatusOr<MigrateUserRecord> DecodeMigrateUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  MigrateUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.format_version));
  if (record.format_version != 1) {
    return Status::InvalidArgument(
        "DecodeMigrateUser: unsupported format version " +
        std::to_string(record.format_version));
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  if (record.name.empty()) {
    return Status::InvalidArgument("DecodeMigrateUser: empty user name");
  }
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.endpoint));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeMigrateUser"));
  return record;
}

std::string EncodeSnapHeader(const SnapHeaderRecord& record) {
  std::string out;
  PutVarint64(&out, record.applied_records);
  PutVarint64(&out, record.horizon);
  PutVarint64(&out, record.num_users);
  PutDoubleBits(&out, record.alpha_resolution);
  return out;
}

StatusOr<SnapHeaderRecord> DecodeSnapHeader(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapHeaderRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.applied_records));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.horizon));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.num_users));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.alpha_resolution));
  if (!std::isfinite(record.alpha_resolution)) {
    return Status::InvalidArgument(
        "DecodeSnapHeader: alpha_resolution not finite");
  }
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapHeader"));
  return record;
}

std::string EncodeSnapUser(const SnapUserRecord& record) {
  std::string out;
  PutLengthPrefixed(&out, record.name);
  PutVarint64(&out, record.join);
  PutDoubleBits(&out, record.bpl_last);
  PutDoubleBits(&out, record.eps_sum);
  ImageMemo::ForThread().AppendPrinted(record.image, &out);
  return out;
}

StatusOr<SnapUserRecord> DecodeSnapUser(const std::string& payload) {
  BinaryCursor cursor(payload);
  SnapUserRecord record;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&record.name));
  TCDP_RETURN_IF_ERROR(cursor.ReadVarint64(&record.join));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.bpl_last));
  TCDP_RETURN_IF_ERROR(cursor.ReadDoubleBits(&record.eps_sum));
  std::string blob;
  TCDP_RETURN_IF_ERROR(cursor.ReadLengthPrefixed(&blob));
  TCDP_ASSIGN_OR_RETURN(record.image,
                        ImageMemo::ForThread().Parse(std::move(blob), "DecodeSnapUser"));
  TCDP_RETURN_IF_ERROR(ExpectConsumed(cursor, "DecodeSnapUser"));
  return record;
}

}  // namespace server
}  // namespace tcdp

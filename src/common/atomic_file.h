#ifndef TCDP_COMMON_ATOMIC_FILE_H_
#define TCDP_COMMON_ATOMIC_FILE_H_

/// \file
/// Whole-file I/O: publication for files other processes or a later
/// recovery read (the MANIFEST, snapshots, compacted WALs, metrics and
/// trace dumps), and the one whole-file read. Compaction anchors do not
/// pass through here: server/log_dir hard-links them to a snapshot.

#include <string>

#include "common/status.h"

namespace tcdp {

/// Writes \p contents to `path.tmp`, fdatasyncs and closes it, then
/// renames it over \p path. A reader sees the old file or the whole new
/// one, and a crash after the rename cannot leave \p path empty or
/// torn. The directory entry is not fsynced: the rename itself may be
/// lost in a power failure (docs/DURABILITY.md).
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// Reads \p path whole. NotFound ("cannot open <path>") when it cannot
/// be opened, Internal when a read fails.
StatusOr<std::string> ReadFileWhole(const std::string& path);

}  // namespace tcdp

#endif  // TCDP_COMMON_ATOMIC_FILE_H_

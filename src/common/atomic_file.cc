#include "common/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tcdp {

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  auto failed = [&tmp](const char* step) {
    return Status::Internal(std::string("WriteFileAtomic: ") + step + " " +
                            tmp + ": " + std::strerror(errno));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return failed("open");
  const char* data = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status status = failed("write");
      ::close(fd);
      return status;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fdatasync(fd) < 0) {
    const Status status = failed("fdatasync");
    ::close(fd);
    return status;
  }
  if (::close(fd) < 0) return failed("close");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("WriteFileAtomic: rename " + tmp + " to " + path +
                            ": " + std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileWhole(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat info {};
  std::string contents;
  if (::fstat(fd, &info) == 0) contents.reserve(info.st_size);
  char buffer[64 * 1024];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    contents.append(buffer, static_cast<std::size_t>(n));
  }
  const Status status = n < 0 ? Status::Internal("read " + path + ": " +
                                                 std::strerror(errno))
                              : Status::OK();
  ::close(fd);
  if (!status.ok()) return status;
  return contents;
}

}  // namespace tcdp

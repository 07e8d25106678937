#include "streams/mapped_file.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profile.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TSVCOD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#include <fstream>
#endif

namespace tsvcod::streams {

namespace {

[[noreturn]] void fail(const char* who, const std::string& path, const std::string& what) {
  throw std::runtime_error(std::string(who) + ": " + path + ": " + what);
}

/// Fill `buffer` from `read_some(dst, capacity)` (bytes read, 0 at EOF, -1 on
/// error) until EOF; returns the byte count, or -1 on a read error.
template <typename ReadSome>
std::ptrdiff_t read_to_eof(std::vector<std::uint64_t>& buffer, ReadSome&& read_some) {
  std::size_t size = 0;
  for (;;) {
    const std::size_t capacity = buffer.size() * sizeof(std::uint64_t);
    if (size == capacity) {
      buffer.resize(std::max<std::size_t>(4096, 2 * buffer.size()));
      continue;
    }
    const std::ptrdiff_t got =
        read_some(reinterpret_cast<char*>(buffer.data()) + size, capacity - size);
    if (got < 0) return -1;
    if (got == 0) return static_cast<std::ptrdiff_t>(size);
    size += static_cast<std::size_t>(got);
  }
}

}  // namespace

MappedFile::MappedFile(const std::string& path, const char* who) {
  obs::Span span("streams.open");
#if defined(TSVCOD_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(who, path, std::string("cannot open: ") + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(who, path, std::string("fstat failed: ") + std::strerror(err));
  }
  if (S_ISREG(st.st_mode)) {
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        fail(who, path, std::string("mmap failed: ") + std::strerror(err));
      }
      map_ = map;
#if defined(POSIX_MADV_SEQUENTIAL)
      ::posix_madvise(map_, size_, POSIX_MADV_SEQUENTIAL);
#endif
    }
  } else {
    // A pipe or device has no size to map: read it to EOF.
    const std::ptrdiff_t got = read_to_eof(buffer_, [fd](char* dst, std::size_t n) {
      for (;;) {
        const ssize_t r = ::read(fd, dst, n);
        if (r >= 0 || errno != EINTR) return static_cast<std::ptrdiff_t>(r);
      }
    });
    if (got < 0) {
      const int err = errno;
      ::close(fd);
      fail(who, path, std::string("read failed: ") + std::strerror(err));
    }
    size_ = static_cast<std::size_t>(got);
  }
  ::close(fd);  // the mapping outlives the descriptor
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(who, path, "cannot open");
  const std::ptrdiff_t got = read_to_eof(buffer_, [&is](char* dst, std::size_t n) {
    is.read(dst, static_cast<std::streamsize>(n));
    return is.bad() ? std::ptrdiff_t{-1} : static_cast<std::ptrdiff_t>(is.gcount());
  });
  if (got < 0) fail(who, path, "read failed");
  size_ = static_cast<std::size_t>(got);
#endif
  obs::profile_work("bytes", size_);
}

MappedFile::~MappedFile() { unmap(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      buffer_(std::move(other.buffer_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void MappedFile::unmap() noexcept {
#if defined(TSVCOD_HAVE_MMAP)
  if (map_ != nullptr) {
    ::munmap(map_, size_);
    map_ = nullptr;
  }
#endif
}

}  // namespace tsvcod::streams

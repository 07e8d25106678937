#pragma once
// Read-only view of a whole file's bytes: the one file-reading path of both
// trace readers, the .tsvb reader (MappedTrace) and the text parser
// (load_trace).
//
// On POSIX a regular file is memory-mapped (page-aligned, advised for
// sequential access), so neither reader copies the file. Anything else
// (pipes, character devices, hosts without mmap) is read to EOF into an
// 8-byte-aligned buffer, so bytes() is always aligned for uint64 payloads.
// Opening is an obs span, `streams.open`, with a `bytes` work counter.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tsvcod::streams {

class MappedFile {
 public:
  /// Throws std::runtime_error "<who>: <path>: <reason>" when the file
  /// cannot be opened, sized, mapped or read.
  MappedFile(const std::string& path, const char* who);
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The whole file; valid for the lifetime of this object (moves keep it).
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data()), size_};
  }
  std::string_view text() const { return {static_cast<const char*>(data()), size_}; }

 private:
  const void* data() const { return map_ != nullptr ? map_ : buffer_.data(); }
  void unmap() noexcept;

  void* map_ = nullptr;                ///< non-null iff mmap-backed
  std::size_t size_ = 0;
  std::vector<std::uint64_t> buffer_;  ///< aligned copy when not mmap-backed
};

}  // namespace tsvcod::streams

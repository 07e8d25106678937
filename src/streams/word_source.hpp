#pragma once
// A finite recorded trace, whatever file it came from: text files, binary
// (.tsvb) files and in-memory vectors all surface as one WordSource, so the
// CLI, the benches and the statistics ingestion path consume any of them
// identically through words().
//
// Unlike WordStream (one word per simulated clock cycle, infinite replay), a
// WordSource holds the whole trace and hands it out as one contiguous span.
// A source backed by an mmap'd binary trace aliases the mapped pages, so it
// is consumed zero-copy. Consumers that receive a stream in pieces (serve
// sessions, NoC links) fold each piece into stats::ChunkFolder instead.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "streams/binary_trace.hpp"

namespace tsvcod::streams {

class WordSource {
 public:
  /// An owned in-memory trace. Throws std::runtime_error naming `source`
  /// if `width` is outside [1, 64].
  WordSource(std::vector<std::uint64_t> words, std::size_t width,
             std::string source = "<memory>");
  /// A memory-mapped .tsvb trace; width and seed come from its header.
  explicit WordSource(MappedTrace map);

  // words() aliases this object's own storage, so it stays put.
  WordSource(const WordSource&) = delete;
  WordSource& operator=(const WordSource&) = delete;

  /// Declared line width in bits (1..64).
  std::size_t width() const { return width_; }
  /// The whole trace; valid for the lifetime of the source.
  std::span<const std::uint64_t> words() const {
    return map_ ? map_->words() : std::span<const std::uint64_t>(owned_);
  }
  /// Total words in the trace.
  std::uint64_t size() const { return words().size(); }
  /// Bytes of backing store (the whole file for .tsvb, 8 per word
  /// otherwise) — the ingest byte counters.
  std::uint64_t bytes() const {
    return map_ ? map_->bytes() : owned_.size() * sizeof(std::uint64_t);
  }
  /// Human-readable origin for error messages (a path for file sources).
  const std::string& source() const { return map_ ? map_->path() : source_; }
  /// The .tsvb provenance tag; 0 for any other source.
  std::uint64_t seed() const { return map_ ? map_->header().seed : 0; }

 private:
  std::vector<std::uint64_t> owned_;
  std::optional<MappedTrace> map_;
  std::size_t width_;
  std::string source_;
};

/// Open `path` as whichever trace format it is: the .tsvb magic selects the
/// zero-copy mmap reader, anything else goes through the hardened text
/// parser. `width` 0 derives the width (binary: the header; text: the
/// widest word, at least 1); nonzero must match a binary header exactly and
/// every text word must fit it. Throws std::runtime_error naming the path.
std::unique_ptr<WordSource> open_word_source(const std::string& path, std::size_t width = 0);

/// Copy a whole source into a vector, for consumers that need to own or
/// modify the words.
std::vector<std::uint64_t> collect(const WordSource& source);

}  // namespace tsvcod::streams

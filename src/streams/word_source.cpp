#include "streams/word_source.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "streams/trace_io.hpp"

namespace tsvcod::streams {

WordSource::WordSource(std::vector<std::uint64_t> words, std::size_t width, std::string source)
    : owned_(std::move(words)), width_(width), source_(std::move(source)) {
  if (width_ == 0 || width_ > 64) {
    throw std::runtime_error("word_source: " + source_ + ": width " + std::to_string(width_) +
                             " out of range [1, 64]");
  }
}

WordSource::WordSource(MappedTrace map) : map_(std::move(map)), width_(map_->header().width) {}

std::unique_ptr<WordSource> open_word_source(const std::string& path, std::size_t width) {
  if (file_looks_like_binary_trace(path)) {
    auto source = std::make_unique<WordSource>(MappedTrace(path));
    if (width != 0 && source->width() != width) {
      std::ostringstream os;
      os << "word_source: " << path << ": binary trace width " << source->width()
         << " does not match the requested width " << width;
      throw std::runtime_error(os.str());
    }
    return source;
  }
  std::uint64_t seen = 0;
  auto words = load_trace(path, seen);
  const std::size_t widest = std::max<std::size_t>(1, std::bit_width(seen));
  if (width == 0) {
    width = widest;
  } else if (widest > width) {
    std::ostringstream os;
    os << "word_source: " << path << ": trace words use " << widest
       << " bits, wider than the requested width " << width;
    throw std::runtime_error(os.str());
  }
  return std::make_unique<WordSource>(std::move(words), width, path);
}

std::vector<std::uint64_t> collect(const WordSource& source) {
  const auto words = source.words();
  return {words.begin(), words.end()};
}

}  // namespace tsvcod::streams

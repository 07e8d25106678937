#pragma once
// Word-trace file I/O.
//
// Lets users feed *real* captured bus traces (the paper used camera images
// and smartphone sensor logs) into the optimizer without recompiling:
// one word per line, hexadecimal with a 0x/0X prefix or decimal, '#'
// comments and blank lines ignored. Only space, tab and CR are trimmed
// around a token; any other control character (\v, \f, ...) makes the
// line malformed. CRLF line endings and a final line without a trailing
// newline parse identically to plain LF. An optional `words <N>` directive
// (at most one; save_trace emits it) declares the word count, and a file
// whose actual count disagrees is rejected as truncated/padded.
//
// One parser serves both entry points: a pointer scan over the whole file
// (memory-mapped by load_trace, drained into a string by parse_trace) that
// converts each token with std::from_chars, ~40 Mwords/s on 0x-hex lines.
// A profiled run shows it as a `streams.parse` span with `words` and
// `bytes` work counters.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace tsvcod::streams {

/// Parse a trace; throws std::runtime_error on malformed lines. The error
/// message names `source` (a file path for load_trace) plus the line number
/// and byte offset of the offending token, and quotes the token.
std::vector<std::uint64_t> parse_trace(std::istream& is, const std::string& source = "<stream>");
std::vector<std::uint64_t> load_trace(const std::string& path);
/// load_trace that also sets `bits_seen` to the OR of every word, so a
/// caller deriving the line width needs no second pass over the words.
std::vector<std::uint64_t> load_trace(const std::string& path, std::uint64_t& bits_seen);

void save_trace(std::ostream& os, std::span<const std::uint64_t> words);
void save_trace(const std::string& path, std::span<const std::uint64_t> words);

}  // namespace tsvcod::streams

#include "streams/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "streams/mapped_file.hpp"

namespace tsvcod::streams {

namespace {

bool is_trim(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// `digits` as a whole unsigned decimal number. std::from_chars takes no
/// sign or leading whitespace, so either fails the parse.
bool parse_whole(std::string_view digits, std::uint64_t& out) {
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

[[noreturn]] void bad_token(const std::string& source, std::size_t lineno, std::size_t offset,
                            std::string_view tok) {
  throw std::runtime_error("trace_io: bad word in " + source + " at line " +
                           std::to_string(lineno) + " (byte offset " + std::to_string(offset) +
                           "): '" + std::string(tok) + "'");
}

/// The one text-trace parser: a pointer scan over the whole file. `seen`
/// collects the OR of every word.
std::vector<std::uint64_t> parse_text(std::string_view text, const std::string& source,
                                      std::uint64_t& seen) {
  obs::Span span("streams.parse");
  std::vector<std::uint64_t> words;
  std::optional<std::uint64_t> declared;
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  std::size_t lineno = 0;
  for (const char* line = begin; line < end;) {
    ++lineno;
    const char* first = line;
    while (first < end && is_trim(*first)) ++first;

    // The common line, one word and then only trim characters: from_chars
    // finds the token's end itself, so the line is read once. A token that
    // fails here fails as a whole token too (from_chars stops at the first
    // non-digit), so everything else is a blank line, a comment, the
    // directive or an error.
    if (first < end && *first >= '0' && *first <= '9') {
      const bool hex = end - first > 1 && first[0] == '0' && (first[1] == 'x' || first[1] == 'X');
      std::uint64_t value = 0;
      const auto [stop, ec] = std::from_chars(first + (hex ? 2 : 0), end, value, hex ? 16 : 10);
      const char* rest = stop;
      while (rest < end && is_trim(*rest)) ++rest;
      if (ec == std::errc{} && (rest == end || *rest == '\n')) {
        words.push_back(value);
        seen |= value;
        line = rest == end ? end : rest + 1;
        continue;
      }
    }

    const auto offset = static_cast<std::size_t>(first - begin);
    const std::size_t nl = text.find('\n', offset);
    const char* eol = nl == std::string_view::npos ? end : begin + nl;
    const char* last = eol;
    while (last > first && is_trim(last[-1])) --last;
    line = eol == end ? end : eol + 1;
    // A final line without a trailing newline ends at `end` like any other;
    // trimming the CR of a CRLF ending makes CRLF files parse exactly like LF.
    if (first == last || *first == '#') continue;
    const std::string_view tok(first, static_cast<std::size_t>(last - first));

    // Optional "words <N>" count directive (save_trace emits one): lets the
    // parser reject a truncated or padded file instead of silently folding
    // a short read into statistics.
    if (!tok.starts_with("words") || (tok.size() > 5 && tok[5] != ' ' && tok[5] != '\t')) {
      bad_token(source, lineno, offset, tok);
    }
    const auto vpos = tok.find_first_not_of(" \t", 5);
    std::uint64_t count = 0;
    if (declared || vpos == std::string_view::npos || !parse_whole(tok.substr(vpos), count)) {
      bad_token(source, lineno, offset, tok);
    }
    declared = count;
    // Size the output once when the count comes first, but never beyond
    // what the remaining bytes could hold (every word but the last takes
    // at least two bytes), so a hostile count cannot allocate.
    if (words.empty()) {
      const auto remaining = static_cast<std::uint64_t>(end - line);
      words.reserve(static_cast<std::size_t>(std::min(count, (remaining + 1) / 2)));
    }
  }
  if (declared && *declared != words.size()) {
    throw std::runtime_error("trace_io: " + source + ": declared word count " +
                             std::to_string(*declared) + " disagrees with the actual " +
                             std::to_string(words.size()) + " words (truncated or padded file)");
  }
  obs::profile_work("words", words.size());
  obs::profile_work("bytes", text.size());
  return words;
}

}  // namespace

std::vector<std::uint64_t> parse_trace(std::istream& is, const std::string& source) {
  std::ostringstream text;
  text << is.rdbuf();
  std::uint64_t seen = 0;
  return parse_text(text.view(), source, seen);
}

std::vector<std::uint64_t> load_trace(const std::string& path, std::uint64_t& bits_seen) {
  const MappedFile file(path, "trace_io");
  bits_seen = 0;
  return parse_text(file.text(), path, bits_seen);
}

std::vector<std::uint64_t> load_trace(const std::string& path) {
  std::uint64_t seen = 0;
  return load_trace(path, seen);
}

void save_trace(std::ostream& os, std::span<const std::uint64_t> words) {
  os << "# tsvcod word trace, one word per line\n";
  os << "words " << std::dec << words.size() << '\n' << std::hex;
  for (const auto w : words) os << "0x" << w << '\n';
}

void save_trace(const std::string& path, std::span<const std::uint64_t> words) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace_io: cannot open for writing: " + path);
  save_trace(os, words);
  os.flush();
  if (!os) throw std::runtime_error("trace_io: write failed: " + path);
}

}  // namespace tsvcod::streams

// Unit tests for the persistence layers: capacitance-model files, word-trace
// files and assignment files (round-trips and malformed-input rejection).
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/assignment_io.hpp"
#include "streams/trace_io.hpp"
#include "tsv/model_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using namespace tsvcod;

TEST(ModelIo, RoundTripExact) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  const auto model = tsv::fit_from_analytic(geom);
  std::stringstream ss;
  tsv::save_linear_model(ss, model);
  const auto loaded = tsv::load_linear_model(ss);
  ASSERT_EQ(loaded.size(), model.size());
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_DOUBLE_EQ(loaded.c_ref()(i, j), model.c_ref()(i, j));
      EXPECT_DOUBLE_EQ(loaded.delta_c()(i, j), model.delta_c()(i, j));
    }
  }
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(tsv::load_linear_model(empty), std::runtime_error);
  std::stringstream wrong("not-a-model v1\nn 2\n");
  EXPECT_THROW(tsv::load_linear_model(wrong), std::runtime_error);
  std::stringstream truncated("tsvcod-linear-capacitance v1\nn 2\nCR 1 2\n");
  EXPECT_THROW(tsv::load_linear_model(truncated), std::runtime_error);
  std::stringstream bad_size("tsvcod-linear-capacitance v1\nn 0\n");
  EXPECT_THROW(tsv::load_linear_model(bad_size), std::runtime_error);
}

TEST(TraceIo, ParsesHexDecimalAndComments) {
  std::stringstream ss("# header\n0x1F\n42\n\n   0xff  \n");
  const auto words = streams::parse_trace(ss);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], 0x1Fu);
  EXPECT_EQ(words[1], 42u);
  EXPECT_EQ(words[2], 0xFFu);
}

TEST(TraceIo, RoundTrip) {
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> words(500);
  for (auto& w : words) w = rng();
  std::stringstream ss;
  streams::save_trace(ss, words);
  EXPECT_EQ(streams::parse_trace(ss), words);
}

TEST(TraceIo, RejectsBadLines) {
  std::stringstream ss("12\nnot_a_number\n");
  EXPECT_THROW(streams::parse_trace(ss), std::runtime_error);
  std::stringstream ss2("0x12zz\n");
  EXPECT_THROW(streams::parse_trace(ss2), std::runtime_error);
}

TEST(TraceIo, ErrorNamesSourceLineAndByteOffset) {
  // "12\n" is 3 bytes; the bad token starts 2 bytes into line 2.
  std::stringstream ss("12\n  not_a_number\n");
  try {
    streams::parse_trace(ss, "bus.txt");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bus.txt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not_a_number"), std::string::npos) << msg;
  }
}

TEST(TraceIo, LoadErrorNamesPath) {
  try {
    streams::load_trace("/nonexistent/dir/trace.txt");
    FAIL() << "expected open failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/trace.txt"), std::string::npos);
  }
}

TEST(AssignmentIo, RoundTrip) {
  std::mt19937_64 rng(7);
  const auto a =
      core::SignedPermutation::random(12, rng, std::vector<std::uint8_t>(12, 1));
  std::stringstream ss;
  core::save_assignment(ss, a);
  const auto loaded = core::load_assignment(ss);
  EXPECT_EQ(loaded, a);
}

TEST(AssignmentIo, RejectsDuplicatesAndBadLines) {
  std::stringstream dup(
      "tsvcod-assignment v1\nn 2\nmap 0 0 0\nmap 0 1 0\n");
  EXPECT_THROW(core::load_assignment(dup), std::runtime_error);
  std::stringstream range("tsvcod-assignment v1\nn 2\nmap 0 5 0\nmap 1 1 0\n");
  EXPECT_THROW(core::load_assignment(range), std::runtime_error);
  std::stringstream clash(
      "tsvcod-assignment v1\nn 2\nmap 0 1 0\nmap 1 1 0\n");
  EXPECT_THROW(core::load_assignment(clash), std::runtime_error);  // not a permutation
}

// --- Regression tests for parser hardening (found by the check harness) ----

TEST(TraceIo, RejectsSignedWords) {
  // std::stoull accepts a sign and silently wraps: "-1" used to parse as
  // 2^64-1. Words are unsigned line patterns; signed tokens are malformed.
  std::stringstream neg("-1\n");
  EXPECT_THROW(streams::parse_trace(neg), std::runtime_error);
  std::stringstream pos_sign("+5\n");
  EXPECT_THROW(streams::parse_trace(pos_sign), std::runtime_error);
  std::stringstream neg_hex("-0x10\n");
  EXPECT_THROW(streams::parse_trace(neg_hex), std::runtime_error);
}

TEST(TraceIo, RejectsOverflowingWords) {
  // One past 2^64-1; stoull throws out_of_range, reported as runtime_error.
  std::stringstream ss("18446744073709551616\n");
  EXPECT_THROW(streams::parse_trace(ss), std::runtime_error);
  std::stringstream fits("18446744073709551615\n");
  EXPECT_EQ(streams::parse_trace(fits).back(), ~std::uint64_t{0});
}

TEST(ModelIo, RejectsNonFiniteEntries) {
  // operator>> happily parses "nan"/"inf"; a non-finite capacitance poisons
  // every downstream power figure without ever failing loudly.
  std::stringstream nan_entry("tsvcod-linear-capacitance v1\nn 1\nCR nan\nDC 0\n");
  EXPECT_THROW(tsv::load_linear_model(nan_entry), std::runtime_error);
  std::stringstream inf_entry("tsvcod-linear-capacitance v1\nn 1\nCR 1e-15\nDC inf\n");
  EXPECT_THROW(tsv::load_linear_model(inf_entry), std::runtime_error);
  std::stringstream overflow("tsvcod-linear-capacitance v1\nn 1\nCR 1e999\nDC 0\n");
  EXPECT_THROW(tsv::load_linear_model(overflow), std::runtime_error);
}

TEST(ModelIo, RejectsTrailingRowData) {
  std::stringstream ss("tsvcod-linear-capacitance v1\nn 1\nCR 1e-15 7\nDC 0\n");
  EXPECT_THROW(tsv::load_linear_model(ss), std::runtime_error);
}

TEST(AssignmentIo, RejectsTruncatedMapLine) {
  // A truncated line ("map 1") used to leave the failed extractions
  // value-initialized to zero and silently parse as "bit 1 -> line 0".
  std::stringstream ss("tsvcod-assignment v1\nn 2\nmap 0 1 0\nmap 1\n");
  EXPECT_THROW(core::load_assignment(ss), std::runtime_error);
  std::stringstream bare("tsvcod-assignment v1\nn 1\nmap\n");
  EXPECT_THROW(core::load_assignment(bare), std::runtime_error);
}

TEST(AssignmentIo, RejectsTrailingMapData) {
  std::stringstream ss("tsvcod-assignment v1\nn 1\nmap 0 0 0 junk\n");
  EXPECT_THROW(core::load_assignment(ss), std::runtime_error);
  std::stringstream bad_inv("tsvcod-assignment v1\nn 1\nmap 0 0 2\n");
  EXPECT_THROW(core::load_assignment(bad_inv), std::runtime_error);
}

TEST(AssignmentIo, SaveLoadSaveIsByteIdentical) {
  std::mt19937_64 rng(21);
  const auto a = core::SignedPermutation::random(9, rng, std::vector<std::uint8_t>(9, 1));
  std::stringstream first;
  core::save_assignment(first, a);
  std::stringstream second;
  core::save_assignment(second, core::load_assignment(first));
  EXPECT_EQ(first.str(), second.str());
}

// --- Regression: line endings and the words-count directive ----------------

TEST(TraceIo, AcceptsCrlfLineEndings) {
  std::stringstream crlf("# header\r\n0x1F\r\n42\r\n");
  const auto words = streams::parse_trace(crlf);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], 0x1Fu);
  EXPECT_EQ(words[1], 42u);
}

TEST(TraceIo, AcceptsFinalLineWithoutNewline) {
  std::stringstream ss("12\n34");
  EXPECT_EQ(streams::parse_trace(ss), (std::vector<std::uint64_t>{12, 34}));
  std::stringstream crlf("12\r\n0x22");
  EXPECT_EQ(streams::parse_trace(crlf), (std::vector<std::uint64_t>{12, 0x22}));
}

TEST(TraceIo, CrlfParsesIdenticallyToLf) {
  const std::string lf = "# comment\n1\n2\n0x3\n";
  std::string crlf;
  for (const char ch : lf) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  std::stringstream a(lf), b(crlf);
  EXPECT_EQ(streams::parse_trace(a), streams::parse_trace(b));
}

TEST(TraceIo, WordsDirectiveVerifiedAtEof) {
  std::stringstream ok("words 2\n1\n2\n");
  EXPECT_EQ(streams::parse_trace(ok).size(), 2u);
  std::stringstream truncated("words 3\n1\n2\n");
  try {
    streams::parse_trace(truncated, "t.txt");
    FAIL() << "expected count mismatch";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("t.txt"), std::string::npos) << msg;
    EXPECT_NE(msg.find('3'), std::string::npos) << msg;  // declared
    EXPECT_NE(msg.find('2'), std::string::npos) << msg;  // actual
  }
  std::stringstream padded("words 1\n1\n2\n");
  EXPECT_THROW(streams::parse_trace(padded), std::runtime_error);
}

TEST(TraceIo, WordsDirectiveRejectsDuplicatesAndGarbage) {
  std::stringstream dup("words 1\nwords 1\n7\n");
  EXPECT_THROW(streams::parse_trace(dup), std::runtime_error);
  std::stringstream bare("words\n");
  EXPECT_THROW(streams::parse_trace(bare), std::runtime_error);
  std::stringstream neg("words -1\n");
  EXPECT_THROW(streams::parse_trace(neg), std::runtime_error);
  std::stringstream junk("words 2x\n1\n2\n");
  EXPECT_THROW(streams::parse_trace(junk), std::runtime_error);
}

TEST(TraceIo, SaveEmitsWordsDirective) {
  std::stringstream ss;
  streams::save_trace(ss, std::vector<std::uint64_t>{1, 2, 3});
  EXPECT_NE(ss.str().find("words 3\n"), std::string::npos);
  EXPECT_EQ(streams::parse_trace(ss), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TraceIo, RejectsControlWhitespaceInTokens) {
  // Only space, tab and CR are trimmed. Other control whitespace inside a
  // token is malformed, in a word and in the directive's count alike.
  for (const char* text : {"\v5\n", "\f0x10\n", "5\v\n", "words \v2\n1\n2\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(streams::parse_trace(ss), std::runtime_error) << '"' << text << '"';
  }
  std::stringstream trimmed(" \t5\t \r\n");
  EXPECT_EQ(streams::parse_trace(trimmed), (std::vector<std::uint64_t>{5}));
}

TEST(TraceIo, HugeWordsDirectiveIsACountMismatch) {
  // The declared count may size the output, but only as far as the file's
  // remaining bytes could hold: a hostile count is a count mismatch, never
  // an allocation failure (bad_alloc / length_error).
  std::stringstream ss("words 18446744073709551615\n1\n");
  try {
    streams::parse_trace(ss, "huge.txt");
    FAIL() << "expected count mismatch";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("huge.txt: declared word count 18446744073709551615"), std::string::npos)
        << msg;
  } catch (const std::exception& e) {
    FAIL() << "leaked a non-runtime_error exception: " << e.what();
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST(TraceIo, LoadsAPipeToEof) {
  // A pipe has no size to map, so load_trace reads it to EOF instead. The
  // ~45 KB text outgrows the first 32 KiB read buffer yet fits the pipe's
  // 64 KiB, so it is written in full before the load starts.
  std::vector<std::uint64_t> words(5000);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = (i * 2654435761u) & 0xFFFFFFu;
  std::ostringstream os;
  streams::save_trace(os, words);
  const std::string text = os.str();
  ASSERT_GT(text.size(), 32768u);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], text.data(), text.size()), static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  EXPECT_EQ(streams::load_trace("/dev/fd/" + std::to_string(fds[0])), words);
  ::close(fds[0]);
}
#endif

TEST(AssignmentIo, GridRendering) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  core::SignedPermutation a({3, 2, 1, 0}, {1, 0, 0, 0});
  const std::string grid = core::format_assignment_grid(geom, a);
  // Line 0 carries bit 3, line 3 carries bit 0 inverted.
  EXPECT_NE(grid.find(" 3"), std::string::npos);
  EXPECT_NE(grid.find("~ 0"), std::string::npos);
  const auto wrong = phys::TsvArrayGeometry::itrs2018_min(3, 3);
  EXPECT_THROW(core::format_assignment_grid(wrong, a), std::invalid_argument);
}

}  // namespace

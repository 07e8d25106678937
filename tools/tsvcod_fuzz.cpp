// Standalone fuzz driver for the trace/model/assignment parsers — the text
// formats and the .tsvb binary trace format.
//
// Runs the io_roundtrip / binary_roundtrip oracles' generators and mutation
// engines directly against the parsers for a configurable number of
// iterations, printing a replay seed on the first failure. Unlike the ctest-run oracle suite this
// driver is meant for long unattended runs:
//
//   tsvcod_fuzz [--iters N] [--seed S] [--oracle NAME | all]
//
// Exit status: 0 = all properties held, 1 = a counterexample was found
// (details incl. TSVCOD_CHECK_SEED replay line on stderr), 2 = bad usage.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/oracles.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: tsvcod_fuzz [--iters N] [--seed S] [--oracle NAME]\n"
        "  --iters N    iterations per oracle (default 500; TSVCOD_CHECK_ITERS overrides)\n"
        "  --seed S     base seed (decimal or 0x-hex; default harness seed)\n"
        "  --oracle X   one of codec|evaluator|stats|field|io|binary|noc|circuit|all (default io)\n"
        "The io and binary oracles are the parser fuzzers proper (text formats\n"
        "and the .tsvb binary trace format); the others are the same\n"
        "differential properties the `check` ctest label runs, for deep soaks.\n";
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("not an integer: " + s);
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using tsvcod::check::Report;
  using tsvcod::check::RunOptions;

  RunOptions opt;
  opt.iterations = 500;
  std::string oracle = "io";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--iters") {
        opt.iterations = static_cast<std::size_t>(parse_u64(value()));
      } else if (arg == "--seed") {
        opt.seed = parse_u64(value());
      } else if (arg == "--oracle") {
        oracle = value();
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        throw std::runtime_error("unknown option: " + arg);
      }
    }
    opt.iterations = tsvcod::check::effective_iterations(opt.iterations);
  } catch (const std::exception& e) {
    std::cerr << "tsvcod_fuzz: " << e.what() << "\n\n";
    usage(std::cerr);
    return 2;
  }

  std::vector<Report> reports;
  try {
    if (oracle == "all") {
      reports = tsvcod::check::run_all_oracles(opt);
    } else if (oracle == "codec") {
      reports.push_back(tsvcod::check::oracle_codec_roundtrip(opt));
    } else if (oracle == "evaluator") {
      reports.push_back(tsvcod::check::oracle_evaluator_drift(opt));
    } else if (oracle == "stats") {
      reports.push_back(tsvcod::check::oracle_stats_reference(opt));
    } else if (oracle == "field") {
      reports.push_back(tsvcod::check::oracle_field_consistency(opt));
    } else if (oracle == "io") {
      reports.push_back(tsvcod::check::oracle_io_roundtrip(opt));
    } else if (oracle == "binary") {
      reports.push_back(tsvcod::check::oracle_binary_roundtrip(opt));
    } else if (oracle == "noc") {
      reports.push_back(tsvcod::check::oracle_noc_coded(opt));
    } else if (oracle == "circuit") {
      reports.push_back(tsvcod::check::oracle_circuit(opt));
    } else {
      std::cerr << "tsvcod_fuzz: unknown oracle '" << oracle << "'\n\n";
      usage(std::cerr);
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "tsvcod_fuzz: " << e.what() << '\n';
    return 2;
  }

  bool ok = true;
  for (const Report& r : reports) {
    if (r.ok) {
      std::cout << r.name << ": OK (" << r.iterations_run << " iterations)\n";
    } else {
      ok = false;
      std::cerr << r.message << '\n';
    }
  }
  return ok ? 0 : 1;
}

#pragma once
// Command-line front end shared by tsvcod_cli and tsvcod_serve: `--key value`
// flags (plus the valueless --verbose and --help / -h), strict numeric
// parsing, and the flags both tools read the same way (threads, the TSV
// array or a stored model, the observability sinks).
//
// Every numeric accessor parses the whole token and names the flag in its
// error, so a typo such as "--no-invert 1x" fails instead of running as a
// truncated value.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "opt/parallel.hpp"
#include "phys/tsv_geometry.hpp"
#include "tsv/linear_model.hpp"
#include "tsv/model_io.hpp"

namespace tsvcod::tools {

/// A bare non-negative decimal integer (no sign, no blanks, no trailing
/// junk); `what` names the value in the error, e.g. "--threads".
inline std::size_t parse_size(const std::string& what, const std::string& v) {
  bool ok = !v.empty() && std::isdigit(static_cast<unsigned char>(v[0]));
  std::uint64_t out = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      out = std::stoull(v, &used, 10);
      ok = used == v.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok) throw std::runtime_error(what + " expects a non-negative integer, got: '" + v + "'");
  return out;
}

/// A finite decimal number spanning the whole token.
inline double parse_number(const std::string& what, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
      end != v.c_str() + v.size() || !std::isfinite(out)) {
    throw std::runtime_error(what + " expects a finite number, got: '" + v + "'");
  }
  return out;
}

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key == "--help" || key == "-h") {
        help_ = true;
        continue;
      }
      if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --flag, got: " + key);
      key = key.substr(2);
      if (key == "verbose") {  // boolean flag, takes no value
        values_[key] = "1";
        continue;
      }
      if (i + 1 >= argc) throw std::runtime_error("missing value for --" + key);
      values_[key] = argv[++i];
    }
  }

  bool help() const { return help_; }
  bool has(const std::string& k) const { return values_.count(k) > 0; }

  std::string str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) throw std::runtime_error("missing required --" + k);
    return it->second;
  }
  std::optional<std::string> maybe(const std::string& k) const {
    return has(k) ? std::optional<std::string>(values_.at(k)) : std::nullopt;
  }
  std::string str_or(const std::string& k, const std::string& def) const {
    return maybe(k).value_or(def);
  }
  double number(const std::string& k) const { return parse_number("--" + k, str(k)); }
  double number_or(const std::string& k, double def) const {
    return has(k) ? number(k) : def;
  }
  std::size_t size(const std::string& k) const { return parse_size("--" + k, str(k)); }
  std::size_t size_or(const std::string& k, std::size_t def) const {
    return has(k) ? size(k) : def;
  }

  /// Comma-separated list of bit indices; every entry must parse.
  std::vector<std::size_t> index_list_or(const std::string& k) const {
    std::vector<std::size_t> out;
    if (!has(k)) return out;
    const std::string& list = values_.at(k);
    for (std::size_t begin = 0;;) {
      const std::size_t comma = list.find(',', begin);
      out.push_back(parse_size("--" + k + " entry", list.substr(begin, comma - begin)));
      if (comma == std::string::npos) return out;
      begin = comma + 1;
    }
  }

  /// --trace-out / --metrics-out / --profile-out / --snapshot-out /
  /// --snapshot-interval, for obs::SinkGuard.
  obs::SinkFlags sink_flags() const {
    return {maybe("trace-out"), maybe("metrics-out"), maybe("profile-out"),
            maybe("snapshot-out"), maybe("snapshot-interval")};
  }

 private:
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

/// Resolve --threads. Explicit N > 0 is used as-is; an explicit 0 means all
/// hardware threads (the same meaning TSVCOD_THREADS=0 has); an absent flag
/// defers to the TSVCOD_THREADS convention (env value, else serial).
inline int threads_from(const Args& args) {
  if (!args.has("threads")) return 0;
  const std::size_t n = args.size("threads");
  if (n == 0) return opt::hardware_threads();
  if (n > 65536) throw std::runtime_error("--threads value is absurdly large: " + std::to_string(n));
  return static_cast<int>(n);
}

inline phys::TsvArrayGeometry geometry_from(const Args& args) {
  phys::TsvArrayGeometry g;
  g.rows = args.size("rows");
  g.cols = args.size("cols");
  g.radius = args.number_or("radius-um", 1.0) * 1e-6;
  g.pitch = args.number_or("pitch-um", 4.0) * 1e-6;
  g.length = args.number_or("length-um", 50.0) * 1e-6;
  g.validate();
  return g;
}

/// --model FILE, else the analytic fit of the array the flags describe.
inline tsv::LinearCapacitanceModel model_from(const Args& args) {
  if (args.has("model")) return tsv::load_linear_model(args.str("model"));
  return tsv::fit_from_analytic(geometry_from(args));
}

}  // namespace tsvcod::tools

// rascad_perfbench: one workload per process.
//
//   rascad_perfbench --workload corpus_cold|deep_sweep|serve_mix
//                    --seed N --seconds S --trace 0|1
//   rascad_perfbench --write-digest      (prints the default-seed digest)
//
// Run from the repository root. Human-readable notes go to stdout first;
// the last line is one JSON object with `correct`, `attempted`, `failed`
// and `metrics` (end-to-end metrics untraced, per-layer metrics traced).
// Exits 1 when any correctness check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

void usage() {
  std::cerr << "usage: rascad_perfbench --workload corpus_cold|deep_sweep|"
               "serve_mix --seed N --seconds S --trace 0|1\n"
               "       rascad_perfbench --write-digest\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-digest") {
      args.write_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.write_digest ||
         ((args.workload == "corpus_cold" || args.workload == "deep_sweep" ||
           args.workload == "serve_mix") &&
          args.seconds > 0.0);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Prints the notes and the result line; returns whether the run is correct
/// (every check passed and every metric is a finite number).
bool print(const Outcome& out) {
  bool correct = out.correct;
  for (const auto& m : out.metrics) correct = correct && std::isfinite(m.value);
  for (const auto& n : out.notes) std::cout << n << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    std::cout << (i ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << value
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    if (args.write_digest) {
      // The first round of each digest-carrying workload at the digest seed.
      perfbench::Digest written;
      args.seed = perfbench::kDigestSeed;
      args.seconds = 1e-9;
      const perfbench::Digest none;
      perfbench::run_corpus_cold(args, none, &written);
      perfbench::run_deep_sweep(args, none, &written);
      std::cout << "# key value: measures of the first round at seed "
                << perfbench::kDigestSeed << " (rascad_perfbench "
                   "--write-digest)\n";
      for (const auto& [key, value] : written) {
        char line[96];
        std::snprintf(line, sizeof(line), "%s %.17g\n", key.c_str(), value);
        std::cout << line;
      }
      return 0;
    }
    const perfbench::Digest digest =
        perfbench::read_digest(perfbench::kDigestPath);
    Outcome out;
    if (args.workload == "corpus_cold") {
      out = perfbench::run_corpus_cold(args, digest, nullptr);
    } else if (args.workload == "deep_sweep") {
      out = perfbench::run_deep_sweep(args, digest, nullptr);
    } else {
      out = perfbench::run_serve_mix(args);
    }
    return print(out) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rascad_perfbench: " << e.what() << '\n';
    return 1;
  }
}

// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench setup --workload analyze|serve --dir D [--seed N] [--scale S]
//       builds the corpus the workload reads into D and prints
//       {"setup_s": <seconds>}.
//   perfbench run --workload build|analyze|serve|replicate --dir D
//       [--seed N] [--scale S] [--seconds T] [--trace 0|1] [--threads N]
//       measures the workload for T seconds inside D and prints one JSON
//       object: correct, attempted, failed, metrics {name: {value, unit}}
//       and info (what ran, with which build).
//
// run.py in this directory builds the program and drives both commands;
// README.md describes the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "util/parallel.h"

namespace {

using perfbench::Options;

int usage() {
  std::cerr << "usage: perfbench setup|run --workload W --dir D [--seed N] [--scale S]"
               " [--seconds T] [--trace 0|1] [--threads N]\n";
  return 2;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out(1, '"');
  out += storsubsim::obs::json_escape(text);
  out += '"';
  return out;
}

void print_result(const Options& opt, perfbench::Result& result) {
  result.info.emplace_back("workload", opt.workload);
  result.info.emplace_back("seed", std::to_string(opt.seed));
  result.info.emplace_back("scale", number(opt.scale));
  result.info.emplace_back("threads", std::to_string(storsubsim::util::thread_count()));
  result.info.emplace_back("git_describe", std::string(storsubsim::obs::git_describe()));
  result.info.emplace_back("simd", PERFBENCH_SIMD ? "on" : "off");
  result.info.emplace_back("obs_per_event", PERFBENCH_OBS_PER_EVENT ? "on" : "off");
  result.info.emplace_back("build_type", PERFBENCH_BUILD_TYPE);

  std::string out = "{\"correct\": ";
  out += result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(name) + ": {\"value\": " + number(value.first) +
           ", \"unit\": " + json_string(value.second) + "}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(result.info[i].first) + ": " + json_string(result.info[i].second);
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  Options opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--dir") {
        opt.dir = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--scale") {
        opt.scale = std::stod(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--threads") {
        opt.threads = static_cast<unsigned>(std::stoul(value));
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << flag << ": " << value << "\n";
      return 2;
    }
  }
  if (opt.dir.empty() || opt.threads == 0 || opt.seconds <= 0.0) return usage();
  if (opt.scale <= 0.0) opt.scale = perfbench::default_scale(opt.workload);
  storsubsim::util::set_thread_count(opt.threads);

  try {
    // Everything a run writes (corpus, socket, trace) stays in its directory.
    std::filesystem::current_path(opt.dir);
    opt.dir = ".";
    if (command == "setup") {
      double seconds = 0.0;
      if (opt.workload == "analyze") {
        seconds = perfbench::build_store_corpus(opt);
      } else if (opt.workload == "serve") {
        seconds = perfbench::build_shards_corpus(opt);
      } else {
        return usage();
      }
      std::cout << "{\"setup_s\": " << number(seconds) << "}" << std::endl;
      return 0;
    }
    if (command != "run") return usage();
    perfbench::Result result;
    if (opt.workload == "build") {
      result = perfbench::run_build(opt);
    } else if (opt.workload == "analyze") {
      result = perfbench::run_analyze(opt);
    } else if (opt.workload == "serve") {
      result = perfbench::run_serve(opt);
    } else if (opt.workload == "replicate") {
      result = perfbench::run_replicate(opt);
    } else {
      return usage();
    }
    print_result(opt, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

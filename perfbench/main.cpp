// Repository benchmark program.
//
//   nct_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--pins <dir>] [--trace-out <file>] [--write-pins]
//
// Runs one workload for about --seconds, checks its outputs, and prints
// two JSON lines on stdout: the host descriptor, then the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// from a traced run (--trace 1).  perfbench/README.md documents every
// workload and metric; perfbench/run.py builds this program and runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nct_perfbench: %s\nusage: nct_perfbench --workload "
               "<cube20_spt|cube20_mpt|sweep_small|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--pins <dir>] [--trace-out <file>] [--write-pins]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
      have_seconds = o.seconds > 0.0;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--pins") {
      o.pins_dir = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--write-pins") {
      o.write_pins = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  o.nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"asserts\": %s}}\n",
      o.nproc, json_escape(cpu_model()).c_str(), NCT_PB_COMPILER, NCT_PB_BUILD_TYPE,
      kAsserts ? "true" : "false");
  std::fflush(stdout);

  pb::Outcome out;
  try {
    if (o.workload == "cube20_spt") {
      out = pb::run_cube20(o, /*mpt=*/false);
    } else if (o.workload == "cube20_mpt") {
      out = pb::run_cube20(o, /*mpt=*/true);
    } else if (o.workload == "sweep_small") {
      out = pb::run_sweep_small(o);
    } else if (o.workload == "serve_mixed") {
      out = pb::run_serve_mixed(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nct_perfbench: %s aborted: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& e : out.errors)
    std::fprintf(stderr, "nct_perfbench: check failed: %s\n", e.c_str());
  const pb::Metrics& metrics = o.trace ? out.layer : out.e2e;
  std::string body;
  char buf[160];
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "nct_perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    body += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), body.c_str());
  return 0;
}

// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Workloads: train_fraud, train_tcp, serve_iot, serve_refresh (README.md
// says why each exists). Output: one report line
// (provenance plus the workload's own named numbers, each with its sample
// count), then as the last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes its spans as Chrome trace-event
// JSON under --out-dir. Exits 1 when any output differed bitwise from its
// reference, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "common.h"
#include "trace.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--out-dir <dir>]"
               " [--commit <id>]\n",
               msg);
  return 2;
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

std::string entries_json(const std::vector<Entry>& entries, bool samples) {
  std::string s = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    s += (i == 0 ? "" : ", ") + json_string(e.name) +
         ": {\"value\": " + json_number(e.value) +
         ", \"unit\": " + json_string(e.unit);
    if (samples) s += ", \"samples\": " + std::to_string(e.samples);
    s += "}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 600.0;
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = opt.trace || std::strcmp(v, "0") == 0;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());

  const auto origin = Clock::now();
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(origin);
  Output out;
  if (opt.workload == "train_fraud") {
    run_train_fraud(opt, tracer.get(), &out);
  } else if (opt.workload == "train_tcp") {
    run_train_tcp(opt, tracer.get(), &out);
  } else if (opt.workload == "serve_iot") {
    run_serve_iot(opt, tracer.get(), &out);
  } else if (opt.workload == "serve_refresh") {
    run_serve_refresh(opt, tracer.get(), &out);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  const double rss_mb = out.peak_rss_mb > 0.0 ? out.peak_rss_mb : peak_rss_mb();

  std::vector<Entry> metrics;
  if (tracer != nullptr) {
    out.layer("trace.spans", static_cast<double>(tracer->spans()), "count");
    metrics = out.layers;
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer->write_chrome_json(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  } else {
    metrics = {
        {"setup_s", out.setup_s, "s", out.setup_samples},
        {"p50_ms", out.p50_ms, "ms", out.op_samples},
        {"cpu_ms_per_op", out.cpu_ms_per_op, "ms", out.op_samples},
        {"peak_rss_mb", rss_mb, "MB", 1},
    };
  }
  out.note("setup_s", out.setup_s, "s", out.setup_samples);
  out.note("peak_rss_mb", rss_mb, "MB", 1);

  const std::string provenance =
      "{\"host\": " + json_string(host_name()) +
      ", \"nproc\": " + std::to_string(nproc()) + ", \"simd\": " +
      json_string(booster::util::simd::level_name(
          booster::util::simd::active())) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + json_string(commit) +
      ", \"workload\": " + json_string(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + json_number(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
  std::printf("{\"provenance\": %s, \"report\": %s, \"metrics\": %s}\n",
              provenance.c_str(), entries_json(out.report, true).c_str(),
              entries_json(metrics, true).c_str());

  const bool correct = !out.mismatch && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
              " \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              entries_json(metrics, false).c_str());
  std::fflush(stdout);
  if (out.mismatch) {
    std::fprintf(stderr, "perfbench: an output differed bitwise from its"
                         " reference\n");
    return 1;
  }
  return 0;
}

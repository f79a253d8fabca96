// Shared plumbing of the benchmark: run options, the per-run output record
// (end-to-end metrics, per-layer metrics, report entries, correctness
// tallies), percentile helpers, and process resource probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gbdt/trainer.h"
#include "workloads/spec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double seconds_between(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for per-run artifacts (model containers, trace files).
  std::string out_dir = ".bench_out";
};

/// Mixes the run seed with a per-purpose stream id, so every input a
/// workload draws (dataset, schedule, chunk stream) gets its own seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `rows` rows sampled without replacement, by `seed`, from a pool of
/// 1.5 x `rows` rows synthesized from `spec` with a fixed seed. The pool's
/// ground truth decides the trees' shapes and with them the training cost,
/// which differed by a third between ground truths; a fixed truth keeps
/// the cost comparable across seeds while every input row set still comes
/// from the seed.
booster::gbdt::Dataset sample_rows(const booster::workloads::DatasetSpec& spec,
                                   std::uint64_t rows, std::uint64_t seed);

/// Hardware threads available to the process (at least 1).
unsigned nproc();

/// Restricts a thread to one CPU (cpu modulo nproc) / to every CPU again.
/// The workloads rotate their single-threaded parts over all CPUs so each
/// run samples every core equally: on a shared VM host vCPUs differ in
/// speed, and a thread left where the scheduler put it makes whole runs
/// fast or slow.
void pin_thread(std::thread& t, unsigned cpu);
void pin_this_thread(unsigned cpu);
void unpin_thread(std::thread& t);
void unpin_this_thread();

/// Mean over groups of each non-empty group's median -- the aggregate of a
/// measurement rotated over CPUs (one group per placement).
double mean_of_medians(const std::vector<std::vector<double>>& groups);

/// Runs `setup` `reps` times, rotating this thread over the CPUs, and
/// returns the mean over CPUs of each CPU's median seconds. `teardown`
/// runs untimed before each rep, on the same CPU. Threads that `setup`
/// starts inherit the pin; callers unpin the ones they keep.
template <typename Teardown, typename Setup>
double timed_setup(int reps, Teardown&& teardown, Setup&& setup) {
  std::vector<std::vector<double>> by_cpu(nproc());
  for (int i = 0; i < reps; ++i) {
    const unsigned cpu = static_cast<unsigned>(i) % nproc();
    pin_this_thread(cpu);
    teardown();
    const auto t0 = Clock::now();
    setup();
    by_cpu[cpu].push_back(seconds_since(t0));
  }
  unpin_this_thread();
  return mean_of_medians(by_cpu);
}
template <typename Setup>
double timed_setup(int reps, Setup&& setup) {
  return timed_setup(reps, [] {}, setup);
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
/// A percentile is only reported when this is at least kMinTail.
std::uint64_t samples_beyond(std::uint64_t n, double q);
inline constexpr std::uint64_t kMinTail = 10;

double peak_rss_mb();
/// Returns freed heap to the kernel and resets its peak-RSS mark (VmHWM),
/// so peak_rss_since_reset_mb() reports the peak of what runs after this
/// call.
void reset_peak_rss();
double peak_rss_since_reset_mb();
/// User + system CPU seconds of the whole process.
double process_cpu_s();
/// CPU seconds consumed so far by one (running) thread.
double thread_cpu_s(std::thread& t);

/// One reported number. `samples` is the number of measurements behind it
/// (0 for counters).
struct Entry {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Everything one workload run produces.
struct Output {
  // End-to-end metrics, measured with tracing off (the traced run measures
  // them too, for the overhead comparison).
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  /// Peak RSS the workload reports; 0 means "at the end of the run".
  double peak_rss_mb = 0.0;
  std::uint64_t setup_samples = 0;
  std::uint64_t op_samples = 0;

  /// Per-layer metrics (traced runs only).
  std::vector<Entry> layers;
  /// The workload's own named numbers (latency ladders, transport
  /// counters, staleness, ...), printed on the report line.
  std::vector<Entry> report;

  /// Correctness tallies: one attempt per checked output.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// A served or trained output differed bitwise from its reference.
  bool mismatch = false;

  void check(bool ok) { tally(1, ok ? 0 : 1); }
  void tally(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  void layer(std::string name, double value, std::string unit,
             std::uint64_t samples = 0) {
    layers.push_back({std::move(name), value, std::move(unit), samples});
  }
  void note(std::string name, double value, std::string unit,
            std::uint64_t samples = 0) {
    report.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// True iff two trained results are bit-identical: every node of every
/// tree (structure, thresholds, weights, gains), every per-tree loss, and
/// the predictions of every `stride`-th record of `data`.
bool results_identical(const booster::gbdt::TrainResult& a,
                       const booster::gbdt::TrainResult& b,
                       const booster::gbdt::BinnedDataset& data,
                       std::uint64_t stride = 97);

/// JSON string literal with escaping.
std::string json_string(const std::string& s);
/// Number with all significant digits (%.17g); non-finite values as null.
std::string json_number(double v);

}  // namespace perfbench

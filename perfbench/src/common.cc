#include "common.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "workloads/synth.h"

namespace perfbench {

namespace gbdt = booster::gbdt;

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

gbdt::Dataset sample_rows(const booster::workloads::DatasetSpec& spec,
                          std::uint64_t rows, std::uint64_t seed) {
  constexpr std::uint64_t kPoolSeed = 20220530;
  const gbdt::Dataset pool =
      booster::workloads::synthesize(spec, rows + rows / 2, kPoolSeed);
  std::vector<std::uint64_t> pick(pool.num_records());
  for (std::uint64_t r = 0; r < pick.size(); ++r) pick[r] = r;
  std::mt19937_64 rng(seed);
  for (std::uint64_t r = 0; r < rows; ++r) {  // partial Fisher-Yates
    std::uniform_int_distribution<std::uint64_t> d(r, pick.size() - 1);
    std::swap(pick[r], pick[d(rng)]);
  }
  gbdt::Dataset out = booster::workloads::synthesize(spec, 1, kPoolSeed);
  out.resize(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    const std::uint64_t i = pick[r];
    for (std::uint32_t f = 0; f < out.num_fields(); ++f) {
      if (out.field(f).kind == gbdt::FieldKind::kNumeric) {
        out.set_numeric(f, r, pool.numeric_value(f, i));
      } else {
        out.set_categorical(f, r, pool.categorical_value(f, i));
      }
    }
    out.set_label(r, pool.label(i));
  }
  return out;
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean_of_medians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  int n = 0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    sum += median(g);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

namespace {

bool models_identical(const gbdt::Model& a, const gbdt::Model& b) {
  if (a.num_trees() != b.num_trees()) return false;
  for (std::uint32_t t = 0; t < a.num_trees(); ++t) {
    const gbdt::Tree& x = a.trees()[t];
    const gbdt::Tree& y = b.trees()[t];
    if (x.num_nodes() != y.num_nodes()) return false;
    for (std::uint32_t id = 0; id < x.num_nodes(); ++id) {
      const auto& p = x.node(static_cast<std::int32_t>(id));
      const auto& q = y.node(static_cast<std::int32_t>(id));
      if (p.is_leaf != q.is_leaf || p.field != q.field || p.kind != q.kind ||
          p.threshold_bin != q.threshold_bin ||
          p.default_left != q.default_left || p.left != q.left ||
          p.right != q.right || p.depth != q.depth || p.weight != q.weight ||
          p.gain != q.gain) {
        return false;
      }
    }
  }
  return true;
}

void set_affinity(pthread_t t, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned n = nproc();
  for (unsigned c = 0; c < n; ++c) {
    if (cpu < 0 || static_cast<unsigned>(cpu) % n == c) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(t, sizeof(set), &set);  // best effort
}

}  // namespace

void pin_thread(std::thread& t, unsigned cpu) {
  set_affinity(t.native_handle(), static_cast<int>(cpu % nproc()));
}
void pin_this_thread(unsigned cpu) {
  set_affinity(pthread_self(), static_cast<int>(cpu % nproc()));
}
void unpin_thread(std::thread& t) { set_affinity(t.native_handle(), -1); }
void unpin_this_thread() { set_affinity(pthread_self(), -1); }

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::uint64_t r = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
  return r >= n ? 0 : n - r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back, so the mark restarts from live data
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double peak_rss_since_reset_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return peak_rss_mb();
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb > 0.0 ? kb / 1024.0 : peak_rss_mb();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s(std::thread& t) {
  clockid_t cid{};
  if (pthread_getcpuclockid(t.native_handle(), &cid) != 0) return 0.0;
  timespec ts{};
  if (clock_gettime(cid, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool results_identical(const gbdt::TrainResult& a, const gbdt::TrainResult& b,
                       const gbdt::BinnedDataset& data, std::uint64_t stride) {
  if (!models_identical(a.model, b.model)) return false;
  if (a.tree_stats.size() != b.tree_stats.size()) return false;
  for (std::size_t t = 0; t < a.tree_stats.size(); ++t) {
    if (a.tree_stats[t].train_loss != b.tree_stats[t].train_loss) return false;
  }
  for (std::uint64_t r = 0; r < data.num_records(); r += stride) {
    if (a.model.predict_raw(data, r) != b.model.predict_raw(data, r)) {
      return false;
    }
  }
  return true;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

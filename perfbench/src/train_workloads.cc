// Training workloads: train_fraud (in-process Trainer) and train_tcp (two-rank DistributedTrainer over real localhost TCP).
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/tcp_transport.h"
#include "loadgen.h"
#include "replay.h"
#include "serve/client.h"
#include "timing_transport.h"
#include "util/check.h"
#include "workloads.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace perfbench {

namespace gbdt = booster::gbdt;
namespace ipc = booster::ipc;
namespace wl = booster::workloads;

namespace {

// train_fraud: 500k rows x 10 fields of uint16 bins is a 10 MB column
// matrix (plus a 10 MB row-major copy) -- larger than an 8 MiB per-core
// L2 -- while a node histogram (~4k bins) stays cache-resident: the
// paper's regime, where histogram accumulation dominates training time.
constexpr std::uint64_t kFraudRows = 500000;
constexpr std::uint32_t kFraudTrees = 8;
constexpr int kFraudSetupReps = 12;  // three per CPU on a 4-CPU host
// Share of the run spent on the gated 1-thread trainings; the rest times
// report-only trainings at nproc threads. A training at nproc threads
// waits at every fork-join for its slowest CPU, so on a shared VM host it
// pays for the time the host takes away from any of them: its median
// spread by a third between runs of the same code, several times more
// than a 1-thread training's.
constexpr double kFraudOneThreadShare = 0.75;

// train_tcp: the shape the distributed bench has tracked since it landed.
constexpr std::uint64_t kTcpRows = 40000;
constexpr std::uint32_t kTcpTrees = 10;
constexpr std::uint32_t kTcpShards = 8;
constexpr int kTcpBinReps = 8;

constexpr std::uint64_t kChunkRows = 1000;

/// Keeps running `op` (which returns its wall seconds) until the next one
/// would overrun `seconds`; always runs at least twice.
template <typename Op>
void measure_loop(double seconds, Op&& op) {
  const auto start = Clock::now();
  double last = 0.0;
  for (int i = 0; i < 2 || seconds_since(start) + last <= seconds; ++i) {
    last = op(i);
  }
}

std::string train_request(const gbdt::Dataset& raw) {
  return predict_request(booster::serve::csv_rows(raw, 0, 8));
}

}  // namespace

void add_trace_overhead(const std::vector<double>& untraced,
                        const std::vector<double>& traced, Output* out) {
  const double base = median(untraced);
  out->layer("trace.overhead_pct",
             base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0, "%",
             traced.size());
}

void run_train_fraud(const Options& opt, Tracer* tracer, Output* out) {
  const wl::DatasetSpec spec = wl::fraud_spec();
  const gbdt::Dataset raw =
      sample_rows(spec, kFraudRows, derive_seed(opt.seed, 1));

  // Set-up: binning (and the row-major view the histogram kernel streams).
  gbdt::BinnedDataset data;
  out->setup_s = timed_setup(kFraudSetupReps, [&] {
    data = gbdt::Binner().bin(raw);
    data.ensure_row_major();
  });
  out->setup_samples = kFraudSetupReps;

  gbdt::TrainerConfig cfg;
  cfg.num_trees = kFraudTrees;
  cfg.max_depth = 6;
  cfg.loss = spec.loss;
  cfg.num_threads = nproc();

  // Reference at 1 thread: bit-identity across thread counts is the
  // invariant every training is checked against.
  gbdt::TrainerConfig ref_cfg = cfg;
  ref_cfg.num_threads = 1;
  auto t0 = Clock::now();
  const gbdt::TrainResult reference = gbdt::Trainer(ref_cfg).train(data);
  const double reference_s = seconds_since(t0);

  std::optional<gbdt::HotPathStats> hot;
  double train_cpu = 0.0;
  const auto train_once = [&](const gbdt::TrainerConfig& c, bool trace_this) {
    const double c0 = process_cpu_s();
    const auto start = Clock::now();
    gbdt::TrainResult result = [&] {
      ScopedSpan span(trace_this ? tracer : nullptr, "gbdt.train");
      return gbdt::Trainer(c).train(data);
    }();
    const double dt = seconds_since(start);
    train_cpu += process_cpu_s() - c0;
    const bool same = results_identical(result, reference, data);
    out->check(same);
    if (!same) out->mismatch = true;
    if (c.num_threads != 1) hot = result.hot_path;
    return dt;
  };

  // The gated 1-thread leg: trainings rotate over the CPUs (traced runs
  // trace every other full rotation), and the figure is the mean over CPUs
  // of each CPU's median.
  std::vector<std::vector<double>> untraced_by_cpu(nproc());
  std::vector<double> untraced;
  std::vector<double> traced;
  measure_loop(kFraudOneThreadShare * opt.seconds, [&](int i) {
    const unsigned cpu = static_cast<unsigned>(i) % nproc();
    const bool trace_this =
        tracer != nullptr && (static_cast<unsigned>(i) / nproc()) % 2 == 1;
    pin_this_thread(cpu);
    const double dt = train_once(ref_cfg, trace_this);
    if (trace_this) {
      traced.push_back(dt);
    } else {
      untraced.push_back(dt);
      untraced_by_cpu[cpu].push_back(dt);
    }
    return dt;
  });
  unpin_this_thread();
  const double one_thread_s = mean_of_medians(untraced_by_cpu);
  out->p50_ms = 1e3 * one_thread_s;
  out->op_samples = untraced.size();
  out->cpu_ms_per_op =
      1e3 * train_cpu / static_cast<double>(untraced.size() + traced.size());

  // The nproc-thread leg (report only), after one warm-up training.
  std::vector<double> nproc_s;
  measure_loop((1.0 - kFraudOneThreadShare) * opt.seconds, [&](int i) {
    const double dt = train_once(cfg, false);
    if (i > 0) nproc_s.push_back(dt);
    return dt;
  });

  out->note("train_s", median(nproc_s), "s", nproc_s.size());
  out->note("train_1t_s", one_thread_s, "s", untraced.size());
  out->note("gbdt.reference_train_s", reference_s, "s", 1);
  out->note("gbdt.histogram_acquires",
            static_cast<double>(hot->histogram_acquires), "count");
  out->note("gbdt.histogram_allocations",
            static_cast<double>(hot->histogram_allocations), "count");
  out->note("gbdt.chunk_merges", static_cast<double>(hot->chunk_merges),
            "count");
  out->note("gbdt.arena_bytes", static_cast<double>(hot->arena_bytes), "bytes");
  out->note("gbdt.row_major_bytes",
            static_cast<double>(hot->row_major_matrix_bytes), "bytes");

  if (tracer != nullptr) {
    add_trace_overhead(untraced, traced, out);
    const gbdt::Dataset chunk =
        wl::synthesize(spec, kChunkRows, derive_seed(opt.seed, 2));
    ReplayInput in;
    in.data = &data;
    in.chunk = &chunk;
    in.model = &reference.model;
    in.request = train_request(raw);
    in.batch_rows = 8;
    in.bin_s = out->setup_s;
    in.reference = &reference;
    in.reference_train_s = reference_s;
    run_replays(in, tracer, out);
  }
}

namespace {

/// One assembled two-rank localhost TCP world.
struct TcpWorld {
  std::unique_ptr<ipc::TcpTransport> rank0;
  std::unique_ptr<ipc::TcpTransport> rank1;
};

bool assemble(TcpWorld* w) {
  w->rank0 = ipc::TcpTransport::listen("127.0.0.1", 0, 2);
  if (w->rank0 == nullptr) return false;
  const std::uint16_t port = w->rank0->port();
  std::thread worker([&] {
    w->rank1 = ipc::TcpTransport::connect("127.0.0.1", port, 2, 1);
  });
  const bool ok = w->rank0->wait_for_world(2, std::chrono::seconds(10));
  worker.join();
  return ok && w->rank1 != nullptr;
}

}  // namespace

void run_train_tcp(const Options& opt, Tracer* tracer, Output* out) {
  const wl::DatasetSpec spec = wl::fraud_spec();
  const gbdt::Dataset raw =
      sample_rows(spec, kTcpRows, derive_seed(opt.seed, 3));

  // Set-up: binning plus TCP world assembly (one assembly per training;
  // its median joins the binning median).
  gbdt::BinnedDataset data;
  const double bin_s = timed_setup(kTcpBinReps, [&] {
    data = gbdt::Binner().bin(raw);
    data.ensure_row_major();
  });

  gbdt::DistributedConfig dcfg;
  dcfg.trainer.num_trees = kTcpTrees;
  dcfg.trainer.max_depth = 6;
  dcfg.trainer.loss = spec.loss;
  dcfg.trainer.num_shards = kTcpShards;
  // One thread per rank, and both ranks share one CPU (rotated over the
  // CPUs, one training each): a rank that waits for a frame hands the CPU
  // to the other, so a training is the ranks' CPU work plus context
  // switches. Ranks on separate CPUs wait for an idle CPU to wake at every
  // exchange, and on a shared VM host that wake-up swings with the
  // neighbours' load: the median spread by a third between runs.
  dcfg.trainer.num_threads = 1;

  auto t0 = Clock::now();
  const gbdt::TrainResult reference = gbdt::Trainer(dcfg.trainer).train(data);
  const double reference_s = seconds_since(t0);

  std::vector<double> assembly;
  std::vector<std::vector<double>> untraced_by_cpu(nproc());
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> send_us[2];
  std::vector<double> recv_wait_us[2];
  gbdt::DistributedStats last_stats[2];
  double train_cpu = 0.0;
  // How much the transport buffers depends on how the ranks were
  // scheduled, so one training's peak is noisy; the median over trainings
  // is not.
  std::vector<double> peak_rss;
  measure_loop(opt.seconds, [&](int i) {
    TcpWorld world;
    const auto a0 = Clock::now();
    BOOSTER_CHECK_MSG(assemble(&world), "train_tcp: TCP world failed to assemble");
    assembly.push_back(seconds_since(a0));

    const unsigned cpu = static_cast<unsigned>(i) % nproc();
    const bool trace_this =
        tracer != nullptr && (static_cast<unsigned>(i) / nproc()) % 2 == 1;
    Tracer* tr = trace_this ? tracer : nullptr;
    reset_peak_rss();
    TimingTransport timed0(world.rank0.get(), tr);
    TimingTransport timed1(world.rank1.get(), tr);
    ipc::Transport* endpoints[2] = {world.rank0.get(), world.rank1.get()};
    if (trace_this) {
      endpoints[0] = &timed0;
      endpoints[1] = &timed1;
    }
    std::optional<gbdt::TrainResult> results[2];
    const double c0 = process_cpu_s();
    const auto start = Clock::now();
    {
      ScopedSpan span(tr, "gbdt.train");
      std::latch ready(2);
      std::vector<std::thread> ranks;
      for (int r = 0; r < 2; ++r) {
        ranks.emplace_back([&, r] {
          ScopedSpan rank_span(tr, r == 0 ? "gbdt.rank0_train" : "gbdt.rank1_train",
                               span.id());
          (r == 0 ? timed0 : timed1).set_parent_span(rank_span.id());
          pin_this_thread(cpu);
          ready.arrive_and_wait();
          gbdt::DistributedTrainer trainer(dcfg, endpoints[r]);
          results[r] = trainer.train(data);
          last_stats[r] = trainer.stats();
        });
      }
      for (auto& th : ranks) th.join();
    }
    const double dt = seconds_since(start);
    train_cpu += process_cpu_s() - c0;
    peak_rss.push_back(peak_rss_since_reset_mb());
    for (int r = 0; r < 2; ++r) {
      const bool same = results_identical(*results[r], reference, data);
      out->check(same);
      if (!same) out->mismatch = true;
    }
    (trace_this ? traced : untraced).push_back(dt);
    if (!trace_this) untraced_by_cpu[cpu].push_back(dt);
    if (trace_this) {
      send_us[0].push_back(timed0.send_busy_us());
      send_us[1].push_back(timed1.send_busy_us());
      recv_wait_us[0].push_back(timed0.recv_wait_us());
      recv_wait_us[1].push_back(timed1.recv_wait_us());
    }
    return dt + assembly.back();
  });
  out->setup_s = bin_s + median(assembly);
  out->setup_samples = assembly.size();
  const double train_s = mean_of_medians(untraced_by_cpu);
  out->p50_ms = 1e3 * train_s;
  out->op_samples = untraced.size();
  out->cpu_ms_per_op =
      1e3 * train_cpu / static_cast<double>(untraced.size() + traced.size());

  out->peak_rss_mb = median(peak_rss);

  out->note("train_s", train_s, "s", untraced.size());
  out->note("gbdt.reference_train_s", reference_s, "s", 1);
  out->note("transport_overhead_x", train_s / reference_s, "ratio",
            untraced.size());
  std::uint64_t frames = 0, wire = 0, messages = 0, retransmits = 0;
  for (const auto& s : last_stats) {
    frames += s.transport.frames_sent;
    wire += s.transport.bytes_sent;
    messages += s.channel.messages_sent;
    retransmits += s.channel.retransmits;
  }
  out->note("ipc.frames", static_cast<double>(frames), "count");
  out->note("ipc.wire_bytes", static_cast<double>(wire), "bytes");
  out->note("ipc.messages", static_cast<double>(messages), "count");
  out->note("ipc.retransmits", static_cast<double>(retransmits), "count");

  if (tracer != nullptr) {
    for (int r = 0; r < 2; ++r) {
      const std::string rank = ".rank" + std::to_string(r);
      out->note("ipc.send_us" + rank, median(send_us[r]), "us",
                send_us[r].size());
      out->note("ipc.recv_wait_us" + rank, median(recv_wait_us[r]), "us",
                recv_wait_us[r].size());
    }
    add_trace_overhead(untraced, traced, out);
    const gbdt::Dataset chunk =
        wl::synthesize(spec, kChunkRows, derive_seed(opt.seed, 4));
    ReplayInput in;
    in.data = &data;
    in.chunk = &chunk;
    in.model = &reference.model;
    in.request = train_request(raw);
    in.batch_rows = 8;
    in.bin_s = bin_s;
    in.reference = &reference;
    in.reference_train_s = reference_s;
    run_replays(in, tracer, out);
  }
}

}  // namespace perfbench

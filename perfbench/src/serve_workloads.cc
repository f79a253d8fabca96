// Serving workloads: serve_iot (closed-loop bursts, then an open-loop
// rate ladder, against a static model) and serve_refresh (closed-loop
// bursts while a stream::Retrainer retrains, saves and hands off models
// through POST /reload).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "loadgen.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "stream/frozen_bin_map.h"
#include "stream/retrainer.h"
#include "util/check.h"
#include "workloads.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace perfbench {

namespace gbdt = booster::gbdt;
namespace serve = booster::serve;
namespace stream = booster::stream;
namespace wl = booster::workloads;

namespace {

// A set-up takes a millisecond or a few; 12 per CPU on a 4-CPU host.
constexpr int kSetupReps = 48;

// serve_iot: 8 IoT rows (115 fields, ~11.3 KB of CSV) per request against
// a 16-tree model. The rates are absolute, fixed after calibrating the
// closed-loop capacity on a 4-vCPU host (see README.md); they must not
// adapt to the host, or two commits would be measured at different loads.
constexpr std::uint64_t kIotRows = 20000;
constexpr std::uint32_t kIotTrees = 16;
constexpr std::uint32_t kIotRowsPerRequest = 8;
constexpr std::size_t kIotRequests = 512;
constexpr std::uint32_t kIotConnections = 2;
constexpr double kLowQps = 1500.0;
constexpr double kHighQps = 4500.0;
constexpr double kOverloadQps = 9000.0;
// Share of the run per stage; the rest searches for capacity.
constexpr double kClosedShare = 0.6;
constexpr double kLowShare = 0.15;
constexpr double kHighShare = 0.1;
constexpr double kOverloadShare = 0.05;
constexpr double kCapacityProbeS = 0.5;
// The capacity_qps limit: p99 <= 2 ms, fail share <= 0.1%, no growing
// backlog.
constexpr double kCapacityP99Us = 2000.0;
constexpr double kCapacityFailShare = 0.001;

// The closed loops: bursts of kBurst requests sent one at a time, one
// burst per period (serve_iot / serve_refresh); a burst keeps the CPU busy
// for about a quarter / a tenth of its period. Traced runs trace
// alternating runs of kTraceBursts bursts.
constexpr std::uint32_t kBurst = 16;
constexpr double kIotBurstPeriodS = 0.008;
constexpr double kRefreshBurstPeriodS = 0.004;
constexpr std::size_t kTraceBursts = 25;

// serve_refresh: 1-row requests, one at a time, while a fraud-schema
// stream with drift arrives in paced chunks.
constexpr std::uint64_t kBootstrapRows = 4000;
constexpr std::uint64_t kPoolRows = 2048;
constexpr std::uint64_t kStreamChunkRows = 500;
constexpr double kChunkIntervalS = 0.25;
constexpr std::uint32_t kRefreshEveryChunks = 2;
constexpr std::uint32_t kWindowChunks = 4;
constexpr std::uint32_t kTreesPerRefresh = 4;

/// A running server on its own loop thread, loaded from a model container.
struct LiveServer {
  serve::ModelSlot slot;
  std::unique_ptr<serve::Server> server;
  std::thread loop;

  ~LiveServer() { stop(); }
  void stop() {
    if (server != nullptr && loop.joinable()) {
      server->stop();
      loop.join();
    }
  }
};

/// Set-up of one server: load + CRC-check the container, freeze the bin
/// reference, bind, start the loop, and answer /healthz.
std::unique_ptr<LiveServer> start_server(const std::string& model_path,
                                         const gbdt::BinnedDataset& reference) {
  auto live = std::make_unique<LiveServer>();
  BOOSTER_CHECK_MSG(live->slot.install_from_file(model_path) ==
                        gbdt::ModelFileStatus::kOk,
                    "serve: model container failed to load");
  live->server = std::make_unique<serve::Server>(serve::ServerConfig{},
                                                 &live->slot, reference);
  live->loop = std::thread([s = live->server.get()] { s->run(); });
  serve::BlockingClient client;
  serve::Response resp;
  BOOSTER_CHECK_MSG(client.connect(live->server->port()) &&
                        client.request("GET", "/healthz", "", &resp) &&
                        resp.status == 200,
                    "serve: /healthz failed");
  return live;
}

std::string artifact_path(const Options& opt, const char* name) {
  return opt.out_dir + "/" + opt.workload + "-" + std::to_string(::getpid()) +
         "-" + name;
}

/// Verifies every 200 reply of `r` bitwise against `expected(version,
/// request, row)`; returns the number of mismatching replies.
template <typename Expected>
std::uint64_t verify(const LoadResult& r, const std::vector<Arrival>& schedule,
                     Expected&& expected) {
  std::uint64_t bad = 0;
  for (const Reply& rep : r.replies) {
    if (rep.status != 200) continue;
    const std::uint32_t req = schedule[rep.arrival].request;
    bool ok = true;
    for (std::uint32_t i = 0; i < rep.values_count && ok; ++i) {
      const double* want = expected(rep.version, req, i);
      ok = want != nullptr && *want == r.values[rep.values_begin + i];
    }
    if (!ok) ++bad;
  }
  return bad;
}

/// Adds the percentile as a report entry only when at least kMinTail
/// samples lie beyond it.
void note_percentile(Output* out, const std::string& name,
                     const std::vector<double>& v, double q) {
  if (samples_beyond(v.size(), q) < kMinTail) return;
  out->note(name, percentile(v, q), "us", v.size());
}

/// Pins the server loop and the calling thread (the generator) to one CPU.
/// One of the two always has work in a closed loop, so that CPU never
/// idles and a round trip is the request's CPU path plus two context
/// switches: no idle-CPU wake-up, whose cost on a shared VM host swings
/// with the neighbours' load and swamped the latency of a request.
void share_cpu(LiveServer* live, unsigned cpu) {
  pin_thread(live->loop, cpu);
  pin_this_thread(cpu);
}

/// One stage, run as `segments` consecutive sub-stages.
struct Stage {
  LoadResult result;  // counts and latency vectors of every segment
  std::vector<std::vector<double>> segment_untraced_us;
  double seconds = 0.0;
  double server_cpu_s = 0.0;
};

void merge_into(LoadResult* dst, const LoadResult& src) {
  dst->scheduled += src.scheduled;
  dst->ok += src.ok;
  dst->shed += src.shed;
  dst->errors += src.errors;
  dst->timeouts += src.timeouts;
  const auto append = [](std::vector<double>* d, const std::vector<double>& s) {
    d->insert(d->end(), s.begin(), s.end());
  };
  append(&dst->ok_latency_us, src.ok_latency_us);
  append(&dst->traced_latency_us, src.traced_latency_us);
  append(&dst->untraced_latency_us, src.untraced_latency_us);
  append(&dst->lag_us, src.lag_us);
  dst->backlog_max = std::max(dst->backlog_max, src.backlog_max);
  dst->backlog_first_quarter =
      std::max(dst->backlog_first_quarter, src.backlog_first_quarter);
  dst->backlog_last_quarter =
      std::max(dst->backlog_last_quarter, src.backlog_last_quarter);
}

}  // namespace

void run_serve_iot(const Options& opt, Tracer* tracer, Output* out) {
  const wl::DatasetSpec spec = wl::spec_by_name("IoT");
  const gbdt::Dataset raw = sample_rows(spec, kIotRows, derive_seed(opt.seed, 10));
  auto t0 = Clock::now();
  const gbdt::BinnedDataset binned = gbdt::Binner().bin(raw);
  const double bin_s = seconds_since(t0);

  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = kIotTrees;
  tcfg.max_depth = 6;
  tcfg.loss = spec.loss;
  t0 = Clock::now();
  const gbdt::TrainResult trained = gbdt::Trainer(tcfg).train(binned);
  const double reference_s = seconds_since(t0);
  const std::string model_path = artifact_path(opt, "model.bin");
  BOOSTER_CHECK_MSG(gbdt::save_model_checked_file(trained.model, model_path),
                    "serve_iot: could not write the model container");

  std::vector<double> expected(kIotRows);
  for (std::uint64_t r = 0; r < kIotRows; ++r) {
    expected[r] = trained.model.predict(binned, r);
  }
  std::mt19937_64 rng(derive_seed(opt.seed, 11));
  std::vector<LoadRequest> requests(kIotRequests);
  std::vector<std::uint64_t> first_row(kIotRequests);
  for (std::size_t i = 0; i < kIotRequests; ++i) {
    first_row[i] = rng() % kIotRows;
    requests[i].bytes = predict_request(
        serve::csv_rows(raw, first_row[i], kIotRowsPerRequest));
    requests[i].rows = kIotRowsPerRequest;
  }

  std::unique_ptr<LiveServer> live;
  // Stopping the previous server is not set-up: it runs untimed.
  out->setup_s = timed_setup(
      kSetupReps, [&] { live.reset(); },
      [&] { live = start_server(model_path, binned); });
  out->setup_samples = kSetupReps;
  unpin_thread(live->loop);
  const std::uint64_t version = live->slot.current()->version;

  LoadConfig lcfg;
  lcfg.port = live->server->port();
  lcfg.connections = kIotConnections;
  std::uint64_t stage_id = 0;
  std::uint64_t mismatched = 0;
  // An open-loop stage (rate > 0) offers `rate` req/s on kIotConnections.
  // The closed-loop stage (rate 0) sends bursts one request at a time over
  // one connection and runs one segment per CPU, the server loop and the
  // generator (this thread) sharing that CPU.
  const auto run_stage = [&](double rate, double seconds, bool traced) {
    const bool closed = rate <= 0.0;
    const unsigned segments = closed ? nproc() : 1;
    LoadConfig cfg = lcfg;
    Stage st;
    st.seconds = seconds;
    for (unsigned k = 0; k < segments; ++k) {
      const std::uint64_t seed = derive_seed(opt.seed, 20 + stage_id++);
      std::vector<Arrival> schedule;
      if (closed) {
        share_cpu(live.get(), k);
        cfg.connections = 1;
        cfg.closed_loop = true;
        schedule = burst_schedule(seconds / segments, kIotBurstPeriodS, kBurst,
                                  requests.size(), seed,
                                  traced && tracer != nullptr ? kTraceBursts : 0);
      } else {
        schedule = poisson_schedule(rate, seconds, requests.size(), seed,
                                    traced && tracer != nullptr ? 0.25 : 0.0);
      }
      const double cpu0 = thread_cpu_s(live->loop);
      const LoadResult r =
          run_open_loop(cfg, requests, schedule,
                        Clock::now() + std::chrono::milliseconds(2), tracer);
      st.server_cpu_s += thread_cpu_s(live->loop) - cpu0;
      const std::uint64_t bad =
          verify(r, schedule,
                 [&](std::uint64_t v, std::uint32_t req,
                     std::uint32_t i) -> const double* {
                   if (v != version) return nullptr;
                   return &expected[(first_row[req] + i) % kIotRows];
                 });
      mismatched += bad;
      // Shedding is the documented overload answer, not a wrong output.
      out->tally(r.scheduled, r.errors + r.timeouts + bad);
      st.segment_untraced_us.push_back(r.untraced_latency_us);
      merge_into(&st.result, r);
    }
    if (segments > 1) {
      unpin_thread(live->loop);
      unpin_this_thread();
    }
    return st;
  };

  const double s = opt.seconds;
  const Stage closed_stage = run_stage(0.0, kClosedShare * s, true);
  // Peak memory through the closed loop, where the gated numbers come
  // from. The open-loop stages queue requests whenever the host stalls the
  // server (the high-rate median reached 40 ms), so their footprint tracks
  // how the host scheduled the run rather than the program.
  out->peak_rss_mb = peak_rss_mb();
  const Stage low = run_stage(kLowQps, kLowShare * s, false);
  const Stage high = run_stage(kHighQps, kHighShare * s, false);
  const Stage over = run_stage(kOverloadQps, kOverloadShare * s, false);

  // Capacity: bisect (in log space) between the low and overload rates,
  // each probe a short stage judged against the capacity limit.
  const auto meets_limit = [](const Stage& st) {
    const LoadResult& r = st.result;
    const double fail = static_cast<double>(r.shed + r.errors + r.timeouts) /
                        static_cast<double>(std::max<std::uint64_t>(1, r.scheduled));
    return percentile(r.ok_latency_us, 0.99) <= kCapacityP99Us &&
           fail <= kCapacityFailShare && !r.backlog_growing();
  };
  const int probes = std::max(
      2, static_cast<int>((1.0 - kClosedShare - kLowShare - kHighShare -
                           kOverloadShare) *
                          s / kCapacityProbeS));
  double lo = meets_limit(low) ? kLowQps : kLowQps / 4.0;
  double hi = kOverloadQps;
  for (int i = 0; i < probes; ++i) {
    const double mid = std::sqrt(lo * hi);
    (meets_limit(run_stage(mid, kCapacityProbeS, false)) ? lo : hi) = mid;
  }
  const double capacity = lo;

  live->stop();
  const serve::ServerStats& ss = live->server->stats();
  const double batch_rows =
      ss.batches == 0 ? kIotRowsPerRequest
                      : static_cast<double>(ss.predict_rows) / ss.batches;

  // The gated latency and CPU cost come from the closed loop: open-loop
  // latency at a fixed rate includes waking an idle CPU for each request,
  // and at the high rate queueing amplifies every host scheduling hiccup;
  // the batch size (hence CPU per request) follows the queue.
  const LoadResult& h = high.result;
  const LoadResult& c = closed_stage.result;
  out->p50_ms = 1e-3 * mean_of_medians(closed_stage.segment_untraced_us);
  out->op_samples = c.untraced_latency_us.size();
  out->cpu_ms_per_op =
      1e3 * closed_stage.server_cpu_s /
      static_cast<double>(std::max<std::uint64_t>(1, c.ok + c.shed));
  if (mismatched != 0) out->mismatch = true;

  out->note("p50_us.low", median(low.result.ok_latency_us), "us",
            low.result.ok_latency_us.size());
  note_percentile(out, "p99_us.low", low.result.ok_latency_us, 0.99);
  out->note("p50_us.high", median(h.ok_latency_us), "us",
            h.ok_latency_us.size());
  note_percentile(out, "p99_us.high", h.ok_latency_us, 0.99);
  out->note("capacity_qps", capacity, "1/s");
  out->note("goodput_qps.overload",
            static_cast<double>(over.result.ok) / over.seconds, "1/s",
            over.result.ok);
  note_percentile(out, "p999_us.overload", over.result.ok_latency_us, 0.999);
  std::uint64_t attempted = 0, failed = 0;
  for (const Stage* st : {&closed_stage, &low, &high, &over}) {
    const LoadResult& r = st->result;
    attempted += r.scheduled;
    failed += r.shed + r.errors + r.timeouts;
  }
  out->note("fail_ratio",
            static_cast<double>(failed + mismatched) / attempted, "ratio",
            attempted);
  out->note("fail_ratio.low_high",
            static_cast<double>(low.result.scheduled - low.result.ok +
                                h.scheduled - h.ok) /
                (low.result.scheduled + h.scheduled),
            "ratio", low.result.scheduled + h.scheduled);
  out->note("serve.rows_per_batch", batch_rows, "rows", ss.batches);
  out->note("serve.bytes_in_per_request",
            static_cast<double>(ss.bytes_in) / std::max<std::uint64_t>(1, ss.requests),
            "bytes");
  out->note("serve.bytes_out_per_request",
            static_cast<double>(ss.bytes_out) / std::max<std::uint64_t>(1, ss.requests),
            "bytes");
  out->note("serve.buffer_allocations",
            static_cast<double>(ss.buffer_allocations), "count");
  out->note("serve.requests_shed", static_cast<double>(ss.requests_shed),
            "count");
  out->note("serve.out_buffer_pauses",
            static_cast<double>(ss.out_buffer_pauses), "count");
  out->note("gen.lag_us_p99.high", percentile(h.lag_us, 0.99), "us",
            h.lag_us.size());
  out->note("gen.backlog_max.high", static_cast<double>(h.backlog_max), "count");
  out->note("gen.backlog_max.overload",
            static_cast<double>(over.result.backlog_max), "count");

  if (tracer != nullptr) {
    add_trace_overhead(c.untraced_latency_us, c.traced_latency_us, out);
    const gbdt::Dataset chunk =
        wl::synthesize(spec, 1000, derive_seed(opt.seed, 12));
    ReplayInput in;
    in.data = &binned;
    in.chunk = &chunk;
    in.model = &trained.model;
    in.request = requests[0].bytes;
    in.batch_rows = batch_rows;
    in.bin_s = bin_s;
    in.reference = &trained;
    in.reference_train_s = reference_s;
    run_replays(in, tracer, out);
  }
  std::remove(model_path.c_str());
}

void run_serve_refresh(const Options& opt, Tracer* tracer, Output* out) {
  const wl::DatasetSpec spec = wl::fraud_spec();
  const gbdt::Dataset boot_raw =
      wl::synthesize(spec, kBootstrapRows, derive_seed(opt.seed, 30));
  const gbdt::Dataset pool_raw =
      wl::synthesize(spec, kPoolRows, derive_seed(opt.seed, 31));
  // The stream: label noise ramps to 2x over the run, so every refresh has
  // drift to absorb.
  const std::size_t num_chunks =
      static_cast<std::size_t>(opt.seconds / kChunkIntervalS);
  std::vector<gbdt::Dataset> chunks;
  for (std::size_t i = 0; i < num_chunks; ++i) {
    wl::DatasetSpec drift = spec;
    drift.label_noise = spec.label_noise *
                        (1.0 + static_cast<double>(i + 1) / num_chunks);
    chunks.push_back(wl::synthesize(drift, kStreamChunkRows,
                                    derive_seed(opt.seed, 1000 + i)));
  }

  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = kTreesPerRefresh;
  tcfg.max_depth = 6;
  tcfg.loss = spec.loss;
  tcfg.num_threads = 1;
  const gbdt::BinnedDataset boot_for_model = gbdt::Binner().bin(boot_raw);
  auto t0 = Clock::now();
  const gbdt::TrainResult initial = gbdt::Trainer(tcfg).train(boot_for_model);
  const double reference_s = seconds_since(t0);
  const std::string model_path = artifact_path(opt, "initial.bin");
  const std::string refresh_path = artifact_path(opt, "refresh.bin");
  BOOSTER_CHECK_MSG(gbdt::save_model_checked_file(initial.model, model_path),
                    "serve_refresh: could not write the model container");

  // Set-up: bin-map freeze (bootstrap binning + FrozenBinMap) plus server
  // start and model load, repeated; the last one serves.
  std::vector<double> bin_samples;
  std::unique_ptr<gbdt::BinnedDataset> boot;
  std::unique_ptr<stream::FrozenBinMap> map;
  std::unique_ptr<LiveServer> live;
  out->setup_s = timed_setup(kSetupReps, [&] { live.reset(); }, [&] {
    const auto s0 = Clock::now();
    boot = std::make_unique<gbdt::BinnedDataset>(gbdt::Binner().bin(boot_raw));
    map = std::make_unique<stream::FrozenBinMap>(*boot);
    bin_samples.push_back(seconds_since(s0));
    live = start_server(model_path, *boot);
  });
  out->setup_samples = kSetupReps;
  unpin_thread(live->loop);

  gbdt::BinnedDataset pool;
  map->bin_chunk(pool_raw, &pool);
  // expected[version - 1][row]: local Model::predict of each generation.
  std::vector<std::vector<double>> expected;
  const auto add_generation = [&](const gbdt::Model& model) {
    std::vector<double> preds(kPoolRows);
    for (std::uint64_t r = 0; r < kPoolRows; ++r) preds[r] = model.predict(pool, r);
    expected.push_back(std::move(preds));
  };
  add_generation(initial.model);
  BOOSTER_CHECK(live->slot.current()->version == 1);

  std::vector<LoadRequest> requests(kPoolRows);
  for (std::uint64_t r = 0; r < kPoolRows; ++r) {
    requests[r].bytes = predict_request(serve::csv_rows(pool_raw, r, 1));
    requests[r].rows = 1;
  }

  stream::RetrainerConfig rcfg;
  rcfg.trainer = tcfg;
  rcfg.refresh_every_chunks = kRefreshEveryChunks;
  rcfg.window_chunks = kWindowChunks;
  rcfg.warm_start = true;
  rcfg.save_path = refresh_path;
  rcfg.reload_port = live->server->port();
  stream::Retrainer retrainer(*map, rcfg);

  // Closed loop: bursts of 1-row requests sent one at a time, so
  // per-request overhead dominates (nothing batches) and the latency
  // carries no idle-CPU wake-up (see share_cpu).
  LoadConfig lcfg;
  lcfg.port = live->server->port();
  lcfg.connections = 1;
  lcfg.closed_loop = true;
  const std::vector<Arrival> schedule = burst_schedule(
      opt.seconds, kRefreshBurstPeriodS, kBurst, requests.size(),
      derive_seed(opt.seed, 32), tracer != nullptr ? kTraceBursts : 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const double cpu0 = thread_cpu_s(live->loop);
  LoadResult load;
  std::thread generator([&] {
    load = run_open_loop(lcfg, requests, schedule, start, tracer);
  });
  // The run is cut into one segment per CPU; at each segment the server
  // loop and the generator move to a new CPU they share, and this stream
  // thread to one of its own.
  const unsigned segments = nproc();
  const auto place = [&](unsigned k) {
    pin_thread(live->loop, k);
    pin_thread(generator, k);
    pin_this_thread(k + nproc() / 2);
  };
  place(0);
  unsigned segment = 0;

  // The stream: chunk i's last row is due at start + (i + 1) * interval.
  std::vector<double> ingest_us;
  std::vector<double> refresh_s;
  std::vector<Clock::time_point> refresh_due;  // per version >= 2
  std::uint64_t handoff_failures = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((i + 1) * kChunkIntervalS));
    std::this_thread::sleep_until(due);
    const unsigned k = static_cast<unsigned>((i + 1) * kChunkIntervalS *
                                             segments / opt.seconds);
    if (k != segment && k < segments) place(segment = k);
    const std::uint64_t failures_before = retrainer.stats().handoff_failures;
    const auto i0 = Clock::now();
    bool refreshed = false;
    {
      ScopedSpan span(tracer, "stream.ingest");
      refreshed = retrainer.ingest(chunks[i]);
    }
    const double dt = seconds_since(i0);
    if (!refreshed) {
      ingest_us.push_back(1e6 * dt);
      continue;
    }
    refresh_s.push_back(dt);
    const bool handed_off =
        retrainer.stats().handoff_failures == failures_before;
    out->check(handed_off);
    if (!handed_off) {
      ++handoff_failures;
      continue;
    }
    add_generation(*retrainer.latest());
    refresh_due.push_back(due);
  }
  generator.join();
  const double server_cpu = thread_cpu_s(live->loop) - cpu0;
  unpin_thread(live->loop);
  unpin_this_thread();
  live->stop();
  const serve::ServerStats& ss = live->server->stats();

  const std::uint64_t mismatched =
      verify(load, schedule,
             [&](std::uint64_t v, std::uint32_t req,
                 std::uint32_t) -> const double* {
               if (v == 0 || v > expected.size()) return nullptr;
               return &expected[v - 1][req];
             });
  const std::uint64_t wrong = load.errors + load.timeouts + load.shed + mismatched;
  out->tally(load.scheduled, wrong);
  if (mismatched != 0) out->mismatch = true;

  // Staleness: scheduled arrival of a refresh-triggering chunk's last row
  // to the first response carrying the new version.
  std::map<std::uint64_t, Clock::time_point> first_seen;
  for (const Reply& rep : load.replies) {
    if (rep.status != 200 || rep.version < 2) continue;
    const Clock::time_point at =
        start + std::chrono::nanoseconds(rep.start_ns) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(rep.latency_us));
    auto [it, inserted] = first_seen.emplace(rep.version, at);
    if (!inserted && at < it->second) it->second = at;
  }
  std::vector<double> staleness_ms;
  for (std::size_t g = 0; g < refresh_due.size(); ++g) {
    const auto it = first_seen.find(g + 2);
    if (it == first_seen.end()) continue;  // swapped in after traffic ended
    staleness_ms.push_back(
        1e3 * seconds_between(refresh_due[g], it->second));
  }

  // Median latency per CPU placement (by send time), averaged.
  std::vector<std::vector<double>> by_segment(segments);
  for (const Reply& rep : load.replies) {
    if (rep.status != 200 || schedule[rep.arrival].traced) continue;
    const unsigned k = static_cast<unsigned>(
        1e-9 * static_cast<double>(rep.start_ns) * segments / opt.seconds);
    by_segment[std::min(k, segments - 1)].push_back(rep.latency_us);
  }
  out->p50_ms = 1e-3 * mean_of_medians(by_segment);
  out->op_samples = load.untraced_latency_us.size();
  out->cpu_ms_per_op =
      1e3 * server_cpu /
      static_cast<double>(std::max<std::uint64_t>(1, load.ok + load.shed));

  out->note("p50_us", median(load.ok_latency_us), "us",
            load.ok_latency_us.size());
  note_percentile(out, "p99_us", load.ok_latency_us, 0.99);
  out->note("staleness_ms", median(staleness_ms), "ms", staleness_ms.size());
  out->note("fail_ratio",
            static_cast<double>(wrong + handoff_failures) /
                static_cast<double>(load.scheduled + refresh_s.size()),
            "ratio", load.scheduled + refresh_s.size());
  out->note("serve.reloads", static_cast<double>(ss.reloads), "count");
  out->note("serve.reloads_rejected", static_cast<double>(ss.reloads_rejected),
            "count");
  out->note("serve.reload_stall_us_max",
            static_cast<double>(ss.reload_stall_us_max), "us");
  out->note("serve.rows_per_batch",
            ss.batches == 0 ? 1.0
                            : static_cast<double>(ss.predict_rows) / ss.batches,
            "rows", ss.batches);
  out->note("stream.ingest_us", median(ingest_us), "us", ingest_us.size());
  out->note("stream.refresh_s", median(refresh_s), "s", refresh_s.size());
  out->note("stream.handoff_failures", static_cast<double>(handoff_failures),
            "count");

  if (tracer != nullptr) {
    add_trace_overhead(load.untraced_latency_us, load.traced_latency_us, out);
    ReplayInput in;
    in.data = boot.get();
    in.chunk = &chunks.front();
    in.model = retrainer.latest() != nullptr ? retrainer.latest()
                                             : &initial.model;
    in.request = requests[0].bytes;
    in.batch_rows = ss.batches == 0
                        ? 1.0
                        : static_cast<double>(ss.predict_rows) / ss.batches;
    in.bin_s = median(bin_samples);
    in.reference = &initial;
    in.reference_train_s = reference_s;
    run_replays(in, tracer, out);
  }
  std::remove(model_path.c_str());
  std::remove(refresh_path.c_str());
}

}  // namespace perfbench

#include "replay.h"

#include <atomic>
#include <future>
#include <thread>

#include "gbdt/flat_ensemble.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/split.h"
#include "ipc/codec.h"
#include "ipc/tcp_transport.h"
#include "serve/http.h"
#include "serve/row_binner.h"
#include "stream/frozen_bin_map.h"
#include "timing_transport.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace gbdt = booster::gbdt;
namespace ipc = booster::ipc;
namespace serve = booster::serve;
namespace util = booster::util;

namespace {

/// Median µs per call of `fn`, timed in batches of `batch` calls until
/// `budget_s` is spent (at least 5 batches, at most 400). One
/// "replay.<name>" span per batch.
template <typename Fn>
double median_us(Tracer* tracer, const char* span, int batch, double budget_s,
                 Fn&& fn, std::uint64_t* samples) {
  std::vector<double> per_call;
  const auto begin = Clock::now();
  while (per_call.size() < 5 ||
         (per_call.size() < 400 && seconds_since(begin) < budget_s)) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const auto t1 = Clock::now();
    if (tracer != nullptr) tracer->record(span, t0, t1);
    per_call.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count() / batch);
  }
  *samples = per_call.size();
  return median(std::move(per_call));
}

constexpr double kLegBudgetS = 0.25;

}  // namespace

bool tcp_round_trips(const std::vector<std::uint8_t>& frame, int reps,
                     Tracer* tracer, double* send_us, double* recv_wait_us) {
  std::promise<std::uint16_t> port_promise;
  auto port_future = port_promise.get_future();
  std::atomic<bool> worker_done{false};
  std::atomic<bool> ok{true};
  double rank0_wait = 0.0;
  double rank1_send = 0.0;

  std::thread rank0([&] {
    auto t = ipc::TcpTransport::listen("127.0.0.1", 0, 2);
    port_promise.set_value(t == nullptr ? 0 : t->port());
    if (t == nullptr || !t->wait_for_world(2, std::chrono::seconds(10))) {
      ok = false;
      return;
    }
    TimingTransport timed(t.get(), tracer);
    std::vector<std::uint8_t> got;
    const std::uint8_t ack = 1;
    for (int i = 0; i < reps && ok; ++i) {
      if (timed.recv(1, &got, std::chrono::seconds(5)) !=
              ipc::RecvStatus::kOk ||
          got.size() != frame.size()) {
        ok = false;
        break;
      }
      timed.send(1, std::span<const std::uint8_t>(&ack, 1));
    }
    rank0_wait = timed.recv_wait_us();
    // Keep flushing the last ack until the worker has read it.
    while (!worker_done && ok) timed.pump(std::chrono::milliseconds(1));
  });
  std::thread rank1([&] {
    const std::uint16_t port = port_future.get();
    auto t = port == 0 ? nullptr
                       : ipc::TcpTransport::connect("127.0.0.1", port, 2, 1);
    if (t == nullptr) {
      ok = false;
      worker_done = true;
      return;
    }
    TimingTransport timed(t.get(), tracer);
    std::vector<std::uint8_t> ack;
    for (int i = 0; i < reps && ok; ++i) {
      if (!timed.send(0, frame) ||
          timed.recv(0, &ack, std::chrono::seconds(5)) !=
              ipc::RecvStatus::kOk) {
        ok = false;
        break;
      }
    }
    rank1_send = timed.send_busy_us();
    worker_done = true;
  });
  rank0.join();
  rank1.join();
  *send_us = rank1_send / reps;
  *recv_wait_us = rank0_wait / reps;
  return ok;
}

void run_replays(const ReplayInput& in, Tracer* tracer, Output* out) {
  const gbdt::BinnedDataset& data = *in.data;
  const std::uint64_t n = data.num_records();
  data.ensure_row_major();
  std::uint64_t samples = 0;

  util::ThreadPool pool(nproc());
  util::ThreadPool pool1(1);

  // util: one empty fork/join of nproc tasks.
  const double fork_join = median_us(
      tracer, "replay.util.fork_join", 200, kLegBudgetS,
      [&] { pool.run_tasks(pool.num_threads(), [](unsigned) {}); }, &samples);
  out->layer("util.fork_join_us", fork_join, "us", samples);

  out->layer("gbdt.bin_s", in.bin_s, "s", 1);

  // Root-node histogram over every row, with the logistic gradients of a
  // fresh ensemble (p = 0.5).
  std::vector<std::uint32_t> rows(n);
  for (std::uint64_t r = 0; r < n; ++r) rows[r] = static_cast<std::uint32_t>(r);
  std::vector<gbdt::GradientPair> grads(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    grads[r] = {0.5f - data.labels()[r], 0.25f};
  }
  gbdt::HistogramPool hist_pool(data);
  std::vector<gbdt::Histogram> partials;
  gbdt::Histogram root(data);
  gbdt::build_histogram_parallel(root, data, rows, grads, pool, hist_pool,
                                 partials);
  gbdt::Histogram scratch(data);
  const auto build_with = [&](util::ThreadPool& p) {
    scratch.clear();
    gbdt::build_histogram_parallel(scratch, data, rows, grads, p, hist_pool,
                                   partials);
  };
  out->layer("gbdt.hist_build_us",
             median_us(tracer, "replay.gbdt.hist_build", 1, kLegBudgetS,
                       [&] { build_with(pool); }, &samples),
             "us", samples);
  out->layer("gbdt.hist_build_1t_us",
             median_us(tracer, "replay.gbdt.hist_build_1t", 1, kLegBudgetS,
                       [&] { build_with(pool1); }, &samples),
             "us", samples);

  const gbdt::SplitFinder finder;
  std::optional<gbdt::SplitInfo> split;
  out->layer("gbdt.split_scan_us",
             median_us(tracer, "replay.gbdt.split_scan", 1, kLegBudgetS,
                       [&] { split = finder.find_best(root, data, &pool); },
                       &samples),
             "us", samples);
  BOOSTER_CHECK_MSG(split.has_value(), "replay: root histogram has no split");

  std::vector<std::uint32_t> dst(n);
  std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
  const std::uint64_t n_left = split->left.count_u64();
  const auto partition_with = [&](util::ThreadPool& p) {
    gbdt::partition_to(rows, dst, 0, n, n_left, data, *split, p, chunk_counts);
  };
  out->layer("gbdt.partition_us",
             median_us(tracer, "replay.gbdt.partition", 1, kLegBudgetS,
                       [&] { partition_with(pool); }, &samples),
             "us", samples);
  out->layer("gbdt.partition_1t_us",
             median_us(tracer, "replay.gbdt.partition_1t", 1, kLegBudgetS,
                       [&] { partition_with(pool1); }, &samples),
             "us", samples);

  gbdt::Histogram acc(data);
  out->layer("gbdt.hist_add_us",
             median_us(tracer, "replay.gbdt.hist_add", 20, kLegBudgetS,
                       [&] { acc.add(root); }, &samples),
             "us", samples);

  const gbdt::FlatEnsemble flat(*in.model);
  std::vector<double> preds(n);
  out->layer("gbdt.predict_many_us",
             median_us(tracer, "replay.gbdt.predict_many", 1, kLegBudgetS,
                       [&] { flat.predict_many(data, 0, n, preds); }, &samples),
             "us", samples);

  const gbdt::HotPathStats& hp = in.reference->hot_path;
  out->layer("gbdt.reference_train_s", in.reference_train_s, "s", 1);
  out->layer("gbdt.histogram_acquires",
             static_cast<double>(hp.histogram_acquires), "count");
  out->layer("gbdt.histogram_allocations",
             static_cast<double>(hp.histogram_allocations), "count");
  out->layer("gbdt.histogram_merges", static_cast<double>(hp.histogram_merges),
             "count");
  out->layer("gbdt.arena_bytes", static_cast<double>(hp.arena_bytes), "bytes");
  out->layer("gbdt.row_major_bytes",
             static_cast<double>(hp.row_major_matrix_bytes), "bytes");

  // ipc: the root histogram through the codec and over a TCP pair.
  std::vector<std::uint8_t> payload;
  out->layer("ipc.encode_us",
             median_us(tracer, "replay.ipc.encode", 5, kLegBudgetS,
                       [&] {
                         payload.clear();
                         ipc::HistogramCodec::encode_histogram(root, &payload);
                       },
                       &samples),
             "us", samples);
  gbdt::Histogram decoded(data);
  bool decoded_ok = true;
  out->layer("ipc.decode_us",
             median_us(tracer, "replay.ipc.decode", 5, kLegBudgetS,
                       [&] {
                         ipc::ByteReader r(payload);
                         decoded_ok = decoded_ok &&
                             ipc::HistogramCodec::decode_histogram_into(
                                 r, &decoded);
                       },
                       &samples),
             "us", samples);
  BOOSTER_CHECK_MSG(decoded_ok, "replay: histogram codec round trip failed");
  out->layer("ipc.histogram_bytes",
             static_cast<double>(
                 ipc::HistogramCodec::encoded_histogram_bytes(root)),
             "bytes");
  constexpr int kTcpReps = 50;
  double send_us = 0.0;
  double recv_wait_us = 0.0;
  BOOSTER_CHECK_MSG(
      tcp_round_trips(payload, kTcpReps, tracer, &send_us, &recv_wait_us),
      "replay: TCP round trips failed");
  out->layer("ipc.send_us", send_us, "us", kTcpReps);
  out->layer("ipc.recv_wait_us", recv_wait_us, "us", kTcpReps);

  // serve: parse, bin and predict one captured request.
  serve::RequestParser parser;
  serve::Request req;
  std::size_t consumed = 0;
  bool parsed = true;
  out->layer("serve.parse_us",
             median_us(tracer, "replay.serve.parse", 20, kLegBudgetS,
                       [&] {
                         parsed = parsed &&
                                  parser.consume(in.request, &consumed, &req) ==
                                      serve::ParseStatus::kRequest;
                       },
                       &samples),
             "us", samples);
  BOOSTER_CHECK_MSG(parsed && consumed == in.request.size(),
                    "replay: captured request did not parse");
  const serve::RowBinner binner(data);
  std::vector<std::vector<gbdt::BinIndex>> columns;
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < req.body.size();) {
    std::size_t end = req.body.find('\n', pos);
    if (end == std::string::npos) end = req.body.size();
    if (end > pos) lines.emplace_back(req.body.data() + pos, end - pos);
    pos = end + 1;
  }
  bool binned = true;
  out->layer("serve.bin_us",
             median_us(tracer, "replay.serve.bin", 20, kLegBudgetS,
                       [&] {
                         binner.reset_columns(&columns);
                         for (const auto line : lines) {
                           binned = binned && binner.append_csv(line, &columns);
                         }
                       },
                       &samples),
             "us", samples);
  BOOSTER_CHECK_MSG(binned && !lines.empty(),
                    "replay: captured request rows did not bin");
  // Repeat the request's rows up to the observed mean batch.
  const std::uint64_t batch = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(in.batch_rows + 0.5));
  for (auto& col : columns) {
    const std::size_t base = col.size();
    while (col.size() < batch) col.push_back(col[col.size() % base]);
  }
  std::vector<const gbdt::BinIndex*> ptrs;
  for (const auto& col : columns) ptrs.push_back(col.data());
  std::vector<double> batch_out(batch);
  out->layer("serve.predict_us",
             median_us(tracer, "replay.serve.predict", 10, kLegBudgetS,
                       [&] { flat.predict_many(ptrs.data(), batch, batch_out); },
                       &samples),
             "us", samples);

  // stream: bin one raw chunk against the frozen map of the workload's data.
  const booster::stream::FrozenBinMap map(data);
  gbdt::BinnedDataset chunk_out;
  out->layer("stream.bin_chunk_us",
             median_us(tracer, "replay.stream.bin_chunk", 1, kLegBudgetS,
                       [&] { map.bin_chunk(*in.chunk, &chunk_out); }, &samples),
             "us", samples);
}

}  // namespace perfbench

// Tests of the benchmark's load generator: seeded schedules,
// bitwise-verifiable replies from a live server, latency timed from the
// due time, timeout / backlog accounting against a silent peer, and the
// closed loop (one request in flight per connection, timed from the send).
#include <unistd.h>

#include <optional>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "ipc/poller.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace perfbench {
namespace {

namespace gbdt = booster::gbdt;
namespace serve = booster::serve;
namespace wl = booster::workloads;

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
  const auto a = poisson_schedule(1000.0, 1.0, 64, 7);
  const auto b = poisson_schedule(1000.0, 1.0, 64, 7);
  const auto c = poisson_schedule(1000.0, 1.0, 64, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].request, b[i].request);
  }
  EXPECT_TRUE(a.size() != c.size() || a[0].due_ns != c[0].due_ns);
  // ~1000 arrivals, ascending, inside the window, valid request indices.
  EXPECT_GT(a.size(), 850u);
  EXPECT_LT(a.size(), 1150u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(a[i].due_ns, 1'000'000'000);
    EXPECT_LT(a[i].request, 64u);
    if (i > 0) {
      EXPECT_GE(a[i].due_ns, a[i - 1].due_ns);
    }
  }
}

TEST(PoissonSchedule, TraceSlicesAlternate) {
  const auto s = poisson_schedule(2000.0, 1.0, 8, 3, 0.25);
  std::size_t traced = 0;
  for (const Arrival& a : s) {
    const bool odd_slice = (a.due_ns / 250'000'000) % 2 == 1;
    EXPECT_EQ(a.traced, odd_slice);
    traced += a.traced ? 1 : 0;
  }
  EXPECT_GT(traced, 0u);
  EXPECT_LT(traced, s.size());
}

TEST(BurstSchedule, SeededPicksBurstsAndTraceRuns) {
  // 100 bursts of 8, one every 10 ms; traced in alternating runs of 5.
  const auto a = burst_schedule(1.0, 0.01, 8, 64, 7, 5);
  const auto b = burst_schedule(1.0, 0.01, 8, 64, 7, 5);
  const auto c = burst_schedule(1.0, 0.01, 8, 64, 8, 5);
  ASSERT_EQ(a.size(), 800u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t burst = i / 8;
    EXPECT_EQ(a[i].request, b[i].request);
    differs = differs || a[i].request != c[i].request;
    EXPECT_LT(a[i].request, 64u);
    EXPECT_NEAR(static_cast<double>(a[i].due_ns), burst * 1e7, 1.0);
    EXPECT_EQ(a[i].traced, (burst / 5) % 2 == 1);
  }
  EXPECT_TRUE(differs);
}

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const wl::DatasetSpec spec = wl::fraud_spec();
    raw_ = wl::synthesize(spec, 2000, 5);
    binned_ = gbdt::Binner().bin(raw_);
    gbdt::TrainerConfig cfg;
    cfg.num_trees = 4;
    cfg.max_depth = 4;
    cfg.loss = spec.loss;
    model_.emplace(gbdt::Trainer(cfg).train(binned_).model);
    std::stringstream copy;  // Model is move-only: copy through the codec
    gbdt::save_model(*model_, copy);
    slot_.install(gbdt::load_model(copy));
    server_ = std::make_unique<serve::Server>(serve::ServerConfig{}, &slot_,
                                              binned_);
    loop_ = std::thread([this] { server_->run(); });
    for (std::uint64_t i = 0; i < 32; ++i) {
      LoadRequest req;
      req.bytes = predict_request(serve::csv_rows(raw_, i * 4, 4));
      req.rows = 4;
      requests_.push_back(std::move(req));
    }
  }
  void TearDown() override {
    server_->stop();
    loop_.join();
  }

  gbdt::Dataset raw_;
  gbdt::BinnedDataset binned_;
  std::optional<gbdt::Model> model_;
  serve::ModelSlot slot_;
  std::unique_ptr<serve::Server> server_;
  std::thread loop_;
  std::vector<LoadRequest> requests_;
};

TEST_F(LiveServerTest, EveryReplyMatchesLocalPredictBitwise) {
  LoadConfig cfg;
  cfg.port = server_->port();
  cfg.connections = 2;
  const auto schedule = poisson_schedule(400.0, 0.5, requests_.size(), 11);
  const LoadResult r =
      run_open_loop(cfg, requests_, schedule, Clock::now(), nullptr);
  EXPECT_EQ(r.scheduled, schedule.size());
  EXPECT_EQ(r.ok, schedule.size());
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.lag_us.size(), schedule.size());
  ASSERT_EQ(r.replies.size(), schedule.size());
  for (const Reply& rep : r.replies) {
    EXPECT_EQ(rep.status, 200);
    EXPECT_EQ(rep.version, 1u);
    EXPECT_GE(rep.latency_us, 0.0);
    ASSERT_EQ(rep.values_count, 4u);
    const std::uint64_t first = schedule[rep.arrival].request * 4;
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.values[rep.values_begin + i], model_->predict(binned_, first + i));
    }
  }
}

TEST_F(LiveServerTest, LatencyIsTimedFromTheDueTime) {
  LoadConfig cfg;
  cfg.port = server_->port();
  const auto schedule = poisson_schedule(200.0, 0.2, requests_.size(), 12);
  // The schedule started 50 ms ago: every request is already late, and
  // that lateness is charged to its latency.
  const LoadResult r = run_open_loop(
      cfg, requests_, schedule, Clock::now() - std::chrono::milliseconds(50),
      nullptr);
  ASSERT_EQ(r.ok, schedule.size());
  const double late_us = 50000.0 - 1e-3 * static_cast<double>(schedule[0].due_ns);
  EXPECT_GE(r.lag_us.front(), late_us);
  EXPECT_GE(r.ok_latency_us.front(), late_us);
  EXPECT_GE(r.ok_latency_us.front(), r.lag_us.front());
}

TEST_F(LiveServerTest, ClosedLoopKeepsOneInFlightPerConnection) {
  LoadConfig cfg;
  cfg.port = server_->port();
  cfg.connections = 2;
  cfg.closed_loop = true;
  // 20 bursts of 16, one every 10 ms.
  const auto schedule = burst_schedule(0.2, 0.01, 16, requests_.size(), 14);
  const LoadResult r =
      run_open_loop(cfg, requests_, schedule, Clock::now(), nullptr);
  EXPECT_EQ(r.scheduled, schedule.size());
  EXPECT_EQ(r.ok, schedule.size());
  EXPECT_EQ(r.errors + r.timeouts + r.shed, 0u);
  EXPECT_TRUE(r.lag_us.empty());
  EXPECT_LE(r.backlog_max, 2u);
  ASSERT_EQ(r.replies.size(), schedule.size());
  for (const Reply& rep : r.replies) {
    // Timed from the send, which is never before the due time.
    EXPECT_GE(rep.latency_us, 0.0);
    EXPECT_GE(rep.start_ns, schedule[rep.arrival].due_ns);
    ASSERT_EQ(rep.values_count, 4u);
    const std::uint64_t first = schedule[rep.arrival].request * 4;
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.values[rep.values_begin + i], model_->predict(binned_, first + i));
    }
  }
}

TEST_F(LiveServerTest, ClosedLoopLatencyIsTimedFromTheSend) {
  LoadConfig cfg;
  cfg.port = server_->port();
  cfg.closed_loop = true;
  const auto schedule = burst_schedule(0.05, 0.01, 4, requests_.size(), 15);
  // The schedule started 50 ms ago: every request is already due, yet no
  // lateness is charged, unlike the open loop's.
  const LoadResult r = run_open_loop(
      cfg, requests_, schedule, Clock::now() - std::chrono::milliseconds(50),
      nullptr);
  ASSERT_EQ(r.ok, schedule.size());
  for (const Reply& rep : r.replies) {
    EXPECT_LT(rep.latency_us, 40000.0);
    EXPECT_GE(rep.start_ns, 50'000'000);
  }
}

TEST(OpenLoop, SilentPeerCountsTimeoutsAndGrowingBacklog) {
  // A listener that never accepts: connects complete from the kernel's
  // backlog, requests are written, nothing ever answers.
  std::uint16_t port = 0;
  const int listen_fd = booster::ipc::listen_tcp_loopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  std::vector<LoadRequest> requests(1);
  requests[0].bytes = predict_request("1,2,3\n");
  requests[0].rows = 1;
  LoadConfig cfg;
  cfg.port = port;
  cfg.drain_timeout = std::chrono::milliseconds(50);
  const auto schedule = poisson_schedule(500.0, 0.2, 1, 13);
  const LoadResult r =
      run_open_loop(cfg, requests, schedule, Clock::now(), nullptr);
  ::close(listen_fd);
  EXPECT_EQ(r.ok, 0u);
  EXPECT_EQ(r.timeouts, schedule.size());
  EXPECT_EQ(r.backlog_max, schedule.size());
  EXPECT_TRUE(r.backlog_growing());
}

}  // namespace
}  // namespace perfbench

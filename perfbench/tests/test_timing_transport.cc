// Tests of the timing decorator over ipc::Transport: a decorated localhost
// TCP world trains bit-identically to gbdt::Trainer while the decorator
// accounts send busy time and receive wait, and the membership surface is
// forwarded unchanged.
#include <optional>
#include <thread>

#include <gtest/gtest.h>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/tcp_transport.h"
#include "timing_transport.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace perfbench {
namespace {

namespace gbdt = booster::gbdt;
namespace ipc = booster::ipc;
namespace wl = booster::workloads;

struct TcpPair {
  std::unique_ptr<ipc::TcpTransport> rank0;
  std::unique_ptr<ipc::TcpTransport> rank1;
};

TcpPair assemble_pair() {
  TcpPair p;
  p.rank0 = ipc::TcpTransport::listen("127.0.0.1", 0, 2);
  EXPECT_NE(p.rank0, nullptr);
  const std::uint16_t port = p.rank0->port();
  std::thread worker(
      [&] { p.rank1 = ipc::TcpTransport::connect("127.0.0.1", port, 2, 1); });
  EXPECT_TRUE(p.rank0->wait_for_world(2, std::chrono::seconds(10)));
  worker.join();
  EXPECT_NE(p.rank1, nullptr);
  return p;
}

TEST(TimingTransport, DecoratedTcpWorldTrainsBitIdenticallyToTrainer) {
  const wl::DatasetSpec spec = wl::fraud_spec();
  const gbdt::BinnedDataset data =
      gbdt::Binner().bin(wl::synthesize(spec, 4000, 21));
  data.ensure_row_major();
  gbdt::DistributedConfig cfg;
  cfg.trainer.num_trees = 3;
  cfg.trainer.max_depth = 5;
  cfg.trainer.loss = spec.loss;
  cfg.trainer.num_shards = 4;
  cfg.trainer.num_threads = 2;
  const gbdt::TrainResult reference = gbdt::Trainer(cfg.trainer).train(data);

  TcpPair pair = assemble_pair();
  ASSERT_NE(pair.rank1, nullptr);
  Tracer tracer(Clock::now());
  TimingTransport timed[2] = {TimingTransport(pair.rank0.get(), &tracer),
                              TimingTransport(pair.rank1.get(), &tracer)};
  std::optional<gbdt::TrainResult> results[2];
  std::thread ranks[2];
  for (int r = 0; r < 2; ++r) {
    ranks[r] = std::thread([&, r] {
      gbdt::DistributedTrainer trainer(cfg, &timed[r]);
      results[r] = trainer.train(data);
    });
  }
  for (auto& t : ranks) t.join();

  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(results[r].has_value());
    EXPECT_TRUE(results_identical(*results[r], reference, data, 1)) << r;
    EXPECT_GT(timed[r].sends(), 0u);
    EXPECT_GT(timed[r].recvs(), 0u);
    EXPECT_GT(timed[r].send_busy_us(), 0.0);
    EXPECT_GT(timed[r].recv_wait_us(), 0.0);
    // The decorator's counters mirror the wrapped endpoint's.
    EXPECT_EQ(timed[r].stats().frames_sent,
              (r == 0 ? pair.rank0 : pair.rank1)->stats().frames_sent);
    EXPECT_GT(timed[r].stats().bytes_sent, 0u);
  }
  EXPECT_EQ(tracer.count("ipc.send"), timed[0].sends() + timed[1].sends());
  EXPECT_EQ(tracer.count("ipc.recv"), timed[0].recvs() + timed[1].recvs());
}

TEST(TimingTransport, ForwardsTheMembershipSurface) {
  TcpPair pair = assemble_pair();
  ASSERT_NE(pair.rank1, nullptr);
  TimingTransport t0(pair.rank0.get());
  TimingTransport t1(pair.rank1.get());
  EXPECT_STREQ(t0.kind(), "tcp");
  EXPECT_EQ(t0.world_size(), 2u);
  EXPECT_EQ(t0.rank(), 0u);
  EXPECT_EQ(t1.rank(), 1u);
  EXPECT_TRUE(t0.membership_capable());
  EXPECT_FALSE(t1.membership_capable());
  t0.pump(std::chrono::milliseconds(1));
  EXPECT_TRUE(t0.peer_connected(1));
  bool joined = false;
  for (const ipc::PeerEvent& ev : t0.take_peer_events()) {
    joined = joined || (ev.rank == 1 && ev.kind == ipc::PeerEventKind::kJoined);
  }
  EXPECT_TRUE(joined);
  t0.drop_peer(1);
  EXPECT_FALSE(t0.peer_connected(1));
  EXPECT_FALSE(pair.rank0->peer_connected(1));
}

}  // namespace
}  // namespace perfbench

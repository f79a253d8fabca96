// Timing decorator over ipc::Transport: forwards every virtual method --
// the frame channel and the membership surface -- to the wrapped endpoint
// and records, per rank, how long send() was busy and how long recv()
// waited. With a Tracer it also records one span per send/recv, parented
// to the rank's training span. Numerics are untouched: a decorated world
// trains bit-identically to gbdt::Trainer (tests/test_timing_transport.cc).
#pragma once

#include <cstdint>

#include "ipc/transport.h"
#include "trace.h"

namespace perfbench {

class TimingTransport final : public booster::ipc::Transport {
 public:
  /// Borrows `inner` (and `tracer`, which may be null); both must outlive
  /// the decorator. Drive it from the endpoint's one thread.
  TimingTransport(booster::ipc::Transport* inner, Tracer* tracer = nullptr)
      : inner_(inner), tracer_(tracer) {
    stats_ = inner_->stats();
  }

  /// Parent span id for the spans recorded from now on.
  void set_parent_span(std::uint64_t id) { parent_span_ = id; }

  double send_busy_us() const { return send_busy_us_; }
  double recv_wait_us() const { return recv_wait_us_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t recvs() const { return recvs_; }

  std::uint32_t world_size() const override { return inner_->world_size(); }
  std::uint32_t rank() const override { return inner_->rank(); }
  const char* kind() const override { return inner_->kind(); }

  bool send(std::uint32_t dst, std::span<const std::uint8_t> frame) override;
  booster::ipc::RecvStatus recv(std::uint32_t src,
                                std::vector<std::uint8_t>* frame,
                                std::chrono::milliseconds timeout) override;

  bool membership_capable() const override {
    return inner_->membership_capable();
  }
  void pump(std::chrono::milliseconds timeout) override {
    inner_->pump(timeout);
    stats_ = inner_->stats();
  }
  std::vector<booster::ipc::PeerEvent> take_peer_events() override {
    return inner_->take_peer_events();
  }
  bool peer_connected(std::uint32_t rank) const override {
    return inner_->peer_connected(rank);
  }
  void drop_peer(std::uint32_t rank) override {
    inner_->drop_peer(rank);
    stats_ = inner_->stats();
  }
  void shutdown_hard() override {
    inner_->shutdown_hard();
    stats_ = inner_->stats();
  }

 private:
  booster::ipc::Transport* inner_;
  Tracer* tracer_;
  std::uint64_t parent_span_ = 0;
  double send_busy_us_ = 0.0;
  double recv_wait_us_ = 0.0;
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
};

}  // namespace perfbench

#include "timing_transport.h"

namespace perfbench {

namespace ipc = booster::ipc;

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

bool TimingTransport::send(std::uint32_t dst,
                           std::span<const std::uint8_t> frame) {
  const auto start = Clock::now();
  const bool ok = inner_->send(dst, frame);
  const auto end = Clock::now();
  send_busy_us_ += micros(start, end);
  ++sends_;
  stats_ = inner_->stats();
  if (tracer_ != nullptr) tracer_->record("ipc.send", start, end, parent_span_);
  return ok;
}

ipc::RecvStatus TimingTransport::recv(std::uint32_t src,
                                      std::vector<std::uint8_t>* frame,
                                      std::chrono::milliseconds timeout) {
  const auto start = Clock::now();
  const ipc::RecvStatus status = inner_->recv(src, frame, timeout);
  const auto end = Clock::now();
  recv_wait_us_ += micros(start, end);
  ++recvs_;
  stats_ = inner_->stats();
  if (tracer_ != nullptr) tracer_->record("ipc.recv", start, end, parent_span_);
  return status;
}

}  // namespace perfbench

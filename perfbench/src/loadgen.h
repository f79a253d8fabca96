// Open-loop load generator for the serving workloads. One thread drives a
// few keep-alive connections through an epoll Poller: each request is sent
// at its scheduled due time whatever is still outstanding (requests
// pipeline on their connection), so a stalled server receives the same
// load as a fast one and its queue can grow. Latency is timed from the due
// time, not the send time, which charges a stall to every request due
// behind it; how late the generator itself ran (send time - due time) and
// the largest outstanding-request count are reported so a run can be
// judged valid.
//
// The same generator also runs a closed loop (LoadConfig::closed_loop): at
// most one request in flight per connection, each sent at its due time or
// as soon as a reply frees a connection, whichever is later, and latency
// timed from the send. Fed bursts (burst_schedule), it sends each burst
// back to back: the server and the generator sharing one CPU keep it busy,
// so only a burst's first request pays for waking an idle CPU.
//
// The generator checks framing and status; prediction values are parsed
// and kept per reply (with the X-Model-Version that produced them) for
// the caller to verify bitwise against local Model::predict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// A prebuilt HTTP /predict request and the number of rows in its body.
struct LoadRequest {
  std::string bytes;
  std::uint32_t rows = 0;
};

/// Builds a keep-alive `POST /predict` carrying `csv_body`.
std::string predict_request(const std::string& csv_body);

struct Arrival {
  std::int64_t due_ns = 0;     // from the schedule's start
  std::uint32_t request = 0;   // index into the request set
  bool traced = false;         // record a span for this request
};

/// Seeded Poisson arrivals at `rate_qps` over `seconds`, each drawing one
/// of `num_requests` prebuilt requests uniformly. Same inputs, same
/// schedule. `trace_slice_s` > 0 marks alternating slices of that length
/// as traced (odd slices), so traced and untraced requests interleave.
std::vector<Arrival> poisson_schedule(double rate_qps, double seconds,
                                      std::size_t num_requests,
                                      std::uint64_t seed,
                                      double trace_slice_s = 0.0);

/// Bursts of `burst` arrivals, all due at the start of each `period_s`
/// over `seconds`, each drawing one of `num_requests` prebuilt requests
/// uniformly by `seed`. `trace_bursts` > 0 marks alternating runs of that
/// many bursts as traced (odd runs).
std::vector<Arrival> burst_schedule(double seconds, double period_s,
                                    std::uint32_t burst,
                                    std::size_t num_requests,
                                    std::uint64_t seed,
                                    std::size_t trace_bursts = 0);

struct LoadConfig {
  std::uint16_t port = 0;
  std::uint32_t connections = 1;
  /// How long after the last due time outstanding requests may still be
  /// answered before they count as timed out.
  std::chrono::milliseconds drain_timeout{3000};
  /// Closed loop: at most one request in flight per connection; a due
  /// time is the earliest send. Lag and the backlog quarters are not
  /// recorded.
  bool closed_loop = false;
};

struct Reply {
  std::uint32_t arrival = 0;  // index into the schedule
  int status = 0;
  std::uint64_t version = 0;  // X-Model-Version (0 when absent)
  double latency_us = 0.0;    // response received - start_ns
  /// When the latency clock started, from the run's start: the due time,
  /// or in a closed loop the send time.
  std::int64_t start_ns = 0;
  std::uint32_t values_begin = 0;
  std::uint32_t values_count = 0;
};

struct LoadResult {
  std::uint64_t scheduled = 0;
  std::uint64_t ok = 0;        // 200
  std::uint64_t shed = 0;      // 503 (admission control)
  std::uint64_t errors = 0;    // other statuses, bad framing, dead connections
  std::uint64_t timeouts = 0;  // never answered within the drain timeout
  std::vector<Reply> replies;  // every 200 and 503, in arrival order per conn
  std::vector<double> values;  // parsed predictions of the 200 replies
  std::vector<double> ok_latency_us;     // 200 replies only
  std::vector<double> traced_latency_us;   // 200 replies of traced arrivals
  std::vector<double> untraced_latency_us; // 200 replies of untraced arrivals
  std::vector<double> lag_us;  // send time - due time, per sent request
  std::uint64_t backlog_max = 0;
  /// Mean outstanding requests over the first and last quarter of the
  /// schedule -- a growing backlog is last >> first.
  double backlog_first_quarter = 0.0;
  double backlog_last_quarter = 0.0;

  bool backlog_growing() const {
    return backlog_last_quarter > 2.0 * backlog_first_quarter + 4.0;
  }
};

/// Runs `schedule` against the server on `cfg.port`, starting the
/// schedule clock at `start` (which may be in the future). Requests with
/// `traced` set are recorded in `tracer` (if non-null) as "serve.request"
/// spans from due time to response.
LoadResult run_open_loop(const LoadConfig& cfg,
                         const std::vector<LoadRequest>& requests,
                         const std::vector<Arrival>& schedule,
                         Clock::time_point start, Tracer* tracer = nullptr);

}  // namespace perfbench

// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark's own code around each call into a layer's public functions
// (a training, a transport send/recv, a request, an ingest, a replayed
// kernel), kept in memory, and written out once as Chrome trace-event JSON
// when the run ends. Thread-safe: rank threads and the load generator
// record concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  /// Spans beyond this many are counted but not kept individually (bounds
  /// memory and the trace file size).
  static constexpr std::size_t kMaxKeptSpans = 200000;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Records one finished span and returns its id (never 0). `parent` is
  /// the id of the span that caused it, 0 for a root.
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0);

  /// Reserves an id for a span whose children finish before it does; pass
  /// the id to record_with_id when the span ends.
  std::uint64_t reserve_id();
  void record_with_id(std::uint64_t id, const char* name,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t parent = 0);

  std::uint64_t spans() const;
  /// Number of spans recorded under this name.
  std::uint64_t count(const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t thread;
  };

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                // guarded by mu_
  std::map<std::string, std::uint64_t> counts_;  // guarded by mu_
  std::uint64_t next_id_ = 1;              // guarded by mu_
  std::uint64_t recorded_ = 0;             // guarded by mu_
};

/// RAII span: records [construction, destruction) when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), name_(name), parent_(parent),
        id_(tracer != nullptr ? tracer->reserve_id() : 0),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record_with_id(id_, name_, start_, Clock::now(), parent_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench

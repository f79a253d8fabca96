#include "trace.h"

#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

std::uint64_t this_thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

std::uint64_t Tracer::reserve_id() {
  const std::scoped_lock lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent) {
  const std::uint64_t id = reserve_id();
  record_with_id(id, name, start, end, parent);
  return id;
}

void Tracer::record_with_id(std::uint64_t id, const char* name,
                            Clock::time_point start, Clock::time_point end,
                            std::uint64_t parent) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const Span span{name, id, parent, ns(start), ns(end), this_thread_tag()};
  const std::scoped_lock lock(mu_);
  ++recorded_;
  ++counts_[name];
  if (spans_.size() < kMaxKeptSpans) spans_.push_back(span);
}

std::uint64_t Tracer::spans() const {
  const std::scoped_lock lock(mu_);
  return recorded_;
}

std::uint64_t Tracer::count(const std::string& name) const {
  const std::scoped_lock lock(mu_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::scoped_lock lock(mu_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << json_number(1e-3 * static_cast<double>(s.start_ns))
        << ", \"dur\": "
        << json_number(1e-3 * static_cast<double>(s.end_ns - s.start_ns))
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

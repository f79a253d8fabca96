#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <random>
#include <string_view>

#include "ipc/poller.h"
#include "serve/client.h"

namespace perfbench {

namespace ipc = booster::ipc;

namespace {

constexpr std::uint64_t kTimerTag = 0;
constexpr std::chrono::microseconds kSpinWindow{200};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::uint32_t> inflight;  // arrival indices, in send order
  bool want_write = false;
  bool dead = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lower = [](char c) {
      return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Parses one response head (status line + headers, CRLFCRLF excluded).
bool parse_head(std::string_view head, int* status, std::uint64_t* length,
                std::uint64_t* version) {
  const std::size_t eol = head.find("\r\n");
  const std::string_view line = head.substr(0, eol);
  if (line.size() < 12 || line.substr(0, 5) != "HTTP/") return false;
  std::uint64_t code = 0;
  if (!parse_u64(line.substr(9, 3), &code)) return false;
  *status = static_cast<int>(code);
  bool have_length = false;
  *version = 0;
  std::size_t pos = eol == std::string_view::npos ? head.size() : eol + 2;
  while (pos < head.size()) {
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view h = head.substr(pos, end - pos);
    const std::size_t colon = h.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = h.substr(0, colon);
      const std::string_view value = h.substr(colon + 1);
      if (iequals(name, "content-length")) {
        have_length = parse_u64(value, length);
      } else if (iequals(name, "x-model-version")) {
        parse_u64(value, version);
      }
    }
    pos = end + 2;
  }
  return have_length;
}

class Generator {
 public:
  Generator(const LoadConfig& cfg, const std::vector<LoadRequest>& requests,
            const std::vector<Arrival>& schedule, Clock::time_point start,
            Tracer* tracer)
      : cfg_(cfg), requests_(requests), schedule_(schedule), start_(start),
        tracer_(tracer), conns_(cfg.connections),
        closed_(cfg.closed_loop) {
    if (closed_) sent_.resize(schedule.size());
  }

  LoadResult run();

 private:
  Clock::time_point due(std::uint32_t arrival) const {
    return start_ + std::chrono::nanoseconds(schedule_[arrival].due_ns);
  }
  /// When the arrival's latency clock starts: its due time, or in a
  /// closed loop its send time.
  Clock::time_point clock_start(std::uint32_t arrival) const {
    return closed_ ? sent_[arrival] : due(arrival);
  }
  /// A closed loop's connection with nothing in flight, or none.
  std::size_t idle_connection() const;
  void send_due(Clock::time_point now);
  void send_closed(Clock::time_point now);
  /// Appends arrival `arrival` to connection `c`'s pipeline and sends it.
  void enqueue(std::size_t c, std::uint32_t arrival);
  void flush(std::size_t c);
  void read(std::size_t c, Clock::time_point now);
  void complete(Conn& conn, int status, std::uint64_t version,
                std::string_view body, Clock::time_point now);
  void kill(std::size_t c);
  void update_interest(std::size_t c, bool want_write);

  const LoadConfig& cfg_;
  const std::vector<LoadRequest>& requests_;
  const std::vector<Arrival>& schedule_;
  Clock::time_point start_;
  Tracer* tracer_;
  std::vector<Conn> conns_;
  const bool closed_;
  std::vector<Clock::time_point> sent_;  // closed loop: send time per arrival
  ipc::Poller poller_;
  std::size_t next_ = 0;
  std::uint64_t outstanding_ = 0;
  double backlog_sum_first_ = 0.0;
  double backlog_sum_last_ = 0.0;
  std::uint64_t backlog_n_first_ = 0;
  std::uint64_t backlog_n_last_ = 0;
  std::vector<double> scratch_;
  LoadResult r_;
};

LoadResult Generator::run() {
  r_.scheduled = schedule_.size();
  ipc::TimerFd timer;
  poller_.add(timer.fd(), kTimerTag, true, false);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].fd = connect_loopback(cfg_.port);
    if (conns_[c].fd < 0 || !poller_.add(conns_[c].fd, c + 1, true, false)) {
      conns_[c].dead = true;
    }
  }
  Clock::time_point last_due =
      schedule_.empty()
          ? start_
          : due(static_cast<std::uint32_t>(schedule_.size() - 1));
  std::vector<ipc::Poller::Event> events;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (closed_) {
      send_closed(now);
    } else {
      send_due(now);
    }
    // A closed loop may send its last request after its due time.
    if (closed_ && next_ == schedule_.size() && !sent_.empty()) {
      last_due = std::max(last_due, sent_.back());
    }
    if (next_ == schedule_.size() &&
        (outstanding_ == 0 || now >= last_due + cfg_.drain_timeout)) {
      break;
    }
    std::chrono::milliseconds wait{100};
    if (closed_ && next_ < schedule_.size()) {
      // Sleep until the next due time if a connection is free for it, else
      // until a reply frees one. The latency clock starts at the send, so
      // a late wake-up costs nothing.
      if (idle_connection() < conns_.size()) {
        const auto delay = std::chrono::duration_cast<std::chrono::microseconds>(
            due(static_cast<std::uint32_t>(next_)) - now);
        if (delay.count() > 0) {
          timer.arm_once(delay);
        } else {
          wait = std::chrono::milliseconds(0);
        }
      }
    } else if (!closed_ && next_ < schedule_.size()) {
      // Sleep on the timer until shortly before the next due time, then
      // poll without blocking: a timer wake-up is late by tens of
      // microseconds on a busy host, and that lateness would be charged
      // to the request.
      const auto delay = std::chrono::duration_cast<std::chrono::microseconds>(
          due(static_cast<std::uint32_t>(next_)) - now);
      if (delay > kSpinWindow) {
        timer.arm_once(delay - kSpinWindow);
      } else {
        wait = std::chrono::milliseconds(0);
      }
    } else {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              last_due + cfg_.drain_timeout - now);
      wait = std::clamp(left + std::chrono::milliseconds(1),
                        std::chrono::milliseconds(1), wait);
    }
    poller_.wait(wait, &events);
    now = Clock::now();
    for (const auto& ev : events) {
      if (ev.tag == kTimerTag) {
        timer.consume();
        continue;
      }
      const std::size_t c = ev.tag - 1;
      if (conns_[c].dead) continue;
      if (ev.readable || ev.hangup || ev.error) read(c, now);
      if (!conns_[c].dead && ev.writable) flush(c);
    }
  }
  r_.timeouts = outstanding_;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (conns_[c].fd >= 0) {
      poller_.remove(conns_[c].fd);
      ::close(conns_[c].fd);
      conns_[c].fd = -1;
    }
  }
  r_.backlog_first_quarter =
      backlog_n_first_ == 0 ? 0.0 : backlog_sum_first_ / backlog_n_first_;
  r_.backlog_last_quarter =
      backlog_n_last_ == 0 ? 0.0 : backlog_sum_last_ / backlog_n_last_;
  return std::move(r_);
}

void Generator::send_due(Clock::time_point now) {
  const std::size_t n = schedule_.size();
  while (next_ < n && due(static_cast<std::uint32_t>(next_)) <= now) {
    const std::uint32_t arrival = static_cast<std::uint32_t>(next_++);
    // Least-loaded live connection keeps the pipelines balanced.
    std::size_t best = conns_.size();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].dead) continue;
      if (best == conns_.size() ||
          conns_[c].inflight.size() < conns_[best].inflight.size()) {
        best = c;
      }
    }
    if (best == conns_.size()) {
      ++r_.errors;  // no live connection left to carry it
      continue;
    }
    enqueue(best, arrival);
    r_.lag_us.push_back(
        std::chrono::duration<double, std::micro>(now - due(arrival)).count());
    if (arrival < n / 4) {
      backlog_sum_first_ += static_cast<double>(outstanding_);
      ++backlog_n_first_;
    } else if (arrival >= n - n / 4) {
      backlog_sum_last_ += static_cast<double>(outstanding_);
      ++backlog_n_last_;
    }
  }
}

std::size_t Generator::idle_connection() const {
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].dead && conns_[c].inflight.empty()) return c;
  }
  return conns_.size();
}

void Generator::send_closed(Clock::time_point now) {
  if (std::all_of(conns_.begin(), conns_.end(),
                  [](const Conn& c) { return c.dead; })) {
    r_.errors += schedule_.size() - next_;  // no live connection left
    next_ = schedule_.size();
    return;
  }
  while (next_ < schedule_.size() &&
         due(static_cast<std::uint32_t>(next_)) <= now) {
    const std::size_t c = idle_connection();
    if (c == conns_.size()) return;  // all busy: wait for a reply
    const std::uint32_t arrival = static_cast<std::uint32_t>(next_++);
    sent_[arrival] = now;
    enqueue(c, arrival);
    now = Clock::now();
  }
}

void Generator::enqueue(std::size_t c, std::uint32_t arrival) {
  Conn& conn = conns_[c];
  conn.out += requests_[schedule_[arrival].request].bytes;
  conn.inflight.push_back(arrival);
  ++outstanding_;
  r_.backlog_max = std::max(r_.backlog_max, outstanding_);
  flush(c);
}

void Generator::flush(std::size_t c) {
  Conn& conn = conns_[c];
  while (conn.out_off < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      conn.out_off += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_interest(c, true);
      return;
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      kill(c);
      return;
    }
  }
  conn.out.clear();
  conn.out_off = 0;
  update_interest(c, false);
}

void Generator::update_interest(std::size_t c, bool want_write) {
  Conn& conn = conns_[c];
  if (conn.want_write == want_write) return;
  conn.want_write = want_write;
  poller_.modify(conn.fd, c + 1, true, want_write);
}

void Generator::read(std::size_t c, Clock::time_point now) {
  Conn& conn = conns_[c];
  char buf[1 << 16];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly close or error
    break;
  }
  for (;;) {
    const std::string_view view =
        std::string_view(conn.in).substr(conn.in_off);
    const std::size_t head_end = view.find("\r\n\r\n");
    if (head_end == std::string_view::npos) break;
    int status = 0;
    std::uint64_t length = 0;
    std::uint64_t version = 0;
    if (!parse_head(view.substr(0, head_end), &status, &length, &version) ||
        conn.inflight.empty()) {
      kill(c);
      return;
    }
    const std::size_t total = head_end + 4 + length;
    if (view.size() < total) break;
    complete(conn, status, version, view.substr(head_end + 4, length), now);
    conn.in_off += total;
  }
  if (conn.in_off > 0 && conn.in_off * 2 >= conn.in.size()) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  if (eof) kill(c);
}

void Generator::complete(Conn& conn, int status, std::uint64_t version,
                         std::string_view body, Clock::time_point now) {
  const std::uint32_t arrival = conn.inflight.front();
  conn.inflight.pop_front();
  --outstanding_;
  const Arrival& a = schedule_[arrival];
  Reply reply;
  reply.arrival = arrival;
  reply.status = status;
  reply.version = version;
  reply.latency_us =
      std::chrono::duration<double, std::micro>(now - clock_start(arrival))
          .count();
  reply.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       clock_start(arrival) - start_)
                       .count();
  if (status == 503) {
    ++r_.shed;
    r_.replies.push_back(reply);
    return;
  }
  scratch_.clear();
  if (status != 200 || !booster::serve::parse_predictions(body, &scratch_) ||
      scratch_.size() != requests_[a.request].rows) {
    ++r_.errors;
    return;
  }
  ++r_.ok;
  reply.values_begin = static_cast<std::uint32_t>(r_.values.size());
  reply.values_count = static_cast<std::uint32_t>(scratch_.size());
  r_.values.insert(r_.values.end(), scratch_.begin(), scratch_.end());
  r_.replies.push_back(reply);
  r_.ok_latency_us.push_back(reply.latency_us);
  if (a.traced) {
    r_.traced_latency_us.push_back(reply.latency_us);
    if (tracer_ != nullptr) {
      tracer_->record("serve.request", clock_start(arrival), now);
    }
  } else {
    r_.untraced_latency_us.push_back(reply.latency_us);
  }
}

void Generator::kill(std::size_t c) {
  Conn& conn = conns_[c];
  if (conn.dead) return;
  conn.dead = true;
  r_.errors += conn.inflight.size();
  outstanding_ -= conn.inflight.size();
  conn.inflight.clear();
  if (conn.fd >= 0) {
    poller_.remove(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
  }
}

}  // namespace

std::string predict_request(const std::string& csv_body) {
  return "POST /predict HTTP/1.1\r\nHost: localhost\r\n"
         "Content-Type: text/plain\r\nContent-Length: " +
         std::to_string(csv_body.size()) + "\r\n\r\n" + csv_body;
}

std::vector<Arrival> poisson_schedule(double rate_qps, double seconds,
                                      std::size_t num_requests,
                                      std::uint64_t seed,
                                      double trace_slice_s) {
  std::vector<Arrival> out;
  if (rate_qps <= 0.0 || seconds <= 0.0 || num_requests == 0) return out;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_qps);
  std::uniform_int_distribution<std::size_t> pick(0, num_requests - 1);
  out.reserve(static_cast<std::size_t>(rate_qps * seconds * 1.1) + 16);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    a.request = static_cast<std::uint32_t>(pick(rng));
    a.traced = trace_slice_s > 0.0 &&
               static_cast<std::uint64_t>(t / trace_slice_s) % 2 == 1;
    out.push_back(a);
  }
  return out;
}

std::vector<Arrival> burst_schedule(double seconds, double period_s,
                                    std::uint32_t burst,
                                    std::size_t num_requests,
                                    std::uint64_t seed,
                                    std::size_t trace_bursts) {
  std::vector<Arrival> out;
  if (seconds <= 0.0 || period_s <= 0.0 || burst == 0 || num_requests == 0) {
    return out;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, num_requests - 1);
  const auto bursts = static_cast<std::size_t>(seconds / period_s);
  out.reserve(bursts * burst);
  for (std::size_t b = 0; b < bursts; ++b) {
    for (std::uint32_t i = 0; i < burst; ++i) {
      Arrival a;
      a.due_ns = static_cast<std::int64_t>(static_cast<double>(b) * period_s * 1e9);
      a.request = static_cast<std::uint32_t>(pick(rng));
      a.traced = trace_bursts > 0 && (b / trace_bursts) % 2 == 1;
      out.push_back(a);
    }
  }
  return out;
}

LoadResult run_open_loop(const LoadConfig& cfg,
                         const std::vector<LoadRequest>& requests,
                         const std::vector<Arrival>& schedule,
                         Clock::time_point start, Tracer* tracer) {
  return Generator(cfg, requests, schedule, start, tracer).run();
}

}  // namespace perfbench

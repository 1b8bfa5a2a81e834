#include "gen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

using nors::net::FrameType;

void pin_current_thread(Cpus which) {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < n; ++cpu) {
    const bool gen_cpu = cpu == n - 1;
    if (which == Cpus::kAll || (which == Cpus::kGenerator) == gen_cpu) {
      CPU_SET(cpu, &set);
    }
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/// Per-CPU steal ticks from /proc/stat ("cpuN user nice system idle iowait
/// irq softirq steal ..."); empty if it cannot be read.
std::vector<long long> read_steal() {
  std::vector<long long> out;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 ||
        !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    long long v[8] = {};
    fields >> name;
    for (long long& x : v) fields >> x;
    out.push_back(fields ? v[7] : 0);
  }
  return out;
}

constexpr auto kStealPeriod = std::chrono::milliseconds(20);

}  // namespace

HostSteal::HostSteal() {
  sampler_ = std::thread([this] {
    pin_current_thread(Cpus::kGenerator);
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample s{now_ns(), read_steal()};
      {
        std::lock_guard<std::mutex> lock(mu_);
        samples_.push_back(std::move(s));
      }
      std::this_thread::sleep_for(kStealPeriod);
    }
  });
}

HostSteal::~HostSteal() {
  stop_ = true;
  sampler_.join();
}

double HostSteal::max_share(std::int64_t a, std::int64_t b) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0;
  // The last sample at or before a, and the first at or after b.
  auto hi = std::lower_bound(
      samples_.begin(), samples_.end(), b,
      [](const Sample& s, std::int64_t t) { return s.t < t; });
  if (hi == samples_.end()) --hi;
  auto lo = std::upper_bound(
      samples_.begin(), samples_.end(), a,
      [](std::int64_t t, const Sample& s) { return t < s.t; });
  if (lo != samples_.begin()) --lo;
  if (hi->t <= lo->t || hi->ticks.size() != lo->ticks.size()) return 0;
  const double tick_ns = 1e9 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  long long most = 0;
  for (std::size_t c = 0; c < hi->ticks.size(); ++c) {
    most = std::max(most, hi->ticks[c] - lo->ticks[c]);
  }
  return static_cast<double>(most) * tick_ns /
         static_cast<double>(hi->t - lo->t);
}

namespace {

ThreadCpu thread_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  ThreadCpu c;
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  c.nvcsw = ru.ru_nvcsw;
  c.nivcsw = ru.ru_nivcsw;
  return c;
}

ThreadCpu minus(const ThreadCpu& a, const ThreadCpu& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.nvcsw - b.nvcsw,
          a.nivcsw - b.nivcsw};
}

struct OutConn {
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  // (op index, end offset in buf) for frames not yet fully written.
  std::deque<std::pair<std::size_t, std::size_t>> frames;
};

}  // namespace

Generator::Generator(int port, int conns) : port_(port), conns_(conns) {
  connect_all();
}

void Generator::connect_all() {
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
  for (int c = 0; c < conns_; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error("connect() to the benchmark server failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds_.push_back(fd);
  }
}

Generator::~Generator() {
  for (const int fd : fds_) ::close(fd);
}

PhaseOutput Generator::run(PhaseInput& in) {
  PhaseOutput out;
  auto& ops = in.ops;
  const std::size_t nconn = fds_.size();
  std::size_t total_queries = 0;
  std::vector<std::vector<std::size_t>> expect(nconn);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    expect[ops[i].conn].push_back(i);
    if (ops[i].kind == OpKind::kRead) {
      total_queries = std::max<std::size_t>(total_queries,
                                            ops[i].off + ops[i].len);
    }
  }
  out.answers.assign(total_queries, nors::serve::Decision{});

  const std::int64_t t0 = now_ns() + 2'000'000;
  out.t0 = t0;
  const std::int64_t deadline =
      t0 + (ops.empty() ? 0 : ops.back().due_ns) + in.grace_ns;
  bool broken = false;

  // One spinning thread sends and receives: no sleep or epoll wake sits
  // between a due time and its send, or between an answer's arrival and
  // its timestamp, so the measured latency is the server's and the
  // socket's, not the generator's.
  std::thread runner([&] {
    pin_current_thread(Cpus::kGenerator);
    const ThreadCpu c0 = thread_cpu();
    std::vector<OutConn> oc(nconn);
    std::vector<std::vector<std::uint8_t>> inbuf(nconn);
    std::vector<std::size_t> cursor(nconn, 0);
    std::vector<std::uint8_t> body, chunk(1 << 16);
    std::size_t next = 0, done = 0;

    auto flush = [&](std::size_t c) {
      OutConn& o = oc[c];
      while (o.off < o.buf.size()) {
        const ssize_t w = ::send(fds_[c], o.buf.data() + o.off,
                                 o.buf.size() - o.off, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          broken = true;
          o.buf.clear();
          o.off = 0;
          o.frames.clear();
          return;
        }
        o.off += static_cast<std::size_t>(w);
      }
      const std::int64_t t = now_ns();
      while (!o.frames.empty() && o.frames.front().second <= o.off) {
        ops[o.frames.front().first].send_end = t;
        o.frames.pop_front();
      }
      if (o.off == o.buf.size()) {
        o.buf.clear();
        o.off = 0;
      }
    };

    auto receive = [&](std::size_t c) {
      auto& ib = inbuf[c];
      bool closed = false;
      for (;;) {
        const ssize_t r = ::recv(fds_[c], chunk.data(), chunk.size(), 0);
        if (r > 0) {
          ib.insert(ib.end(), chunk.data(), chunk.data() + r);
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed = true;
        break;
      }
      std::size_t pos = 0;
      while (pos < ib.size()) {
        const std::int64_t tp = now_ns();
        auto pr = nors::net::parse_frame(ib.data() + pos, ib.size() - pos);
        if (pr.status == nors::net::ParseResult::Status::kNeedMore) break;
        if (pr.status == nors::net::ParseResult::Status::kBad ||
            cursor[c] >= expect[c].size()) {
          closed = true;
          break;
        }
        pos += pr.consumed;
        const std::size_t want = expect[c][cursor[c]++];
        Op& op = ops[want];
        op.recv_start = tp;
        op.status = OpStatus::kOk;
        try {
          const auto& f = pr.frame;
          if (f.request_id != static_cast<std::uint32_t>(want)) {
            // Responses come in request order: this one answers another
            // request, so the stream is out of step from here on.
            if (out.misrouted++ == 0) {
              out.first_misrouted = {static_cast<std::int64_t>(want),
                                     static_cast<std::int64_t>(f.request_id),
                                     static_cast<std::int64_t>(c)};
            }
            op.status = OpStatus::kError;
          } else if (f.type == FrameType::kError) {
            op.status = OpStatus::kError;
          } else if (op.kind == OpKind::kRead &&
                     f.type == FrameType::kRouteAck) {
            const auto ds = nors::net::decode_route_response(f.body);
            if (ds.size() != op.len) {
              op.status = OpStatus::kError;
            } else {
              std::copy(ds.begin(), ds.end(), out.answers.begin() + op.off);
            }
          } else if (op.kind == OpKind::kUpdate &&
                     f.type == FrameType::kUpdateAck) {
            (void)nors::net::decode_update_ack(f.body);
          } else if (op.kind == OpKind::kCheckpoint &&
                     f.type == FrameType::kCheckpointAck) {
            (void)nors::net::decode_checkpoint_ack(f.body);
          } else {
            op.status = OpStatus::kError;
          }
        } catch (const std::exception&) {
          op.status = OpStatus::kError;
        }
        op.recv_end = now_ns();
        ++done;
      }
      ib.erase(ib.begin(), ib.begin() + static_cast<std::ptrdiff_t>(pos));
      if (closed) {
        broken = true;
        ib.clear();
        cursor[c] = expect[c].size();  // nothing more will arrive here
      }
    };

    std::vector<bool> touched(nconn, false);
    while (done < ops.size()) {
      const std::int64_t now = now_ns();
      if (now > deadline) break;
      // Everything due now goes out; each frame keeps its own due time.
      while (next < ops.size() && t0 + ops[next].due_ns <= now) {
        Op& op = ops[next];
        op.send_start = now_ns();
        body.clear();
        FrameType type = FrameType::kRoute;
        if (op.kind == OpKind::kRead) {
          nors::net::encode_route_request(body, in.queries->data() + op.off,
                                          op.len);
        } else if (op.kind == OpKind::kUpdate) {
          nors::net::encode_update_request(body, (*in.batches)[op.off]);
          type = FrameType::kUpdate;
        } else {
          type = FrameType::kCheckpoint;
        }
        OutConn& o = oc[op.conn];
        nors::net::append_frame(o.buf, type, static_cast<std::uint32_t>(next),
                                body);
        o.frames.push_back({next, o.buf.size()});
        touched[op.conn] = true;
        ++next;
        if (next == ops.size()) {
          out.max_outstanding_at_last_send =
              static_cast<std::int64_t>(next - done);
        }
      }
      for (std::size_t c = 0; c < nconn; ++c) {
        if (touched[c] || oc[c].off < oc[c].buf.size()) flush(c);
        touched[c] = false;
        if (cursor[c] < expect[c].size()) receive(c);
      }
    }
    out.gen_cpu = minus(thread_cpu(), c0);
  });
  runner.join();

  out.stream_broken = broken;
  bool timed_out = false;
  for (auto& op : ops) {
    if (op.status == OpStatus::kPending) {
      op.status = OpStatus::kTimedOut;
      timed_out = true;
    }
  }
  // A late answer to a timed-out frame would be read as the answer to the
  // next frame on its connection: start the next phase on fresh ones.
  if (timed_out || broken) connect_all();
  return out;
}

}  // namespace perfbench

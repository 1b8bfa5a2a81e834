#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/latency.h"
#include "util/threads.h"

namespace nors::net {

namespace {

using clock_t_ = std::chrono::steady_clock;

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// fetch_max for the high-water stats.
void raise_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Splits options.replica_of into (host, port), once, at construction: a
/// value the follower could never connect to is refused up front instead
/// of retried forever. Empty host = loopback; empty value = not a replica.
std::pair<std::string, int> parse_primary(const std::string& s) {
  if (s.empty()) return {};
  const auto colon = s.rfind(':');
  const std::string digits =
      colon == std::string::npos ? std::string() : s.substr(colon + 1);
  const bool numeric =
      !digits.empty() && digits.size() <= 5 &&
      digits.find_first_not_of("0123456789") == std::string::npos;
  const int port = numeric ? std::stoi(digits) : 0;
  if (port < 1 || port > 65535) {
    throw std::invalid_argument(
        "replica_of: expected HOST:PORT with a port in 1..65535, got '" + s +
        "'");
  }
  std::string host = s.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  return {host, port};
}

}  // namespace

struct Server::Impl {
  struct Conn;

  /// One response-in-waiting, queued per connection in request order.
  /// Sync frames (hello/label/stats/errors) are born encoded; route
  /// frames become encodable when their batch ticket completes.
  struct Pending {
    std::uint32_t request_id = 0;
    FrameType resp_type = FrameType::kError;
    std::vector<std::uint8_t> resp_body;
    bool is_route = false;
    bool encoded = false;      // resp_body is final
    bool close_after = false;  // fatal: close once this response flushes
    // Route-only state. The queries/decisions arrays are owned here so a
    // shard worker can keep writing decisions even if the connection dies
    // mid-batch — the Pending (held by the completion callback) outlives
    // the socket.
    std::vector<serve::Query> queries;
    std::vector<serve::Decision> decisions;
    serve::ShardedRouteServer::Batch batch;
    std::shared_ptr<const TableService::Gen> gen;
    std::weak_ptr<Conn> conn;
    clock_t_::time_point t0;
    std::int64_t charged = 0;  // queries held against the global budget
  };

  struct Conn : std::enable_shared_from_this<Conn> {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::deque<std::shared_ptr<Pending>> pipeline;
    std::uint32_t events = 0;   // current epoll interest mask
    bool closing = false;       // flush remaining output, then close
    bool stop_parse = false;    // stream poisoned by an envelope error
    bool stall_armed = false;   // unflushed output is waiting on the peer
    clock_t_::time_point stall_since{};  // last write progress while armed
  };

  /// Cross-thread mailbox of one event loop: freshly accepted sockets
  /// (from the acceptor) and completed batches (from shard workers), each
  /// delivery paired with an eventfd wake. Held by shared_ptr from every
  /// completion callback, so a late completion after the loop has exited
  /// lands in a closed mailbox instead of freed memory.
  struct Inbox {
    std::mutex m;
    std::vector<int> fds;
    std::vector<std::shared_ptr<Pending>> done;
    /// Server-initiated frames (the kRepl stream), already fully framed,
    /// addressed to one of this loop's connections. Only the loop thread
    /// touches a Conn, so ConnSink hands the bytes over here.
    std::vector<std::pair<std::weak_ptr<Conn>, std::vector<std::uint8_t>>>
        push;
    int wakefd = -1;
    bool open = true;

    void wake() {
      const std::uint64_t one = 1;
      [[maybe_unused]] const auto r = ::write(wakefd, &one, sizeof(one));
    }
    ~Inbox() {
      if (wakefd >= 0) ::close(wakefd);
    }
  };

  struct Loop {
    std::shared_ptr<Inbox> inbox = std::make_shared<Inbox>();
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    util::LatencyHistogram latency;  // route request parse → response
    std::atomic<std::int64_t> active{0};
    std::int64_t pending = 0;  // responses in flight, loop-thread only
    int ep = -1;
  };

  /// A replication subscriber on one of our connections: the service
  /// pushes a batch's frames under its lock, and they travel through the
  /// owning loop's mailbox — only the loop thread touches a Conn.
  struct ConnSink final : ReplSink {
    ConnSink(std::weak_ptr<Conn> c, std::shared_ptr<Inbox> i)
        : conn(std::move(c)), inbox(std::move(i)) {}
    bool alive() const override { return !conn.expired(); }
    void push(std::span<const std::vector<std::uint8_t>> frames) override {
      std::lock_guard<std::mutex> lk(inbox->m);
      if (!inbox->open) return;
      for (const auto& f : frames) inbox->push.emplace_back(conn, f);
      inbox->wake();
    }
    std::weak_ptr<Conn> conn;
    std::shared_ptr<Inbox> inbox;
  };

  // ------------------------------------------------------------- state --
  /// The primary a replica follows, parsed before anything else is built.
  const std::pair<std::string, int> primary;
  /// Built — and its WAL replayed — before the first socket exists.
  /// Declared before every transport member, so it is destroyed last.
  TableService tables;
  const NetServerOptions& opt;
  int listen_fd = -1;
  int bound_port = 0;
  std::shared_ptr<Inbox> accept_inbox = std::make_shared<Inbox>();
  std::thread accept_thread;
  std::vector<std::unique_ptr<Loop>> loops;

  std::atomic<bool> draining{false};
  std::mutex drain_m;
  bool drained = false;

  std::atomic<std::int64_t> conns_accepted{0};
  std::atomic<std::int64_t> frames_in{0};
  std::atomic<std::int64_t> frames_out{0};
  std::atomic<std::int64_t> queries{0};
  std::atomic<std::int64_t> protocol_errors{0};
  std::atomic<std::int64_t> max_inflight{0};
  /// Route queries submitted to the shards and not yet completed — the
  /// quantity max_inflight_queries budgets. Charged at admission,
  /// released by the batch completion callback (the shard side is done
  /// then; the encoded response is bounded separately by the outbuf cap).
  std::atomic<std::int64_t> inflight_queries{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> timeouts{0};
  std::atomic<std::int64_t> stalls{0};

  std::thread follower_thread;              // replica mode only
  std::atomic<std::uint64_t> repl_head{0};  // primary's head (replica)

  // ---------------------------------------------------------- lifecycle --
  Impl(serve::FrozenScheme fs, NetServerOptions o)
      : primary(parse_primary(o.replica_of)),
        tables(std::move(fs), std::move(o)),
        opt(tables.options()) {
    NORS_CHECK_MSG(opt.window >= 1, "window must be >= 1");

    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) sys_fail("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
    if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd);
      throw std::runtime_error("bad bind address: " + opt.host);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 128) != 0) {
      const int e = errno;
      ::close(listen_fd);
      errno = e;
      sys_fail("bind/listen");
    }
    socklen_t alen = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    bound_port = ntohs(addr.sin_port);

    const int nloops =
        std::min(std::max(1, opt.loops), util::resolve_threads(opt.loops));
    for (int i = 0; i < nloops; ++i) {
      loops.push_back(std::make_unique<Loop>());
      loops.back()->inbox->wakefd =
          ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loops.back()->inbox->wakefd < 0) sys_fail("eventfd");
    }
    accept_inbox->wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (accept_inbox->wakefd < 0) sys_fail("eventfd");

    for (auto& l : loops) {
      l->thread = std::thread([this, lp = l.get()] { run_loop(*lp); });
    }
    accept_thread = std::thread([this] { run_acceptor(); });
    if (tables.read_only()) {
      follower_thread = std::thread([this] { run_follower(); });
    }
  }

  ~Impl() { drain(); }

  void drain() {
    std::lock_guard<std::mutex> lk(drain_m);
    if (drained) return;
    draining.store(true, std::memory_order_release);
    tables.close();
    accept_inbox->wake();
    for (auto& l : loops) l->inbox->wake();
    if (accept_thread.joinable()) accept_thread.join();
    for (auto& l : loops) {
      if (l->thread.joinable()) l->thread.join();
    }
    if (follower_thread.joinable()) follower_thread.join();
    // Nothing submits any more: join the shard pool, which lets every
    // batch still queued complete first.
    tables.release();
    drained = true;
  }

  // ----------------------------------------------------------- follower --
  /// Replica mode: one background thread holding a subscription to the
  /// primary. Any stream anomaly — a gap, a decode error, the primary
  /// dying — tears the connection down and resubscribes with capped
  /// backoff; the subscribe handshake always rebases us via a snapshot
  /// when behind, so correctness never depends on the stream staying
  /// whole, only liveness does.
  void run_follower() {
    int backoff_ms = 50;
    while (!draining.load(std::memory_order_acquire)) {
      try {
        follow_once(backoff_ms);
      } catch (const std::exception&) {
        // Connect refused / stream broke / gap detected: back off, retry.
      }
      for (int slept = 0;
           slept < backoff_ms && !draining.load(std::memory_order_acquire);
           slept += 25) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      backoff_ms = std::min(backoff_ms * 2, 2000);
    }
  }

  void follow_once(int& backoff_ms) {
    ClientOptions copt;
    copt.host = primary.first;
    copt.port = primary.second;
    copt.request_timeout_ms = 250;  // doubles as the draining poll tick
    Client cli(copt);
    std::vector<std::uint8_t> body;
    encode_subscribe(body, tables.seq());
    cli.send_frame(FrameType::kSubscribe, body);
    Frame ack;
    for (;;) {
      try {
        ack = cli.recv_frame();
        break;
      } catch (const TimeoutError&) {
        if (draining.load(std::memory_order_acquire)) return;
      }
    }
    if (ack.type == FrameType::kError) {
      const WireError e = decode_error(ack.body);
      throw std::runtime_error("primary rejected subscribe: " + e.message);
    }
    NORS_CHECK_MSG(ack.type == FrameType::kSubscribeAck,
                   "unexpected subscribe response type");
    repl_head.store(decode_subscribe_ack(ack.body),
                    std::memory_order_relaxed);
    backoff_ms = 50;  // the handshake succeeded: reset the retry clock

    std::vector<serve::EdgeUpdate> batch;
    bool buffering = false;
    bool batch_snapshot = false;
    std::uint64_t batch_seq = 0;
    while (!draining.load(std::memory_order_acquire)) {
      Frame fr;
      try {
        fr = cli.recv_frame();
      } catch (const TimeoutError&) {
        continue;  // idle stream: poll the drain flag, keep waiting
      }
      NORS_CHECK_MSG(fr.type == FrameType::kRepl,
                     "unexpected frame on the replication stream");
      if (util::failpoint("repl.stream") == util::FpAction::kError) {
        throw std::runtime_error("repl.stream failpoint");
      }
      ReplFrame rf = decode_repl(fr.body);
      repl_head.store(rf.head_seq, std::memory_order_relaxed);
      if (!buffering) {
        buffering = true;
        batch_snapshot = rf.snapshot;
        batch_seq = rf.seq;
        batch.clear();
      } else {
        NORS_CHECK_MSG(rf.seq == batch_seq && rf.snapshot == batch_snapshot,
                       "torn chunked repl batch");
      }
      batch.insert(batch.end(), rf.events.begin(), rf.events.end());
      if (rf.more) continue;
      buffering = false;
      // Gaps and duplicates are judged inside the service, under the lock
      // they matter to; a gap throws, landing us back in the resubscribe
      // path above.
      tables.apply_replicated(batch_seq, batch_snapshot, batch);
    }
  }

  /// Counter coherence (pinned by test_chaos): every counter is
  /// monotonically non-decreasing except conns_active, and this snapshot
  /// additionally guarantees the cross-counter bounds
  ///
  ///   frames_out ≤ frames_in
  ///   queries    ≤ frames_in · kMaxQueriesPerFrame
  ///   shed       ≤ frames_in
  ///   conns_active ≤ conns_accepted
  ///
  /// even while the server is under concurrent load. The argument is a
  /// happens-before chain per event: the "late" counter of each pair is
  /// incremented with release order strictly after the "early" one
  /// (frames_out/queries after that frame's frames_in; shed after
  /// frames_in; a loop's active after the acceptor's conns_accepted, via
  /// the inbox mutex), and the snapshot acquire-loads the late counters
  /// *first* — so any late event it observes has its early increment
  /// visible by the time the early counter is read. The table-side
  /// counters take part in no bound; they are read last.
  WireStats snapshot_stats() const {
    WireStats s;
    // Late counters first (acquire)...
    s.frames_out = frames_out.load(std::memory_order_acquire);
    s.queries = queries.load(std::memory_order_acquire);
    s.shed = shed.load(std::memory_order_acquire);
    util::LatencyHistogram::Counts merged{};
    for (const auto& l : loops) {
      s.conns_active += l->active.load(std::memory_order_acquire);
      const auto c = l->latency.snapshot();
      for (std::size_t b = 0; b < c.size(); ++b) merged[b] += c[b];
    }
    // ...then their upper bounds.
    s.frames_in = frames_in.load(std::memory_order_relaxed);
    s.conns_accepted = conns_accepted.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    s.max_inflight = max_inflight.load(std::memory_order_relaxed);
    s.timeouts = timeouts.load(std::memory_order_relaxed);
    s.stalls = stalls.load(std::memory_order_relaxed);
    s.p50_ns = static_cast<std::int64_t>(
        util::LatencyHistogram::quantile_us(merged, 0.5) * 1000.0);
    s.p99_ns = static_cast<std::int64_t>(
        util::LatencyHistogram::quantile_us(merged, 0.99) * 1000.0);
    tables.fill_stats(s);
    const auto head = repl_head.load(std::memory_order_relaxed);
    if (head > static_cast<std::uint64_t>(s.update_seq)) {
      s.repl_lag = static_cast<std::int64_t>(head) - s.update_seq;
    }
    return s;
  }

  // ---------------------------------------------------------- acceptor --
  void run_acceptor() {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = accept_inbox->wakefd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, accept_inbox->wakefd, &ev);
    std::size_t next_loop = 0;
    epoll_event events[16];
    while (!draining.load(std::memory_order_acquire)) {
      const int nev = ::epoll_wait(ep, events, 16, -1);
      if (nev < 0 && errno == EINTR) continue;
      for (int i = 0; i < nev; ++i) {
        if (events[i].data.fd != listen_fd) continue;  // wake: loop around
        for (;;) {
          const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          if (util::failpoint("net.accept") == util::FpAction::kError) {
            ::close(fd);  // injected accept-time failure: drop the socket
            continue;
          }
          set_nodelay(fd);
          if (opt.sndbuf_bytes > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt.sndbuf_bytes,
                         sizeof(opt.sndbuf_bytes));
          }
          conns_accepted.fetch_add(1, std::memory_order_relaxed);
          Loop& l = *loops[next_loop++ % loops.size()];
          {
            std::lock_guard<std::mutex> lk(l.inbox->m);
            l.inbox->fds.push_back(fd);
          }
          l.inbox->wake();
        }
      }
    }
    ::close(listen_fd);
    listen_fd = -1;
    ::close(ep);
  }

  // --------------------------------------------------------- event loop --
  void update_interest(Loop& l, const std::shared_ptr<Conn>& c) {
    const bool want_write = c->out.size() > c->out_off;
    const bool want_read =
        !c->closing && !c->stop_parse &&
        !draining.load(std::memory_order_relaxed) &&
        c->pipeline.size() < static_cast<std::size_t>(opt.window) &&
        c->out.size() - c->out_off < opt.outbuf_limit;
    const std::uint32_t mask = (want_read ? EPOLLIN : 0u) |
                               (want_write ? EPOLLOUT : 0u);
    if (mask == c->events) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = c->fd;
    ::epoll_ctl(l.ep, EPOLL_CTL_MOD, c->fd, &ev);
    c->events = mask;
  }

  void close_conn(Loop& l, const std::shared_ptr<Conn>& c) {
    if (c->fd < 0) return;
    ::epoll_ctl(l.ep, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    l.conns.erase(c->fd);
    c->fd = -1;
    l.pending -= static_cast<std::int64_t>(c->pipeline.size());
    c->pipeline.clear();  // in-flight Pendings stay alive via callbacks
    l.active.fetch_sub(1, std::memory_order_relaxed);
  }

  /// The single site that queues a response-in-waiting, so the per-loop
  /// pending count (the max_pending_per_loop admission input) can't
  /// drift from the pipelines it describes.
  void enqueue(Loop& l, const std::shared_ptr<Conn>& c,
               std::shared_ptr<Pending> p) {
    c->pipeline.push_back(std::move(p));
    ++l.pending;
    raise_max(max_inflight,
              static_cast<std::int64_t>(c->pipeline.size()));
  }

  /// A response born encoded: everything but a route answer.
  static std::shared_ptr<Pending> ready(std::uint32_t request_id,
                                        FrameType type) {
    auto p = std::make_shared<Pending>();
    p->request_id = request_id;
    p->resp_type = type;
    p->encoded = true;
    return p;
  }

  std::shared_ptr<Pending> make_error(std::uint32_t request_id,
                                      ErrorCode code, const char* msg) {
    auto p = ready(request_id, FrameType::kError);
    p->close_after = is_fatal(code);
    encode_error(p->resp_body, code, msg);
    // A WAL refusal counts in wal_errors (the table service), not here:
    // the request was well-formed and only the log could not hold it.
    if (code != ErrorCode::kWalError) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
    }
    return p;
  }

  /// Admission-control rejection: recoverable, carries the retry hint,
  /// and counts as shed load — not as a protocol error (the request was
  /// well-formed; the server simply declined the work).
  std::shared_ptr<Pending> make_overloaded(std::uint32_t request_id) {
    auto p = ready(request_id, FrameType::kError);
    encode_overloaded(p->resp_body,
                      static_cast<std::uint32_t>(
                          std::max(0, opt.retry_after_ms)),
                      "overloaded: in-flight budget exhausted, retry later");
    // Release: pairs with snapshot_stats' acquire so shed ≤ frames_in.
    shed.fetch_add(1, std::memory_order_release);
    return p;
  }

  /// True when accepting `nq` more route queries would exceed a
  /// configured admission bound (or the net.overload failpoint forces a
  /// rejection). Loop-local pending is read on the loop thread only.
  bool over_budget(const Loop& l, std::int64_t nq) {
    if (util::failpoint("net.overload") == util::FpAction::kError) {
      return true;
    }
    if (opt.max_inflight_queries > 0 &&
        inflight_queries.load(std::memory_order_relaxed) + nq >
            opt.max_inflight_queries) {
      return true;
    }
    return opt.max_pending_per_loop > 0 &&
           l.pending >= static_cast<std::int64_t>(opt.max_pending_per_loop);
  }

  /// The write-side frames. Past body decode, every rule (read-only,
  /// range, draining, WAL) is the table service's: a refusal throws a
  /// TableError, which dispatch() answers at its one catch site. Answered
  /// inline and in pipeline order like everything else; route frames
  /// already admitted keep their old generation.
  void dispatch_write(Loop& l, const std::shared_ptr<Conn>& c,
                      const Frame& f, std::shared_ptr<Pending>& p,
                      std::vector<std::shared_ptr<Pending>>& extras) {
    switch (f.type) {
      case FrameType::kUpdate: {
        std::vector<serve::EdgeUpdate> ups;
        try {
          ups = decode_update_request(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed update request");
          return;
        }
        encode_update_ack(p->resp_body, tables.apply(ups));
        p->resp_type = FrameType::kUpdateAck;
        p->encoded = true;
        return;
      }
      case FrameType::kSubscribe: {
        std::uint64_t have = 0;
        try {
          have = decode_subscribe(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed subscribe request");
          return;
        }
        if (!c->pipeline.empty()) {
          // The stream bypasses the ordered pipeline (pushed frames append
          // straight to the socket), so it must own its connection.
          p = make_error(f.request_id, ErrorCode::kBadQuery,
                         "subscribe requires a dedicated connection");
          return;
        }
        auto sub =
            tables.subscribe(have, std::make_shared<ConnSink>(c, l.inbox));
        p->resp_type = FrameType::kSubscribeAck;
        encode_subscribe_ack(p->resp_body, sub.head);
        p->encoded = true;
        // The catch-up snapshot rides the same ordered pipeline as the ack
        // (the pipeline was empty, so both flush before any pushed frame —
        // pushes enqueued from here on drain only on the *next* loop
        // iteration).
        for (auto& body : sub.catch_up) {
          extras.push_back(ready(0, FrameType::kRepl));
          extras.back()->resp_body = std::move(body);
        }
        return;
      }
      case FrameType::kCheckpoint: {
        if (!f.body.empty()) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "checkpoint takes no body");
          return;
        }
        encode_checkpoint_ack(p->resp_body, tables.checkpoint());
        p->resp_type = FrameType::kCheckpointAck;
        p->encoded = true;
        return;
      }
      default:
        return;  // dispatch() sends only the three write frames here
    }
  }

  void dispatch(Loop& l, const std::shared_ptr<Conn>& c, Frame&& f) {
    frames_in.fetch_add(1, std::memory_order_relaxed);
    auto p = std::make_shared<Pending>();
    p->request_id = f.request_id;
    // Frames a request queues *behind* its own response (the subscribe
    // catch-up snapshot) — enqueued after p, in order.
    std::vector<std::shared_ptr<Pending>> extras;
    switch (f.type) {
      case FrameType::kHello: {
        const auto g = tables.current();
        ServerInfo info;
        info.n = g->fs->n();
        info.k = g->fs->k();
        info.image_version = serve::FrozenScheme::kFormatVersion;
        info.num_trees = g->fs->num_trees();
        info.window = static_cast<std::uint32_t>(opt.window);
        p->resp_type = FrameType::kHelloAck;
        encode_hello_ack(p->resp_body, info);
        p->encoded = true;
        break;
      }
      case FrameType::kStats: {
        p->resp_type = FrameType::kStatsAck;
        encode_stats_ack(p->resp_body, snapshot_stats());
        p->encoded = true;
        break;
      }
      case FrameType::kLabel: {
        try {
          const graph::Vertex v = decode_label_request(f.body);
          const auto g = tables.current();
          if (v < 0 || v >= g->fs->n()) {
            p = make_error(f.request_id, ErrorCode::kBadQuery,
                           "label vertex out of range");
            break;
          }
          p->resp_type = FrameType::kLabelAck;
          encode_label_response(p->resp_body, g->fs->label_blob(v));
          p->encoded = true;
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed label request");
        }
        break;
      }
      case FrameType::kRoute: {
        try {
          p->queries = decode_route_request(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed route request");
          break;
        }
        const auto g = tables.current();
        for (const auto& q : p->queries) {
          if (q.u < 0 || q.u >= g->fs->n() || q.v < 0 ||
              q.v >= g->fs->n()) {
            p = make_error(f.request_id, ErrorCode::kBadQuery,
                           "route vertex out of range");
            break;
          }
        }
        if (p->resp_type == FrameType::kError && p->encoded) break;
        const auto nq = static_cast<std::int64_t>(p->queries.size());
        if (over_budget(l, nq)) {
          p = make_overloaded(f.request_id);
          break;
        }
        p->is_route = true;
        p->resp_type = FrameType::kRouteAck;
        p->gen = g;
        p->conn = c;
        p->t0 = clock_t_::now();
        p->charged = nq;
        inflight_queries.fetch_add(nq, std::memory_order_relaxed);
        p->decisions.resize(p->queries.size());
        break;
      }
      case FrameType::kUpdate:
      case FrameType::kSubscribe:
      case FrameType::kCheckpoint:
        try {
          dispatch_write(l, c, f, p, extras);
        } catch (const TableError& e) {
          p = make_error(f.request_id, e.code, e.what());
        } catch (const std::exception& e) {
          p = make_error(f.request_id, ErrorCode::kServerError, e.what());
        }
        break;
      default:
        // A checksummed frame of a response-only type from a client.
        p = make_error(f.request_id, ErrorCode::kBadType,
                       "not a request frame type");
        break;
    }

    enqueue(l, c, p);
    for (auto& e : extras) enqueue(l, c, std::move(e));
    if (p->is_route) {
      // Submit after queueing so the completion (delivered back to this
      // loop through the inbox) always finds the pending in order. When
      // the loop has already exited, the completion just drops its
      // Pending: that frees at most a generation's image and overlay.
      auto inbox = l.inbox;
      p->batch = tables.pool().submit(
          p->gen->fs, p->queries.data(), p->queries.size(),
          p->decisions.data(), p->gen->delta, [this, p, inbox]() mutable {
            // The shards are done with this batch: release its budget
            // charge whether or not the connection is still there.
            inflight_queries.fetch_sub(p->charged,
                                       std::memory_order_relaxed);
            std::lock_guard<std::mutex> lk(inbox->m);
            if (!inbox->open) return;
            inbox->done.push_back(std::move(p));
            inbox->wake();
          });
    }
  }

  /// Encodes and flushes every answerable response at the head of the
  /// pipeline — strictly in request order — then pushes bytes to the
  /// socket.
  void flush_pipeline(Loop& l, const std::shared_ptr<Conn>& c) {
    while (!c->pipeline.empty()) {
      const auto& p = c->pipeline.front();
      if (p->is_route && !p->encoded) {
        if (!p->batch.done()) break;
        try {
          p->batch.wait();  // already done: only rethrows worker errors
          encode_route_response(p->resp_body, p->decisions.data(),
                                p->decisions.size());
          // Release: pairs with snapshot_stats' acquire so queries ≤
          // frames_in · kMaxQueriesPerFrame (the frame's frames_in
          // increment happened-before this).
          queries.fetch_add(
              static_cast<std::int64_t>(p->decisions.size()),
              std::memory_order_release);
        } catch (const std::exception& e) {
          p->resp_type = FrameType::kError;
          p->resp_body.clear();
          encode_error(p->resp_body, ErrorCode::kServerError, e.what());
          p->close_after = true;
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        p->encoded = true;
        l.latency.record_ns(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock_t_::now() - p->t0)
                .count());
      }
      if (!p->encoded) break;
      append_frame(c->out, p->resp_type, p->request_id, p->resp_body);
      // Release: pairs with snapshot_stats' acquire (frames_out ≤
      // frames_in).
      frames_out.fetch_add(1, std::memory_order_release);
      if (p->close_after) c->closing = true;
      c->pipeline.pop_front();
      --l.pending;
      if (c->closing) break;
    }
    handle_write(l, c);
  }

  void handle_write(Loop& l, const std::shared_ptr<Conn>& c) {
    if (c->fd < 0) return;
    const auto fp = util::failpoint("net.write");
    if (fp == util::FpAction::kError) {
      close_conn(l, c);  // injected write failure
      return;
    }
    bool progressed = false;
    while (c->out_off < c->out.size()) {
      std::size_t len = c->out.size() - c->out_off;
      if (fp == util::FpAction::kPartial) len = 1;
      const auto wr = ::send(c->fd, c->out.data() + c->out_off, len,
                             MSG_NOSIGNAL);
      if (wr > 0) {
        c->out_off += static_cast<std::size_t>(wr);
        progressed = true;
        if (fp == util::FpAction::kPartial) break;  // one byte, re-poll
        continue;
      }
      if (wr < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (wr < 0 && errno == EINTR) continue;
      close_conn(l, c);  // peer vanished mid-write
      return;
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      c->stall_armed = false;
      if (c->closing && c->pipeline.empty()) {
        close_conn(l, c);
        return;
      }
    } else if (opt.stall_timeout_ms > 0 &&
               (progressed || !c->stall_armed)) {
      // Unflushed bytes remain: (re)start the stall clock from the last
      // moment the peer made progress.
      c->stall_armed = true;
      c->stall_since = clock_t_::now();
    }
    update_interest(l, c);
  }

  /// Parses buffered input into dispatched frames — but never past the
  /// in-flight window, so max_inflight is a real bound, not just a read
  /// throttle. Leftover bytes wait in `in` until responses free room.
  void parse_available(Loop& l, const std::shared_ptr<Conn>& c) {
    std::size_t off = 0;
    while (!c->stop_parse && !c->closing &&
           !draining.load(std::memory_order_relaxed) &&
           c->pipeline.size() < static_cast<std::size_t>(opt.window)) {
      const auto pr = parse_frame(c->in.data() + off, c->in.size() - off);
      if (pr.status == ParseResult::Status::kNeedMore) break;
      if (pr.status == ParseResult::Status::kBad) {
        enqueue(l, c,
                make_error(pr.request_id, pr.error,
                           is_fatal(pr.error)
                               ? "broken frame envelope; closing"
                               : "unknown frame type"));
        if (is_fatal(pr.error)) {
          // The stream can't be resynced: answer, then close.
          c->stop_parse = true;
          break;
        }
        off += pr.consumed;  // checksummed frame of unknown type: skip it
        continue;
      }
      off += pr.consumed;
      Frame f = std::move(const_cast<ParseResult&>(pr).frame);
      dispatch(l, c, std::move(f));
    }
    if (off > 0) {
      c->in.erase(c->in.begin(),
                  c->in.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }

  /// Parse → flush, repeated while flushing frees window room for more
  /// buffered frames. Called on new input and on batch completion.
  void pump(Loop& l, const std::shared_ptr<Conn>& c) {
    for (;;) {
      parse_available(l, c);
      const std::size_t before = c->pipeline.size();
      flush_pipeline(l, c);
      if (c->fd < 0 || c->in.empty() || c->pipeline.size() == before) {
        break;
      }
    }
  }

  void handle_read(Loop& l, const std::shared_ptr<Conn>& c) {
    const auto fp = util::failpoint("net.read");
    if (fp == util::FpAction::kError) {
      close_conn(l, c);  // injected read failure
      return;
    }
    std::uint8_t buf[65536];
    // Partial-io: read one byte per event-loop pass — no data is lost,
    // the stream just arrives maximally fragmented (level-triggered
    // interest re-fires until the socket drains).
    const std::size_t cap =
        fp == util::FpAction::kPartial ? 1 : sizeof(buf);
    const auto rd = ::recv(c->fd, buf, cap, 0);
    if (rd == 0) {
      // Abrupt peer close — possibly mid-batch. Drop the socket; any
      // in-flight batches finish into their own Pending buffers.
      close_conn(l, c);
      return;
    }
    if (rd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(l, c);
      return;
    }
    c->in.insert(c->in.end(), buf, buf + rd);
    pump(l, c);
  }

  /// Force-closes connections that broke a time bound (§12): a
  /// head-of-line route response still not computed past the request
  /// deadline (nothing behind it could be answered anyway — responses
  /// are strictly ordered), or a write-stalled peer past the stall
  /// timeout. Runs on the loop thread between epoll waits.
  void check_timers(Loop& l) {
    if (opt.request_deadline_ms <= 0 && opt.stall_timeout_ms <= 0) return;
    const auto now = clock_t_::now();
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, c] : l.conns) {
      if (opt.request_deadline_ms > 0 && !c->pipeline.empty()) {
        const auto& p = c->pipeline.front();
        if (p->is_route && !p->encoded &&
            now - p->t0 >
                std::chrono::milliseconds(opt.request_deadline_ms)) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
          victims.push_back(c);
          continue;
        }
      }
      if (opt.stall_timeout_ms > 0 && c->stall_armed &&
          now - c->stall_since >
              std::chrono::milliseconds(opt.stall_timeout_ms)) {
        stalls.fetch_add(1, std::memory_order_relaxed);
        victims.push_back(c);
      }
    }
    for (auto& c : victims) close_conn(l, c);
  }

  void run_loop(Loop& l) {
    l.ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = l.inbox->wakefd;
    ::epoll_ctl(l.ep, EPOLL_CTL_ADD, l.inbox->wakefd, &ev);

    bool drain_seen = false;
    clock_t_::time_point deadline{};
    epoll_event events[64];
    for (;;) {
      const bool dr = draining.load(std::memory_order_acquire);
      if (dr && !drain_seen) {
        drain_seen = true;
        deadline = clock_t_::now() +
                   std::chrono::milliseconds(opt.drain_timeout_ms);
        // Stop reading everywhere; finish what's parsed, flush, close.
        for (auto& [fd, c] : l.conns) update_interest(l, c);
      }
      if (drain_seen) {
        // Close connections with nothing left to answer or flush.
        std::vector<std::shared_ptr<Conn>> done;
        for (auto& [fd, c] : l.conns) {
          if ((c->pipeline.empty() && c->out_off == c->out.size()) ||
              clock_t_::now() >= deadline) {
            done.push_back(c);
          }
        }
        for (auto& c : done) close_conn(l, c);
        if (l.conns.empty()) break;
      }

      // Timers demand periodic wakeups; otherwise block indefinitely.
      const bool timers =
          (opt.request_deadline_ms > 0 || opt.stall_timeout_ms > 0) &&
          !l.conns.empty();
      const int nev = ::epoll_wait(l.ep, events, 64,
                                   (drain_seen || timers) ? 50 : -1);
      if (nev < 0 && errno == EINTR) continue;

      // Mailbox first: adopt new sockets, finish completed batches.
      // Ordering invariant: drain the wake eventfd *before* taking the
      // inbox. Producers push under the mutex and then wake, so anything
      // pushed after the swap below leaves the eventfd readable for the
      // next epoll_wait. Draining after the swap would swallow the wake of
      // a push that landed between the two steps, and its response would
      // wait for some unrelated later event (or time out).
      std::uint64_t tick = 0;
      [[maybe_unused]] const auto r =
          ::read(l.inbox->wakefd, &tick, sizeof(tick));
      std::vector<int> fds;
      std::vector<std::shared_ptr<Pending>> done;
      std::vector<std::pair<std::weak_ptr<Conn>, std::vector<std::uint8_t>>>
          pushes;
      {
        std::lock_guard<std::mutex> lk(l.inbox->m);
        fds.swap(l.inbox->fds);
        done.swap(l.inbox->done);
        pushes.swap(l.inbox->push);
      }
      for (const int fd : fds) {
        if (draining.load(std::memory_order_relaxed)) {
          ::close(fd);
          continue;
        }
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        c->events = EPOLLIN;
        epoll_event cev{};
        cev.events = EPOLLIN;
        cev.data.fd = fd;
        ::epoll_ctl(l.ep, EPOLL_CTL_ADD, fd, &cev);
        l.conns.emplace(fd, std::move(c));
        // Release: the acceptor's conns_accepted increment happened-before
        // this (inbox mutex handoff), so snapshot_stats' acquire read of
        // `active` keeps conns_active ≤ conns_accepted.
        l.active.fetch_add(1, std::memory_order_release);
      }
      for (const auto& p : done) {
        if (const auto c = p->conn.lock(); c && c->fd >= 0) {
          pump(l, c);
        }
      }
      for (auto& [wc, bytes] : pushes) {
        const auto c = wc.lock();
        if (!c || c->fd < 0) continue;
        // Server-initiated kRepl bytes, appended behind whatever the
        // ordered pipeline already flushed. Not counted in frames_out
        // (which tracks responses, bounded by frames_in). A subscriber
        // that stopped reading is cut once its queue passes 4× the
        // outbuf cap — it reconnects and catches up by snapshot.
        if (c->out.size() - c->out_off > opt.outbuf_limit * 4) {
          close_conn(l, c);
          continue;
        }
        c->out.insert(c->out.end(), bytes.begin(), bytes.end());
        handle_write(l, c);
      }

      for (int i = 0; i < nev; ++i) {
        const int fd = events[i].data.fd;
        if (fd == l.inbox->wakefd) continue;
        const auto it = l.conns.find(fd);
        if (it == l.conns.end()) continue;
        auto c = it->second;  // keep alive across close_conn
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(l, c);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) handle_write(l, c);
        if (c->fd >= 0 && (events[i].events & EPOLLIN) != 0) {
          handle_read(l, c);
        }
      }

      check_timers(l);
    }

    for (auto it = l.conns.begin(); it != l.conns.end();) {
      auto c = (it++)->second;
      close_conn(l, c);
    }
    {
      std::lock_guard<std::mutex> lk(l.inbox->m);
      l.inbox->open = false;
      for (const int fd : l.inbox->fds) ::close(fd);
      l.inbox->fds.clear();
      l.inbox->done.clear();
      l.inbox->push.clear();
    }
    ::close(l.ep);
  }
};

Server::Server(serve::FrozenScheme fs, NetServerOptions opt)
    : impl_(std::make_unique<Impl>(std::move(fs), std::move(opt))) {}

Server::~Server() = default;

int Server::port() const { return impl_->bound_port; }

void Server::drain() { impl_->drain(); }

TableService& Server::tables() { return impl_->tables; }

WireStats Server::stats() const { return impl_->snapshot_stats(); }

}  // namespace nors::net

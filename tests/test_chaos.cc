// Failure-domain tests (DESIGN.md §12): the fault-injection registry
// itself, a live server under injected read/write/compute faults and
// adversarial peers (slowloris writers, never-reading clients, mid-frame
// disconnect storms), overload admission control with client backoff, and
// the request-deadline / write-stall force-close timers. The invariant
// throughout: the server keeps serving correct, bit-identical answers to
// well-behaved clients no matter what the failure domain does, and every
// query is accounted exactly once.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/wal.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nors {
namespace {

using serve::Decision;
using serve::Query;

/// Scoped failpoint activation: the registry is process-global, so every
/// test clears it on exit (including assertion-failure exits) to keep the
/// suite order-independent.
struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    util::Failpoints::configure(spec);
  }
  ~FailpointGuard() { util::Failpoints::clear(); }
};

graph::WeightedGraph small_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(120, 360, graph::WeightSpec::uniform(1, 20),
                              rng);
}

serve::FrozenScheme build_frozen(const graph::WeightedGraph& g, int k,
                                 std::uint64_t seed) {
  core::SchemeParams p;
  p.k = k;
  p.seed = seed;
  return serve::FrozenScheme::freeze(core::RoutingScheme::build(g, p));
}

std::vector<Query> random_queries(int n, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> qs;
  qs.reserve(count);
  while (qs.size() < count) {
    const auto u = static_cast<graph::Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<graph::Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    qs.push_back({u, v});
  }
  return qs;
}

void expect_identical(const Decision& wire, const Decision& local,
                      const Query& q) {
  ASSERT_EQ(wire.ok, local.ok) << q.u << "->" << q.v;
  ASSERT_EQ(wire.via_trick, local.via_trick) << q.u << "->" << q.v;
  ASSERT_EQ(wire.hops, local.hops) << q.u << "->" << q.v;
  ASSERT_EQ(wire.tree_level, local.tree_level) << q.u << "->" << q.v;
  ASSERT_EQ(wire.tree_root, local.tree_root) << q.u << "->" << q.v;
  ASSERT_EQ(wire.length, local.length) << q.u << "->" << q.v;
}

/// A raw TCP connection with a deliberately tiny receive buffer — the
/// adversarial peer of the stall/drain tests. SO_RCVBUF must be set
/// before connect() so the small window is what the server negotiates.
int raw_connect(int port, int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void raw_send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto wr =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (wr <= 0) break;  // server may have force-closed us already
    off += static_cast<std::size_t>(wr);
  }
}

std::vector<std::uint8_t> route_frame_bytes(const std::vector<Query>& qs,
                                            std::uint32_t id) {
  std::vector<std::uint8_t> body, frame;
  net::encode_route_request(body, qs.data(), qs.size());
  net::append_frame(frame, net::FrameType::kRoute, id, body);
  return frame;
}

// ---- the registry itself ------------------------------------------------

TEST(Failpoints, DisarmedIsFreeAndMissesReturnNone) {
  util::Failpoints::clear();
  EXPECT_FALSE(util::Failpoints::armed());
  EXPECT_EQ(util::failpoint("anything"), util::FpAction::kNone);
  {
    FailpointGuard g("some.point:error:1");
    EXPECT_TRUE(util::Failpoints::armed());
    EXPECT_EQ(util::failpoint("other.point"), util::FpAction::kNone);
    EXPECT_EQ(util::failpoint("some.point"), util::FpAction::kError);
  }
  EXPECT_FALSE(util::Failpoints::armed());
  EXPECT_EQ(util::failpoint("some.point"), util::FpAction::kNone);
}

TEST(Failpoints, ParsesMultiSpecAndCountsTrips) {
  FailpointGuard g("a:error:1,b:partial:1,c:delay:1:5");
  const auto before = util::Failpoints::trips();
  EXPECT_EQ(util::failpoint("a"), util::FpAction::kError);
  EXPECT_EQ(util::failpoint("b"), util::FpAction::kPartial);
  EXPECT_EQ(util::failpoint("c"), util::FpAction::kNone);  // delay: no act
  EXPECT_EQ(util::Failpoints::trips(), before + 3);
}

TEST(Failpoints, OneshotFiresExactlyOnceAtTheConfiguredHit) {
  FailpointGuard g("x:oneshot:3");
  EXPECT_EQ(util::failpoint("x"), util::FpAction::kNone);
  EXPECT_EQ(util::failpoint("x"), util::FpAction::kNone);
  EXPECT_EQ(util::failpoint("x"), util::FpAction::kError);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(util::failpoint("x"), util::FpAction::kNone);
  }
}

TEST(Failpoints, DelayModeSleepsForTheConfiguredMs) {
  FailpointGuard g("d:delay:1:40");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(util::failpoint("d"), util::FpAction::kNone);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 40);
}

TEST(Failpoints, ProbabilisticRateFiresProportionally) {
  FailpointGuard g("p:error:0.5");
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    fired += util::failpoint("p") == util::FpAction::kError ? 1 : 0;
  }
  // splitmix64 stream seeded from the name: deterministic, near 500.
  EXPECT_GT(fired, 350);
  EXPECT_LT(fired, 650);
}

TEST(Failpoints, MalformedSpecsAreRejectedLoudly) {
  util::Failpoints::clear();
  EXPECT_THROW(util::Failpoints::configure("noname"), std::logic_error);
  EXPECT_THROW(util::Failpoints::configure("a:badmode:1"), std::logic_error);
  EXPECT_THROW(util::Failpoints::configure("a:error:zzz"), std::logic_error);
  util::Failpoints::clear();
}

// ---- injected I/O faults under live serving -----------------------------

TEST(Chaos, PartialIoKeepsAnswersBitIdentical) {
  const auto g = small_graph(71);
  auto frozen = build_frozen(g, 2, 5);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});

  // Every server read delivers one byte; every write flushes one byte.
  // The stream arrives maximally fragmented and leaves the same way —
  // nothing about framing or ordering may depend on I/O granularity.
  FailpointGuard fp("net.read:partial:1,net.write:partial:1");
  net::Client client("127.0.0.1", server.port());
  const auto qs = random_queries(reference.n(), 48, 9);
  const auto wire = client.route(qs);
  ASSERT_EQ(wire.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

TEST(Chaos, InjectedReadAndAcceptErrorsNeverKillTheServer) {
  const auto g = small_graph(73);
  auto frozen = build_frozen(g, 2, 7);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 16, 11);

  {
    // 30% of reads and accepts fail abruptly: clients see dropped
    // connections (that's the injected fault), the server sees churn.
    FailpointGuard fp("net.read:error:0.3,net.accept:error:0.3");
    for (int round = 0; round < 30; ++round) {
      try {
        net::ClientOptions copt;
        copt.host = "127.0.0.1";
        copt.port = server.port();
        copt.connect_retries = 10;
        copt.backoff_base_ms = 1;
        net::Client client(copt);
        client.route(qs);
      } catch (const std::exception&) {
        // injected: connection died mid-call
      }
    }
  }

  // Faults off: full service, correct answers.
  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

TEST(Chaos, InjectedBatchFailureIsAServerErrorNotACrash) {
  const auto g = small_graph(79);
  auto frozen = build_frozen(g, 2, 13);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 8, 17);

  {
    FailpointGuard fp("serve.batch:error:1");
    net::Client client("127.0.0.1", server.port());
    try {
      client.route(qs);
      FAIL() << "injected batch failure must surface";
    } catch (const net::ProtocolError& e) {
      EXPECT_EQ(e.code, net::ErrorCode::kServerError);
    }
  }

  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

TEST(Chaos, QueueDelayOnlySlowsServiceDown) {
  const auto g = small_graph(83);
  auto frozen = build_frozen(g, 2, 19);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 4, 23);

  FailpointGuard fp("serve.queue:delay:1:30");
  const auto trips_before = util::Failpoints::trips();
  const auto t0 = std::chrono::steady_clock::now();
  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 30);
  EXPECT_GT(util::Failpoints::trips(), trips_before);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

TEST(Chaos, FrozenLoadAndMapFailpointsInjectThrows) {
  const auto g = small_graph(89);
  const auto frozen = build_frozen(g, 2, 29);
  const auto bytes = frozen.save();
  {
    FailpointGuard fp("frozen.load:error:1");
    EXPECT_THROW(serve::FrozenScheme::load(bytes), std::runtime_error);
  }
  // Clean again once disarmed.
  const auto reloaded = serve::FrozenScheme::load(bytes);
  EXPECT_EQ(reloaded.n(), frozen.n());
}

TEST(Chaos, ReloadFailureKeepsTheOldImageServing) {
  const auto g = small_graph(97);
  auto frozen = build_frozen(g, 2, 31);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const std::string path =
      "chaos_reload_" + std::to_string(::getpid()) + ".frozen";
  reference.save_file(path);

  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 16, 37);

  {
    // The SIGHUP path of route_serviced: a failing re-map must not take
    // serving down — the daemon catches and keeps the old generation.
    FailpointGuard fp("frozen.map:error:1");
    EXPECT_THROW(server.tables().reload_file(path), std::runtime_error);
  }
  EXPECT_EQ(server.stats().reloads, 0);

  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }

  // And once the fault clears, the reload goes through.
  server.tables().reload_file(path);
  EXPECT_EQ(server.stats().reloads, 1);
  ::unlink(path.c_str());
}

// ---- adversarial peers --------------------------------------------------

TEST(Chaos, SlowlorisAndNeverReaderDoNotBlockOthers) {
  const auto g = small_graph(101);
  auto frozen = build_frozen(g, 2, 41);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::NetServerOptions opt;
  opt.loops = 2;
  net::Server server(std::move(frozen), opt);

  // Slowloris: dribbles one byte of a valid frame every few ms, never
  // completing it. Never-reader: pipelines requests and reads nothing,
  // pinning its responses in the server's outbuf. Neither may slow a
  // well-behaved client beyond its own work.
  std::atomic<bool> stop{false};
  const auto frame = route_frame_bytes(random_queries(n, 32, 43), 7);
  std::thread slowloris([&] {
    const int fd = raw_connect(server.port(), 0);
    std::size_t at = 0;
    while (!stop.load(std::memory_order_acquire) && at < frame.size()) {
      [[maybe_unused]] const auto r =
          ::send(fd, frame.data() + at, 1, MSG_NOSIGNAL);
      ++at;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(fd);
  });
  std::thread never_reader([&] {
    const int fd = raw_connect(server.port(), 4096);
    for (int f = 0; f < 8 && !stop.load(std::memory_order_acquire); ++f) {
      raw_send_all(fd, frame);
    }
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(fd);
  });

  const auto qs = random_queries(n, 64, 47);
  net::Client client("127.0.0.1", server.port());
  for (int round = 0; round < 10; ++round) {
    const auto wire = client.route(qs);
    ASSERT_EQ(wire.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
    }
  }
  stop.store(true, std::memory_order_release);
  slowloris.join();
  never_reader.join();
}

TEST(Chaos, MidFrameDisconnectStormIsHarmless) {
  const auto g = small_graph(103);
  auto frozen = build_frozen(g, 2, 53);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();
  net::Server server(std::move(frozen), {});

  const auto qs = random_queries(n, 32, 59);
  const auto frame = route_frame_bytes(qs, 3);
  for (int round = 0; round < 50; ++round) {
    const int fd = raw_connect(server.port(), 0);
    // A complete frame, then a torn prefix of another, then vanish.
    std::vector<std::uint8_t> bytes = frame;
    bytes.insert(bytes.end(), frame.begin(),
                 frame.begin() + 1 + round % (frame.size() - 1));
    raw_send_all(fd, bytes);
    ::close(fd);
  }

  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

// ---- overload admission + client backoff --------------------------------

TEST(Chaos, OverloadShedsAndBackoffClientsCompleteExactly) {
  const auto g = small_graph(107);
  auto frozen = build_frozen(g, 2, 61);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::NetServerOptions opt;
  // A budget far below the offered load: 4 clients × 50-query frames can
  // put 200 queries in flight against a budget of 64 (any one frame still
  // fits, so no frame is unservable — a frame larger than the budget
  // would livelock its sender).
  opt.max_inflight_queries = 64;
  opt.retry_after_ms = 1;
  opt.loops = 2;
  opt.shards = 2;
  net::Server server(std::move(frozen), opt);

  constexpr int kClients = 4;
  constexpr int kCalls = 30;
  constexpr std::size_t kPerCall = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::ClientOptions copt;
        copt.host = "127.0.0.1";
        copt.port = server.port();
        copt.overload_retries = 1000;
        copt.backoff_base_ms = 1;
        copt.backoff_cap_ms = 16;
        net::Client client(copt);
        for (int call = 0; call < kCalls; ++call) {
          const auto qs = random_queries(
              n, kPerCall, 500 + static_cast<unsigned>(c * kCalls + call));
          const auto wire = client.route(qs);
          if (wire.size() != qs.size()) {
            ++failures;
            return;
          }
          for (std::size_t i = 0; i < qs.size(); ++i) {
            const auto local = reference.route(qs[i].u, qs[i].v);
            if (wire[i].length != local.length || wire[i].ok != local.ok ||
                wire[i].hops != local.hops) {
              ++failures;
              return;
            }
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Exactly-once accounting: every query was answered once — shed frames
  // were rejected *before* dispatch, so retries never double-count.
  const auto stats = server.stats();
  EXPECT_EQ(stats.queries,
            static_cast<std::int64_t>(kClients * kCalls * kPerCall));
  EXPECT_GT(stats.shed, 0) << "2x-budget offered load must shed";
  EXPECT_EQ(stats.protocol_errors, 0)
      << "kOverloaded is shed load, not a protocol error";
}

TEST(Chaos, ForcedOverloadSurfacesTypedErrorWithHint) {
  const auto g = small_graph(109);
  auto frozen = build_frozen(g, 2, 67);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::NetServerOptions opt;
  opt.retry_after_ms = 40;
  net::Server server(std::move(frozen), opt);
  const auto qs = random_queries(reference.n(), 8, 71);

  net::Client client("127.0.0.1", server.port());
  {
    // The oneshot fires on the first admission check only: the client's
    // very next retry (without any retry budget here) must succeed.
    FailpointGuard fp("net.overload:oneshot:1");
    try {
      client.route(qs);
      FAIL() << "forced overload must surface without retries";
    } catch (const net::OverloadedError& e) {
      EXPECT_EQ(e.code, net::ErrorCode::kOverloaded);
      EXPECT_EQ(e.retry_after_ms, 40u);
    }
  }
  // Same connection: recoverable means still usable.
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
  EXPECT_EQ(server.stats().shed, 1);
}

TEST(Chaos, RouteRetriesShedFramesTransparently) {
  const auto g = small_graph(113);
  auto frozen = build_frozen(g, 2, 73);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 24, 79);

  // Every third admission sheds; a client with retry budget never sees it.
  FailpointGuard fp("net.overload:error:0.33");
  net::ClientOptions copt;
  copt.host = "127.0.0.1";
  copt.port = server.port();
  copt.overload_retries = 100;
  copt.backoff_base_ms = 1;
  copt.backoff_cap_ms = 8;
  net::Client client(copt);
  for (int round = 0; round < 10; ++round) {
    const auto wire = client.route(qs);
    ASSERT_EQ(wire.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
    }
  }
}

// ---- deadlines and stall timers -----------------------------------------

TEST(Chaos, ClientDeadlineRaisesTimeoutErrorAgainstAHungServer) {
  const auto g = small_graph(127);
  auto frozen = build_frozen(g, 2, 83);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(reference.n(), 4, 89);

  // Wedge the compute path for ~1s; the client's 150ms deadline must fire
  // well before the answer could exist.
  FailpointGuard fp("serve.batch:delay:1:1000");
  net::ClientOptions copt;
  copt.host = "127.0.0.1";
  copt.port = server.port();
  copt.request_timeout_ms = 150;
  net::Client client(copt);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.route(qs), net::TimeoutError);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 100);  // poll timeout truncation can undershoot by ~1ms
  EXPECT_LT(ms, 900) << "TimeoutError must fire at the deadline, not "
                        "when the server finally answers";
}

TEST(Chaos, RequestDeadlineForceClosesWedgedConnections) {
  const auto g = small_graph(131);
  auto frozen = build_frozen(g, 2, 97);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::NetServerOptions opt;
  opt.request_deadline_ms = 120;
  net::Server server(std::move(frozen), opt);
  const auto qs = random_queries(reference.n(), 4, 101);

  {
    // The shard wedges for 800ms; the server must cut the connection at
    // the 120ms deadline instead of holding it hostage.
    FailpointGuard fp("serve.batch:delay:1:800");
    net::Client client("127.0.0.1", server.port());
    client.send_route(qs.data(), qs.size());
    net::Frame f;
    EXPECT_FALSE(client.recv_frame_or_eof(f))
        << "deadline must close the connection, not answer late";
  }
  for (int spin = 0; server.stats().timeouts == 0 && spin < 5000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().timeouts, 1);

  // The wedged worker is still sleeping out its injected 800ms; let it
  // drain, or the fresh batch below would queue behind it and trip the
  // same deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));

  // New connection, fault cleared: full service.
  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

TEST(Chaos, WriteStallTimerForceClosesPeersThatStoppedReading) {
  const auto g = small_graph(137);
  auto frozen = build_frozen(g, 2, 103);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::NetServerOptions opt;
  opt.stall_timeout_ms = 200;
  // Small kernel buffers on both sides make the non-reading peer wedge
  // the flush within a few frames instead of hiding behind megabytes of
  // autotuned TCP buffering.
  opt.sndbuf_bytes = 8192;
  net::Server server(std::move(frozen), opt);

  const int fd = raw_connect(server.port(), 4096);
  const auto frame = route_frame_bytes(random_queries(n, 4096, 107), 5);
  // Pipeline plenty of work, read nothing. Responses (~24KB each) overrun
  // sndbuf + rcvbuf quickly; the stall timer must cut us loose.
  for (int f = 0; f < 8; ++f) raw_send_all(fd, frame);

  for (int spin = 0; server.stats().stalls == 0 && spin < 5000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().stalls, 1)
      << "a peer that stopped reading must be force-closed";
  ::close(fd);

  // The stalled peer cost a connection, nothing else.
  net::Client client("127.0.0.1", server.port());
  const auto qs = random_queries(n, 16, 109);
  const auto wire = client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

// ---- client retry/backoff bug pins --------------------------------------

TEST(ClientBackoff, OverloadSleepClampsHostileHints) {
  // The bug: static_cast<int>(hint) before std::max — a hint ≥ 2^31 went
  // negative, lost the max(), and the overload sleep degenerated to bare
  // backoff. The clamp must narrow only *after* capping.
  EXPECT_EQ(net::Client::overload_sleep_ms(0xFFFFFFFFu, 10000, 37), 10000);
  EXPECT_EQ(net::Client::overload_sleep_ms(0x80000000u, 10000, 37), 10000);
  EXPECT_EQ(net::Client::overload_sleep_ms(0x7FFFFFFFu, 10000, 37), 10000);
  // Honest hints below the cap pass through; the backoff still floors.
  EXPECT_EQ(net::Client::overload_sleep_ms(25, 10000, 37), 37);
  EXPECT_EQ(net::Client::overload_sleep_ms(500, 10000, 37), 500);
  // Degenerate cap configs stay sane.
  EXPECT_EQ(net::Client::overload_sleep_ms(0xFFFFFFFFu, 0, 37), 37);
  EXPECT_EQ(net::Client::overload_sleep_ms(0xFFFFFFFFu, -5, 37), 37);
}

TEST(ClientBackoff, HugeWireHintSleepsTheCapNotNothingNotForever) {
  // A hand-rolled server that sheds every route frame with the largest
  // possible retry-after hint. With the old narrowing bug the client
  // would sleep only its tiny backoff (~1-2ms); without any cap it would
  // park for ~49 days. The clamp makes it sleep exactly the configured
  // ceiling per retry round.
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int port = ntohs(addr.sin_port);

  std::thread shedder([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<std::uint8_t> buf, reply, body;
    std::uint8_t chunk[4096];
    for (;;) {
      const auto rd = ::recv(fd, chunk, sizeof(chunk), 0);
      if (rd <= 0) break;
      buf.insert(buf.end(), chunk, chunk + rd);
      for (;;) {
        const auto pr = net::parse_frame(buf.data(), buf.size());
        if (pr.status != net::ParseResult::Status::kFrame) break;
        body.clear();
        net::encode_overloaded(body, 0xFFFFFFFFu, "always busy");
        reply.clear();
        net::append_frame(reply, net::FrameType::kError,
                          pr.frame.request_id, body);
        raw_send_all(fd, reply);
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(pr.consumed));
      }
    }
    ::close(fd);
  });

  net::ClientOptions copt;
  copt.host = "127.0.0.1";
  copt.port = port;
  copt.overload_retries = 2;
  copt.retry_hint_cap_ms = 80;
  copt.backoff_base_ms = 1;
  copt.backoff_cap_ms = 2;
  net::Client client(copt);

  const std::vector<Query> qs = {{0, 1}};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.route(qs), net::OverloadedError);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  // Two retry rounds at the 80ms cap each: ≥160ms proves the hint was
  // not negative-skipped; well under a second proves it was clamped.
  EXPECT_GE(ms, 160);
  EXPECT_LT(ms, 2000);

  client.close();
  ::close(lfd);
  shedder.join();
}

TEST(ClientBackoff, ConcurrentClientsDrawDivergingJitterSchedules) {
  // The bug: a seed of constant ^ (pid << 32) ^ this put two clients in
  // identical backoff streams whenever the allocator reused an address
  // (and gave near-identical streams either way) — a reconnect herd then
  // retried in lockstep. Seeds must differ even for clients constructed
  // back to back at the same address, and the schedules they draw must
  // diverge.
  const auto g = small_graph(211);
  net::Server server(build_frozen(g, 2, 113), {});

  auto a = std::make_unique<net::Client>("127.0.0.1", server.port());
  const std::uint64_t seed_a = a->jitter_seed();
  a.reset();  // free the address so the next client may land on it
  auto b = std::make_unique<net::Client>("127.0.0.1", server.port());
  const std::uint64_t seed_b = b->jitter_seed();
  EXPECT_NE(seed_a, seed_b);

  // Replay both schedules from the captured seeds: 20 draws over the
  // jittered range must not coincide everywhere (probability ~0 with
  // distinct streams, certainty of failure with the old shared stream).
  std::uint64_t rng_a = seed_a, rng_b = seed_b;
  net::Backoff ba(20, 1000, rng_a), bb(20, 1000, rng_b);
  bool diverged = false;
  for (int i = 0; i < 20; ++i) {
    diverged = diverged || ba.next() != bb.next();
  }
  EXPECT_TRUE(diverged);
}

// ---- stats coherence under concurrent load ------------------------------

TEST(Chaos, StatsInvariantsHoldUnderConcurrentLoadAndShed) {
  // net::Server::stats() used to read its counters as independent relaxed
  // loads, so a snapshot could transiently report more answers than
  // frames, or more shed queries than admitted ones. The fixed snapshot
  // orders its loads (late counters acquire-first), making these
  // invariants assertable *while* the counters move.
  const auto g = small_graph(223);
  auto frozen = build_frozen(g, 2, 127);
  const int n = frozen.n();
  net::NetServerOptions opt;
  opt.loops = 2;
  opt.max_inflight_queries = 512;  // force shedding under the load below
  net::Server server(std::move(frozen), opt);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> load;
  for (int c = 0; c < 4; ++c) {
    load.emplace_back([&, c] {
      net::ClientOptions copt;
      copt.host = "127.0.0.1";
      copt.port = server.port();
      copt.overload_retries = 1000000;
      copt.backoff_base_ms = 1;
      copt.backoff_cap_ms = 4;
      net::Client client(copt);
      // Frames small enough to be admitted alone, big enough that four
      // concurrent clients overrun the 512-query budget and get shed.
      const auto qs = random_queries(n, 256, 131 + static_cast<unsigned>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        client.route(qs);
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  std::int64_t snapshots = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto s = server.stats();
    ++snapshots;
    const auto cap = static_cast<std::int64_t>(net::kMaxQueriesPerFrame);
    if (s.frames_out > s.frames_in) violations.fetch_add(1);
    if (s.queries > s.frames_in * cap) violations.fetch_add(1);
    if (s.shed > s.frames_in) violations.fetch_add(1);
    if (s.conns_active > s.conns_accepted) violations.fetch_add(1);
    if (s.frames_in < 0 || s.frames_out < 0 || s.queries < 0 || s.shed < 0 ||
        s.conns_active < 0) {
      violations.fetch_add(1);
    }
  }
  stop.store(true);
  for (auto& t : load) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(snapshots, 100);
  EXPECT_GT(server.stats().shed, 0)
      << "the load must actually exercise admission control";
}

// ---- disk full under the WAL (DESIGN.md §14) ---------------------------
// The `partial` mode on wal.append is the ENOSPC shape: a torn prefix
// lands on disk and the write reports no space. The server must shed the
// update with a recoverable kWalError — never publish an unlogged
// generation — and keep serving reads from the old generation throughout.

TEST(Chaos, DiskFullShedsUpdatesButReadsKeepServing) {
  char tmpl[] = "/tmp/nors_chaos_wal_XXXXXX";
  char* wal_dir = ::mkdtemp(tmpl);
  ASSERT_NE(wal_dir, nullptr);

  const auto g = small_graph(211);
  auto frozen = build_frozen(g, 2, 83);
  std::vector<serve::EdgeUpdate> batch;
  for (const auto& he : g.neighbors(0)) {
    batch.push_back(serve::EdgeUpdate::weight(0, he.to, 2));
  }
  ASSERT_FALSE(batch.empty());

  net::NetServerOptions opt;
  opt.wal_dir = wal_dir;
  net::Server server(std::move(frozen), opt);
  net::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.update(batch).seq, 1u);

  const auto qs = [&] {
    util::Rng rng(223);
    const auto n = static_cast<std::uint64_t>(g.n());
    std::vector<Query> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back({static_cast<graph::Vertex>(rng.uniform(n)),
                     static_cast<graph::Vertex>(rng.uniform(n))});
    }
    return out;
  }();
  const auto before = client.route(qs);

  {
    FailpointGuard fp("wal.append:partial:1");
    for (int round = 0; round < 3; ++round) {
      try {
        client.update(batch);
        FAIL() << "disk-full update should be shed";
      } catch (const net::ProtocolError& e) {
        EXPECT_EQ(e.code, net::ErrorCode::kWalError);
      }
      // The shed is recoverable and reads are untouched: the same
      // connection keeps getting bit-identical answers from the
      // generation published before the disk filled.
      const auto during = client.route(qs);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        ASSERT_EQ(during[i].ok, before[i].ok) << i;
        ASSERT_EQ(during[i].length, before[i].length) << i;
        ASSERT_EQ(during[i].hops, before[i].hops) << i;
      }
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.wal_errors, 3);
  EXPECT_EQ(s.update_seq, 1);  // nothing unlogged was ever published
  EXPECT_EQ(s.updates, 1);

  // The disk "drained": the next update lands at the next seq, and the
  // log is whole — a reboot replays both acked batches, no torn bytes.
  EXPECT_EQ(client.update(batch).seq, 2u);
  EXPECT_EQ(server.stats().update_seq, 2);

  {
    std::vector<serve::WalRecord> recovered;
    serve::Wal check(
        wal_dir, {},
        [&](const serve::WalRecord& r) { recovered.push_back(r); });
    EXPECT_EQ(recovered.size(), 2u);
    EXPECT_EQ(check.stats().torn_bytes_dropped, 0u);
  }
  if (DIR* d = ::opendir(wal_dir)) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") {
        ::unlink((std::string(wal_dir) + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(wal_dir);
}

}  // namespace
}  // namespace nors

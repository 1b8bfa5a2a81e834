// End-to-end tests of the network serving layer (src/net, DESIGN.md §11):
// wire answers must be bit-identical to in-process FrozenScheme::route()
// across scheme families, pipelined concurrent clients must account
// exactly, abrupt disconnects and backpressure must be harmless, and
// drain/reload must never drop or tear an in-flight response.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "util/random.h"

namespace nors {
namespace {

using serve::Decision;
using serve::Query;

graph::WeightedGraph family_graph(int family, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (family) {
    case 0:
      return graph::connected_gnm(140, 400, graph::WeightSpec::uniform(1, 24),
                                  rng);
    case 1:
      return graph::torus(10, 12, graph::WeightSpec::uniform(1, 9), rng);
    default:
      return graph::clustered(130, 5, 0.35, 40,
                              graph::WeightSpec::uniform(1, 12), rng);
  }
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

// ---- loopback equivalence: every family × k, every Decision field ------

TEST(NetEquivalence, WireMatchesInProcessRouteAcrossFamiliesAndK) {
  for (int family = 0; family < 3; ++family) {
    for (int k = 2; k <= 4; ++k) {
      const auto g = family_graph(family, 100 + static_cast<unsigned>(k));
      auto frozen = build_frozen(g, k, 7);
      // Serving consumes the image; answers are checked against an
      // independent reload of the same bytes.
      const auto reference = serve::FrozenScheme::load(frozen.save());

      net::NetServerOptions opt;
      opt.shards = 2;
      net::Server server(std::move(frozen), opt);
      net::Client client("127.0.0.1", server.port());

      const auto info = client.hello();
      ASSERT_EQ(info.n, reference.n());
      ASSERT_EQ(info.k, reference.k());
      ASSERT_EQ(info.num_trees, reference.num_trees());
      ASSERT_EQ(info.image_version, serve::FrozenScheme::kFormatVersion);

      const auto qs =
          random_queries(reference.n(), 250, 900 + static_cast<unsigned>(k));
      const auto wire = client.route(qs);
      ASSERT_EQ(wire.size(), qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const auto local = reference.route(qs[i].u, qs[i].v);
        expect_identical(wire[i], local, qs[i]);
      }

      // Labels travel bit-for-bit too.
      for (graph::Vertex v = 0; v < reference.n();
           v += std::max(1, reference.n() / 17)) {
        const auto blob = reference.label_blob(v);
        const auto wire_label = client.label(v);
        ASSERT_EQ(wire_label,
                  std::vector<std::uint8_t>(blob.begin(), blob.end()));
      }
    }
  }
}

// ---- pipelined concurrent clients with exact accounting ----------------

TEST(NetConcurrency, EightPipelinedClientsAccountExactly) {
  const auto g = family_graph(0, 21);
  auto frozen = build_frozen(g, 3, 9);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::NetServerOptions opt;
  opt.loops = 2;
  opt.shards = 2;
  net::Server server(std::move(frozen), opt);

  constexpr int kClients = 8;
  constexpr std::size_t kFrames = 20;
  constexpr std::size_t kPerFrame = 50;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client("127.0.0.1", server.port());
        const auto qs = random_queries(
            n, kFrames * kPerFrame, 1000 + static_cast<unsigned>(c));
        // Fully pipelined: all frames on the wire before the first recv.
        for (std::size_t f = 0; f < kFrames; ++f) {
          client.send_route(qs.data() + f * kPerFrame, kPerFrame);
        }
        for (std::size_t f = 0; f < kFrames; ++f) {
          const auto part = client.recv_route();
          if (part.size() != kPerFrame) {
            ++failures;
            return;
          }
          // In-order delivery means frame f answers queries
          // [f*kPerFrame, (f+1)*kPerFrame) — check a sample.
          const auto& q = qs[f * kPerFrame];
          const auto local = reference.route(q.u, q.v);
          if (part[0].length != local.length || part[0].ok != local.ok) {
            ++failures;
            return;
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  const auto stats = server.stats();
  EXPECT_EQ(stats.queries,
            static_cast<std::int64_t>(kClients * kFrames * kPerFrame));
  EXPECT_EQ(stats.frames_in,
            static_cast<std::int64_t>(kClients * kFrames));
  EXPECT_EQ(stats.frames_out,
            static_cast<std::int64_t>(kClients * kFrames));
  EXPECT_EQ(stats.conns_accepted, kClients);
  EXPECT_EQ(stats.protocol_errors, 0);
}

// ---- abrupt disconnect mid-batch ---------------------------------------

TEST(NetRobustness, AbruptDisconnectMidBatchIsHarmless) {
  const auto g = family_graph(2, 33);
  auto frozen = build_frozen(g, 2, 11);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::Server server(std::move(frozen), {});
  const auto qs = random_queries(n, 64, 5);

  for (int round = 0; round < 20; ++round) {
    net::Client client("127.0.0.1", server.port());
    // Several batches in flight, then vanish without reading a byte.
    for (int f = 0; f < 4; ++f) client.send_route(qs.data(), qs.size());
    client.close();
  }

  // The server must still answer correctly on a fresh connection.
  net::Client client("127.0.0.1", server.port());
  const auto wire = client.route(qs);
  ASSERT_EQ(wire.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_identical(wire[i], reference.route(qs[i].u, qs[i].v), qs[i]);
  }
}

// ---- backpressure window enforcement -----------------------------------

TEST(NetBackpressure, InflightNeverExceedsWindow) {
  const auto g = family_graph(0, 41);
  auto frozen = build_frozen(g, 2, 13);
  const int n = frozen.n();

  net::NetServerOptions opt;
  opt.window = 4;
  net::Server server(std::move(frozen), opt);

  net::Client client("127.0.0.1", server.port());
  ASSERT_EQ(client.hello().window, 4u);

  const auto qs = random_queries(n, 128, 6);
  constexpr std::size_t kFrames = 32;
  // Blast far past the window without reading anything back: the server
  // must throttle its own reads rather than queue unboundedly.
  for (std::size_t f = 0; f < kFrames; ++f) {
    client.send_route(qs.data(), qs.size());
  }
  std::size_t got = 0;
  for (std::size_t f = 0; f < kFrames; ++f) got += client.recv_route().size();
  EXPECT_EQ(got, kFrames * qs.size());

  const auto stats = server.stats();
  EXPECT_GE(stats.max_inflight, 1);
  EXPECT_LE(stats.max_inflight, 4)
      << "per-connection window must bound pipelined frames";
}

// ---- graceful drain never drops a parsed frame -------------------------

TEST(NetDrain, DrainAnswersEveryParsedFrameThenCloses) {
  const auto g = family_graph(1, 55);
  auto frozen = build_frozen(g, 3, 17);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  net::NetServerOptions opt;
  opt.window = 64;
  net::Server server(std::move(frozen), opt);
  net::Client client("127.0.0.1", server.port());

  constexpr std::size_t kFrames = 12;
  const auto qs = random_queries(n, 48, 23);
  for (std::size_t f = 0; f < kFrames; ++f) {
    client.send_route(qs.data(), qs.size());
  }
  // Wait until the server has parsed (dispatched) every frame, so they
  // are all genuinely in flight when the drain starts.
  for (int spin = 0;
       server.stats().frames_in < static_cast<std::int64_t>(kFrames) &&
       spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().frames_in, static_cast<std::int64_t>(kFrames));

  server.drain();

  // Every in-flight frame was answered — correctly — then the socket
  // closed cleanly.
  for (std::size_t f = 0; f < kFrames; ++f) {
    const auto part = client.recv_route();
    ASSERT_EQ(part.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      expect_identical(part[i], reference.route(qs[i].u, qs[i].v), qs[i]);
    }
  }
  net::Frame leftover;
  EXPECT_FALSE(client.recv_frame_or_eof(leftover))
      << "drained server must close after the last response";
}

// ---- drain deadline: a wedged peer cannot hold shutdown hostage --------

TEST(NetDrain, DrainForcedCloseAfterDeadlineExpires) {
  const auto g = family_graph(0, 77);
  auto frozen = build_frozen(g, 2, 23);
  const int n = frozen.n();

  net::NetServerOptions opt;
  opt.drain_timeout_ms = 250;
  // Small kernel buffers so a non-reading peer wedges the flush with a
  // few frames instead of hiding behind autotuned TCP buffering.
  opt.sndbuf_bytes = 8192;
  net::Server server(std::move(frozen), opt);

  // An adversarial peer: a tiny receive window, plenty of pipelined
  // work, and it never reads a byte of the responses.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const auto qs = random_queries(n, 4096, 31);
  std::vector<std::uint8_t> body, frame;
  net::encode_route_request(body, qs.data(), qs.size());
  net::append_frame(frame, net::FrameType::kRoute, 1, body);
  for (int f = 0; f < 8; ++f) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const auto wr = ::send(fd, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
      if (wr <= 0) break;
      off += static_cast<std::size_t>(wr);
    }
  }
  // Let the responses wedge against the full socket buffers.
  for (int spin = 0; server.stats().frames_in < 8 && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // drain() must terminate via the forced-close branch — at the deadline,
  // not at the peer's leisure, and not hang.
  const auto t0 = std::chrono::steady_clock::now();
  server.drain();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 200) << "deadline branch should be what ends this drain";
  EXPECT_LT(ms, 5000) << "drain must not outlive its deadline by much";
  ::close(fd);
}

// ---- live reload: responses are never dropped or torn ------------------

TEST(NetReload, SwapNeverTearsAResponse) {
  const auto g_a = family_graph(0, 61);
  const auto g_b = family_graph(0, 62);  // same n, different edges/weights
  auto frozen_a = build_frozen(g_a, 3, 19);
  auto frozen_b = build_frozen(g_b, 3, 19);
  const auto ref_a = serve::FrozenScheme::load(frozen_a.save());
  const auto ref_b = serve::FrozenScheme::load(frozen_b.save());
  ASSERT_EQ(ref_a.n(), ref_b.n());
  const int n = ref_a.n();

  // A fixed query batch whose answers differ between the images, so a
  // torn (mixed-generation) response cannot masquerade as either.
  const auto qs = random_queries(n, 64, 29);
  std::vector<Decision> exp_a, exp_b;
  int differing = 0;
  for (const auto& q : qs) {
    exp_a.push_back(ref_a.route(q.u, q.v));
    exp_b.push_back(ref_b.route(q.u, q.v));
    differing += exp_a.back().length != exp_b.back().length ? 1 : 0;
  }
  ASSERT_GT(differing, 0) << "test needs distinguishable images";

  net::Server server(std::move(frozen_a), {});

  const auto matches = [&qs](const std::vector<Decision>& got,
                             const std::vector<Decision>& want) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (got[i].ok != want[i].ok || got[i].length != want[i].length ||
          got[i].hops != want[i].hops ||
          got[i].tree_root != want[i].tree_root ||
          got[i].tree_level != want[i].tree_level ||
          got[i].via_trick != want[i].via_trick) {
        return false;
      }
    }
    return true;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> matched_b{0};
  std::thread traffic([&] {
    net::Client client("127.0.0.1", server.port());
    while (!stop.load(std::memory_order_acquire)) {
      // A little pipeline so frames straddle the swap.
      client.send_route(qs.data(), qs.size());
      client.send_route(qs.data(), qs.size());
      for (int f = 0; f < 2; ++f) {
        const auto got = client.recv_route();
        if (matches(got, exp_a)) continue;
        if (matches(got, exp_b)) {
          matched_b.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  // Swap images under live traffic, ending on B.
  for (int swap = 0; swap < 5; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (swap % 2 == 0) {
      server.tables().reload(serve::FrozenScheme::load(frozen_b.save()));
    } else {
      server.tables().reload(serve::FrozenScheme::load(ref_a.save()));
    }
  }
  // Keep traffic flowing until at least one post-reload frame answered
  // from the new image proves the swap took effect.
  for (int spin = 0; matched_b.load() == 0 && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  traffic.join();

  EXPECT_EQ(torn.load(), 0)
      << "every response must match exactly one image generation";
  EXPECT_GT(matched_b.load(), 0) << "reload must actually take effect";
  EXPECT_EQ(server.stats().reloads, 5);
}

// ---- delta generations under load (DESIGN.md §13) -----------------------

// Update batches and a SIGHUP-style reload swap generations under
// sustained pipelined traffic; every response must be bit-identical to
// *one* generation's answers — never a mix. The TSan CI leg runs this
// file, so a torn read of the generation pointer or the delta set would
// also surface as a race report.
TEST(NetUpdate, UpdateAndReloadSwapsAreAtomicUnderPipelinedLoad) {
  const auto g = family_graph(0, 71);
  auto frozen = build_frozen(g, 3, 23);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const int n = reference.n();

  // Deterministic update batches over real edges: weight doubles, a
  // failure, and its revival.
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edge_pool;
  for (graph::Vertex u = 0; u < g.n() && edge_pool.size() < 64; ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) edge_pool.push_back({u, he.to});
    }
  }
  const auto weight_of = [&](std::size_t i) {
    const auto [a, b] = edge_pool[i];
    for (const auto& he : g.neighbors(a)) {
      if (he.to == b) return he.w;
    }
    return graph::Weight{0};
  };
  std::vector<std::vector<serve::EdgeUpdate>> batches;
  for (int bidx = 0; bidx < 6; ++bidx) {
    std::vector<serve::EdgeUpdate> batch;
    for (std::size_t i = static_cast<std::size_t>(bidx); i < edge_pool.size();
         i += 6) {
      const auto [a, b] = edge_pool[i];
      batch.push_back(serve::EdgeUpdate::weight(a, b, weight_of(i) * 2));
    }
    if (bidx == 2) {
      batch.push_back(serve::EdgeUpdate::fail(edge_pool[0].first,
                                              edge_pool[0].second));
    }
    if (bidx == 4) {  // revive at the original weight
      batch.push_back(serve::EdgeUpdate::weight(
          edge_pool[0].first, edge_pool[0].second, weight_of(0)));
    }
    batches.push_back(std::move(batch));
  }

  // Expected answer vector per generation: gen 0 (base), then the chain
  // after each batch — twice, because the reload drops the deltas and the
  // chain restarts from the base image.
  const auto qs = random_queries(n, 64, 31);
  std::vector<std::vector<Decision>> expected;
  {
    std::vector<Decision> base;
    for (const auto& q : qs) base.push_back(reference.route(q.u, q.v));
    expected.push_back(std::move(base));
    std::shared_ptr<const serve::DeltaSet> chain;
    for (const auto& batch : batches) {
      chain = serve::DeltaSet::apply(reference, chain.get(), batch);
      std::vector<Decision> want;
      for (const auto& q : qs) {
        want.push_back(reference.route_overlay(q.u, q.v, *chain));
      }
      expected.push_back(std::move(want));
    }
  }
  int differing = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    differing +=
        expected.front()[i].length != expected.back()[i].length ? 1 : 0;
  }
  ASSERT_GT(differing, 0) << "test needs distinguishable generations";

  net::NetServerOptions opt;
  opt.loops = 2;
  net::Server server(std::move(frozen), opt);

  const auto matches = [&qs](const std::vector<Decision>& got,
                             const std::vector<Decision>& want) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (got[i].ok != want[i].ok || got[i].length != want[i].length ||
          got[i].hops != want[i].hops ||
          got[i].tree_root != want[i].tree_root ||
          got[i].tree_level != want[i].tree_level ||
          got[i].via_trick != want[i].via_trick) {
        return false;
      }
    }
    return true;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> matched_head{0};
  std::vector<std::thread> traffic;
  for (int c = 0; c < 2; ++c) {
    traffic.emplace_back([&] {
      net::Client client("127.0.0.1", server.port());
      while (!stop.load(std::memory_order_acquire)) {
        client.send_route(qs.data(), qs.size());
        client.send_route(qs.data(), qs.size());
        for (int f = 0; f < 2; ++f) {
          const auto got = client.recv_route();
          bool found = false;
          for (const auto& want : expected) {
            if (matches(got, want)) {
              found = true;
              break;
            }
          }
          if (!found) {
            torn.fetch_add(1, std::memory_order_relaxed);
          } else if (matches(got, expected.back())) {
            matched_head.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Chain 1: apply every batch under load.
  for (const auto& batch : batches) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.tables().apply(batch);
  }
  // SIGHUP under load: back to the base generation (deltas dropped)...
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.tables().reload(serve::FrozenScheme::load(reference.save()));
  // ...and chain 2 rebuilds to the head generation again.
  for (const auto& batch : batches) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.tables().apply(batch);
  }

  for (int spin = 0; matched_head.load() == 0 && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : traffic) t.join();

  EXPECT_EQ(torn.load(), 0)
      << "every response must match exactly one generation";
  EXPECT_GT(matched_head.load(), 0)
      << "the head delta generation must actually serve";
  const auto stats = server.stats();
  EXPECT_EQ(stats.updates, 2 * static_cast<std::int64_t>(batches.size()));
  EXPECT_EQ(stats.reloads, 1);
}

}  // namespace
}  // namespace nors

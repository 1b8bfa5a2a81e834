// Durability + replication tests (DESIGN.md §14): the table service's
// write-side rules driven with no socket, the WAL wired through the
// serving daemon, checkpoint compaction, the kSubscribe/kRepl stream,
// read-only replicas that follow a primary, and client endpoint failover.
// The recurring assertion shape: two daemons (a rebooted one and its
// never-crashed twin, or a replica and its primary) must answer every
// route query bit-identically.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/tables.h"
#include "net/wire.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nors {
namespace {

using graph::Vertex;
using serve::Decision;
using serve::EdgeUpdate;
using serve::Query;

struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    util::Failpoints::configure(spec);
  }
  ~FailpointGuard() { util::Failpoints::clear(); }
};

void remove_tree(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      if (::unlink(child.c_str()) != 0) remove_tree(child);
    }
    ::closedir(d);
    ::rmdir(path.c_str());
  } else {
    ::unlink(path.c_str());
  }
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/nors_repl_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    if (p == nullptr) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempDir() { remove_tree(path); }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

graph::WeightedGraph test_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, 3LL * n, graph::WeightSpec::uniform(1, 16),
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
    const auto u = static_cast<Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    if (u != v) qs.push_back({u, v});
  }
  return qs;
}

std::vector<std::pair<Vertex, Vertex>> all_edges(
    const graph::WeightedGraph& g) {
  std::vector<std::pair<Vertex, Vertex>> out;
  for (Vertex u = 0; u < g.n(); ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) out.push_back({u, he.to});
    }
  }
  return out;
}

/// A batch of real-edge events: mostly reweights, some failures.
std::vector<EdgeUpdate> edge_batch(
    const std::vector<std::pair<Vertex, Vertex>>& edges, util::Rng& rng,
    std::size_t count) {
  std::vector<EdgeUpdate> b;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [u, v] = edges[rng.uniform(edges.size())];
    if (rng.uniform(4) == 0) {
      b.push_back(EdgeUpdate::fail(u, v));
    } else {
      b.push_back(EdgeUpdate::weight(
          u, v, static_cast<graph::Dist>(1 + rng.uniform(30))));
    }
  }
  return b;
}

void expect_decisions_identical(const std::vector<Decision>& a,
                                const std::vector<Decision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok, b[i].ok) << "query " << i;
    ASSERT_EQ(a[i].length, b[i].length) << "query " << i;
    ASSERT_EQ(a[i].hops, b[i].hops) << "query " << i;
    ASSERT_EQ(a[i].via_trick, b[i].via_trick) << "query " << i;
    ASSERT_EQ(a[i].tree_level, b[i].tree_level) << "query " << i;
    ASSERT_EQ(a[i].tree_root, b[i].tree_root) << "query " << i;
  }
}

template <typename Pred>
bool wait_until(Pred p, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return p();
}

// ---- the table service, socket-free --------------------------------------

/// The ErrorCode of the TableError `fn` threw (kNone if it did not throw).
template <typename Fn>
net::ErrorCode refusal(Fn&& fn) {
  try {
    fn();
  } catch (const net::TableError& e) {
    return e.code;
  }
  return net::ErrorCode::kNone;
}

std::vector<std::uint8_t> encoded(std::span<const EdgeUpdate> events) {
  std::vector<std::uint8_t> out;
  serve::encode_edge_updates(out, events);
  return out;
}

/// Decodes what the service streams to one subscriber.
struct VectorSink : net::ReplSink {
  std::vector<net::ReplFrame> got;
  bool alive() const override { return true; }
  void push(std::span<const std::vector<std::uint8_t>> frames) override {
    for (const auto& f : frames) {
      got.push_back(net::decode_repl(
          net::parse_frame(f.data(), f.size()).frame.body));
    }
  }
};

TEST(TableService, ReplicaRefusesLocalUpdatesButAppliesReplicated) {
  const auto g = test_graph(150, 151);
  auto frozen = build_frozen(g, 3, 9);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const auto edges = all_edges(g);
  util::Rng rng(157);
  net::NetServerOptions opt;
  opt.replica_of = "127.0.0.1:1";  // never contacted: no Server, no socket
  net::TableService tables(std::move(frozen), opt);

  EXPECT_EQ(refusal([&] { tables.apply(edge_batch(edges, rng, 6)); }),
            net::ErrorCode::kReadOnly);
  EXPECT_EQ(tables.seq(), 0u);
  EXPECT_EQ(tables.current()->delta, nullptr);

  // The follower's door still writes, at the primary's seq; re-delivery
  // of a held seq is acked without effect.
  const auto batch = edge_batch(edges, rng, 6);
  EXPECT_EQ(tables.apply_replicated(1, false, batch).seq, 1u);
  EXPECT_EQ(tables.apply_replicated(1, false, batch).seq, 1u);
  const auto gen = tables.current();
  EXPECT_EQ(encoded(gen->delta->as_edge_updates(*gen->fs)),
            encoded(serve::DeltaSet::apply(reference, nullptr, batch)
                        ->as_edge_updates(reference)));
  net::WireStats s;
  tables.fill_stats(s);
  EXPECT_EQ(s.update_seq, 1);
  EXPECT_EQ(s.repl_applied, 1);
}

TEST(TableService, WriteRulesRefuseInOrderAndPublishNothing) {
  TempDir td;
  const auto g = test_graph(140, 167);
  const auto edges = all_edges(g);
  util::Rng rng(173);
  auto outside = edge_batch(edges, rng, 3);
  outside.push_back(EdgeUpdate::weight(0, static_cast<Vertex>(g.n()), 5));
  net::NetServerOptions opt;
  opt.wal_dir = td.sub("wal");
  net::TableService tables(build_frozen(g, 3, 7), opt);

  {
    // Range before WAL: an out-of-range batch never reaches the log.
    FailpointGuard fp("wal.append:error:1");
    EXPECT_EQ(refusal([&] { tables.apply(outside); }),
              net::ErrorCode::kBadQuery);
    EXPECT_EQ(refusal([&] { tables.apply(edge_batch(edges, rng, 3)); }),
              net::ErrorCode::kWalError);
  }
  net::WireStats s;
  tables.fill_stats(s);
  EXPECT_EQ(s.wal_errors, 1);
  EXPECT_EQ(s.updates, 0);
  EXPECT_EQ(tables.current()->delta, nullptr);  // nothing published
  EXPECT_EQ(tables.apply(edge_batch(edges, rng, 3)).seq, 1u);

  // Range before draining; every write door is shut once closed.
  tables.close();
  EXPECT_EQ(refusal([&] { tables.apply(outside); }),
            net::ErrorCode::kBadQuery);
  EXPECT_EQ(refusal([&] { tables.apply(edge_batch(edges, rng, 3)); }),
            net::ErrorCode::kDraining);
  EXPECT_EQ(refusal([&] { tables.checkpoint(); }), net::ErrorCode::kDraining);
  EXPECT_EQ(refusal([&] { tables.subscribe(0, nullptr); }),
            net::ErrorCode::kDraining);
  EXPECT_EQ(tables.seq(), 1u);
}

TEST(TableService, SubscribeHandsOverTheHeadThenEveryLaterBatch) {
  const auto g = test_graph(140, 179);
  const auto edges = all_edges(g);
  util::Rng rng(181);
  net::TableService tables(build_frozen(g, 3, 7), {});
  tables.apply(edge_batch(edges, rng, 5));
  tables.apply(edge_batch(edges, rng, 5));

  // Behind: the head plus a snapshot of everything up to it. In sync: no
  // catch-up.
  auto behind = std::make_shared<VectorSink>();
  auto in_sync = std::make_shared<VectorSink>();
  const auto sub = tables.subscribe(0, behind);
  EXPECT_EQ(sub.head, 2u);
  ASSERT_EQ(sub.catch_up.size(), 1u);
  const auto snap = net::decode_repl(sub.catch_up[0]);
  EXPECT_TRUE(snap.snapshot);
  EXPECT_EQ(snap.seq, 2u);
  const auto gen = tables.current();
  EXPECT_EQ(encoded(snap.events),
            encoded(gen->delta->as_edge_updates(*gen->fs)));
  EXPECT_TRUE(tables.subscribe(2, in_sync).catch_up.empty());

  // Every later batch reaches both, once, in apply order.
  const auto b3 = edge_batch(edges, rng, 4);
  tables.apply(b3);
  tables.apply(edge_batch(edges, rng, 4));
  for (const auto* sink : {behind.get(), in_sync.get()}) {
    ASSERT_EQ(sink->got.size(), 2u);
    EXPECT_EQ(sink->got[0].seq, 3u);
    EXPECT_EQ(sink->got[1].seq, 4u);
    EXPECT_EQ(encoded(sink->got[0].events), encoded(b3));
  }
}

TEST(Replication, MalformedReplicaOfIsRefusedAtConstruction) {
  const auto image = build_frozen(test_graph(100, 191), 2, 7).save();
  net::Server primary(serve::FrozenScheme::load(image), {});
  net::NetServerOptions opt;
  for (const char* bad : {"bogus", "127.0.0.1:notaport", "127.0.0.1:99999",
                          "127.0.0.1:0", "127.0.0.1:"}) {
    opt.replica_of = bad;
    EXPECT_THROW(net::Server(serve::FrozenScheme::load(image), opt),
                 std::invalid_argument)
        << bad;
  }
  opt.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  EXPECT_NO_THROW(net::Server(serve::FrozenScheme::load(image), opt));
}

// ---- the subscription stream ------------------------------------------

TEST(Replication, SubscribeStreamsEveryAppliedBatch) {
  const auto g = test_graph(140, 41);
  net::Server server(build_frozen(g, 3, 7), {});
  const auto edges = all_edges(g);
  util::Rng rng(43);

  net::ClientOptions copt;
  copt.port = server.port();
  copt.request_timeout_ms = 10000;
  net::Client sub(copt);
  EXPECT_EQ(sub.subscribe(0), 0u);
  EXPECT_TRUE(wait_until([&] { return server.stats().subscribers == 1; }));

  const auto b1 = edge_batch(edges, rng, 6);
  const auto ack = server.tables().apply(b1);
  EXPECT_EQ(ack.seq, 1u);

  const auto f = sub.recv_frame();
  ASSERT_EQ(f.type, net::FrameType::kRepl);
  const auto rf = net::decode_repl(f.body);
  EXPECT_EQ(rf.seq, 1u);
  EXPECT_EQ(rf.head_seq, 1u);
  EXPECT_FALSE(rf.snapshot);
  EXPECT_FALSE(rf.more);
  ASSERT_EQ(rf.events.size(), b1.size());
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(rf.events[i].u, b1[i].u);
    EXPECT_EQ(rf.events[i].v, b1[i].v);
    EXPECT_EQ(rf.events[i].w, b1[i].w);
  }
}

TEST(Replication, SubscribeRequiresADedicatedConnection) {
  const auto g = test_graph(140, 47);
  net::Server server(build_frozen(g, 3, 7), {});
  net::ClientOptions copt;
  copt.port = server.port();
  copt.request_timeout_ms = 10000;
  net::Client client(copt);

  // A route frame is in flight when the subscribe arrives: the server
  // must refuse (recoverably) instead of interleaving pushed frames
  // into an ordered request/response pipeline.
  const auto qs = random_queries(g.n(), 16, 3);
  client.send_route(qs.data(), qs.size());
  std::vector<std::uint8_t> body;
  net::encode_subscribe(body, 0);
  client.send_frame(net::FrameType::kSubscribe, body);

  EXPECT_EQ(client.recv_route().size(), qs.size());
  const auto f = client.recv_frame();
  ASSERT_EQ(f.type, net::FrameType::kError);
  EXPECT_EQ(net::decode_error(f.body).code, net::ErrorCode::kBadQuery);

  // The connection survived; a now-quiet pipeline may subscribe.
  EXPECT_EQ(client.subscribe(0), 0u);
}

TEST(Replication, LateSubscriberCatchesUpViaSnapshot) {
  const auto g = test_graph(140, 53);
  auto frozen = build_frozen(g, 3, 7);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  net::Server server(std::move(frozen), {});
  const auto edges = all_edges(g);
  util::Rng rng(59);

  server.tables().apply(edge_batch(edges, rng, 8));
  server.tables().apply(edge_batch(edges, rng, 8));

  net::ClientOptions copt;
  copt.port = server.port();
  copt.request_timeout_ms = 10000;
  net::Client sub(copt);
  EXPECT_EQ(sub.subscribe(0), 2u);

  const auto f = sub.recv_frame();
  ASSERT_EQ(f.type, net::FrameType::kRepl);
  const auto rf = net::decode_repl(f.body);
  EXPECT_EQ(rf.seq, 2u);
  EXPECT_TRUE(rf.snapshot);
  EXPECT_FALSE(rf.more);

  // The snapshot rebases a blank replica: applied against the *base*
  // image it must reproduce the primary's served tables exactly.
  const auto local = serve::DeltaSet::apply(reference, nullptr, rf.events);
  const auto qs = random_queries(g.n(), 400, 61);
  net::Client query_client("127.0.0.1", server.port());
  const auto over_wire = query_client.route(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto d = reference.route_overlay(qs[i].u, qs[i].v, *local);
    ASSERT_EQ(over_wire[i].ok, d.ok) << i;
    ASSERT_EQ(over_wire[i].length, d.length) << i;
    ASSERT_EQ(over_wire[i].hops, d.hops) << i;
  }

  // In-sync subscribers get no catch-up, just the next live push.
  net::Client sub2(copt);
  EXPECT_EQ(sub2.subscribe(2), 2u);
  server.tables().apply(edge_batch(edges, rng, 4));
  const auto live = sub2.recv_frame();
  ASSERT_EQ(live.type, net::FrameType::kRepl);
  const auto lf = net::decode_repl(live.body);
  EXPECT_EQ(lf.seq, 3u);
  EXPECT_FALSE(lf.snapshot);
}

// ---- replicas ----------------------------------------------------------

TEST(Replication, ReplicaFollowsPrimaryAndServesIdenticalReads) {
  const auto g = test_graph(150, 67);
  auto frozen = build_frozen(g, 3, 9);
  const auto image = frozen.save();
  const auto edges = all_edges(g);
  util::Rng rng(71);

  net::Server primary(std::move(frozen), {});
  net::Client pclient("127.0.0.1", primary.port());

  // Updates applied *before* the replica exists arrive via catch-up...
  pclient.update(edge_batch(edges, rng, 10));

  net::NetServerOptions ropt;
  ropt.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  net::Server replica(serve::FrozenScheme::load(image), ropt);

  // ...and updates applied after it via the live stream.
  pclient.update(edge_batch(edges, rng, 10));
  pclient.update(edge_batch(edges, rng, 10));

  ASSERT_TRUE(wait_until([&] { return replica.stats().update_seq == 3; }))
      << "replica stuck at seq " << replica.stats().update_seq;
  EXPECT_GE(replica.stats().repl_applied, 1);
  EXPECT_EQ(primary.stats().subscribers, 1);
  EXPECT_EQ(replica.stats().repl_lag, 0);

  const auto qs = random_queries(g.n(), 500, 73);
  net::Client rclient("127.0.0.1", replica.port());
  expect_decisions_identical(rclient.route(qs), pclient.route(qs));

  // A replica is read-only: client writes are refused, recoverably.
  try {
    rclient.update(edge_batch(edges, rng, 2));
    FAIL() << "update on a replica should be refused";
  } catch (const net::ProtocolError& e) {
    EXPECT_EQ(e.code, net::ErrorCode::kReadOnly);
  }
  EXPECT_EQ(rclient.route(qs).size(), qs.size());  // connection survived
}

TEST(Replication, StreamGapForcesResubscribeWithSnapshot) {
  const auto g = test_graph(140, 79);
  auto frozen = build_frozen(g, 3, 9);
  const auto image = frozen.save();
  const auto edges = all_edges(g);
  util::Rng rng(83);

  net::Server primary(std::move(frozen), {});
  net::NetServerOptions ropt;
  ropt.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  net::Server replica(serve::FrozenScheme::load(image), ropt);

  primary.tables().apply(edge_batch(edges, rng, 6));
  ASSERT_TRUE(wait_until([&] { return replica.stats().update_seq == 1; }));

  {
    // Drop exactly one pushed batch on the primary side: the replica
    // sees seq 3 after seq 1, detects the gap, and resubscribes — the
    // catch-up snapshot repairs it. Updates are never applied out of
    // order or with a hole.
    FailpointGuard fp("repl.stream:oneshot:1");
    primary.tables().apply(edge_batch(edges, rng, 6));  // push dropped
    primary.tables().apply(edge_batch(edges, rng, 6));  // arrives: gap
    ASSERT_TRUE(wait_until([&] { return replica.stats().update_seq == 3; }))
        << "replica stuck at seq " << replica.stats().update_seq;
  }

  const auto qs = random_queries(g.n(), 400, 89);
  net::Client pclient("127.0.0.1", primary.port());
  net::Client rclient("127.0.0.1", replica.port());
  expect_decisions_identical(rclient.route(qs), pclient.route(qs));
}

// ---- WAL recovery and checkpoint, through the daemon ------------------

TEST(Replication, RebootReplaysWalBitIdentically) {
  TempDir td;
  const auto g = test_graph(150, 97);
  const std::string img = td.sub("image.frozen");
  build_frozen(g, 3, 11).save_file(img);
  const auto edges = all_edges(g);
  util::Rng rng(101);
  const auto qs = random_queries(g.n(), 500, 103);

  net::NetServerOptions opt;
  opt.wal_dir = td.sub("wal");

  std::vector<Decision> before;
  {
    net::Server server(serve::FrozenScheme::map(img), opt);
    net::Client client("127.0.0.1", server.port());
    client.update(edge_batch(edges, rng, 12));
    client.update(edge_batch(edges, rng, 12));
    before = client.route(qs);
    EXPECT_EQ(server.stats().update_seq, 2);
    EXPECT_EQ(server.stats().wal_records, 2);
    // No checkpoint, no clean handoff: the destructor is the "crash".
  }
  {
    net::Server server(serve::FrozenScheme::map(img), opt);
    EXPECT_EQ(server.stats().update_seq, 2);
    net::Client client("127.0.0.1", server.port());
    expect_decisions_identical(client.route(qs), before);
  }
}

TEST(Replication, CheckpointCompactsLogAndImageAndRecovers) {
  TempDir td;
  const auto g = test_graph(150, 107);
  const std::string img = td.sub("image.frozen");
  build_frozen(g, 3, 11).save_file(img);
  const auto edges = all_edges(g);
  util::Rng rng(109);
  const auto qs = random_queries(g.n(), 500, 113);

  net::NetServerOptions opt;
  opt.wal_dir = td.sub("wal");
  opt.image_path = img;

  std::vector<Decision> before;
  {
    net::Server server(serve::FrozenScheme::map(img), opt);
    net::Client client("127.0.0.1", server.port());
    for (int i = 0; i < 3; ++i) client.update(edge_batch(edges, rng, 10));

    const auto ck = client.checkpoint();
    EXPECT_EQ(ck.seq, 3u);
    EXPECT_GT(ck.squashed, 0);
    EXPECT_EQ(ck.image_rebuilt, 1);
    EXPECT_EQ(ck.wal_segments, 1);
    EXPECT_EQ(server.stats().checkpoints, 1);

    // The log keeps moving after the checkpoint.
    client.update(edge_batch(edges, rng, 10));
    before = client.route(qs);
    EXPECT_EQ(server.stats().update_seq, 4);
  }
  {
    // Reboot from the *rebuilt* image + truncated WAL: same seq, same
    // answers as the daemon that never went down.
    net::Server server(serve::FrozenScheme::map(img), opt);
    EXPECT_EQ(server.stats().update_seq, 4);
    net::Client client("127.0.0.1", server.port());
    expect_decisions_identical(client.route(qs), before);
  }
}

TEST(Replication, AutoCheckpointRunsOnCadence) {
  TempDir td;
  const auto g = test_graph(140, 127);
  const auto edges = all_edges(g);
  util::Rng rng(131);

  net::NetServerOptions opt;
  opt.wal_dir = td.sub("wal");
  opt.checkpoint_every = 2;
  net::Server server(build_frozen(g, 3, 7), opt);
  server.tables().apply(edge_batch(edges, rng, 4));
  EXPECT_EQ(server.stats().checkpoints, 0);
  server.tables().apply(edge_batch(edges, rng, 4));
  EXPECT_EQ(server.stats().checkpoints, 1);
}

// ---- client failover ---------------------------------------------------

TEST(Replication, ClientFailsOverToTheNextEndpoint) {
  const auto g = test_graph(140, 137);
  auto frozen = build_frozen(g, 3, 7);
  const auto image = frozen.save();
  auto a = std::make_unique<net::Server>(std::move(frozen),
                                         net::NetServerOptions{});
  net::Server b(serve::FrozenScheme::load(image), {});

  net::ClientOptions copt;
  copt.endpoints = {{"127.0.0.1", a->port()}, {"127.0.0.1", b.port()}};
  copt.request_timeout_ms = 10000;
  net::Client client(copt);
  EXPECT_EQ(client.active_endpoint().port, a->port());
  const auto qs = random_queries(g.n(), 200, 139);
  const auto on_a = client.route(qs);

  // Kill the active endpoint: the next read-only call lands on b and
  // answers identically — the caller never sees the outage.
  const int a_port = a->port();
  a.reset();
  const auto on_b = client.route(qs);
  expect_decisions_identical(on_b, on_a);
  EXPECT_EQ(client.active_endpoint().port, b.port());
  EXPECT_NE(client.active_endpoint().port, a_port);

  // A *served* error is not a transport failure: no failover, the
  // active endpoint stays put.
  try {
    client.label(static_cast<Vertex>(g.n() + 1000));
    FAIL() << "out-of-range label should be refused";
  } catch (const net::ProtocolError& e) {
    EXPECT_EQ(e.code, net::ErrorCode::kBadQuery);
  }
  EXPECT_EQ(client.active_endpoint().port, b.port());
}

}  // namespace
}  // namespace nors

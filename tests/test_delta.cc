// Live-table tests (DESIGN.md §13): the DeltaSet journal layer over a
// frozen image. Covered here: exact masking (a failed edge masks
// precisely the cluster trees routing across it), in-place weight repair
// (served lengths charge the overridden weights along the unchanged
// frozen route), revive-by-reweight unmasking, journal parsing, the
// sharded submit path with a delta attached, the stretch bound on the
// *updated* graph, and the update-while-serving wire stress: ≥10k
// journaled updates applied through kUpdate admin frames while four
// pipelined clients query continuously. CI runs this under ASan+UBSan
// and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/shard.h"
#include "util/random.h"

namespace nors {
namespace {

using graph::Vertex;
using serve::Decision;
using serve::DeltaSet;
using serve::EdgeUpdate;
using serve::Query;

graph::WeightedGraph test_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, 3LL * n, graph::WeightSpec::uniform(1, 16),
                              rng);
}

core::RoutingScheme build_scheme(const graph::WeightedGraph& g, int k,
                                 std::uint64_t seed) {
  core::SchemeParams p;
  p.k = k;
  p.seed = seed;
  return core::RoutingScheme::build(g, p);
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

using EdgeKey = std::pair<Vertex, Vertex>;

EdgeKey key_of(Vertex u, Vertex v) { return {std::min(u, v), std::max(u, v)}; }

/// All undirected edges of g, each once, with its weight.
std::vector<std::pair<EdgeKey, graph::Dist>> all_edges(
    const graph::WeightedGraph& g) {
  std::vector<std::pair<EdgeKey, graph::Dist>> out;
  for (Vertex u = 0; u < g.n(); ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) out.push_back({{u, he.to}, he.w});
    }
  }
  return out;
}

/// The edge-state view a batch sequence leaves behind: weight per edge,
/// EdgeUpdate::kFail ⟺ failed. Later events override earlier ones, like
/// DeltaSet::apply.
using EdgeState = std::map<EdgeKey, graph::Dist>;

void fold_batch(EdgeState& state, const std::vector<EdgeUpdate>& batch) {
  for (const auto& e : batch) state[key_of(e.u, e.v)] = e.w;
}

/// Rebuilds g with `state` applied — the ground-truth graph the served
/// answers are measured against.
graph::WeightedGraph updated_graph(const graph::WeightedGraph& g,
                                   const EdgeState& state) {
  graph::WeightedGraph out(g.n());
  for (const auto& [key, w] : all_edges(g)) {
    graph::Dist use = w;
    if (const auto it = state.find(key); it != state.end()) use = it->second;
    if (use == EdgeUpdate::kFail) continue;
    out.add_edge(key.first, key.second, use);
  }
  out.freeze();
  return out;
}

/// The length of the walked path under the updated edge weights; fails the
/// test if the path crosses a failed edge.
graph::Dist path_length(const graph::WeightedGraph& g, const EdgeState& state,
                        const std::vector<Vertex>& path) {
  graph::Dist len = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeKey key = key_of(path[i], path[i + 1]);
    graph::Dist w = graph::kDistInf;
    if (const auto it = state.find(key); it != state.end()) {
      w = it->second;
    } else {
      for (const auto& he : g.neighbors(path[i])) {
        if (he.to == path[i + 1]) {
          w = he.w;
          break;
        }
      }
    }
    EXPECT_NE(w, EdgeUpdate::kFail)
        << "served path crosses failed edge " << key.first << "-"
        << key.second;
    len = graph::dist_add(len, w);
  }
  return len;
}

// ---- overlay semantics --------------------------------------------------

TEST(DeltaSet, EmptyBatchBumpsSeqAndPatchesNothing) {
  const auto g = test_graph(60, 901);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 7));
  serve::DeltaStats st;
  const auto ds = DeltaSet::apply(fs, nullptr, {}, &st);
  EXPECT_EQ(ds->seq(), 1u);
  EXPECT_EQ(st.applied, 0);
  EXPECT_EQ(ds->override_count(), 0);
  EXPECT_EQ(ds->masked_tree_count(), 0);
  graph::Dist w = 0;
  for (std::int64_t link = 0; link < 40; ++link) {
    EXPECT_EQ(ds->link_patch(link, w), serve::LinkPatch::kNone);
  }
  for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
    EXPECT_FALSE(ds->tree_masked(t));
  }
}

TEST(DeltaSet, WeightOverridesChargeNewWeightsExactly) {
  const auto g = test_graph(100, 907);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 11));

  // Double the weight of every 17th edge.
  const auto edges = all_edges(g);
  std::vector<EdgeUpdate> batch;
  for (std::size_t i = 0; i < edges.size(); i += 17) {
    batch.push_back(EdgeUpdate::weight(edges[i].first.first,
                                       edges[i].first.second,
                                       edges[i].second * 2));
  }
  EdgeState state;
  fold_batch(state, batch);

  serve::DeltaStats st;
  const auto ds = DeltaSet::apply(fs, nullptr, batch, &st);
  EXPECT_EQ(st.applied, static_cast<std::int64_t>(batch.size()));
  EXPECT_EQ(st.unknown_edges, 0);
  EXPECT_EQ(ds->override_count(),
            static_cast<std::int64_t>(2 * batch.size()));  // both directions
  EXPECT_EQ(ds->masked_tree_count(), 0);

  // No masking, so the walk takes the *same* frozen route and only the
  // charged lengths may differ — exactly by the overridden weights.
  for (const auto& q : random_queries(g.n(), 400, 911)) {
    std::vector<Vertex> path;
    const auto base = fs.route(q.u, q.v, &path);
    serve::OverlayTouch touch;
    std::vector<Vertex> opath;
    const auto over = fs.route_overlay(q.u, q.v, *ds, &touch, &opath);
    ASSERT_EQ(over.ok, base.ok);
    if (!base.ok) continue;
    EXPECT_EQ(opath, path);
    EXPECT_EQ(over.hops, base.hops);
    EXPECT_EQ(over.tree_root, base.tree_root);
    EXPECT_FALSE(touch.fell_back);
    const auto want = path_length(g, state, path);
    EXPECT_EQ(over.length, want) << q.u << "->" << q.v;
    bool crossed = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      crossed = crossed || state.count(key_of(path[i], path[i + 1])) > 0;
    }
    EXPECT_EQ(touch.repaired, crossed) << q.u << "->" << q.v;
  }
}

TEST(DeltaSet, RestoringFrozenWeightsConvergesToEmpty) {
  const auto g = test_graph(80, 919);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 13));
  const auto edges = all_edges(g);

  std::vector<EdgeUpdate> change, undo;
  for (std::size_t i = 0; i < edges.size(); i += 11) {
    change.push_back(EdgeUpdate::weight(
        edges[i].first.first, edges[i].first.second, edges[i].second + 5));
    undo.push_back(EdgeUpdate::weight(edges[i].first.first,
                                      edges[i].first.second,
                                      edges[i].second));
  }
  const auto ds1 = DeltaSet::apply(fs, nullptr, change);
  EXPECT_GT(ds1->override_count(), 0);
  const auto ds2 = DeltaSet::apply(fs, ds1.get(), undo);
  EXPECT_EQ(ds2->seq(), 2u);
  EXPECT_EQ(ds2->override_count(), 0)
      << "a journal that undoes itself must converge to an empty set";
  EXPECT_EQ(ds2->masked_tree_count(), 0);
}

TEST(DeltaSet, FailureMasksExactlyTheTreesCrossingTheLink) {
  const auto g = test_graph(110, 929);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 17));
  const auto edges = all_edges(g);
  util::Rng rng(931);

  int masked_cases = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    const auto [a, b] = key;
    const std::vector<EdgeUpdate> fail_batch{EdgeUpdate::fail(a, b)};
    const auto ds = DeltaSet::apply(fs, nullptr, fail_batch);

    // Reference mask: tree T contains edge {a, b} iff some table slab
    // entry of a or b points back across it (parent_port at subtree
    // members, up_port at subtree roots).
    std::set<std::int32_t> expect_masked;
    const auto tables = fs.tables();
    const auto table_tree = fs.table_tree();
    const auto table_off = fs.table_off();
    for (const Vertex x : {a, b}) {
      const Vertex other = x == a ? b : a;
      const std::int32_t port = fs.find_port(x, other);
      ASSERT_GE(port, 0);
      for (std::int64_t i = table_off[static_cast<std::size_t>(x)];
           i < table_off[static_cast<std::size_t>(x) + 1]; ++i) {
        const auto& slot = tables[static_cast<std::size_t>(i)];
        if (slot.parent_port == port || slot.up_port == port) {
          expect_masked.insert(table_tree[static_cast<std::size_t>(i)]);
        }
      }
    }

    EXPECT_EQ(ds->masked_tree_count(),
              static_cast<std::int64_t>(expect_masked.size()));
    for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
      EXPECT_EQ(ds->tree_masked(t), expect_masked.count(t) > 0)
          << "tree " << t << " vs failed edge " << a << "-" << b;
    }
    if (!expect_masked.empty()) ++masked_cases;
  }
  EXPECT_GT(masked_cases, 0) << "trials never hit a tree edge";
}

TEST(DeltaSet, ReviveByReweightUnmasks) {
  const auto g = test_graph(100, 937);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 19));
  const auto edges = all_edges(g);
  util::Rng rng(941);

  // Find an edge whose failure masks at least one tree.
  for (int trial = 0; trial < 64; ++trial) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    const auto [a, b] = key;
    const std::vector<EdgeUpdate> fail_batch{EdgeUpdate::fail(a, b)};
    const auto failed = DeltaSet::apply(fs, nullptr, fail_batch);
    if (failed->masked_tree_count() == 0) continue;

    const std::vector<EdgeUpdate> revive_batch{EdgeUpdate::weight(a, b, w + 3)};
    const auto revived = DeltaSet::apply(fs, failed.get(), revive_batch);
    EXPECT_EQ(revived->failed_link_count(), 0);
    EXPECT_EQ(revived->masked_tree_count(), 0)
        << "reviving the only failed edge must unmask every tree";
    EXPECT_GT(revived->override_count(), 0);  // the new weight stays

    const std::vector<EdgeUpdate> restore_batch{EdgeUpdate::weight(a, b, w)};
    const auto restored = DeltaSet::apply(fs, revived.get(), restore_batch);
    EXPECT_EQ(restored->override_count(), 0);
    return;
  }
  FAIL() << "no trial produced a masked tree";
}

TEST(DeltaSet, UnknownAndSelfLoopEdgesAreCountedAndSkipped) {
  const auto g = test_graph(60, 947);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 23));
  // Find a non-edge.
  Vertex a = 0, b = 0;
  for (b = 1; b < g.n(); ++b) {
    if (fs.find_port(0, b) < 0) break;
  }
  ASSERT_LT(b, g.n());
  serve::DeltaStats st;
  // A vertex outside the image names no edge either: refusing it is the
  // table service's rule, and apply() must only never read past the image.
  const std::vector<EdgeUpdate> batch{
      EdgeUpdate::weight(a, b, 9), EdgeUpdate::fail(5, 5),
      EdgeUpdate::weight(0, static_cast<Vertex>(g.n()), 3),
      EdgeUpdate::fail(-1, 2)};
  const auto ds = DeltaSet::apply(fs, nullptr, batch, &st);
  EXPECT_EQ(st.applied, 0);
  EXPECT_EQ(st.unknown_edges, 4);
  EXPECT_EQ(ds->override_count(), 0);
}

// ---- the stretch bound on the updated graph -----------------------------

TEST(DeltaSet, StretchBoundHoldsOnTheUpdatedGraph) {
  const auto g = test_graph(120, 953);
  const auto scheme = build_scheme(g, 3, 29);
  const auto fs = serve::FrozenScheme::freeze(scheme);
  const auto edges = all_edges(g);
  util::Rng rng(957);

  // Mixed batch: fail a few edges, scale a few weights by ≤ α = 2. A
  // single edge can sit in a *top-level* cluster tree, and masking one of
  // those costs every pair whose only covering tree it was — legal under
  // the mask-or-fallback policy, but it would turn this test into a
  // coverage test. Greedily keep failures whose cumulative mask stays
  // small so most pairs retain a surviving covering tree and the stretch
  // assertion below gets real fallback traffic to measure.
  std::vector<EdgeUpdate> batch;
  EdgeState state;
  const std::int64_t mask_budget = fs.num_trees() / 24;
  for (int i = 0; i < 64 && static_cast<int>(batch.size()) < 6; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    auto trial = batch;
    trial.push_back(EdgeUpdate::fail(key.first, key.second));
    if (DeltaSet::apply(fs, nullptr, trial)->masked_tree_count() <=
        mask_budget) {
      batch = std::move(trial);
    }
  }
  EXPECT_GE(batch.size(), 3u);
  for (int i = 0; i < 12; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    batch.push_back(EdgeUpdate::weight(key.first, key.second, w * 2));
  }
  fold_batch(state, batch);
  const auto ds = DeltaSet::apply(fs, nullptr, batch);
  EXPECT_GT(ds->masked_tree_count(), 0);

  const auto updated = updated_graph(g, state);
  // Weight scale α = 2: served length ≤ α · frozen-weight length of the
  // walked route ≤ α · bound · d_orig ≤ α² · bound · d_updated (every
  // updated weight is within a factor α of the frozen one, failures only
  // raise d_updated). DESIGN.md §13 spells the argument out.
  const double alpha = 2.0;
  const double bound = alpha * alpha * scheme.stretch_bound() + 1e-9;

  int routed = 0, skipped = 0;
  for (Vertex u = 0; u < g.n(); u += 5) {
    const auto sp = graph::dijkstra(updated, u);
    for (Vertex v = 2; v < g.n(); v += 7) {
      if (u == v) continue;
      serve::OverlayTouch touch;
      std::vector<Vertex> path;
      const auto d = fs.route_overlay(u, v, *ds, &touch, &path);
      if (!d.ok) {  // every surviving tree missed the pair — legal, rare
        ++skipped;
        continue;
      }
      const auto dist = sp.dist[static_cast<std::size_t>(v)];
      if (graph::is_inf(dist)) {  // failures disconnected the pair
        ++skipped;
        continue;
      }
      // The served route is a real path in the updated graph (never
      // crosses a failed link — path_length fails the test otherwise),
      // so it cannot beat the updated shortest path...
      const auto len = path_length(g, state, path);
      EXPECT_EQ(len, d.length);
      EXPECT_GE(len, dist) << u << "->" << v;
      // ...and it must respect the (α-adjusted) stretch bound.
      EXPECT_LE(static_cast<double>(len),
                bound * static_cast<double>(dist))
          << u << "->" << v << " masked-fallback=" << touch.fell_back;
      ++routed;
    }
  }
  EXPECT_GT(routed, 200);
  // Masking costs coverage by design (a pair whose every covering tree is
  // masked is unroutable until a repair); with the mask budget above the
  // majority of pairs must keep a surviving tree.
  EXPECT_LT(skipped, routed);
}

// ---- journal parsing ----------------------------------------------------

TEST(UpdateJournal, ParsesBatchesCommentsAndBlankLines) {
  const auto batches = serve::parse_update_journal(
      "# header comment\n"
      "w 3 9 12\n"
      "f 4 7\n"
      "commit\n"
      "\n"
      "w 1 2 5\n");
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[0][0].u, 3);
  EXPECT_EQ(batches[0][0].v, 9);
  EXPECT_EQ(batches[0][0].w, 12);
  EXPECT_FALSE(batches[0][0].is_fail());
  EXPECT_TRUE(batches[0][1].is_fail());
  ASSERT_EQ(batches[1].size(), 1u);  // trailing open batch
  EXPECT_EQ(batches[1][0].w, 5);
}

TEST(UpdateJournal, RejectsMalformedLinesWithLineNumbers) {
  try {
    serve::parse_update_journal("w 1 2 3\nbogus line\n");
    FAIL() << "malformed journal must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
        << "error should carry the 1-based line number: " << e.what();
  }
}

// ---- sharded submit with a delta attached -------------------------------

TEST(ShardedDelta, SubmitWithDeltaMatchesRouteOverlay) {
  const auto g = test_graph(110, 967);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 31));
  const auto edges = all_edges(g);
  util::Rng rng(971);

  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 8; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    batch.push_back(i % 2 == 0
                        ? EdgeUpdate::fail(key.first, key.second)
                        : EdgeUpdate::weight(key.first, key.second, w + 7));
  }
  const auto ds = DeltaSet::apply(fs, nullptr, batch);

  serve::ShardedOptions opt;
  opt.shards = 3;
  opt.cache_entries = 256;
  serve::ShardedRouteServer srv(fs, opt);

  const auto qs = random_queries(g.n(), 3000, 977);
  std::vector<Decision> got(qs.size());
  srv.submit(qs.data(), qs.size(), got.data(), ds).wait();

  std::int64_t want_masked = 0, want_repaired = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    serve::OverlayTouch touch;
    const auto want = fs.route_overlay(qs[i].u, qs[i].v, *ds, &touch);
    ASSERT_EQ(got[i].ok, want.ok) << qs[i].u << "->" << qs[i].v;
    EXPECT_EQ(got[i].length, want.length);
    EXPECT_EQ(got[i].hops, want.hops);
    EXPECT_EQ(got[i].tree_root, want.tree_root);
    EXPECT_EQ(got[i].tree_level, want.tree_level);
    EXPECT_EQ(got[i].via_trick, want.via_trick);
    want_masked += touch.fell_back ? 1 : 0;
    want_repaired += touch.repaired ? 1 : 0;
  }
  const auto totals = srv.totals();
  EXPECT_EQ(totals.masked, want_masked);
  EXPECT_EQ(totals.repaired, want_repaired);

  // Null delta on the same pool: identical to the unpatched image, and a
  // delta→null transition must not serve stale cache state.
  std::vector<Decision> plain(qs.size());
  srv.submit(qs.data(), qs.size(), plain.data(),
             std::shared_ptr<const DeltaSet>{})
      .wait();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want = fs.route(qs[i].u, qs[i].v);
    ASSERT_EQ(plain[i].ok, want.ok);
    EXPECT_EQ(plain[i].length, want.length);
  }
}

// ---- update-while-serving wire stress -----------------------------------

TEST(WireUpdate, TenThousandUpdatesUnderFourPipelinedClients) {
  const auto g = test_graph(120, 983);
  const auto scheme = build_scheme(g, 3, 37);
  auto frozen = serve::FrozenScheme::freeze(scheme);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const auto edges = all_edges(g);

  net::NetServerOptions opt;
  opt.loops = 2;
  opt.shards = 2;
  opt.cache_entries = 256;
  net::Server server(std::move(frozen), opt);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> answered{0};
  std::atomic<int> bad{0};

  // Four pipelined clients querying continuously across every update.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      net::Client client("127.0.0.1", server.port());
      const auto qs =
          random_queries(reference.n(), 256, 991 + static_cast<unsigned>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        constexpr int kDepth = 4;
        for (int f = 0; f < kDepth; ++f) {
          client.send_route(qs.data() + 64 * f, 64);
        }
        for (int f = 0; f < kDepth; ++f) {
          const auto part = client.recv_route();
          if (part.size() != 64) {
            bad.fetch_add(1);
            return;
          }
          for (const auto& d : part) {
            // Wrong-generation reads would show as zero/negative lengths
            // or torn decisions; ok answers must carry a real length.
            if (d.ok && d.length <= 0) bad.fetch_add(1);
          }
          answered.fetch_add(static_cast<std::int64_t>(part.size()));
        }
      }
    });
  }

  // The updater: ≥ 10k journaled events in 128 kUpdate batches — fail /
  // reweight / revive cycling over the edge pool, every batch published
  // as a generation while the clients above keep streaming.
  util::Rng rng(997);
  net::Client admin("127.0.0.1", server.port());
  EdgeState state;
  std::shared_ptr<const DeltaSet> mirror;
  std::uint64_t last_seq = 0;
  constexpr int kBatches = 128;
  constexpr int kPerBatch = 80;  // 128 * 80 = 10240 events
  for (int bidx = 0; bidx < kBatches; ++bidx) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(kPerBatch);
    for (int i = 0; i < kPerBatch; ++i) {
      const auto& [key, w] = edges[rng.uniform(edges.size())];
      switch (rng.uniform(3)) {
        case 0:
          batch.push_back(EdgeUpdate::fail(key.first, key.second));
          break;
        case 1:
          batch.push_back(
              EdgeUpdate::weight(key.first, key.second, w * 2));
          break;
        default:  // revive / restore
          batch.push_back(EdgeUpdate::weight(key.first, key.second, w));
          break;
      }
    }
    const auto ack = admin.update(batch);
    EXPECT_GT(ack.seq, last_seq);
    last_seq = ack.seq;
    fold_batch(state, batch);
    mirror = DeltaSet::apply(reference, mirror.get(), batch);
    EXPECT_EQ(ack.overrides, mirror->override_count());
    EXPECT_EQ(ack.failed_links, mirror->failed_link_count());
    EXPECT_EQ(ack.masked_trees, mirror->masked_tree_count());
  }

  // Final batch: revive every still-failed edge at double weight, so the
  // head generation keeps plenty of overrides but masks nothing — the
  // verification sweep below then measures full coverage instead of the
  // (legal) unroutable pairs a masked top-level tree leaves behind.
  {
    std::vector<EdgeUpdate> revive;
    for (const auto& [key, w] : all_edges(g)) {
      const auto it = state.find(key);
      if (it != state.end() && it->second == EdgeUpdate::kFail) {
        revive.push_back(EdgeUpdate::weight(key.first, key.second, w * 2));
      }
    }
    if (!revive.empty()) {
      const auto ack = admin.update(revive);
      EXPECT_EQ(ack.masked_trees, 0);
      fold_batch(state, revive);
      mirror = DeltaSet::apply(reference, mirror.get(), revive);
    }
    EXPECT_EQ(mirror->masked_tree_count(), 0);
  }

  // Let the clients observe the final generation for a moment, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(answered.load(), 4 * 1024);

  // Fresh connection: answers now come from the journal's head
  // generation, bit-identical to the local mirror, and within the
  // α-adjusted stretch bound on the updated graph.
  const auto updated = updated_graph(g, state);
  const double bound = 4.0 * scheme.stretch_bound() + 1e-9;  // α = 2
  net::Client verify("127.0.0.1", server.port());
  const auto vqs = random_queries(reference.n(), 512, 1009);
  const auto wire = verify.route(vqs);
  int checked = 0;
  for (std::size_t i = 0; i < vqs.size(); ++i) {
    serve::OverlayTouch touch;
    std::vector<Vertex> path;
    const auto want =
        reference.route_overlay(vqs[i].u, vqs[i].v, *mirror, &touch, &path);
    ASSERT_EQ(wire[i].ok, want.ok);
    if (!want.ok) continue;
    EXPECT_EQ(wire[i].length, want.length);
    EXPECT_EQ(wire[i].hops, want.hops);
    EXPECT_EQ(wire[i].tree_root, want.tree_root);
    const auto dist =
        graph::pair_distance(updated, vqs[i].u, vqs[i].v);
    if (graph::is_inf(dist)) continue;
    EXPECT_EQ(path_length(g, state, path), want.length);
    EXPECT_LE(static_cast<double>(want.length),
              bound * static_cast<double>(dist));
    ++checked;
  }
  EXPECT_GT(checked, 300);

  const auto stats = server.stats();
  EXPECT_GE(stats.updates, kBatches);
  EXPECT_GE(stats.masked, 0);
  EXPECT_GE(stats.repaired, 0);
}

}  // namespace
}  // namespace nors

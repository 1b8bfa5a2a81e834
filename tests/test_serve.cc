#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/serialize.h"
#include "graph/generators.h"
#include "serve/frozen.h"
#include "serve/frozen_tz.h"
#include "serve/shard.h"
#include "serve/table_cache.h"

namespace nors {
namespace {

using graph::Vertex;

graph::WeightedGraph test_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, 3LL * n, graph::WeightSpec::uniform(1, 16),
                             rng);
}

/// The three generator families of the equivalence sweep (same trio as
/// test_determinism): sparse random, regular torus, clustered.
graph::WeightedGraph family_graph(int family, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (family) {
    case 0:
      return graph::connected_gnm(120, 330, graph::WeightSpec::uniform(1, 24),
                                  rng);
    case 1:
      return graph::torus(10, 11, graph::WeightSpec::uniform(1, 9), rng);
    default:
      return graph::clustered(120, 5, 0.35, 40,
                              graph::WeightSpec::uniform(1, 12), rng);
  }
}

/// Saves `f`, maps the file, and hands the mapping to `body`; removes the
/// file afterwards. The mapping must outlive all views into it, so the
/// callback shape keeps lifetimes honest.
template <typename Body>
void with_mapped(const serve::FrozenScheme& f, const std::string& tag,
                 Body&& body) {
  const std::string path = ::testing::TempDir() + "/nors_map_" + tag + ".bin";
  f.save_file(path);
  {
    const auto mapped = serve::FrozenScheme::map(path);
    ASSERT_TRUE(mapped.is_mapped());
    body(mapped);
  }
  std::remove(path.c_str());
}

core::RoutingScheme build_scheme(const graph::WeightedGraph& g, int k,
                                 bool label_trick, std::uint64_t seed) {
  core::SchemeParams p;
  p.k = k;
  p.seed = seed;
  p.label_trick = label_trick;
  return core::RoutingScheme::build(g, p);
}

void expect_same_decision(const core::RoutingScheme::RouteResult& live,
                          const serve::Decision& frozen, Vertex u, Vertex v) {
  EXPECT_EQ(live.ok, frozen.ok) << "u=" << u << " v=" << v;
  EXPECT_EQ(live.length, frozen.length) << "u=" << u << " v=" << v;
  EXPECT_EQ(live.hops, frozen.hops) << "u=" << u << " v=" << v;
  EXPECT_EQ(live.via_trick, frozen.via_trick) << "u=" << u << " v=" << v;
  EXPECT_EQ(live.tree_root, frozen.tree_root) << "u=" << u << " v=" << v;
  EXPECT_EQ(live.tree_level, frozen.tree_level) << "u=" << u << " v=" << v;
}

class FrozenSchemeTest : public ::testing::TestWithParam<int> {};

TEST_P(FrozenSchemeTest, RouteMatchesLiveSchemeOnRandomQueries) {
  const int k = GetParam();
  const auto g = test_graph(130, 4000 + static_cast<std::uint64_t>(k));
  const auto s = build_scheme(g, k, /*label_trick=*/true, 11);
  const auto f = serve::FrozenScheme::freeze(s);
  EXPECT_EQ(f.n(), g.n());
  EXPECT_EQ(f.k(), k);

  std::vector<Vertex> frozen_path;
  for (Vertex u = 0; u < g.n(); u += 3) {
    for (Vertex v = 1; v < g.n(); v += 5) {
      const auto live = s.route(u, v);
      const auto frozen = f.route(u, v, &frozen_path);
      expect_same_decision(live, frozen, u, v);
      EXPECT_EQ(live.path, frozen_path) << "u=" << u << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, FrozenSchemeTest, ::testing::Values(2, 3, 4));

TEST(FrozenScheme, RouteMatchesLiveWithoutLabelTrick) {
  const auto g = test_graph(120, 4100);
  const auto s = build_scheme(g, 3, /*label_trick=*/false, 13);
  const auto f = serve::FrozenScheme::freeze(s);
  for (Vertex u = 0; u < g.n(); u += 7) {
    for (Vertex v = 2; v < g.n(); v += 3) {
      expect_same_decision(s.route(u, v), f.route(u, v), u, v);
    }
  }
}

TEST(FrozenScheme, LabelBlobMatchesWireEncoding) {
  const auto g = test_graph(90, 4200);
  const auto s = build_scheme(g, 3, true, 17);
  const auto f = serve::FrozenScheme::freeze(s);
  for (Vertex v = 0; v < g.n(); v += 11) {
    const auto expect = core::encode_vertex_label(s, v);
    const auto blob = f.label_blob(v);
    ASSERT_EQ(blob.size(), expect.size());
    EXPECT_TRUE(std::equal(blob.begin(), blob.end(), expect.begin()));
  }
}

TEST(FrozenScheme, SaveLoadRoundTripIsByteIdentical) {
  const auto g = test_graph(110, 4300);
  const auto s = build_scheme(g, 3, true, 19);
  const auto f = serve::FrozenScheme::freeze(s);

  const auto bytes = f.save();
  const auto loaded = serve::FrozenScheme::load(bytes);
  const auto bytes2 = loaded.save();
  ASSERT_EQ(bytes.size(), bytes2.size());
  EXPECT_EQ(bytes, bytes2);

  // The reloaded snapshot serves the same decisions as the live scheme.
  for (Vertex u = 0; u < g.n(); u += 9) {
    for (Vertex v = 1; v < g.n(); v += 8) {
      expect_same_decision(s.route(u, v), loaded.route(u, v), u, v);
    }
  }
}

TEST(FrozenScheme, FileRoundTrip) {
  const auto g = test_graph(80, 4400);
  const auto s = build_scheme(g, 2, true, 23);
  const auto f = serve::FrozenScheme::freeze(s);
  const std::string path = ::testing::TempDir() + "/nors_frozen_test.bin";
  f.save_file(path);
  const auto loaded = serve::FrozenScheme::load_file(path);
  EXPECT_EQ(f.save(), loaded.save());
  std::remove(path.c_str());
}

TEST(FrozenScheme, CorruptImagesAreRejected) {
  const auto g = test_graph(70, 4500);
  const auto s = build_scheme(g, 2, true, 29);
  const auto bytes = serve::FrozenScheme::freeze(s).save();

  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // Unsupported version (bytes 8..11 hold the version).
  bad = bytes;
  bad[8] = 0x7f;
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // Foreign endianness tag (bytes 12..15).
  bad = bytes;
  std::swap(bad[12], bad[15]);
  std::swap(bad[13], bad[14]);
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // Truncation, both mid-header and mid-payload.
  bad.assign(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);
  bad.assign(bytes.begin(), bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // A single flipped payload byte trips the checksum.
  bad = bytes;
  bad[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // Trailing garbage breaks the framing.
  bad = bytes;
  bad.push_back(0);
  EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);

  // The pristine image still loads.
  EXPECT_NO_THROW(serve::FrozenScheme::load(bytes));
}

TEST(FrozenSchemeMap, MappedImageIsBitIdenticalToOwningLoad) {
  const auto g = test_graph(110, 5100);
  const auto s = build_scheme(g, 3, true, 41);
  const auto f = serve::FrozenScheme::freeze(s);
  const auto bytes = f.save();
  const auto owned = serve::FrozenScheme::load(bytes);
  ASSERT_FALSE(owned.is_mapped());

  with_mapped(f, "bitident", [&](const serve::FrozenScheme& mapped) {
    // save→map→save reproduces the image byte-for-byte, like load().
    EXPECT_EQ(mapped.save(), bytes);
    EXPECT_EQ(mapped.byte_size(), owned.byte_size());
    // And the mapped snapshot serves decision-for-decision like both the
    // owning load and the live scheme, including recorded paths.
    std::vector<Vertex> mp, op;
    for (Vertex u = 0; u < g.n(); u += 2) {
      for (Vertex v = 1; v < g.n(); v += 3) {
        const auto dm = mapped.route(u, v, &mp);
        const auto dw = owned.route(u, v, &op);
        expect_same_decision(s.route(u, v), dm, u, v);
        EXPECT_EQ(dm.length, dw.length);
        EXPECT_EQ(mp, op) << "u=" << u << " v=" << v;
      }
    }
  });
}

TEST(FrozenSchemeMap, MappedLabelBlobsMatch) {
  const auto g = test_graph(90, 5200);
  const auto s = build_scheme(g, 2, true, 43);
  const auto f = serve::FrozenScheme::freeze(s);
  with_mapped(f, "blobs", [&](const serve::FrozenScheme& mapped) {
    for (Vertex v = 0; v < g.n(); v += 5) {
      const auto expect = core::encode_vertex_label(s, v);
      const auto blob = mapped.label_blob(v);
      ASSERT_EQ(blob.size(), expect.size());
      EXPECT_TRUE(std::equal(blob.begin(), blob.end(), expect.begin()));
    }
  });
}

// ---------------------------------------------------------------------------
// Randomized route-equivalence sweep: for every generator family × k, the
// sharded server (4 shards, caches on) and the mmap-loaded FrozenScheme
// must be decision-for-decision identical to the live scheme over the full
// (s, t) matrix — these n are small enough to afford all pairs.

struct SweepCase {
  int family;
  int k;
};

class ServingEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ServingEquivalenceSweep, ShardedAndMappedMatchLiveOnAllPairs) {
  const auto c = GetParam();
  const auto g = family_graph(c.family, 6100 + static_cast<std::uint64_t>(
                                                  c.family * 10 + c.k));
  const auto s = build_scheme(g, c.k, /*label_trick=*/true,
                              61 + static_cast<std::uint64_t>(c.k));
  const auto f = serve::FrozenScheme::freeze(s);

  with_mapped(f, "sweep", [&](const serve::FrozenScheme& mapped) {
    serve::ShardedOptions opt;
    opt.shards = 4;
    opt.cache_entries = 128;
    serve::ShardedRouteServer server(mapped, opt);
    ASSERT_EQ(server.shards(), 4);

    std::vector<serve::Query> queries;
    queries.reserve(static_cast<std::size_t>(g.n()) *
                    static_cast<std::size_t>(g.n()));
    for (Vertex u = 0; u < g.n(); ++u) {
      for (Vertex v = 0; v < g.n(); ++v) queries.push_back({u, v});
    }
    std::vector<serve::Decision> got;
    server.serve(queries, got);
    ASSERT_EQ(got.size(), queries.size());

    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto [u, v] = queries[i];
      expect_same_decision(s.route(u, v), got[i], u, v);
      // Spot-stride the direct mapped route (it is the same code path the
      // shard workers run; full coverage of it lives in the loop above).
      if (i % 17 == 0) {
        expect_same_decision(s.route(u, v), mapped.route(u, v), u, v);
      }
    }
    const auto totals = server.totals();
    EXPECT_EQ(totals.queries, static_cast<std::int64_t>(queries.size()));
  });
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndKs, ServingEquivalenceSweep,
    ::testing::Values(SweepCase{0, 2}, SweepCase{0, 3}, SweepCase{0, 4},
                      SweepCase{1, 2}, SweepCase{1, 3}, SweepCase{1, 4},
                      SweepCase{2, 2}, SweepCase{2, 3}, SweepCase{2, 4}));

// ---------------------------------------------------------------------------
// ShardedRouteServer behavior beyond equivalence.

TEST(ShardedRouteServer, AnswersLandInSubmissionOrder) {
  const auto g = test_graph(140, 6500);
  const auto s = build_scheme(g, 3, true, 47);
  const auto f = serve::FrozenScheme::freeze(s);
  serve::ShardedOptions opt;
  opt.shards = 4;
  serve::ShardedRouteServer server(f, opt);

  // Queries deliberately ping-pong across shard ranges so consecutive
  // answers come from different workers; out[i] must still match
  // queries[i] exactly.
  std::vector<serve::Query> queries;
  for (int rep = 0; rep < 500; ++rep) {
    const auto u = static_cast<Vertex>((rep * 37) % g.n());
    const auto v = static_cast<Vertex>((rep * 53 + 11) % g.n());
    queries.push_back({u, v});
  }
  std::vector<serve::Decision> got;
  server.serve(queries, got);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_decision(s.route(queries[i].u, queries[i].v), got[i],
                         queries[i].u, queries[i].v);
  }
}

TEST(ShardedRouteServer, AsyncBatchesCompleteInAnyWaitOrder) {
  const auto g = test_graph(120, 6600);
  const auto s = build_scheme(g, 2, true, 53);
  const auto fp = std::make_shared<const serve::FrozenScheme>(
      serve::FrozenScheme::freeze(s));
  const auto& f = *fp;
  serve::ShardedOptions opt;
  opt.shards = 3;
  opt.cache_entries = 64;
  serve::ShardedRouteServer server(f, opt);

  constexpr int kBatches = 6;
  std::vector<std::vector<serve::Query>> queries(kBatches);
  std::vector<std::vector<serve::Decision>> out(kBatches);
  std::vector<serve::ShardedRouteServer::Batch> tickets;
  util::Rng rng(606);
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < 200 + 40 * b; ++i) {
      queries[static_cast<std::size_t>(b)].push_back(
          {static_cast<Vertex>(rng.uniform(
               static_cast<std::uint64_t>(g.n()))),
           static_cast<Vertex>(rng.uniform(
               static_cast<std::uint64_t>(g.n())))});
    }
    auto& q = queries[static_cast<std::size_t>(b)];
    out[static_cast<std::size_t>(b)].resize(q.size());
    tickets.push_back(server.submit(fp, q.data(), q.size(),
                                    out[static_cast<std::size_t>(b)].data()));
  }
  // Wait newest-first: completion must not depend on wait order.
  for (int b = kBatches - 1; b >= 0; --b) {
    tickets[static_cast<std::size_t>(b)].wait();
    EXPECT_TRUE(tickets[static_cast<std::size_t>(b)].done());
    const auto& q = queries[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < q.size(); ++i) {
      expect_same_decision(s.route(q[i].u, q[i].v),
                           out[static_cast<std::size_t>(b)][i], q[i].u,
                           q[i].v);
    }
  }
  const auto totals = server.totals();
  std::int64_t expected = 0;
  for (const auto& q : queries) {
    expected += static_cast<std::int64_t>(q.size());
  }
  EXPECT_EQ(totals.queries, expected);
  EXPECT_GT(totals.cache_hits, 0);
}

TEST(ShardedRouteServer, WorkerExceptionsSurfaceAtWaitAndServerSurvives) {
  const auto g = test_graph(80, 6700);
  const auto s = build_scheme(g, 2, true, 59);
  const auto f = serve::FrozenScheme::freeze(s);
  serve::ShardedOptions opt;
  opt.shards = 2;
  serve::ShardedRouteServer server(f, opt);

  // A default Query holds kNoVertex endpoints: the worker's route() throws
  // and wait() rethrows on the submitting thread.
  std::vector<serve::Query> poison(50);
  std::vector<serve::Decision> out(poison.size());
  EXPECT_THROW(server.serve(poison.data(), poison.size(), out.data()),
               std::logic_error);

  // The server must stay fully serviceable afterwards.
  std::vector<serve::Query> good;
  for (Vertex u = 0; u < g.n(); u += 3) good.push_back({u, 1});
  std::vector<serve::Decision> got;
  server.serve(good, got);
  for (std::size_t i = 0; i < good.size(); ++i) {
    expect_same_decision(s.route(good[i].u, good[i].v), got[i], good[i].u,
                         good[i].v);
  }
}

TEST(ShardedRouteServer, ConcurrentProducersMatchSerialReplayAndStatsSum) {
  const auto g = test_graph(150, 6800);
  const auto s = build_scheme(g, 3, true, 67);
  const auto fp = std::make_shared<const serve::FrozenScheme>(
      serve::FrozenScheme::freeze(s));
  const auto& f = *fp;
  serve::ShardedOptions opt;
  opt.shards = 4;
  opt.cache_entries = 128;
  serve::ShardedRouteServer server(f, opt);

  constexpr int kProducers = 8;
  constexpr int kBatchesPerProducer = 20;
  std::vector<std::vector<serve::Query>> queries(kProducers);
  std::vector<std::vector<serve::Decision>> out(kProducers);

  // Pre-generate every producer's interleaved cross-shard batches, with
  // batch boundaries recorded so workers see many concurrent tickets.
  std::vector<std::vector<std::size_t>> bounds(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    util::Rng rng(9000 + static_cast<std::uint64_t>(p));
    auto& q = queries[static_cast<std::size_t>(p)];
    auto& cut = bounds[static_cast<std::size_t>(p)];
    for (int b = 0; b < kBatchesPerProducer; ++b) {
      cut.push_back(q.size());
      const auto len = 50 + rng.uniform(300);
      for (std::uint64_t i = 0; i < len; ++i) {
        q.push_back({static_cast<Vertex>(rng.uniform(
                         static_cast<std::uint64_t>(g.n()))),
                     static_cast<Vertex>(rng.uniform(
                         static_cast<std::uint64_t>(g.n())))});
      }
    }
    cut.push_back(q.size());
    out[static_cast<std::size_t>(p)].resize(q.size());
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &fp, &server, &queries, &out, &bounds] {
      const auto& q = queries[static_cast<std::size_t>(p)];
      const auto& cut = bounds[static_cast<std::size_t>(p)];
      auto* o = out[static_cast<std::size_t>(p)].data();
      // Alternate async pairs and blocking calls to interleave harder.
      for (std::size_t b = 0; b + 1 < cut.size(); b += 2) {
        const std::size_t lo = cut[b], hi = cut[b + 1];
        if (b + 2 < cut.size()) {
          const std::size_t hi2 = cut[b + 2];
          auto t1 = server.submit(fp, q.data() + lo, hi - lo, o + lo);
          auto t2 = server.submit(fp, q.data() + hi, hi2 - hi, o + hi);
          t2.wait();
          t1.wait();
        } else {
          server.serve(q.data() + lo, hi - lo, o + lo);
        }
      }
    });
  }
  for (auto& t : producers) t.join();

  // Serial replay: every answer equals the single-threaded frozen route.
  std::int64_t issued = 0, hops = 0;
  for (int p = 0; p < kProducers; ++p) {
    const auto& q = queries[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < q.size(); ++i) {
      const auto expect = f.route(q[i].u, q[i].v);
      const auto& got = out[static_cast<std::size_t>(p)][i];
      ASSERT_EQ(expect.length, got.length) << "p=" << p << " i=" << i;
      ASSERT_EQ(expect.hops, got.hops) << "p=" << p << " i=" << i;
      ASSERT_EQ(expect.tree_root, got.tree_root) << "p=" << p << " i=" << i;
      ++issued;
      hops += got.hops;
    }
  }

  // Stat counters must sum exactly: per-shard → totals → issued queries.
  const auto totals = server.totals();
  EXPECT_EQ(totals.queries, issued);
  EXPECT_EQ(totals.hops, hops);
  std::int64_t by_shard_queries = 0, by_shard_hops = 0, by_shard_batches = 0;
  for (int sh = 0; sh < server.shards(); ++sh) {
    const auto st = server.shard_stats(sh);
    by_shard_queries += st.queries;
    by_shard_hops += st.hops;
    by_shard_batches += st.batches;
    EXPECT_GE(st.p99_us, st.p50_us);
  }
  EXPECT_EQ(by_shard_queries, issued);
  EXPECT_EQ(by_shard_hops, hops);
  EXPECT_EQ(by_shard_batches, totals.batches);
}

TEST(ShardedRouteServer, ShardRangesPartitionTheVertexSpace) {
  const auto g = test_graph(97, 6900);  // odd n: uneven last shard
  const auto s = build_scheme(g, 2, true, 71);
  const auto f = serve::FrozenScheme::freeze(s);
  for (const int k : {1, 2, 4, 5}) {
    serve::ShardedOptions opt;
    opt.shards = k;
    serve::ShardedRouteServer server(f, opt);
    EXPECT_EQ(server.shards(), k);
    int last = 0;
    for (Vertex u = 0; u < g.n(); ++u) {
      const int sh = server.shard_of(u);
      ASSERT_GE(sh, last);  // contiguous, monotone ranges
      ASSERT_LT(sh, k);
      last = sh;
    }
    EXPECT_EQ(last, k - 1);  // every shard owns at least one vertex
  }
}

TEST(FrozenScheme, RouteBatchMatchesSerialRoutes) {
  // The pipelined engine must answer exactly like the serial route() for
  // every lane-count shape: empty, shorter than the lane ring, a
  // non-multiple tail, and u==v self-queries mixed in.
  const auto g = test_graph(130, 6100);
  const auto s = build_scheme(g, 3, true, 83);
  const auto f = serve::FrozenScheme::freeze(s);

  util::Rng rng(6101);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 997; ++i) {  // odd count: partial final lanes
    serve::Query q;
    q.u = static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(g.n())));
    q.v = i % 17 == 0
              ? q.u  // self-query retires in the admit stage
              : static_cast<Vertex>(
                    rng.uniform(static_cast<std::uint64_t>(g.n())));
    queries.push_back(q);
  }
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{7},
        static_cast<std::size_t>(serve::FrozenScheme::kBatchLanes),
        queries.size()}) {
    std::vector<serve::Decision> out(count + 1);
    out[count].hops = -7;  // canary: the engine must not write past count
    serve::BatchStats bs;
    f.route_batch(queries.data(), count, out.data(), &bs);
    EXPECT_EQ(bs.completed, static_cast<std::int64_t>(count));
    std::int64_t hops = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto expect = f.route(queries[i].u, queries[i].v);
      EXPECT_EQ(expect.ok, out[i].ok);
      EXPECT_EQ(expect.length, out[i].length);
      EXPECT_EQ(expect.hops, out[i].hops);
      EXPECT_EQ(expect.via_trick, out[i].via_trick);
      EXPECT_EQ(expect.tree_root, out[i].tree_root);
      hops += expect.hops;
    }
    EXPECT_EQ(bs.hops, hops);
    EXPECT_EQ(out[count].hops, -7);
  }

  // The cached engine agrees too, and its hit/miss accounting is total.
  serve::TableCache cache(f, 512);
  std::vector<serve::Decision> out(queries.size());
  serve::BatchStats bs;
  f.route_batch(queries.data(), queries.size(), out.data(), cache,
                serve::NoOverlay{}, &bs);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expect = f.route(queries[i].u, queries[i].v);
    EXPECT_EQ(expect.length, out[i].length) << "i=" << i;
    EXPECT_EQ(expect.hops, out[i].hops) << "i=" << i;
  }
  EXPECT_GT(bs.cache_hits, 0);
  EXPECT_GT(bs.cache_misses, 0);
}

TEST(ShardedRouteServer, WorkerCountIsClampedToHardware) {
  const auto g = test_graph(64, 6400);
  const auto s = build_scheme(g, 2, true, 101);
  const auto f = serve::FrozenScheme::freeze(s);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int k : {1, 2, 8}) {
    serve::ShardedOptions opt;
    opt.shards = k;
    serve::ShardedRouteServer server(f, opt);
    EXPECT_EQ(server.shards(), k) << "shard count must stay as requested";
    EXPECT_EQ(server.workers(), std::min(k, std::max(1, hw)));
    EXPECT_GE(server.workers(), 1);
    EXPECT_LE(server.workers(), server.shards());
  }
  // Oversubscription opt-out restores one worker per shard.
  ::setenv("NORS_THREADS_OVERSUBSCRIBE", "1", 1);
  {
    serve::ShardedOptions opt;
    opt.shards = 8;
    serve::ShardedRouteServer server(f, opt);
    EXPECT_EQ(server.workers(), 8);
    // Still correct with many shards per core — spot-check the answers.
    std::vector<serve::Query> queries;
    for (Vertex u = 0; u < g.n(); u += 5) {
      for (Vertex v = 1; v < g.n(); v += 7) queries.push_back({u, v});
    }
    std::vector<serve::Decision> out;
    server.serve(queries, out);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_decision(s.route(queries[i].u, queries[i].v), out[i],
                           queries[i].u, queries[i].v);
    }
  }
  ::unsetenv("NORS_THREADS_OVERSUBSCRIBE");
}

TEST(FrozenTzOracle, QueryBatchMatchesSerialQueries) {
  const auto g = test_graph(140, 6500);
  tz::TzDistanceOracle::Params p;
  p.k = 3;
  p.seed = 7;
  const auto oracle = tz::TzDistanceOracle::build(g, p);
  const auto frozen = serve::FrozenTzOracle::freeze(oracle, g.n());
  util::Rng rng(6501);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 731; ++i) {  // partial final lane ring
    queries.push_back(
        {static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(g.n()))),
         static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(g.n())))});
  }
  std::vector<serve::FrozenTzOracle::Result> results(queries.size());
  frozen.query_batch(queries.data(), queries.size(), results.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expect = frozen.query(queries[i].u, queries[i].v);
    EXPECT_EQ(results[i].estimate, expect.estimate) << "i=" << i;
    EXPECT_EQ(results[i].iterations, expect.iterations) << "i=" << i;
  }
}

TEST(FrozenTzOracle, EstimatesMatchLiveOracle) {
  const auto g = test_graph(150, 4700);
  tz::TzDistanceOracle::Params p;
  p.k = 3;
  p.seed = 5;
  const auto oracle = tz::TzDistanceOracle::build(g, p);
  const auto frozen = serve::FrozenTzOracle::freeze(oracle, g.n());
  for (Vertex u = 0; u < g.n(); u += 4) {
    for (Vertex v = 1; v < g.n(); v += 6) {
      const auto live = oracle.query(u, v);
      const auto snap = frozen.query(u, v);
      EXPECT_EQ(live.estimate, snap.estimate) << "u=" << u << " v=" << v;
      EXPECT_EQ(live.iterations, snap.iterations) << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace nors

// Serving workload (DESIGN.md §5, §8): freeze a constructed scheme into
// flat tables, then rate batched route(u, v) decision queries answered
// purely from the frozen state — queries/sec and decisions/sec (one
// decision = one next-hop port evaluation) single-thread with and without
// the table cache and across shard counts, plus per-query tail latency. The
// load path is measured three ways (owning load, zero-copy mmap, and the
// sharded front-end over the mapped image); the Thorup–Zwick distance
// oracle, frozen the same way, is the sequential-baseline row.
//
// Runtime knobs (all recorded in the emitted JSON):
//   --shards=K    max shard count of the ShardedRouteServer sweep,
//                 swept 1, 2, 4, ... K (default 4)
//   --cache=C     (vertex, tree) cache entries per worker (default 4096;
//                 0 drops the cached serve row)
//   --seed=S      query-batch RNG seed (default 9)
//   --queries=Q   batch size (default 200000)
//   NORS_BENCH_N  graph size (default 2^14)
//
// Emits BENCH_serving.json (schema: bench/results/README.md).

#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "core/scheme.h"
#include "serve/frozen.h"
#include "serve/frozen_tz.h"
#include "serve/table_cache.h"
#include "serve/shard.h"
#include "tz/tz_oracle.h"
#include "util/latency.h"

namespace {

using namespace nors;

std::vector<serve::Query> make_queries(int n, std::size_t count,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<serve::Query> qs;
  qs.reserve(count);
  while (qs.size() < count) {
    const auto u =
        static_cast<graph::Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v =
        static_cast<graph::Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    qs.push_back({u, v});
  }
  return qs;
}

/// --key=value flags; anything unrecognized aborts with usage.
struct Flags {
  int max_shards = 4;
  int cache = 4096;
  std::uint64_t seed = 9;
  std::size_t queries = 200000;

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto val = [&a](const char* key) -> const char* {
        const std::size_t len = std::strlen(key);
        return a.compare(0, len, key) == 0 ? a.c_str() + len : nullptr;
      };
      if (const char* v = val("--shards=")) {
        f.max_shards = std::atoi(v);
      } else if (const char* v = val("--cache=")) {
        f.cache = std::atoi(v);
      } else if (const char* v = val("--seed=")) {
        f.seed = std::strtoull(v, nullptr, 10);
      } else if (const char* v = val("--queries=")) {
        f.queries = std::strtoull(v, nullptr, 10);
      } else {
        std::fprintf(stderr,
                     "unknown flag %s\nusage: bench_serving [--shards=K] "
                     "[--cache=C] [--seed=S] [--queries=Q]\n",
                     a.c_str());
        std::exit(2);
      }
    }
    NORS_CHECK_MSG(f.max_shards >= 1 && f.cache >= 0 && f.queries > 0,
                   "bad flag value");
    return f;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const int n = bench::env_n(1 << 14);
  const int k = 3;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bench::print_header("serving",
                      "frozen-table route decisions/sec, tail latency, "
                      "save/load/mmap round-trip, sharded front-end");

  bench::JsonReport report("serving");

  // ---- build, freeze, save/load/map -------------------------------------
  const auto g = bench::bench_graph(n, /*seed=*/17);
  std::printf("graph: n=%d m=%lld; building scheme (k=%d)...\n", n,
              static_cast<long long>(g.m()), k);
  core::SchemeParams params;
  params.k = k;
  params.seed = 23;
  bench::WallTimer build_t;
  const auto scheme = core::RoutingScheme::build(g, params);
  const double build_s = build_t.seconds();

  bench::WallTimer freeze_t;
  const auto frozen = serve::FrozenScheme::freeze(scheme);
  const double freeze_s = freeze_t.seconds();

  bench::WallTimer save_t;
  const auto image = frozen.save();
  const double save_s = save_t.seconds();
  bench::WallTimer load_t;
  const auto reloaded = serve::FrozenScheme::load(image);
  const double load_s = load_t.seconds();
  const bool identical = reloaded.save() == image;

  // Zero-copy path: mmap the saved image (startup = checksum + validate).
  const std::string map_path = "bench_serving_tables.frozen";
  frozen.save_file(map_path);
  bench::WallTimer map_t;
  const auto mapped = serve::FrozenScheme::map(map_path);
  const double map_s = map_t.seconds();
  const bool map_identical = mapped.save() == image;

  // Spot-check both reloaded snapshots against the live scheme.
  int spot_checked = 0;
  for (const auto& q : make_queries(n, 200, 5)) {
    const auto live = scheme.route(q.u, q.v);
    const auto snap = reloaded.route(q.u, q.v);
    const auto msnap = mapped.route(q.u, q.v);
    NORS_CHECK_MSG(live.length == snap.length && live.hops == snap.hops,
                   "frozen decision diverged at " << q.u << "->" << q.v);
    NORS_CHECK_MSG(live.length == msnap.length && live.hops == msnap.hops,
                   "mapped decision diverged at " << q.u << "->" << q.v);
    ++spot_checked;
  }

  std::printf(
      "build %.2fs | freeze %.3fs | image %.1f MiB | save %.3fs | load %.3fs "
      "| mmap %.3fs | round-trip %s/%s | %d spot checks ok\n\n",
      build_s, freeze_s, static_cast<double>(image.size()) / (1 << 20),
      save_s, load_s, map_s, identical ? "byte-identical" : "MISMATCH",
      map_identical ? "byte-identical" : "MISMATCH", spot_checked);
  NORS_CHECK_MSG(identical, "save->load->save must be byte-identical");
  NORS_CHECK_MSG(map_identical, "save->map->save must be byte-identical");
  report.row()
      .field("row", std::string("build"))
      .field("n", n)
      .field("m", static_cast<std::int64_t>(g.m()))
      .field("k", k)
      .field("seed", static_cast<std::int64_t>(flags.seed))
      .field("hw_threads", static_cast<std::int64_t>(hw))
      .field("build_s", build_s)
      .field("freeze_s", freeze_s)
      .field("image_bytes", static_cast<std::int64_t>(image.size()))
      .field("save_s", save_s)
      .field("load_s", load_s)
      .field("map_s", map_s)
      .field("format_version",
             static_cast<std::int64_t>(serve::FrozenScheme::kFormatVersion))
      .field("roundtrip_identical", identical ? 1 : 0)
      .field("map_identical", map_identical ? 1 : 0)
      .field("spot_checked", spot_checked);

  // ---- single-thread throughput, uncached and cached ---------------------
  // The batch engine on the calling thread, timed directly: the uncached
  // row is the one the CI perf floor checks. Multi-core scaling lives in
  // the sharded rows below.
  const auto queries = make_queries(n, flags.queries, flags.seed);
  std::vector<serve::Decision> out(queries.size());
  util::TextTable table({"cache", "queries/s", "decisions/s", "avg hops",
                         "cache hit%", "wall s"});
  std::vector<int> cache_settings{0};
  if (flags.cache != 0) cache_settings.push_back(flags.cache);
  for (const int cache : cache_settings) {
    serve::BatchStats bs;
    bench::WallTimer t;
    if (cache > 0) {
      serve::TableCache tc(reloaded, cache);
      reloaded.route_batch(queries.data(), queries.size(), out.data(), tc,
                           serve::NoOverlay{}, &bs);
    } else {
      reloaded.route_batch(queries.data(), queries.size(), out.data(), &bs);
    }
    const double wall = t.seconds();
    const double qps = static_cast<double>(queries.size()) / wall;
    const double dps = static_cast<double>(bs.hops) / wall;
    const double avg_hops = static_cast<double>(bs.hops) /
                            static_cast<double>(queries.size());
    // The uncached engine counts every slab search as a miss; a hit rate
    // is reported only when a cache is configured.
    const double hit_rate =
        cache == 0 || bs.cache_hits + bs.cache_misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(bs.cache_hits) /
                  static_cast<double>(bs.cache_hits + bs.cache_misses);
    table.add_row({util::TextTable::fmt(static_cast<std::int64_t>(cache)),
                   util::TextTable::fmt(qps, 0), util::TextTable::fmt(dps, 0),
                   util::TextTable::fmt(avg_hops, 2),
                   util::TextTable::fmt(hit_rate, 1),
                   util::TextTable::fmt(wall, 3)});
    report.row()
        .field("row", std::string("serve"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("threads", 1)
        .field("cache_entries", cache)
        .field("queries", static_cast<std::int64_t>(queries.size()))
        .field("wall_s", wall)
        .field("qps", qps)
        .field("decisions_per_sec", dps)
        .field("avg_hops", avg_hops)
        .field("cache_hit_pct", hit_rate);
  }
  std::printf("single-thread route_batch:\n%s\n", table.render().c_str());

  // ---- sharded front-end over the mapped image --------------------------
  // Shards slice the query stream by source vertex; workers (one per shard
  // up to the hardware clamp — both counts are reported) answer through
  // the batch engine with warm caches over the shared zero-copy image.
  // Aggregate decisions/s scales with cores; on a 1-core runner every row
  // runs on one worker and measures dispatch overhead instead.
  {
    util::TextTable stable({"shards", "workers", "queries/s", "decisions/s",
                            "p50 us", "p99 us", "balance", "wall s"});
    for (int shards = 1; shards <= flags.max_shards; shards *= 2) {
      serve::ShardedOptions opt;
      opt.shards = shards;
      opt.cache_entries = flags.cache;
      serve::ShardedRouteServer server(mapped, opt);
      bench::WallTimer t;
      server.serve(queries.data(), queries.size(), out.data());
      const double wall = t.seconds();
      const auto totals = server.totals();
      NORS_CHECK_MSG(totals.queries ==
                         static_cast<std::int64_t>(queries.size()),
                     "sharded stats lost queries");
      const double qps = static_cast<double>(queries.size()) / wall;
      const double dps = static_cast<double>(totals.hops) / wall;
      // Load balance: smallest/largest per-shard query share.
      std::int64_t lo = totals.queries, hi = 0;
      for (int s = 0; s < server.shards(); ++s) {
        const auto st = server.shard_stats(s);
        lo = std::min(lo, st.queries);
        hi = std::max(hi, st.queries);
      }
      const double balance =
          hi == 0 ? 1.0
                  : static_cast<double>(lo) / static_cast<double>(hi);
      stable.add_row(
          {util::TextTable::fmt(static_cast<std::int64_t>(shards)),
           util::TextTable::fmt(static_cast<std::int64_t>(server.workers())),
           util::TextTable::fmt(qps, 0), util::TextTable::fmt(dps, 0),
           util::TextTable::fmt(totals.p50_us, 2),
           util::TextTable::fmt(totals.p99_us, 2),
           util::TextTable::fmt(balance, 2),
           util::TextTable::fmt(wall, 3)});
      report.row()
          .field("row", std::string("sharded"))
          .field("n", n)
          .field("k", k)
          .field("seed", static_cast<std::int64_t>(flags.seed))
          .field("shards", shards)
          .field("workers", server.workers())
          .field("cache_entries", flags.cache)
          .field("mapped", 1)
          .field("queries", static_cast<std::int64_t>(queries.size()))
          .field("wall_s", wall)
          .field("qps", qps)
          .field("decisions_per_sec", dps)
          .field("p50_us", totals.p50_us)
          .field("p99_us", totals.p99_us)
          .field("shard_balance", balance);
    }
    std::printf("sharded front-end over the mmap'ed image (cache %d):\n%s\n",
                flags.cache, stable.render().c_str());
  }

  // ---- tail latency (single thread, per-query timing) -------------------
  // Every query of the stream is clocked into the log2-bucket histogram
  // (util/latency.h, the same path the shards use), so p999 and max come
  // from the full stream rather than a sorted sample; max is exact.
  {
    util::LatencyHistogram hist;
    double max_us = 0;
    for (const auto& q : queries) {
      bench::WallTimer qt;
      const auto d = reloaded.route(q.u, q.v);
      const double us = qt.seconds() * 1e6;
      hist.record_ns(static_cast<std::int64_t>(us * 1e3));
      if (us > max_us) max_us = us;
      NORS_CHECK(d.ok);
    }
    const double p50 = hist.quantile_us(0.5);
    const double p99 = hist.quantile_us(0.99);
    const double p999 = hist.quantile_us(0.999);
    std::printf(
        "latency over %zu queries (full stream): p50 %.2fus  p99 %.2fus  "
        "p99.9 %.2fus  max %.2fus\n",
        queries.size(), p50, p99, p999, max_us);
    report.row()
        .field("row", std::string("latency"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("sampled", static_cast<std::int64_t>(queries.size()))
        .field("p50_us", p50)
        .field("p99_us", p99)
        .field("p999_us", p999)
        .field("max_us", max_us);
  }

  // ---- frozen TZ distance-oracle baseline -------------------------------
  // Served through the same pipelined batch engine as the scheme, so the
  // gap between the rows is the algorithms', not the engines'.
  {
    tz::TzDistanceOracle::Params tp;
    tp.k = k;
    tp.seed = 29;
    const auto oracle = tz::TzDistanceOracle::build(g, tp);
    const auto ftz = serve::FrozenTzOracle::freeze(oracle, n);
    std::vector<serve::FrozenTzOracle::Result> results(queries.size());
    bench::WallTimer t;
    ftz.query_batch(queries.data(), queries.size(), results.data());
    const double wall = t.seconds();
    std::int64_t sink = 0;
    for (const auto& r : results) sink += r.estimate;
    const double qps = static_cast<double>(queries.size()) / wall;
    std::printf(
        "baseline: frozen TZ distance oracle %.0f queries/s (%.1f MiB flat, "
        "checksum %lld)\n",
        qps, static_cast<double>(ftz.byte_size()) / (1 << 20),
        static_cast<long long>(sink % 1000));
    report.row()
        .field("row", std::string("baseline_tz_oracle"))
        .field("n", n)
        .field("k", k)
        .field("queries", static_cast<std::int64_t>(queries.size()))
        .field("qps", qps)
        .field("frozen_bytes", ftz.byte_size());
  }

  std::remove(map_path.c_str());
  report.write();
  return 0;
}

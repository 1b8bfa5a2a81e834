// Serving walkthrough: build the routing scheme once, freeze it into flat
// tables, save them to disk, load them back (as a restarted server would —
// both the owning load and the zero-copy mmap), and answer batches of
// route queries from the frozen state alone — no graph object, no rebuild —
// through the sharded front-end that scales serving across cores.
//
//   $ ./examples/route_server
//
// The steps below are the whole serving life cycle (DESIGN.md §5, §8).

#include <cstdio>

#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "serve/frozen.h"
#include "serve/shard.h"

int main() {
  using namespace nors;

  // 1. Construct: a 256-router network and the k=3 scheme on it. This is
  //    the expensive, run-once part.
  util::Rng rng(7);
  const auto g =
      graph::connected_gnm(256, 768, graph::WeightSpec::uniform(1, 20), rng);
  core::SchemeParams params;
  params.k = 3;
  params.seed = 42;
  const auto scheme = core::RoutingScheme::build(g, params);
  std::printf("built: n=%d, %zu cluster trees, %lld construction rounds\n",
              g.n(), scheme.trees().size(),
              static_cast<long long>(scheme.total_rounds()));

  // 2. Freeze: snapshot tables, labels, trick slabs and the link map into
  //    flat arrays. The scheme and graph could be destroyed after this.
  const auto frozen = serve::FrozenScheme::freeze(scheme);
  std::printf("frozen: %.1f KiB of flat serving state\n",
              static_cast<double>(frozen.byte_size()) / 1024.0);

  // 3. Save: versioned binary image (magic, version, endianness tag,
  //    checksum), so tables built once serve forever.
  const std::string path = "routing_tables.frozen";
  frozen.save_file(path);

  // 4. Load: what a freshly started server process does. Two ways:
  //    load_file() copies the slabs onto the heap (portable fallback);
  //    map() mmaps the image and serves straight from the page cache —
  //    zero-copy startup, ideal when many server processes share one
  //    table file.
  const auto tables = serve::FrozenScheme::load_file(path);
  const auto mapped = serve::FrozenScheme::map(path);
  std::printf("reloaded %s (byte-identical: %s; mmap byte-identical: %s)\n",
              path.c_str(), tables.save() == frozen.save() ? "yes" : "NO",
              mapped.save() == frozen.save() ? "yes" : "NO");

  // 5. Serve: batched decision queries, answered purely from the frozen
  //    tables by the sharded front-end. It partitions the vertex space into
  //    contiguous ranges, one worker thread per shard (up to the core
  //    count), all serving the same mmap'ed image with a small per-worker
  //    (vertex, tree) cache. Answers land in submission order.
  serve::ShardedOptions sopt;
  sopt.shards = 2;
  sopt.cache_entries = 1024;
  serve::ShardedRouteServer server(mapped, sopt);
  std::vector<serve::Query> batch;
  util::Rng qrng(99);
  for (int i = 0; i < 10000; ++i) {
    batch.push_back({static_cast<graph::Vertex>(qrng.uniform(256)),
                     static_cast<graph::Vertex>(qrng.uniform(256))});
  }
  std::vector<serve::Decision> answers;
  server.serve(batch, answers);

  const auto totals = server.totals();
  std::printf("served %lld queries, %lld next-hop decisions, "
              "cache hit rate %.1f%%\n",
              static_cast<long long>(totals.queries),
              static_cast<long long>(totals.hops),
              100.0 * static_cast<double>(totals.cache_hits) /
                  static_cast<double>(totals.cache_hits +
                                      totals.cache_misses));
  for (int s = 0; s < server.shards(); ++s) {
    const auto st = server.shard_stats(s);
    std::printf("  shard %d: %lld queries, %lld decisions, p50 %.1fus "
                "p99 %.1fus\n",
                s, static_cast<long long>(st.queries),
                static_cast<long long>(st.hops), st.p50_us, st.p99_us);
  }

  // The same batch through the single-thread engine on the owning load:
  // every answer is identical.
  std::vector<serve::Decision> direct(batch.size());
  tables.route_batch(batch.data(), batch.size(), direct.data());
  bool same = true;
  for (std::size_t i = 0; same && i < answers.size(); ++i) {
    same = direct[i].length == answers[i].length &&
           direct[i].hops == answers[i].hops;
  }
  std::printf("sharded x%d over mmap vs single-thread route_batch: "
              "identical answers: %s\n",
              server.shards(), same ? "yes" : "NO");

  // One decision in detail, checked against the true distance.
  const auto& q = batch[0];
  const auto exact = graph::pair_distance(g, q.u, q.v);
  std::printf("route %d -> %d: length %lld over %d hops "
              "(shortest %lld, stretch %.2f), level-%d tree of %d%s\n",
              q.u, q.v, static_cast<long long>(answers[0].length),
              answers[0].hops, static_cast<long long>(exact),
              static_cast<double>(answers[0].length) /
                  static_cast<double>(exact),
              answers[0].tree_level, answers[0].tree_root,
              answers[0].via_trick ? " (via 4k-5 trick)" : "");

  // What a connecting peer would receive: the destination's wire label.
  std::printf("wire label of %d: %zu bytes\n", q.v,
              tables.label_blob(q.v).size());

  std::remove(path.c_str());
  return 0;
}

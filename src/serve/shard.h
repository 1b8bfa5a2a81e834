#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/frozen.h"

namespace nors::serve {

class DeltaSet;

struct ShardedOptions {
  /// Number of shards K; each shard owns a contiguous vertex range
  /// (queries are dispatched by source vertex). Clamped to [1, n]. The
  /// number of *worker threads* serving the shards is resolved separately
  /// — util::resolve_threads clamps it to the hardware concurrency
  /// (NORS_THREADS_OVERSUBSCRIBE=1 restores one thread per shard), so K
  /// shards on a small machine keep their ranges and accounting without
  /// oversubscribing cores; shards map round-robin onto workers.
  int shards = 1;

  /// Per-worker entries of the (vertex, tree) → table-slot cache
  /// (serve/table_cache.h; 0 disables). Workers are long-lived, so the
  /// caches stay warm across batches.
  int cache_entries = 0;
};

/// Everything one shard has counted since construction. p50/p99 come from
/// a log-bucketed latency histogram (util/latency.h) fed one sample per
/// batch-engine block (~the per-query mean of up to 128 queries answered
/// in one pipelined route_batch call; per-query clocking inside the
/// interleaved engine is meaningless) — estimates with sub-bucket
/// resolution, not exact order statistics.
struct ShardStats {
  std::int64_t queries = 0;
  std::int64_t batches = 0;      // sub-batches executed
  std::int64_t hops = 0;         // next-hop decisions evaluated
  std::int64_t cache_hits = 0;   // 0 unless cache_entries > 0
  std::int64_t cache_misses = 0;
  std::int64_t masked = 0;       // answers re-routed past a masked tree
  std::int64_t repaired = 0;     // answers that crossed a patched link
  double p50_us = 0;
  double p99_us = 0;
};

/// Horizontally sharded serving front-end over one FrozenScheme
/// (DESIGN.md §8). The vertex space is partitioned into K contiguous
/// ranges; shard s serves the queries whose *source* falls in its range,
/// reading the shared frozen image (owned or mmap'ed — shards never copy
/// slab data, they slice the query stream, not the tables). Shards map
/// round-robin onto long-lived worker threads fed by lock-light batch
/// queues — one worker per shard up to the hardware concurrency (see
/// ShardedOptions::shards) — and every worker answers its sub-batches
/// through the pipelined FrozenScheme::route_batch() engine in blocks, so
/// aggregate throughput scales with cores while each worker's cache stays
/// hot on its own vertex ranges.
///
/// submit() is async: it partitions a batch by shard, enqueues one task
/// per shard, and returns a Batch ticket; wait() blocks until every query
/// is answered. Responses land at out[i] for queries[i] — callers always
/// see submission order, regardless of shard interleaving (the "response
/// reordering" is positional: workers write answers straight into the
/// caller's slots). Answers are bit-identical to FrozenScheme::route()
/// for any shard count (test_serve pins this).
///
/// The caller must keep `queries` and `out` alive and untouched until
/// wait() returns. Worker exceptions (bad query, corrupt state) are
/// captured and rethrown by wait() on the submitting thread; the batch
/// still completes its accounting, so the server stays usable.
class ShardedRouteServer {
 public:
  explicit ShardedRouteServer(const FrozenScheme& fs,
                              ShardedOptions opt = {});
  ~ShardedRouteServer();
  ShardedRouteServer(const ShardedRouteServer&) = delete;
  ShardedRouteServer& operator=(const ShardedRouteServer&) = delete;

  /// Completion ticket of one submit(). Copyable (shared state); a
  /// default-constructed Batch is already done.
  class Batch {
   public:
    Batch() = default;

    /// Blocks until every query of the batch is answered, then rethrows
    /// the first worker exception, if any. May be called repeatedly and
    /// from several holders of the ticket: a failed batch throws on every
    /// wait(), so no holder can mistake aborted output for answers.
    void wait();

    /// True when every query has been answered (non-blocking).
    bool done() const;

   private:
    friend class ShardedRouteServer;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Async: dispatch the batch across shard queues and return its ticket
  /// immediately.
  ///
  /// With a `delta`, answers go through the overlay (serve/delta.h):
  /// masked trees are skipped with a fallback re-route, patched links
  /// charge their overridden weight, and the batch pins `delta` until it
  /// retires — the generation-swap contract net::Server relies on. A null
  /// delta serves the unpatched image. When a worker sees a different
  /// delta sequence than its previous batch it clears its table cache
  /// (indices are delta-invariant today, but the invalidation is keyed by
  /// generation, not by that implementation detail).
  ///
  /// With an `on_complete` hook, it runs exactly once when every query of
  /// the batch is answered — the hook the network front-end (src/net)
  /// uses to finish a request without parking a thread in wait(). It runs
  /// on the worker thread that retires the batch's last sub-batch, after
  /// all accounting (an empty batch runs it inline on the submitting
  /// thread). It must not throw and must not block; calling the ticket's
  /// wait() from inside it is fine (the batch is already done, so wait()
  /// returns — or rethrows the first worker error — immediately). The hook
  /// is dropped as soon as it has run, so state it captures does not
  /// outlive the batch.
  Batch submit(const Query* queries, std::size_t count, Decision* out,
               std::shared_ptr<const DeltaSet> delta = nullptr,
               std::function<void()> on_complete = {});

  /// Blocking convenience: submit + wait.
  void serve(const Query* queries, std::size_t count, Decision* out);
  void serve(const std::vector<Query>& queries, std::vector<Decision>& out);

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Worker threads actually serving the shards (≤ shards(); see
  /// ShardedOptions::shards for the clamp rules).
  int workers() const { return static_cast<int>(workers_.size()); }

  /// The shard whose vertex range contains u (valid u only).
  int shard_of(graph::Vertex u) const {
    const auto s = static_cast<std::size_t>(u) / span_;
    return static_cast<int>(
        s < shards_.size() ? s : shards_.size() - 1);
  }

  ShardStats shard_stats(int shard) const;

  /// Counters summed across shards; p50/p99 over the merged histograms.
  ShardStats totals() const;

  const FrozenScheme& frozen() const { return *fs_; }
  const ShardedOptions& options() const { return opt_; }

 private:
  struct Task;
  struct Shard;
  struct Worker;
  void worker(Worker& w);

  const FrozenScheme* fs_;
  ShardedOptions opt_;
  std::size_t span_ = 1;  // vertices per shard (last shard takes the rest)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace nors::serve

#include "serve/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "serve/delta.h"
#include "serve/table_cache.h"
#include "util/failpoint.h"
#include "util/latency.h"
#include "util/queue.h"
#include "util/threads.h"

namespace nors::serve {

/// Shared completion state of one submitted batch. Workers hold it via
/// shared_ptr (through their Task copies), so it outlives the ticket even
/// if the caller drops the Batch without waiting.
struct ShardedRouteServer::Batch::State {
  explicit State(std::size_t total) : remaining(total) {}
  std::atomic<std::size_t> remaining;
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr error;  // first worker failure; guarded by m
  // Completion hook. Installed before any sub-batch is enqueued, then
  // swapped out under m (and thereby released) by the worker that retires
  // the last one, so a callback that captures the Batch ticket cannot form
  // a State↔callback cycle.
  std::function<void()> on_complete;
  // Per-shard query indices (positions into the caller's arrays). Owned
  // here so the index lists live exactly as long as the slowest worker
  // needs them.
  std::vector<std::vector<std::uint32_t>> idx;
};

/// One enqueued sub-batch: the slice of a submit() owned by one shard.
/// Carries the shard so the serving worker (which may run several shards
/// on a low-core machine) attributes counters to the right range.
struct ShardedRouteServer::Task {
  std::shared_ptr<Batch::State> state;
  Shard* shard = nullptr;
  const Query* queries = nullptr;
  Decision* out = nullptr;
  const std::vector<std::uint32_t>* idx = nullptr;  // into state->idx
  // Image and delta overlay of this sub-batch (null delta = unpatched
  // image). The Task's shared_ptrs pin both until the sub-batch retires.
  std::shared_ptr<const FrozenScheme> fs;
  std::shared_ptr<const DeltaSet> delta;
};

/// A vertex-range partition and its accounting. Pure data — the threads
/// live in Worker, so the shard count (and with it ranges, dispatch and
/// per-range stats) is independent of how many cores serve them.
struct ShardedRouteServer::Shard {
  std::atomic<std::int64_t> queries{0};
  std::atomic<std::int64_t> batches{0};
  std::atomic<std::int64_t> hops{0};
  std::atomic<std::int64_t> cache_hits{0};
  std::atomic<std::int64_t> cache_misses{0};
  std::atomic<std::int64_t> masked{0};
  std::atomic<std::int64_t> repaired{0};
  util::LatencyHistogram latency;
};

/// One serving thread: pops tasks (possibly from several shards, mapped
/// round-robin) and answers them through the batch engine.
struct ShardedRouteServer::Worker {
  util::BatchQueue<Task> queue;
  std::thread thread;
};

void ShardedRouteServer::Batch::wait() {
  if (!state_) return;
  std::unique_lock<std::mutex> lk(state_->m);
  state_->cv.wait(lk, [this] {
    return state_->remaining.load(std::memory_order_acquire) == 0;
  });
  if (state_->error) {
    // Keep the error: every wait() on a failed batch must throw, or a
    // second waiter holding a copy of the ticket would read out[] slots
    // the aborted worker never wrote.
    std::rethrow_exception(state_->error);
  }
}

bool ShardedRouteServer::Batch::done() const {
  return !state_ ||
         state_->remaining.load(std::memory_order_acquire) == 0;
}

ShardedRouteServer::ShardedRouteServer(const FrozenScheme& fs,
                                       ShardedOptions opt)
    : fs_(&fs, [](const FrozenScheme*) {}),
      cache_entries_(opt.cache_entries) {
  NORS_CHECK_MSG(opt.shards >= 1, "ShardedRouteServer needs >= 1 shard");
  NORS_CHECK(opt.cache_entries >= 0);
  const int k = std::max(1, std::min(opt.shards, fs.n()));
  shards_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) shards_.push_back(std::make_unique<Shard>());
  // Serving threads: one per shard up to the hardware clamp
  // (NORS_THREADS_OVERSUBSCRIBE=1 restores exact counts — the equivalence
  // sweep relies on shard *ranges*, never on thread count, so the clamp is
  // unobservable except in wall-clock and p99).
  const int w = std::min(k, util::resolve_threads(k));
  workers_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (auto& wk : workers_) {
    wk->thread = std::thread([this, &ww = *wk] { worker(ww); });
  }
}

ShardedRouteServer::~ShardedRouteServer() { close(); }

void ShardedRouteServer::close() {
  // Closing the queues lets workers drain queued batches before exiting,
  // so tickets still in flight complete; closing the pool before
  // wait()ing on outstanding batches is nevertheless a caller bug (out
  // may dangle).
  for (auto& wk : workers_) wk->queue.close();
  for (auto& wk : workers_) {
    if (wk->thread.joinable()) wk->thread.join();
  }
}

namespace {

/// Vertices per shard in an image of n vertices: k contiguous ranges of
/// ceil(n / k), the last one taking the rest.
std::size_t span_of(int n, std::size_t k) {
  return (static_cast<std::size_t>(std::max(1, n)) + k - 1) / k;
}

/// Out-of-range sources still map to *some* shard (negative ones —
/// including the kNoVertex sentinel — to shard 0, too-large ones to the
/// last), so the worker raises the same error route() would.
int shard_for(graph::Vertex u, std::size_t span, std::size_t k) {
  if (u < 0) return 0;
  return static_cast<int>(std::min(static_cast<std::size_t>(u) / span, k - 1));
}

/// True when `key` was taken from `p`'s owner. A weak_ptr key keeps its
/// control block, so no later image or overlay can share it — not even
/// one allocated at a freed one's address — and it never keeps the
/// object itself alive.
template <typename T>
bool same_owner(const std::weak_ptr<T>& key, const std::shared_ptr<T>& p) {
  return !key.owner_before(p) && !p.owner_before(key);
}

}  // namespace

void ShardedRouteServer::worker(Worker& w) {
  using clock = std::chrono::steady_clock;
  const bool cached = cache_entries_ > 0;
  // The table cache, and the image and overlay it was warmed on: a batch
  // on another image rebuilds it, one under another overlay clears it.
  std::optional<TableCache> cache;
  std::weak_ptr<const FrozenScheme> cache_fs;
  std::weak_ptr<const DeltaSet> cache_delta;
  // Sub-batches run through the pipelined engine in blocks: gather up to
  // kBlock queries into a dense buffer, answer them with one route_batch
  // call (kBatchLanes in flight), scatter the decisions back to the
  // caller's submission-order slots. One clock pair per block feeds the
  // latency histogram with the block's per-query mean — per-query timing
  // inside an interleaved engine would measure the interleaving, not the
  // query (and two clock reads per ~µs route would tax the hot path).
  constexpr std::size_t kBlock = 128;
  std::vector<Query> qbuf(kBlock);
  std::vector<Decision> dbuf(kBlock);
  Task t;
  while (w.queue.pop(t)) {
    Shard& s = *t.shard;
    const std::size_t batch_queries = t.idx->size();
    const auto& idx = *t.idx;
    std::int64_t done = 0, hops = 0, hits = 0, misses = 0;
    std::int64_t masked = 0, repaired = 0;
    try {
      if (util::failpoint("serve.batch") == util::FpAction::kError) {
        throw std::runtime_error("injected failure: serve.batch failpoint");
      }
      const FrozenScheme& fs = *t.fs;
      if (cached && !same_owner(cache_fs, t.fs)) {
        cache.emplace(fs, cache_entries_);
        cache_fs = t.fs;
        cache_delta = t.delta;
      } else if (cached && !same_owner(cache_delta, t.delta)) {
        cache->clear();
        cache_delta = t.delta;
      }
      for (std::size_t b = 0; b < idx.size(); b += kBlock) {
        const std::size_t m = std::min(kBlock, idx.size() - b);
        for (std::size_t j = 0; j < m; ++j) {
          qbuf[j] = t.queries[idx[b + j]];
        }
        BatchStats bs;
        const auto t0 = clock::now();
        const auto answer = [&](auto& c) {
          if (t.delta) {
            fs.route_batch(qbuf.data(), m, dbuf.data(), c, *t.delta, &bs);
          } else {
            fs.route_batch(qbuf.data(), m, dbuf.data(), c, NoOverlay{}, &bs);
          }
        };
        if (cached) {
          answer(*cache);
        } else {
          NoTableCache none;
          answer(none);
        }
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            clock::now() - t0)
                            .count();
        for (std::size_t j = 0; j < m; ++j) {
          t.out[idx[b + j]] = dbuf[j];
        }
        done += static_cast<std::int64_t>(m);
        hops += bs.hops;
        masked += bs.masked;
        repaired += bs.repaired;
        if (cached) {
          hits += bs.cache_hits;
          misses += bs.cache_misses;
        }
        s.latency.record_ns(ns / static_cast<std::int64_t>(m));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(t.state->m);
      if (!t.state->error) t.state->error = std::current_exception();
    }
    s.queries.fetch_add(done, std::memory_order_relaxed);
    s.hops.fetch_add(hops, std::memory_order_relaxed);
    s.batches.fetch_add(1, std::memory_order_relaxed);
    if (masked != 0) s.masked.fetch_add(masked, std::memory_order_relaxed);
    if (repaired != 0) {
      s.repaired.fetch_add(repaired, std::memory_order_relaxed);
    }
    if (cached) {
      s.cache_hits.fetch_add(hits, std::memory_order_relaxed);
      s.cache_misses.fetch_add(misses, std::memory_order_relaxed);
    }
    // Credit the whole sub-batch (answered or aborted by the exception);
    // the last task over the finish line wakes the waiters. notify under
    // the mutex so the State can't be destroyed mid-notify — the Task's
    // shared_ptr keeps it alive until this scope ends.
    if (t.state->remaining.fetch_sub(batch_queries,
                                     std::memory_order_acq_rel) ==
        batch_queries) {
      std::function<void()> cb;
      {
        std::lock_guard<std::mutex> lk(t.state->m);
        t.state->cv.notify_all();
        cb.swap(t.state->on_complete);
      }
      if (cb) cb();
    }
    t = Task{};  // release the State before blocking on the next pop
  }
}

ShardedRouteServer::Batch ShardedRouteServer::submit(
    std::shared_ptr<const FrozenScheme> fs, const Query* queries,
    std::size_t count, Decision* out, std::shared_ptr<const DeltaSet> delta,
    std::function<void()> on_complete) {
  Batch ticket;
  if (count == 0) {
    // Nothing to enqueue: the default ticket is already done, and the
    // hook's "exactly once" is met inline.
    if (on_complete) on_complete();
    return ticket;
  }
  NORS_CHECK_MSG(fs != nullptr && queries != nullptr && out != nullptr,
                 "submit() needs an image and query and output arrays");
  // Index lists are u32; a larger batch would wrap and silently corrupt
  // the answer placement, so refuse it loudly (split the batch instead).
  NORS_CHECK_MSG(count <= 0xffffffffull,
                 "batch too large: split submissions beyond 2^32 queries");
  auto state = std::make_shared<Batch::State>(count);
  state->on_complete = std::move(on_complete);
  ticket.state_ = state;
  state->idx.resize(shards_.size());
  for (auto& v : state->idx) {
    v.reserve(count / shards_.size() + 1);
  }
  // Dispatch by source vertex, over this image's ranges.
  const std::size_t span = span_of(fs->n(), shards_.size());
  for (std::size_t i = 0; i < count; ++i) {
    const int s = shard_for(queries[i].u, span, shards_.size());
    state->idx[static_cast<std::size_t>(s)].push_back(
        static_cast<std::uint32_t>(i));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (state->idx[s].empty()) continue;
    // Shard → worker round-robin; with one worker per shard this is the
    // identity, on a clamped machine several shards share a thread.
    Worker& w = *workers_[s % workers_.size()];
    w.queue.push(Task{state, shards_[s].get(), queries, out, &state->idx[s],
                      fs, delta});
  }
  return ticket;
}

void ShardedRouteServer::serve(const Query* queries, std::size_t count,
                               Decision* out) {
  submit(fs_, queries, count, out).wait();
}

void ShardedRouteServer::serve(const std::vector<Query>& queries,
                               std::vector<Decision>& out) {
  out.resize(queries.size());
  serve(queries.data(), queries.size(), out.data());
}

int ShardedRouteServer::shard_of(graph::Vertex u) const {
  return shard_for(u, span_of(fs_->n(), shards_.size()), shards_.size());
}

ShardStats ShardedRouteServer::shard_stats(int shard) const {
  NORS_CHECK(shard >= 0 && shard < shards());
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  ShardStats st;
  st.queries = s.queries.load(std::memory_order_relaxed);
  st.batches = s.batches.load(std::memory_order_relaxed);
  st.hops = s.hops.load(std::memory_order_relaxed);
  st.cache_hits = s.cache_hits.load(std::memory_order_relaxed);
  st.cache_misses = s.cache_misses.load(std::memory_order_relaxed);
  st.masked = s.masked.load(std::memory_order_relaxed);
  st.repaired = s.repaired.load(std::memory_order_relaxed);
  st.p50_us = s.latency.quantile_us(0.5);
  st.p99_us = s.latency.quantile_us(0.99);
  return st;
}

ShardStats ShardedRouteServer::totals() const {
  ShardStats t;
  util::LatencyHistogram::Counts merged{};
  for (const auto& sh : shards_) {
    t.queries += sh->queries.load(std::memory_order_relaxed);
    t.batches += sh->batches.load(std::memory_order_relaxed);
    t.hops += sh->hops.load(std::memory_order_relaxed);
    t.cache_hits += sh->cache_hits.load(std::memory_order_relaxed);
    t.cache_misses += sh->cache_misses.load(std::memory_order_relaxed);
    t.masked += sh->masked.load(std::memory_order_relaxed);
    t.repaired += sh->repaired.load(std::memory_order_relaxed);
    const auto c = sh->latency.snapshot();
    for (std::size_t b = 0; b < c.size(); ++b) merged[b] += c[b];
  }
  t.p50_us = util::LatencyHistogram::quantile_us(merged, 0.5);
  t.p99_us = util::LatencyHistogram::quantile_us(merged, 0.99);
  return t;
}

}  // namespace nors::serve

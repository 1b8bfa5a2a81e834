#pragma once

#include <cstdint>
#include <vector>

#include "serve/frozen.h"

namespace nors::serve {

/// Two-way set-associative LRU cache for (vertex, tree) → table-slot index
/// — the slab binary search is the serving walk's only non-constant step,
/// and hot cluster trees (the top-level trees contain all of V) resolve in
/// one probe once cached. Owned per worker (ShardedRouteServer shard
/// workers, or a single-thread route_batch() caller): the frozen scheme
/// stays untouched and shared read-only. A set's way 0 is the most
/// recently used; a hit in way 1 swaps the ways. Caching is transparent: a cached "not a member"
/// (idx -1) answers exactly like FrozenScheme::table_index().
class TableCache {
 public:
  TableCache(const FrozenScheme& fs, int entries) : fs_(&fs) {
    int sets = 1;
    while (2 * sets < entries) sets *= 2;
    mask_ = static_cast<std::uint64_t>(sets) - 1;
    slots_.assign(static_cast<std::size_t>(sets) * 2, {kEmpty, -1});
  }

  const FrozenScheme::TableSlot* lookup(graph::Vertex x, std::int32_t tree,
                                        std::int64_t& hits,
                                        std::int64_t& misses) {
    std::int32_t idx = 0;
    if (probe(x, tree, idx)) {
      ++hits;
      return slot_ptr(idx);
    }
    ++misses;
    idx = fs_->table_index(x, tree);
    insert(x, tree, idx);
    return slot_ptr(idx);
  }

  /// Cache-only probe: true (and the cached index, -1 = cached "not a
  /// member") on a hit, false otherwise — no slab search, no insertion.
  /// This is the half the batch engine calls in its prefetch stage;
  /// insert() publishes the engine's own search result afterwards.
  bool probe(graph::Vertex x, std::int32_t tree, std::int32_t& idx) {
    const std::uint64_t key = pack(x, tree);
    const std::size_t set = set_of(key);
    Entry& e0 = slots_[set];
    Entry& e1 = slots_[set + 1];
    if (e0.key == key) {
      idx = e0.idx;
      return true;
    }
    if (e1.key == key) {
      std::swap(e0, e1);  // promote to MRU
      idx = e0.idx;
      return true;
    }
    return false;
  }

  /// Drops every entry — the generation-swap invalidation hook: shard
  /// workers clear when a batch arrives under a different delta overlay
  /// than the cache was warmed on, and build a new cache for a batch on
  /// a different image (serve/shard.cc).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Entry{kEmpty, -1});
  }

  /// Publishes a search result into (x, tree)'s set as the MRU way; the
  /// set's LRU way is evicted.
  void insert(graph::Vertex x, std::int32_t tree, std::int32_t idx) {
    const std::uint64_t key = pack(x, tree);
    const std::size_t set = set_of(key);
    slots_[set + 1] = slots_[set];  // old MRU becomes LRU, LRU is evicted
    slots_[set] = {key, idx};
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;

  struct Entry {
    std::uint64_t key;
    std::int32_t idx;  // -1 = cached "not a member"
  };

  static std::uint64_t pack(graph::Vertex x, std::int32_t tree) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
           static_cast<std::uint32_t>(tree);
  }

  // Fibonacci hash of the packed key picks the set.
  std::size_t set_of(std::uint64_t key) const {
    return static_cast<std::size_t>(
               (key * 0x9e3779b97f4a7c15ull) >> 32 & mask_) * 2;
  }

  const FrozenScheme::TableSlot* slot_ptr(std::int32_t idx) const {
    return idx < 0 ? nullptr
                   : fs_->tables().data() + static_cast<std::size_t>(idx);
  }

  const FrozenScheme* fs_;
  std::uint64_t mask_;
  std::vector<Entry> slots_;
};

}  // namespace nors::serve

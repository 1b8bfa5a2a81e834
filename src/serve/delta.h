#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "serve/frozen.h"

namespace nors::serve {

/// One journaled edge event against the frozen base image. A non-negative
/// weight (re)sets both directions of edge {u, v} — including reviving a
/// previously failed link; w == kFail fails the link. Edges absent from
/// the image are counted and skipped (the journal may outlive a rebuild).
struct EdgeUpdate {
  static constexpr graph::Dist kFail = -1;

  graph::Vertex u = graph::kNoVertex;
  graph::Vertex v = graph::kNoVertex;
  graph::Dist w = kFail;

  bool is_fail() const { return w < 0; }

  static EdgeUpdate weight(graph::Vertex u, graph::Vertex v, graph::Dist w) {
    return {u, v, w};
  }
  static EdgeUpdate fail(graph::Vertex u, graph::Vertex v) {
    return {u, v, kFail};
  }
};

/// What one DeltaSet::apply() did, plus the cumulative shape of the
/// resulting set (the numbers route_serviced prints per applied batch).
struct DeltaStats {
  std::int64_t applied = 0;        // batch events accepted
  std::int64_t unknown_edges = 0;  // batch events naming absent edges
  std::int64_t overrides = 0;      // cumulative patched link directions
  std::int64_t failed_links = 0;   // cumulative failed link directions
  std::int64_t masked_trees = 0;   // trees unusable under the failures
};

/// An immutable set of link overrides + the tree mask they induce over one
/// FrozenScheme — the overlay the batch engine consults per hop
/// (FrozenScheme::route_batch with an overlay; DESIGN.md §13). Built only
/// through apply(), which layers a batch of EdgeUpdates over a predecessor
/// set and returns a *new* DeltaSet: readers of the predecessor are never
/// disturbed, which is what lets net::Server publish each applied batch as
/// a refcounted generation while in-flight batches finish on the old one.
///
/// Policy (DESIGN.md §13):
///  - Weight changes are repaired in place: the walk still follows the
///    frozen tree route, but every crossing of an overridden link charges
///    the new weight. For weights within a factor α of the frozen ones the
///    served length is within α² of the frozen estimate, so stretch stays
///    ≤ α²·(4k−5).
///  - Failures mask: every cluster tree that routes across a failed link
///    is masked, and the tree scan falls back to the first *surviving*
///    tree covering the pair (Algorithm 1 order, so the fallback is
///    deterministic and its stretch bound is the scheme's own bound on
///    that tree). Masking is exact, not conservative: an edge {x, y} is an
///    edge of tree T iff the child endpoint's table slot in T points back
///    across it (parent_port, or up_port at subtree roots), so scanning
///    the two endpoints' table slabs finds exactly the trees that break.
///  - The mask is recomputed from the *full* failed-link set on every
///    apply, so reviving a link (re-weighting a failed edge) unmasks any
///    tree whose only failed edge it was.
class DeltaSet {
 public:
  // ---------------------------------------------------- overlay concept --
  static constexpr bool kActive = true;

  bool tree_masked(std::int32_t tree) const {
    return (masked_[static_cast<std::size_t>(tree) >> 6] >>
            (static_cast<unsigned>(tree) & 63)) &
           1u;
  }

  LinkPatch link_patch(std::int64_t link, graph::Dist& w) const {
    const std::uint64_t h = mix(static_cast<std::uint64_t>(link));
    for (std::uint64_t probe = h & probe_mask_;;
         probe = (probe + 1) & probe_mask_) {
      const Slot& s = slots_[probe];
      if (s.key == kEmpty) return LinkPatch::kNone;
      if (s.key == link) {
        if (s.w < 0) return LinkPatch::kFailed;
        w = s.w;
        return LinkPatch::kWeight;
      }
    }
  }

  // ------------------------------------------------------------ building --

  /// Layers `batch` over `prev` (nullptr ⟺ the unpatched base image) and
  /// returns the successor set; `prev` is left untouched. An override that
  /// restores a link's frozen weight is dropped entirely, so a journal
  /// that undoes itself converges back to an empty set. Unknown edges —
  /// including any naming a vertex outside the image — are skipped and
  /// counted.
  static std::shared_ptr<const DeltaSet> apply(
      const FrozenScheme& fs, const DeltaSet* prev,
      std::span<const EdgeUpdate> batch, DeltaStats* stats = nullptr);

  // -------------------------------------------------------- inspection --

  /// Monotonic generation sequence: base image = 0, each apply() +1.
  std::uint64_t seq() const { return seq_; }

  std::int64_t override_count() const { return override_count_; }
  std::int64_t failed_link_count() const { return failed_count_; }
  std::int64_t masked_tree_count() const { return masked_count_; }

  /// All overrides as (global link index, weight-or-kFail), key-sorted —
  /// apply/inspection path only (tests rebuild reference graphs from it).
  std::vector<std::pair<std::int64_t, graph::Dist>> sorted_overrides() const;

  /// The whole set re-expressed as one EdgeUpdate batch against `fs` (the
  /// image it was built over): every overridden edge once, u < v,
  /// link-index order. Applying the result against the unpatched base
  /// reproduces exactly this set's overrides and mask — the checkpoint
  /// squash record and the replication catch-up snapshot (DESIGN.md §14).
  std::vector<EdgeUpdate> as_edge_updates(const FrozenScheme& fs) const;

 private:
  struct Slot {
    std::int64_t key = kEmpty;  // global link index: adj_off()[x] + port
    graph::Dist w = 0;          // < 0 ⟺ failed
  };
  static constexpr std::int64_t kEmpty = -1;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer — link indices are dense smallish ints.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  DeltaSet() = default;

  std::vector<Slot> slots_;       // open-addressed, power-of-2 size
  std::uint64_t probe_mask_ = 0;  // slots_.size() - 1
  std::vector<std::uint64_t> masked_;  // bit per cluster tree
  std::uint64_t seq_ = 0;
  std::int64_t override_count_ = 0;
  std::int64_t failed_count_ = 0;
  std::int64_t masked_count_ = 0;
};

// ------------------------------------------------------- batch codec --
// The canonical varint encoding of an EdgeUpdate batch — shared verbatim
// by the kUpdate wire frame (net/wire.cc) and the WAL record body
// (serve/wal.cc), so a logged batch is byte-identical to the frame that
// carried it: uvarint count, then per event a flag (0 = weight,
// 1 = fail), zigzag u, zigzag v, and — weight events only — the zigzag
// weight (≥ 0 enforced on decode).

/// Appends the batch encoding to `out`. Callers enforce their own count
/// caps (the wire caps at kMaxUpdatesPerFrame; the WAL body cap is what
/// bounds a checkpoint squash).
void encode_edge_updates(std::vector<std::uint8_t>& out,
                         std::span<const EdgeUpdate> updates);

/// Decodes one batch from [p, end) into `out` (replacing its contents)
/// and returns the cursor after it. Throws std::logic_error — the
/// codec's own guard — on truncation, non-minimal varints, a count above
/// `max_events`, unknown flags, out-of-int32-range vertices, or a
/// negative weight.
const std::uint8_t* decode_edge_updates(const std::uint8_t* p,
                                        const std::uint8_t* end,
                                        std::vector<EdgeUpdate>& out,
                                        std::uint64_t max_events);

/// Parses the plain-text update journal route_serviced replays
/// (`--updates=FILE` / `--import-updates=FILE`; DESIGN.md §13). One event
/// per line:
///
///   w U V WEIGHT   set edge {U, V} to WEIGHT (revives a failed link)
///   f U V          fail link {U, V}
///   commit         close the current batch (one generation per batch)
///
/// Blank lines and `#` comments are ignored. A trailing open batch is
/// returned as the last element. Throws std::runtime_error on malformed
/// lines, naming the 1-based batch and line number.
std::vector<std::vector<EdgeUpdate>> parse_update_journal(
    const std::string& text);

/// parse_update_journal() over the contents of `path`. A read error after
/// a successful open (EIO, a yanked disk) throws — it is never mistaken
/// for end-of-file.
std::vector<std::vector<EdgeUpdate>> load_update_journal(
    const std::string& path);

}  // namespace nors::serve

#include "serve/delta.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/serialize.h"
#include "util/check.h"

namespace nors::serve {

std::shared_ptr<const DeltaSet> DeltaSet::apply(
    const FrozenScheme& fs, const DeltaSet* prev,
    std::span<const EdgeUpdate> batch, DeltaStats* stats) {
  const auto adj_off = fs.adj_off();
  const auto links = fs.link_map();

  // Working override map: predecessor entries + the batch layered on top.
  // The apply path favors clarity (hash map, per-edge port scans); only
  // the finished flat table is consulted on the serving path.
  std::unordered_map<std::int64_t, graph::Dist> work;
  if (prev != nullptr) {
    work.reserve(static_cast<std::size_t>(prev->override_count_));
    for (const Slot& s : prev->slots_) {
      if (s.key != kEmpty) work.emplace(s.key, s.w);
    }
  }

  DeltaStats local;
  DeltaStats& ds = stats != nullptr ? *stats : local;
  ds = DeltaStats{};

  for (const EdgeUpdate& e : batch) {
    // A vertex outside the image names no edge of it. Refusing such a
    // batch is the caller's rule (net::TableService answers kBadQuery);
    // here it only must not index past the adjacency arrays.
    const bool in_image = e.u >= 0 && e.u < fs.n() && e.v >= 0 && e.v < fs.n();
    const std::int32_t pu = in_image ? fs.find_port(e.u, e.v) : graph::kNoPort;
    const std::int32_t pv = in_image ? fs.find_port(e.v, e.u) : graph::kNoPort;
    if (e.u == e.v || pu == graph::kNoPort || pv == graph::kNoPort) {
      ++ds.unknown_edges;
      continue;
    }
    ++ds.applied;
    const std::int64_t dir[2] = {
        adj_off[static_cast<std::size_t>(e.u)] + pu,
        adj_off[static_cast<std::size_t>(e.v)] + pv,
    };
    for (const std::int64_t idx : dir) {
      if (e.is_fail()) {
        work[idx] = EdgeUpdate::kFail;
      } else if (e.w == links[static_cast<std::size_t>(idx)].w) {
        work.erase(idx);  // restored to frozen: no override needed
      } else {
        work[idx] = e.w;
      }
    }
  }

  auto out = std::shared_ptr<DeltaSet>(new DeltaSet());
  out->seq_ = (prev != nullptr ? prev->seq_ : 0) + 1;
  out->override_count_ = static_cast<std::int64_t>(work.size());

  // Freeze into the open-addressed probe table (≤ 50% load, power of 2).
  std::size_t cap = 16;
  while (cap < work.size() * 2) cap <<= 1;
  out->slots_.assign(cap, Slot{});
  out->probe_mask_ = cap - 1;
  for (const auto& [key, w] : work) {
    std::uint64_t probe = mix(static_cast<std::uint64_t>(key)) &
                          out->probe_mask_;
    while (out->slots_[probe].key != kEmpty) {
      probe = (probe + 1) & out->probe_mask_;
    }
    out->slots_[probe] = Slot{key, w};
    if (w < 0) ++out->failed_count_;
  }

  // Recompute the tree mask from the full failed-link set (not just this
  // batch), so a revived link unmasks the trees it alone had broken. A
  // failed link direction (x, port) breaks exactly the trees whose table
  // slot at x points back across it — parent_port for interior vertices,
  // up_port at subtree roots (every routed port kind is the reverse of one
  // of these at the child endpoint). Both directions of a failed edge are
  // in the set, so the child side is always among the scans.
  const auto table_off = fs.table_off();
  const auto tables = fs.tables();
  const auto table_tree = fs.table_tree();
  out->masked_.assign(
      (static_cast<std::size_t>(std::max<std::int32_t>(fs.num_trees(), 1)) +
       63) / 64,
      0);
  for (const Slot& s : out->slots_) {
    if (s.key == kEmpty || s.w >= 0) continue;
    const auto it =
        std::upper_bound(adj_off.begin(), adj_off.end(), s.key);
    const auto x = static_cast<std::size_t>(it - adj_off.begin()) - 1;
    const auto port = static_cast<std::int32_t>(s.key - adj_off[x]);
    const std::int64_t lo = table_off[x];
    const std::int64_t hi = table_off[x + 1];
    for (std::int64_t i = lo; i < hi; ++i) {
      const FrozenScheme::TableSlot& t = tables[static_cast<std::size_t>(i)];
      if (t.parent_port == port || t.up_port == port) {
        const auto tree =
            static_cast<std::uint32_t>(table_tree[static_cast<std::size_t>(i)]);
        out->masked_[tree >> 6] |= 1ull << (tree & 63);
      }
    }
  }
  for (const std::uint64_t word : out->masked_) {
    out->masked_count_ += __builtin_popcountll(word);
  }

  ds.overrides = out->override_count_;
  ds.failed_links = out->failed_count_;
  ds.masked_trees = out->masked_count_;
  return out;
}

std::vector<std::pair<std::int64_t, graph::Dist>> DeltaSet::sorted_overrides()
    const {
  std::vector<std::pair<std::int64_t, graph::Dist>> out;
  out.reserve(static_cast<std::size_t>(override_count_));
  for (const Slot& s : slots_) {
    if (s.key != kEmpty) out.emplace_back(s.key, s.w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeUpdate> DeltaSet::as_edge_updates(const FrozenScheme& fs) const {
  const auto adj_off = fs.adj_off();
  const auto links = fs.link_map();
  std::vector<EdgeUpdate> out;
  out.reserve(static_cast<std::size_t>(override_count_) / 2 + 1);
  // apply() always patches both directions of an edge together, so keeping
  // only the x < to direction emits each overridden edge exactly once.
  for (const auto& [idx, w] : sorted_overrides()) {
    const auto it = std::upper_bound(adj_off.begin(), adj_off.end(), idx);
    const auto x = static_cast<graph::Vertex>(it - adj_off.begin() - 1);
    const graph::Vertex to = links[static_cast<std::size_t>(idx)].to;
    if (x < to) out.push_back({x, to, w});
  }
  return out;
}

void encode_edge_updates(std::vector<std::uint8_t>& out,
                         std::span<const EdgeUpdate> updates) {
  core::put_uvarint(out, updates.size());
  for (const EdgeUpdate& e : updates) {
    core::put_uvarint(out, e.is_fail() ? 1u : 0u);
    core::put_uvarint(out, core::zigzag(e.u));
    core::put_uvarint(out, core::zigzag(e.v));
    if (!e.is_fail()) core::put_uvarint(out, core::zigzag(e.w));
  }
}

const std::uint8_t* decode_edge_updates(const std::uint8_t* p,
                                        const std::uint8_t* end,
                                        std::vector<EdgeUpdate>& out,
                                        std::uint64_t max_events) {
  auto vertex = [&p, end]() {
    std::uint64_t x = 0;
    p = core::get_uvarint(p, end, x);
    const std::int64_t v = core::unzigzag(x);
    NORS_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                   "update vertex out of int32 range");
    return static_cast<graph::Vertex>(v);
  };
  std::uint64_t count = 0;
  p = core::get_uvarint(p, end, count);
  NORS_CHECK_MSG(count <= max_events, "update batch count exceeds the cap");
  out.assign(static_cast<std::size_t>(count), EdgeUpdate{});
  for (auto& e : out) {
    std::uint64_t flag = 0;
    p = core::get_uvarint(p, end, flag);
    NORS_CHECK_MSG(flag <= 1, "unknown update flags");
    e.u = vertex();
    e.v = vertex();
    if (flag == 1) {
      e.w = EdgeUpdate::kFail;
    } else {
      std::uint64_t x = 0;
      p = core::get_uvarint(p, end, x);
      e.w = core::unzigzag(x);
      NORS_CHECK_MSG(e.w >= 0, "negative update weight");
    }
  }
  return p;
}

std::vector<std::vector<EdgeUpdate>> parse_update_journal(
    const std::string& text) {
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<EdgeUpdate> cur;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    throw std::runtime_error(
        "update journal batch " + std::to_string(batches.size() + 1) +
        ", line " + std::to_string(lineno) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    if (op == "commit") {
      batches.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    EdgeUpdate e;
    if (op == "w") {
      if (!(ls >> e.u >> e.v >> e.w) || e.w < 0) {
        fail("expected 'w U V WEIGHT' with WEIGHT >= 0");
      }
    } else if (op == "f") {
      if (!(ls >> e.u >> e.v)) fail("expected 'f U V'");
      e.w = EdgeUpdate::kFail;
    } else {
      fail("unknown op '" + op + "' (want w/f/commit)");
    }
    std::string rest;
    if (ls >> rest && rest[0] != '#') fail("trailing junk '" + rest + "'");
    cur.push_back(e);
  }
  if (!cur.empty()) batches.push_back(std::move(cur));
  return batches;
}

std::vector<std::vector<EdgeUpdate>> load_update_journal(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open update journal: " + path);
  }
  // Read explicitly and distinguish "the file ended" from "the read
  // failed": rdbuf() slurping folds an EIO mid-file into a silently
  // shorter journal, which is exactly the wrong failure mode for data
  // that feeds the WAL.
  std::string text;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof chunk);
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  } while (in.good());
  if (in.bad() || (in.fail() && !in.eof())) {
    throw std::runtime_error("read error in update journal (not EOF): " +
                             path);
  }
  return parse_update_journal(text);
}

}  // namespace nors::serve

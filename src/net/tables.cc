#include "net/tables.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/bytes.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace nors::net {

namespace {

[[noreturn]] void sys_fail(const char* what, int err) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(err));
}

/// Crash-safe whole-file replacement: write to `path + ".tmp"`, fsync,
/// rename over `path`, fsync the directory — at every instant the old
/// file or the complete new one is what a reader (or a rebooting daemon)
/// sees. The checkpoint image rebuild goes through here.
void write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) sys_fail("open image temp", errno);
  int err = util::write_all(fd, bytes.data(), bytes.size());
  if (err != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    sys_fail("write image temp", err);
  }
  err = ::fsync(fd) != 0 ? errno : 0;
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    sys_fail("persist image", err);
  }
  // Best effort: the rename already left a complete file under `path`.
  const auto slash = path.rfind('/');
  util::fsync_dir(slash == std::string::npos ? std::string(".")
                                             : path.substr(0, slash + 1));
}

/// Chunks one applied batch into encoded kRepl frame *bodies*. Every
/// chunk carries the same seq; all but the last set `more`, and the
/// receiver applies the reassembled batch once.
std::vector<std::vector<std::uint8_t>> repl_bodies(
    std::uint64_t seq, bool snapshot,
    std::span<const serve::EdgeUpdate> events) {
  std::vector<std::vector<std::uint8_t>> bodies;
  std::size_t at = 0;
  do {
    const std::size_t take =
        std::min(events.size() - at, kMaxUpdatesPerFrame);
    ReplFrame rf;
    rf.seq = seq;
    rf.head_seq = seq;
    rf.snapshot = snapshot;
    rf.more = at + take < events.size();
    rf.events.assign(events.begin() + static_cast<std::ptrdiff_t>(at),
                     events.begin() + static_cast<std::ptrdiff_t>(at + take));
    bodies.emplace_back();
    encode_repl(bodies.back(), rf);
    at += take;
  } while (at < events.size());
  return bodies;
}

/// The range rule, for every door a batch comes through (local, replica
/// stream, WAL replay): each vertex lies inside the image it will layer
/// over. DeltaSet::apply itself would only skip such events as unknown.
void require_in_range(const serve::FrozenScheme& fs,
                      std::span<const serve::EdgeUpdate> batch) {
  for (const auto& e : batch) {
    if (e.u < 0 || e.u >= fs.n() || e.v < 0 || e.v >= fs.n()) {
      throw TableError(ErrorCode::kBadQuery, "update vertex out of range");
    }
  }
}

}  // namespace

TableService::Gen::Gen(serve::FrozenScheme f, const NetServerOptions& o)
    : fs(std::make_shared<serve::FrozenScheme>(std::move(f))) {
  serve::ShardedOptions so;
  so.shards = o.shards;
  so.cache_entries = o.cache_entries;
  srv = std::make_shared<serve::ShardedRouteServer>(*fs, so);
}

TableService::TableService(serve::FrozenScheme fs, NetServerOptions opt)
    : opt_(std::move(opt)) {
  swap_locked(std::make_shared<Gen>(std::move(fs), opt_));
  if (opt_.wal_dir.empty()) return;
  // Recover before the service is reachable: replay every logged batch
  // over the image, so a rebooted daemon serves exactly what a
  // never-crashed one would. net::Server builds its service before its
  // first socket exists, so boot replay always finishes first. No other
  // thread can see `this` yet, so the callback takes no lock. A snapshot
  // record (a checkpoint squash) replaces the accumulated delta chain: it
  // is applied against the base image.
  serve::WalOptions wo;
  wo.fsync = opt_.fsync;
  wo.fsync_interval_ms = opt_.fsync_interval_ms;
  wo.segment_bytes = opt_.wal_segment_bytes;
  wal_ = std::make_unique<serve::Wal>(
      opt_.wal_dir, wo, [this](const serve::WalRecord& r) {
        require_in_range(*gen_->fs, r.events);
        swap_locked(std::make_shared<Gen>(
            *gen_, serve::DeltaSet::apply(
                       *gen_->fs, r.snapshot ? nullptr : gen_->delta.get(),
                       r.events)));
      });
  seq_ = wal_->last_seq();
}

TableService::~TableService() { release(); }

std::shared_ptr<const TableService::Gen> TableService::current() const {
  std::lock_guard<std::mutex> lk(m_);
  return gen_;
}

std::uint64_t TableService::seq() const {
  std::lock_guard<std::mutex> lk(m_);
  return seq_;
}

void TableService::swap_locked(std::shared_ptr<Gen> next) {
  gen_ = std::move(next);
  gens_.push_back(gen_);
  // Erase retired generations nothing references any more — but only
  // while their shard pool is co-owned by a surviving generation, so the
  // erase never destroys a ShardedRouteServer (whose destructor joins
  // threads) from whatever thread swapped.
  std::erase_if(gens_, [this](const std::shared_ptr<Gen>& g) {
    return g != gen_ && g.use_count() == 1 && g->srv.use_count() > 1;
  });
}

UpdateAck TableService::apply(std::span<const serve::EdgeUpdate> batch) {
  // Rule 1, read-only: a replica's state comes from its primary alone
  // (apply_replicated); a local write would fork it silently.
  if (read_only()) {
    throw TableError(ErrorCode::kReadOnly,
                     "read-only replica: send updates to the primary");
  }
  return commit(batch, 0, false);
}

UpdateAck TableService::apply_replicated(
    std::uint64_t seq, bool snapshot,
    std::span<const serve::EdgeUpdate> batch) {
  NORS_CHECK_MSG(seq > 0, "replicated batches carry the primary's seq");
  return commit(batch, seq, snapshot);
}

/// The one write path. repl_seq == 0: a local batch, logged at the next
/// seq. repl_seq > 0: the primary's batch at the primary's seq.
UpdateAck TableService::commit(std::span<const serve::EdgeUpdate> batch,
                               std::uint64_t repl_seq, bool snapshot) {
  serve::DeltaStats ds;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    // Rule 2, range, judged against the image the batch layers over.
    // gen_ is null only after release(), which closes first.
    if (gen_ != nullptr) require_in_range(*gen_->fs, batch);
    // Rule 3, draining.
    if (closed_) {
      throw TableError(ErrorCode::kDraining,
                       "draining: updates not accepted");
    }
    if (repl_seq != 0 && repl_seq <= seq_) {
      UpdateAck dup;
      dup.seq = seq_;  // already applied: ack, change nothing
      return dup;
    }
    if (repl_seq != 0 && !snapshot) {
      NORS_CHECK_MSG(repl_seq == seq_ + 1,
                     "replication gap: resubscribe for a snapshot");
    }
    auto delta = serve::DeltaSet::apply(
        *gen_->fs, snapshot ? nullptr : gen_->delta.get(), batch, &ds);
    seq = repl_seq != 0 ? repl_seq : seq_ + 1;
    // Rule 4, WAL. The batch is appended and synced before its generation
    // is published: a failed append publishes nothing and the old
    // generation keeps serving, so a batch any reader or subscriber sees
    // is durable here.
    if (wal_ != nullptr) {
      try {
        wal_->append(seq, snapshot, batch);
      } catch (const serve::WalError& e) {
        wal_errors_.fetch_add(1, std::memory_order_relaxed);
        throw TableError(ErrorCode::kWalError, e.what());
      }
    }
    swap_locked(std::make_shared<Gen>(*gen_, std::move(delta)));
    seq_ = seq;
    push_locked(seq, snapshot, batch);
  }
  updates_.fetch_add(1, std::memory_order_release);
  if (repl_seq != 0) repl_applied_.fetch_add(1, std::memory_order_relaxed);
  maybe_auto_checkpoint();
  UpdateAck a;
  a.seq = seq;
  a.applied = ds.applied;
  a.unknown_edges = ds.unknown_edges;
  a.overrides = ds.overrides;
  a.failed_links = ds.failed_links;
  a.masked_trees = ds.masked_trees;
  return a;
}

/// Fans one applied batch out to every live subscriber. Runs under m_,
/// inside commit(), so registration (subscribe) and the stream are
/// ordered by the same lock: the stream runs in apply order with no gaps.
/// The frames are encoded once per batch, whatever the subscriber count.
/// The repl.stream failpoint drops the whole push: followers see the gap
/// on the next frame and resubscribe (snapshot catch-up), which is
/// exactly the degraded path the chaos tests pin.
void TableService::push_locked(std::uint64_t seq, bool snapshot,
                               std::span<const serve::EdgeUpdate> events) {
  if (subscribers_.empty()) return;
  if (util::failpoint("repl.stream") == util::FpAction::kError) return;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& body : repl_bodies(seq, snapshot, events)) {
    frames.emplace_back();
    append_frame(frames.back(), FrameType::kRepl, 0, body);
  }
  std::erase_if(subscribers_, [](const auto& s) { return !s->alive(); });
  for (const auto& s : subscribers_) s->push(frames);
}

void TableService::maybe_auto_checkpoint() {
  if (opt_.checkpoint_every <= 0 || wal_ == nullptr) return;
  if (batches_since_ckpt_.fetch_add(1, std::memory_order_relaxed) + 1 <
      opt_.checkpoint_every) {
    return;
  }
  try {
    checkpoint();
  } catch (const std::exception&) {
    // Auto-compaction is advisory: on failure the log keeps its records
    // (checkpoint() never truncates before the squash lands) and the
    // next batch retries.
  }
}

/// Runs whole under m_, so the image, the squash and the captured seq are
/// one consistent cut — updates queue behind it (a checkpoint is a file
/// write, not a route computation). Failed links stay in the squash
/// record rather than the image: replaying it over either the old or the
/// rebuilt image re-masks exactly the same trees, so recovery converges
/// from both.
CheckpointAck TableService::checkpoint() {
  std::lock_guard<std::mutex> lk(m_);
  if (closed_) {
    throw TableError(ErrorCode::kDraining,
                     "draining: checkpoint not accepted");
  }
  CheckpointAck a;
  a.seq = seq_;
  std::vector<serve::EdgeUpdate> snap;
  if (gen_->delta != nullptr && gen_->delta->override_count() > 0) {
    snap = gen_->delta->as_edge_updates(*gen_->fs);
    a.squashed = gen_->delta->override_count();
    if (!opt_.image_path.empty()) {
      write_file_durable(opt_.image_path,
                         gen_->fs->save_with_link_weights(
                             gen_->delta->sorted_overrides()));
      a.image_rebuilt = 1;
    }
  }
  if (wal_ != nullptr) {
    wal_->reset(seq_, snap.empty() ? nullptr : &snap);
    a.wal_segments = static_cast<std::int64_t>(wal_->segment_count());
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  batches_since_ckpt_.store(0, std::memory_order_relaxed);
  return a;
}

void TableService::reload(serve::FrozenScheme fs) {
  auto next = std::make_shared<Gen>(std::move(fs), opt_);
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) return;  // too late
    swap_locked(std::move(next));
    // A reload drops the delta chain by design, so the WAL records that
    // described it are void too: truncate to an empty log at the current
    // seq. (Replicas of a reloaded primary must be restarted with the new
    // image — the stream carries deltas, not images.)
    if (wal_ != nullptr) wal_->reset(seq_, nullptr);
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
}

TableService::Subscription TableService::subscribe(
    std::uint64_t have, std::shared_ptr<ReplSink> sink) {
  Subscription sub;
  std::vector<serve::EdgeUpdate> snap;
  bool catch_up = false;
  {
    // Registration and the head snapshot are one atomic step against
    // commit(): every batch after `head` will be pushed to `sink`, and the
    // catch-up snapshot covers everything up to it — no gap, no
    // double-apply (snapshots replace, not layer).
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) {
      throw TableError(ErrorCode::kDraining,
                       "draining: subscriptions not accepted");
    }
    sub.head = seq_;
    if (have < sub.head) {
      catch_up = true;
      if (gen_->delta != nullptr) {
        snap = gen_->delta->as_edge_updates(*gen_->fs);
      }
    }
    subscribers_.push_back(std::move(sink));
  }
  if (catch_up) sub.catch_up = repl_bodies(sub.head, true, snap);
  return sub;
}

void TableService::fill_stats(WireStats& s) const {
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.wal_errors = wal_errors_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.repl_applied = repl_applied_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(m_);
  // Overlay-serving counters, attributed per shard pool: generations
  // sharing one pool share its counts, so sum over *distinct* pools.
  const serve::ShardedRouteServer* last = nullptr;
  for (const auto& g : gens_) {
    if (g->srv.get() == last) continue;  // delta chain: same pool
    last = g->srv.get();
    const auto t = g->srv->totals();
    s.masked += t.masked;
    s.repaired += t.repaired;
  }
  s.update_seq = static_cast<std::int64_t>(seq_);
  if (wal_ != nullptr) s.wal_records = wal_->stats().appends;
  for (const auto& sub : subscribers_) {
    if (sub->alive()) ++s.subscribers;
  }
}

void TableService::close() {
  std::lock_guard<std::mutex> lk(m_);
  closed_ = true;
}

void TableService::release() {
  std::vector<std::shared_ptr<Gen>> gens;
  {
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
    gens.swap(gens_);
    gen_.reset();
    subscribers_.clear();
  }
  // Quiesce every generation from *this* thread: ~ShardedRouteServer
  // joins its workers, which must never happen on one of them. Route
  // batches still holding a Gen keep only its image and overlay.
  for (auto& g : gens) g->srv.reset();
}

}  // namespace nors::net

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/options.h"
#include "net/wire.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/shard.h"
#include "serve/wal.h"

namespace nors::net {

/// A write-side rule refused the call. `code` is the wire error the
/// transport answers with: kReadOnly, kBadQuery (update vertex out of
/// range), kDraining or kWalError (DESIGN.md §14.6 lists them in order).
class TableError : public std::runtime_error {
 public:
  TableError(ErrorCode c, const std::string& what)
      : std::runtime_error(what), code(c) {}
  ErrorCode code;
};

/// One subscriber of the replication stream (a connection, in net::Server).
class ReplSink {
 public:
  virtual ~ReplSink() = default;
  /// False once the subscriber is gone; the service then forgets it.
  virtual bool alive() const = 0;
  /// Hands over one applied batch as complete kRepl frames. Called under
  /// the service lock, in apply order; must not block.
  virtual void push(std::span<const std::vector<std::uint8_t>> frames) = 0;
};

/// The serving tables and their write side, with no socket in sight
/// (DESIGN.md §11.2, §14.2): the refcounted image generations, the one
/// shard pool that routes on all of them, the one write path every update
/// takes (read-only → range → draining → WAL append → publish →
/// replicate), WAL recovery, reload, checkpoints and the replication
/// subscribers. net::Server owns one and adds the transport. Every member
/// is safe from any thread.
class TableService {
 public:
  /// One serving view: an image and (possibly) a delta overlay. A route
  /// batch holds a shared_ptr, so a swap never invalidates it. reload()
  /// swaps in a fresh image; an update *shares* the image with its
  /// predecessor and swaps only the immutable DeltaSet.
  struct Gen {
    std::shared_ptr<const serve::FrozenScheme> fs;
    std::shared_ptr<const serve::DeltaSet> delta;  // null = unpatched
  };

  /// The head seq the stream continues from and, when the subscriber was
  /// behind, the catch-up snapshot as kRepl bodies to send first.
  struct Subscription {
    std::uint64_t head = 0;
    std::vector<std::vector<std::uint8_t>> catch_up;
  };

  /// Replays options.wal_dir (when set) over the image before returning;
  /// throws what recovery throws.
  TableService(serve::FrozenScheme fs, NetServerOptions opt);
  ~TableService();
  TableService(const TableService&) = delete;
  TableService& operator=(const TableService&) = delete;

  /// The generation new route batches run on (null after release()).
  std::shared_ptr<const Gen> current() const;

  /// The shard pool every generation's route batches are submitted to,
  /// with that generation's image and delta (its serve() answers on the
  /// boot image, which a reload frees). Built at construction; release()
  /// joins it, and its counters stay readable after.
  serve::ShardedRouteServer& pool() { return pool_; }

  /// Durable sequence number of the newest published batch. Recovered
  /// from the WAL at boot; monotonic across reloads and checkpoints.
  std::uint64_t seq() const;

  /// Applies a local edge-update batch (kUpdate, route_serviced --updates)
  /// as a new delta generation. Throws TableError, publishing nothing,
  /// when a write-side rule refuses it.
  UpdateAck apply(std::span<const serve::EdgeUpdate> batch);

  /// A replica's one write door: the primary's batch at the primary's
  /// `seq`. A seq already held is acked without effect; a `snapshot`
  /// replaces the delta chain; any other gap throws std::logic_error.
  UpdateAck apply_replicated(std::uint64_t seq, bool snapshot,
                             std::span<const serve::EdgeUpdate> batch);

  /// Squashes the delta chain into one snapshot WAL record and, when
  /// options.image_path is set, rebuilds the image with the weight
  /// overrides baked in; serving is untouched. On I/O failure the old log
  /// keeps its records.
  CheckpointAck checkpoint();

  /// Swaps in a new image (SIGHUP), dropping the delta chain and the WAL
  /// records behind it. A no-op after close().
  void reload(serve::FrozenScheme fs);
  void reload_file(const std::string& path) {
    reload(serve::FrozenScheme::map(path));
  }

  /// Registers `sink` for every batch applied after the returned head.
  Subscription subscribe(std::uint64_t have, std::shared_ptr<ReplSink> sink);

  /// Fills the table-side fields of a kStats snapshot (the pool's masked
  /// and repaired counts among them).
  void fill_stats(WireStats& s) const;

  /// Refuses every write from now on with kDraining. Idempotent.
  void close();

  /// close(), then drops the current generation and joins the shard pool:
  /// call it once nothing submits any more.
  void release();

  bool read_only() const { return !opt_.replica_of.empty(); }
  const NetServerOptions& options() const { return opt_; }

 private:
  UpdateAck commit(std::span<const serve::EdgeUpdate> batch,
                   std::uint64_t repl_seq, bool snapshot);
  void push_locked(std::uint64_t seq, bool snapshot,
                   std::span<const serve::EdgeUpdate> events);
  void maybe_auto_checkpoint();

  const NetServerOptions opt_;

  /// Guards gen_ through subscribers_. Every write (commit, checkpoint,
  /// reload) runs whole under it, so writes linearize.
  mutable std::mutex m_;
  std::shared_ptr<const Gen> gen_;
  serve::ShardedRouteServer pool_;  // built over gen_'s boot image
  std::unique_ptr<serve::Wal> wal_;  // null = no WAL
  std::uint64_t seq_ = 0;
  bool closed_ = false;
  std::vector<std::shared_ptr<ReplSink>> subscribers_;

  std::atomic<std::int64_t> reloads_{0};
  std::atomic<std::int64_t> updates_{0};
  std::atomic<std::int64_t> wal_errors_{0};
  std::atomic<std::int64_t> checkpoints_{0};
  std::atomic<std::int64_t> repl_applied_{0};
  std::atomic<std::int64_t> batches_since_ckpt_{0};
};

}  // namespace nors::net

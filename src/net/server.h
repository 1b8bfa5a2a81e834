#pragma once

#include <memory>
#include <span>

#include "net/options.h"
#include "net/tables.h"
#include "net/wire.h"
#include "serve/frozen.h"

namespace nors::net {

/// The network front door over a TableService (DESIGN.md §11): one
/// acceptor plus `loops` epoll event loops (level-triggered), each owning
/// its connections outright. Route frames are decoded, validated and
/// submitted asynchronously to the current generation's shards
/// (serve/shard.h's completion hook); the answering shard worker wakes
/// the owning loop through an eventfd, and responses are written strictly
/// in per-connection request order, so a pipelining client needs no
/// correlation logic. Every other frame is answered inline but flows
/// through the same ordered pipeline. Updates, checkpoints, reloads and
/// subscriptions go to tables(), which owns every write-side rule; a
/// replica's follower thread lives here and feeds tables().
///
/// Life cycle: the table service is built (and its WAL replayed) before
/// the first socket exists, and the server starts serving on
/// construction. drain() is the SIGTERM path — stop accepting, stop
/// reading, answer every frame already parsed, flush, close, join
/// (idempotent; the destructor drains if the caller didn't).
/// tables().reload() is the SIGHUP path — frames in flight finish on the
/// generation they were submitted to (kept alive by shared ownership),
/// new frames route on the new image, and no response is ever dropped or
/// torn by a swap (test_net pins this).
class Server {
 public:
  /// Takes ownership of the frozen image (FrozenScheme is move-only) and
  /// starts accepting immediately. Throws std::invalid_argument for a
  /// malformed options.replica_of, std::runtime_error when the socket
  /// cannot be bound, and what TableService's WAL recovery throws.
  explicit Server(serve::FrozenScheme fs, NetServerOptions opt = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral one when options.port == 0).
  int port() const;

  /// Graceful shutdown: see class comment. Safe to call from any thread,
  /// including a signal-handling thread; returns once everything is
  /// closed and joined.
  void drain();

  /// The tables this server serves: the in-process door for updates,
  /// checkpoints and reloads (the same rules the wire frames meet).
  TableService& tables();

  /// tables().apply(updates), kept for the repo benchmark
  /// (perfbench/src/main.cc), which calls it by this name.
  UpdateAck apply_updates(std::span<const serve::EdgeUpdate> updates) {
    return tables().apply(updates);
  }

  /// Cumulative counters (the same numbers a kStats frame reports).
  WireStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nors::net

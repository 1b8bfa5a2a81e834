#pragma once

#include <cstdint>
#include <string>

#include "serve/wal.h"

namespace nors::net {

/// Every setting of the serving daemon. The transport (net::Server) reads
/// the socket, loop and admission fields; the table service
/// (net::TableService) reads the shard geometry and the §14 durability
/// and replication fields.
struct NetServerOptions {
  /// Bind address. Defaults to loopback; serving beyond the host is a
  /// deliberate choice.
  std::string host = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;

  /// Worker event loops. Connections are assigned round-robin at accept
  /// and stay pinned to their loop — no cross-loop locking on the hot
  /// path. Clamped to [1, hardware concurrency] like the serving pools
  /// (util::resolve_threads; NORS_THREADS_OVERSUBSCRIBE=1 opts out).
  int loops = 1;

  /// ShardedRouteServer geometry per generation (see serve/shard.h).
  int shards = 1;
  int cache_entries = 0;

  /// Per-connection in-flight window: at most this many unanswered frames
  /// may be pipelined on one connection. At the limit the loop simply
  /// stops reading that socket (level-triggered interest drop), so
  /// backpressure propagates to the client through TCP flow control and
  /// the server's memory stays bounded per connection.
  int window = 64;

  /// Second backpressure bound: when a connection's pending response
  /// bytes exceed this, reading stops until the client drains them.
  std::size_t outbuf_limit = 4u << 20;

  /// Graceful-drain deadline: after this many ms, connections that still
  /// cannot flush (a client that stopped reading) are closed anyway so
  /// drain() always terminates.
  int drain_timeout_ms = 5000;

  // ------------------------------------------- overload control (§12) --
  /// Global in-flight query budget: the sum of route queries submitted to
  /// the shards but not yet completed, across all connections and loops.
  /// A kRoute frame that would push the sum past the budget is rejected
  /// with a recoverable kOverloaded frame (carrying retry_after_ms)
  /// instead of queueing — under sustained overload the server sheds
  /// excess offered load and keeps serving at capacity rather than
  /// growing queues without bound. 0 = unlimited.
  std::int64_t max_inflight_queries = 0;

  /// Per-loop admission cap: a loop with this many pending responses
  /// (across its connections) sheds further route frames with
  /// kOverloaded. Bounds per-loop memory independently of how many
  /// connections split the per-connection window. 0 = unlimited.
  int max_pending_per_loop = 0;

  /// The retry-after hint (ms) carried by kOverloaded frames.
  int retry_after_ms = 25;

  /// Per-connection request deadline: if the response to the oldest
  /// in-flight request is still not computed after this many ms (a wedged
  /// shard, an injected stall), the connection is force-closed and
  /// counted in WireStats::timeouts — in-order delivery means nothing
  /// behind the head could be answered anyway. 0 = no deadline.
  int request_deadline_ms = 0;

  /// Slow-peer write-stall timer, the outbuf-cap companion: a connection
  /// whose pending output makes no write progress for this many ms (a
  /// peer that stopped reading) is force-closed and counted in
  /// WireStats::stalls. The outbuf cap bounds how much such a peer can
  /// queue; this timer bounds for how long. 0 = disabled.
  int stall_timeout_ms = 0;

  /// SO_SNDBUF for accepted sockets (0 = kernel default). Chiefly a
  /// chaos/test knob: a small send buffer makes a non-reading peer wedge
  /// the connection quickly instead of hiding behind megabytes of kernel
  /// buffering.
  int sndbuf_bytes = 0;

  // ---------------------------------- durability + replication (§14) --
  /// Write-ahead-log directory; empty = no WAL (applied updates die with
  /// the process, the pre-§14 behavior). With a WAL, construction first
  /// recovers: every logged batch is replayed over the image before the
  /// first socket is opened, so a rebooted daemon serves exactly what a
  /// never-crashed one would. Admitted kUpdate batches are appended (and
  /// synced, per `fsync`) *before* the new generation is published — a
  /// batch the log could not hold is shed with a recoverable kWalError
  /// frame and the old generation keeps serving.
  std::string wal_dir;
  serve::FsyncPolicy fsync = serve::FsyncPolicy::kAlways;
  std::uint32_t fsync_interval_ms = 100;
  std::uint64_t wal_segment_bytes = 64ull << 20;

  /// Auto-checkpoint cadence: after this many applied batches the table
  /// service runs checkpoint() on its own (0 = manual kCheckpoint frames
  /// only).
  std::int64_t checkpoint_every = 0;

  /// Where checkpoint() rebuilds the compacted frozen image (written to a
  /// temp file, fsynced, renamed over). Empty = no image rebuild; the WAL
  /// squash record alone carries the compaction.
  std::string image_path;

  /// "host:port" of a primary to follow (empty host = loopback; the port
  /// must lie in 1..65535, or the Server constructor throws
  /// std::invalid_argument). Non-empty makes this server a read-only
  /// replica: it subscribes to the primary's update stream, applies each
  /// batch at the primary's sequence number (logging it to its own WAL
  /// when one is configured), serves reads, and refuses local updates —
  /// kUpdate frames and TableService::apply() alike — with kReadOnly.
  /// Reconnects with backoff; a gap in the stream forces a fresh
  /// subscribe, which catches up via a snapshot batch.
  std::string replica_of;
};

}  // namespace nors::net

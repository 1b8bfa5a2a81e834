// Open-loop load generator for the repo benchmark.
//
// One phase = a precomputed schedule of frames, each with a due time, a
// connection and a payload (a slice of the query stream, an update batch,
// or a checkpoint). One spinning thread drives it: whenever a frame is
// due it encodes it with the public net/wire.h codec and writes it to a
// non-blocking socket, and in between it drains every socket, parsing
// response frames in per-connection request order. Sends never wait on a
// receive (a full socket only delays the bytes; the frame's clock keeps
// running from its due time). Latency is measured from due time to
// decoded answer, so a stall also charges the frames queued behind it.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "serve/delta.h"
#include "serve/frozen.h"

namespace perfbench {

std::int64_t now_ns();

/// With at least two CPUs the last one is kept for the generator's thread
/// and the server's threads run on the rest, so the generator's schedule
/// does not queue behind the server it measures. A thread created after
/// this call inherits the mask.
enum class Cpus { kAll, kServer, kGenerator };
void pin_current_thread(Cpus which);

/// Steal time per CPU: time the hypervisor ran something else on this
/// VM's vCPUs. A thread on the generator's CPU samples it from /proc/stat
/// every few milliseconds while the object lives; without /proc/stat it
/// reads as zero.
class HostSteal {
 public:
  HostSteal();
  ~HostSteal();  // stops and joins the sampler
  HostSteal(const HostSteal&) = delete;
  HostSteal& operator=(const HostSteal&) = delete;

  /// The largest share of [a, b] (absolute ns) that any one CPU lost to
  /// steal, over the sampled interval that covers [a, b].
  double max_share(std::int64_t a, std::int64_t b) const;

 private:
  struct Sample {
    std::int64_t t;
    std::vector<long long> ticks;  // per CPU, in USER_HZ ticks
  };
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

enum class OpKind : std::uint8_t { kRead, kUpdate, kCheckpoint };

enum class OpStatus : std::uint8_t {
  kPending = 0,
  kOk,
  kError,      // kError / kOverloaded frame, bad payload, broken stream
  kTimedOut,   // no answer before the phase deadline
};

/// One scheduled frame and what happened to it.
struct Op {
  std::int64_t due_ns = 0;  // relative to the phase start
  std::uint32_t conn = 0;
  OpKind kind = OpKind::kRead;
  std::uint32_t off = 0;    // reads: first query; updates: batch index
  std::uint32_t len = 0;    // reads: query count
  std::int64_t send_start = 0, send_end = 0;  // absolute ns
  std::int64_t recv_start = 0, recv_end = 0;
  OpStatus status = OpStatus::kPending;
};

struct PhaseInput {
  std::vector<Op> ops;                            // sorted by due_ns
  const std::vector<nors::serve::Query>* queries = nullptr;
  const std::vector<std::vector<nors::serve::EdgeUpdate>>* batches = nullptr;
  /// Extra time after the last due time before unanswered frames count
  /// as timed out. Generous: a server that falls behind for a while (a
  /// slow spell of a shared host) is slow, not failed, and its backlog
  /// must be allowed to drain; only a server that stops answering fails.
  std::int64_t grace_ns = 30'000'000'000;
};

struct ThreadCpu {
  double user_s = 0, sys_s = 0;
  std::int64_t nvcsw = 0, nivcsw = 0;
};

struct PhaseOutput {
  std::int64_t t0 = 0;                          // absolute phase start
  std::vector<nors::serve::Decision> answers;   // indexed like queries
  std::int64_t max_outstanding_at_last_send = 0;
  ThreadCpu gen_cpu;                            // RUSAGE_THREAD delta
  bool stream_broken = false;                   // a connection failed
  /// Responses whose request id was not the one due next on their
  /// connection, and the first of them: {expected, received, connection}.
  std::int64_t misrouted = 0;
  std::array<std::int64_t, 3> first_misrouted{};
};

/// A set of open loopback connections to one server; kept across phases.
class Generator {
 public:
  Generator(int port, int conns);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase to completion (every frame answered or timed out).
  /// After a timed-out or broken phase the connections are replaced.
  PhaseOutput run(PhaseInput& in);

 private:
  void connect_all();

  int port_, conns_;
  std::vector<int> fds_;
};

}  // namespace perfbench

// The repo benchmark: builds a routing scheme, serves its frozen image from
// an in-process net::Server over loopback, drives one named workload from
// the open-loop generator (gen.h), checks every answer, and prints one
// result line for perfbench/run.py:
//
//   PERFBENCH_RESULT {"correct":..,"valid":..,"attempted":..,"failed":..,
//                     "e2e":{..},"layer":{..}}
//
// Every layer is reached through its public API only; the per-layer
// numbers come from timing those calls here, from Server::stats(), from
// getrusage(), and from the span file this program writes with --trace 1.
// The workload parameters arrive as flags (perfbench/workloads.json holds
// the frozen values; run.py passes them).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scheme.h"
#include "gen.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/shard.h"
#include "util/arena.h"
#include "util/random.h"

namespace fs = std::filesystem;
using namespace nors;
using perfbench::Cpus;
using perfbench::HostSteal;
using perfbench::now_ns;
using perfbench::Op;
using perfbench::OpKind;
using perfbench::OpStatus;
using perfbench::pin_current_thread;

namespace {

// ------------------------------------------------------------------ flags --

// The method's fixed parts (README.md, "One run"). They are the same for
// every workload; what differs between workloads arrives as flags
// (perfbench/workloads.json holds the frozen values, run.py passes them).
constexpr int kK = 3;                 // the scheme's k
constexpr int kPool = 4;              // construction threads, at most nproc
constexpr int kSetups = 3;            // timed set-ups; setup_s is their median
constexpr int kLoops = 1;             // server geometry: event loops,
constexpr int kShards = 2;            //   shard workers,
constexpr int kCacheEntries = 4096;   //   TableCache entries per shard,
constexpr int kWindow = 64;           //   per-connection pipeline window
constexpr double kNominalShare = 0.45;  // share of --seconds at the nominal rate
constexpr double kRungS = 0.8;        // length of one ladder rung
constexpr double kP99LimitUs = 20000;   // a rung passes with p99 at most this
constexpr double kLagLimitUs = 5000;    // generator lag p99 in a slice above
                                        //   this: the slice is not kept
constexpr double kStealLimit = 0.05;  // a CPU's steal share above this in a
                                      //   slice: the slice is not kept
constexpr double kRerunBudgetS = 20;  // phase time a run may spend on
                                      //   reruns of disturbed phases and rungs
constexpr double kZipfS = 1.0;        // Zipf exponent of skewed sources
constexpr int kUpdateEvents = 64;     // events per kUpdate batch
constexpr int kFailEvents = 8;        //   of which link fail/revive
constexpr int kCheckpointEvery = 100; // churn: a kCheckpoint per this many batches
constexpr const char* kFsync = "interval";  // churn: WAL fsync policy
constexpr double kWarmupS = 0.5;     // open-loop warm-up before timing
constexpr int kRefine = 2;           // ladder bisections past the first failure
constexpr int kSlices = 8;           // time slices for medians of quantiles
constexpr int kRungSlices = 4;       //   in one ladder rung
constexpr double kProbeS = 2;        // read workloads' update probe length
constexpr double kProbeRate = 1000;  // its kUpdate batches per second
constexpr int kStretchSources = 8, kStretchDests = 64;
constexpr int kDigestPairs = 4096;   // churn: routes compared after the run
constexpr int kChurnCheckFrames = 1024;  // churn: read frames checked per phase
constexpr int kReplayFrames = 20000; // traced run: frames replayed per layer
constexpr std::size_t kReplayQueries = 1 << 18;

/// The per-workload values; everything else is a constant above.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int n = 0;
  int conns = 0;
  int qpf_min = 0, qpf_max = 0;
  std::string sources = "uniform";  // or zipf
  int hot_set = 0;
  double hot_share = 0;
  double nominal_qps = 0;
  std::vector<double> ladder;
  double update_rate = 0;  // kUpdate batches per second in the window
  long long rounds_pin = -1;
  std::uint64_t instance_seed = 1;
  bool rounds_only = false;
  std::string work_dir = ".";
  std::string span_file;
};

Config parse_flags(int argc, char** argv) {
  Config c;
  std::map<std::string, std::function<void(const std::string&)>> set = {
      {"workload", [&](const std::string& v) { c.workload = v; }},
      {"seed", [&](const std::string& v) { c.seed = std::stoull(v); }},
      {"seconds", [&](const std::string& v) { c.seconds = std::stod(v); }},
      {"trace", [&](const std::string& v) { c.trace = v == "1"; }},
      {"n", [&](const std::string& v) { c.n = std::stoi(v); }},
      {"conns", [&](const std::string& v) { c.conns = std::stoi(v); }},
      {"qpf-min", [&](const std::string& v) { c.qpf_min = std::stoi(v); }},
      {"qpf-max", [&](const std::string& v) { c.qpf_max = std::stoi(v); }},
      {"sources", [&](const std::string& v) { c.sources = v; }},
      {"hot-set", [&](const std::string& v) { c.hot_set = std::stoi(v); }},
      {"hot-share", [&](const std::string& v) { c.hot_share = std::stod(v); }},
      {"nominal-qps",
       [&](const std::string& v) { c.nominal_qps = std::stod(v); }},
      {"ladder",
       [&](const std::string& v) {
         std::stringstream ss(v);
         std::string item;
         while (std::getline(ss, item, ',')) c.ladder.push_back(std::stod(item));
       }},
      {"update-rate",
       [&](const std::string& v) { c.update_rate = std::stod(v); }},
      {"rounds-pin", [&](const std::string& v) { c.rounds_pin = std::stoll(v); }},
      {"instance-seed",
       [&](const std::string& v) { c.instance_seed = std::stoull(v); }},
      {"rounds-only", [&](const std::string& v) { c.rounds_only = v == "1"; }},
      {"work-dir", [&](const std::string& v) { c.work_dir = v; }},
      {"span-file", [&](const std::string& v) { c.span_file = v; }},
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string val;
    if (a.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + a);
    a = a.substr(2);
    if (const auto eq = a.find('='); eq != std::string::npos) {
      val = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    }
    const auto it = set.find(a);
    if (it == set.end()) throw std::runtime_error("unknown flag --" + a);
    it->second(val);
  }
  if (c.workload.empty()) throw std::runtime_error("--workload is required");
  if (c.n < 2) throw std::runtime_error("--n must be at least 2");
  return c;
}

// ------------------------------------------------------------- statistics --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct ProcCpu {
  double user_s = 0, sys_s = 0;
  std::int64_t csw = 0;
};

ProcCpu proc_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
          ru.ru_nvcsw + ru.ru_nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------ spans --

struct Span {
  std::int64_t id = 0, parent = 0;
  const char* name = "";
  std::int64_t start = 0, end = 0;
  std::int64_t req = 0;
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  std::int64_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int64_t parent = 0, std::int64_t req = 0) {
    if (!on_) return 0;
    spans_.push_back({++next_, parent, name, start, end, req});
    return next_;
  }
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\treq\n");
    for (const auto& s : spans_) {
      std::fprintf(f, "%lld\t%lld\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.req));
    }
    std::fclose(f);
  }
  std::size_t size() const { return spans_.size(); }

 private:
  bool on_;
  std::int64_t next_ = 0;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- json output --

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":" + v);
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------- workloads --

/// Seeded query source: uniform pairs, or Zipf sources over a vertex
/// permutation with destinations drawn mostly from a small hot set.
class QuerySource {
 public:
  QuerySource(const Config& c, std::uint64_t seed) : c_(c), rng_(seed) {
    // The permutation and the hot set are fixed for the run; each phase
    // reseeds only the sampling.
    perm_.resize(static_cast<std::size_t>(c.n));
    for (int v = 0; v < c.n; ++v) perm_[static_cast<std::size_t>(v)] = v;
    rng_.shuffle(perm_);
    if (c.sources == "zipf") {
      cdf_.resize(perm_.size());
      double acc = 0;
      for (std::size_t r = 0; r < cdf_.size(); ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf_[r] = acc;
      }
      for (auto& x : cdf_) x /= acc;
    }
    for (int h = 0; h < c.hot_set; ++h) {
      hot_.push_back(static_cast<graph::Vertex>(
          rng_.uniform(static_cast<std::uint64_t>(c.n))));
    }
  }

  void reseed(std::uint64_t seed) { rng_ = util::Rng(seed); }

  serve::Query next() {
    for (;;) {
      graph::Vertex u;
      if (!cdf_.empty()) {
        const double x = rng_.uniform01();
        const auto r = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
        u = perm_[std::min(r, perm_.size() - 1)];
      } else {
        u = uniform_vertex();
      }
      graph::Vertex v;
      if (!hot_.empty() && rng_.uniform01() < c_.hot_share) {
        v = hot_[rng_.uniform(hot_.size())];
      } else {
        v = uniform_vertex();
      }
      if (u != v) return {u, v};
    }
  }

  int frame_size() {
    return c_.qpf_min +
           static_cast<int>(rng_.uniform(
               static_cast<std::uint64_t>(c_.qpf_max - c_.qpf_min + 1)));
  }

  double exp_gap(double rate) {
    return -std::log(1.0 - rng_.uniform01()) / rate;
  }

 private:
  graph::Vertex uniform_vertex() {
    return static_cast<graph::Vertex>(
        rng_.uniform(static_cast<std::uint64_t>(c_.n)));
  }
  const Config& c_;
  util::Rng rng_;
  std::vector<graph::Vertex> perm_;
  std::vector<double> cdf_;
  std::vector<graph::Vertex> hot_;
};

struct PoolEdge {
  graph::Vertex u, v;
  graph::Dist w;
};

/// Seeded, pairwise-disjoint edge pools for the churn stream.
void pick_edges(const graph::WeightedGraph& g, util::Rng& rng,
                std::size_t weight_count, std::size_t fail_count,
                std::vector<PoolEdge>& weights, std::vector<PoolEdge>& fails) {
  std::vector<std::pair<graph::Vertex, graph::Vertex>> seen;
  auto pick = [&](std::size_t count, std::vector<PoolEdge>& out) {
    while (out.size() < count) {
      const auto u = static_cast<graph::Vertex>(
          rng.uniform(static_cast<std::uint64_t>(g.n())));
      const auto nb = g.neighbors(u);
      if (nb.empty()) continue;
      const auto& he = nb[rng.uniform(nb.size())];
      const std::pair<graph::Vertex, graph::Vertex> key = std::minmax(u, he.to);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      out.push_back({key.first, key.second, he.w});
    }
  };
  pick(weight_count, weights);
  pick(fail_count, fails);
}

/// Batch b of the churn stream: even batches double a stride of weights
/// and fail a few links, the following odd batch restores and revives
/// exactly those, so the journal keeps converging back to the image.
std::vector<serve::EdgeUpdate> churn_batch(std::int64_t b, int events,
                                           int fail_events,
                                           const std::vector<PoolEdge>& wpool,
                                           const std::vector<PoolEdge>& fpool) {
  std::vector<serve::EdgeUpdate> batch;
  const bool apply = b % 2 == 0;
  const auto half = static_cast<std::size_t>(b / 2);
  const int weight_events = events - fail_events;
  for (int i = 0; i < weight_events; ++i) {
    const auto& e = wpool[(half * static_cast<std::size_t>(weight_events) +
                           static_cast<std::size_t>(i)) %
                          wpool.size()];
    batch.push_back(serve::EdgeUpdate::weight(e.u, e.v, apply ? 2 * e.w : e.w));
  }
  for (int j = 0; j < fail_events; ++j) {
    const auto& e = fpool[(half * static_cast<std::size_t>(fail_events) +
                           static_cast<std::size_t>(j)) %
                          fpool.size()];
    batch.push_back(apply ? serve::EdgeUpdate::fail(e.u, e.v)
                          : serve::EdgeUpdate::weight(e.u, e.v, e.w));
  }
  return batch;
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 1469598103934665603ull;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i + 8 <= got; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, buf.data() + i, 8);
      h = (h ^ w) * 1099511628211ull;
    }
    for (std::size_t i = got - got % 8; i < got; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

bool same_decision(const serve::Decision& a, const serve::Decision& b) {
  return a.ok == b.ok && a.length == b.length && a.hops == b.hops &&
         a.tree_root == b.tree_root && a.via_trick == b.via_trick;
}

/// Runs fn(i) for i in [0, count) on `threads` threads.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> pool;
  const std::size_t per = (count + static_cast<std::size_t>(threads) - 1) /
                          static_cast<std::size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::size_t lo = per * static_cast<std::size_t>(t);
    const std::size_t hi = std::min(count, lo + per);
    if (lo >= hi) break;
    pool.emplace_back([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// ------------------------------------------------------------ the run --

struct PhaseStats {
  std::vector<double> read_lat_us, send_lat_us, ckpt_lat_us, lag_us;
  std::int64_t frames = 0, queries = 0, answered_queries = 0, failed = 0;
  std::int64_t attempted = 0;
  double span_s = 0;  // first due → last answer
  double achieved_qps = 0, offered_qps = 0;
  std::int64_t outstanding = 0;
};

/// The latency a failed frame counts with: it misses every limit.
constexpr double kMissed = 1e300;

PhaseStats summarize(const perfbench::PhaseInput& in,
                     const perfbench::PhaseOutput& out) {
  PhaseStats s;
  std::int64_t last_recv = out.t0, last_send = out.t0;
  for (const Op& op : in.ops) {
    ++s.attempted;
    const std::int64_t due = out.t0 + op.due_ns;
    if (op.send_start > 0) {
      s.lag_us.push_back(static_cast<double>(op.send_start - due) / 1e3);
      last_send = std::max(last_send, op.send_start);
    }
    if (op.kind == OpKind::kRead) {
      ++s.frames;
      s.queries += op.len;
    }
    if (op.status != OpStatus::kOk) {
      ++s.failed;
      if (op.kind == OpKind::kRead) s.read_lat_us.push_back(kMissed);
      continue;
    }
    last_recv = std::max(last_recv, op.recv_end);
    const double lat = static_cast<double>(op.recv_end - due) / 1e3;
    if (op.kind == OpKind::kRead) {
      s.read_lat_us.push_back(lat);
      s.send_lat_us.push_back(static_cast<double>(op.recv_end - op.send_start) /
                              1e3);
      s.answered_queries += op.len;
    } else if (op.kind == OpKind::kCheckpoint) {
      s.ckpt_lat_us.push_back(
          static_cast<double>(op.recv_end - op.send_start) / 1e9);
    }
  }
  s.span_s = static_cast<double>(last_recv - out.t0) / 1e9;
  if (s.span_s > 0) {
    s.achieved_qps = static_cast<double>(s.answered_queries) / s.span_s;
  }
  const double send_span = static_cast<double>(last_send - out.t0) / 1e9;
  if (send_span > 0) {
    s.offered_qps = static_cast<double>(s.queries) / send_span;
  }
  s.outstanding = out.max_outstanding_at_last_send;
  return s;
}

/// The latencies of one kind of frame in equal slices (by due time) of one
/// or more phases. A slice is kept only if no CPU lost more than
/// kStealLimit of it to the hypervisor (HostSteal) and the generator kept
/// its schedule in it (lag p99 at most kLagLimitUs): either disturbance
/// would be charged to the server, since latency runs from the due time.
/// Host steal is tested first, since it also delays the generator; a
/// slice the generator was late in on a calm host is its own failure.
/// A quantile is the median over the kept slices of each slice's quantile,
/// so one stall moves one slice, not the figure. A rerun of a phase adds
/// its slices to the earlier ones.
struct Slices {
  explicit Slices(int per_phase) : per_phase(per_phase) {}

  int per_phase;
  std::vector<std::vector<double>> kept;
  std::vector<std::vector<double>> stolen;  // dropped for steal alone
  int total = 0, lag_dropped = 0;

  void add(const perfbench::PhaseInput& in, const perfbench::PhaseOutput& out,
           OpKind kind, const perfbench::HostSteal& host) {
    if (in.ops.empty()) return;
    const std::int64_t span = in.ops.back().due_ns + 1;
    const auto n = static_cast<std::size_t>(per_phase);
    std::vector<std::vector<double>> lat(n), lag(n);
    for (const Op& op : in.ops) {
      const auto s = static_cast<std::size_t>(op.due_ns * per_phase / span);
      if (op.send_start > 0) {
        lag[s].push_back(
            static_cast<double>(op.send_start - out.t0 - op.due_ns) / 1e3);
      }
      if (op.kind != kind) continue;
      lat[s].push_back(op.status == OpStatus::kOk
                           ? static_cast<double>(op.recv_end - out.t0 -
                                                 op.due_ns) / 1e3
                           : kMissed);
    }
    for (std::size_t s = 0; s < n; ++s) {
      ++total;
      const std::int64_t a =
          out.t0 + span * static_cast<std::int64_t>(s) / per_phase;
      const std::int64_t b =
          out.t0 + span * static_cast<std::int64_t>(s + 1) / per_phase;
      if (host.max_share(a, b) > kStealLimit) {
        if (!lat[s].empty()) stolen.push_back(std::move(lat[s]));
      } else if (quantile(lag[s], 0.99) > kLagLimitUs) {
        ++lag_dropped;
      } else if (!lat[s].empty()) {
        kept.push_back(std::move(lat[s]));
      }
    }
  }

  /// At least half a phase's worth of slices kept.
  bool enough() const { return 2 * static_cast<int>(kept.size()) >= per_phase; }

  /// The generator missed its schedule on a calm host in most slices: its
  /// figures would measure the generator.
  bool generator_failed() const { return 2 * lag_dropped > total; }

  /// From the kept slices; with none kept (the host stole from every
  /// slice until reruns ran out), from the slices dropped for steal.
  double quantile_of(double q) const {
    std::vector<double> per_slice;
    for (const auto& l : kept.empty() ? stolen : kept) {
      per_slice.push_back(quantile(l, q));
    }
    return median(std::move(per_slice));
  }
};

struct Run {
  Config c;
  Spans spans;
  std::vector<std::string> problems;  // failed correctness checks
  std::int64_t attempted = 0, failed = 0;
  Json e2e, layer;

  explicit Run(Config cfg) : c(std::move(cfg)), spans(c.trace) {}

  void check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// The fixed server geometry; churn adds a WAL in `wal_dir` (emptied
/// first) and a checkpoint image path.
net::NetServerOptions server_options(const Config& c,
                                     const std::string& wal_dir = "") {
  net::NetServerOptions opt;
  opt.loops = kLoops;
  opt.shards = kShards;
  opt.cache_entries = kCacheEntries;
  opt.window = kWindow;
  if (!wal_dir.empty()) {
    fs::remove_all(wal_dir);
    fs::create_directories(wal_dir);
    opt.wal_dir = wal_dir;
    opt.fsync = serve::parse_fsync_policy(kFsync);
    opt.image_path = c.work_dir + "/checkpoint.frozen";
  }
  return opt;
}

int run_benchmark(Run& R) {
  const Config& c = R.c;
  fs::create_directories(c.work_dir);
  const std::string img = c.work_dir + "/image.frozen";
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int pool = std::min(kPool, nproc);
  const bool churn = c.update_rate > 0;
  const std::string wal_dir = churn ? c.work_dir + "/wal" : "";

  // ---- input graph (excluded from set-up time) ---------------------------
  // The instance (graph and scheme) is fixed per workload, so image size,
  // memory and round counts are properties of the code, not of the seed;
  // --seed drives everything the traffic is made of.
  util::Rng instance(c.instance_seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  util::Rng master(c.seed * 0x9e3779b97f4a7c15ull + 0x7a3);
  util::Rng graph_rng = instance.fork(1);
  const auto g = graph::connected_gnm(c.n, 3LL * c.n,
                                      graph::WeightSpec::uniform(1, 32),
                                      graph_rng);
  std::printf("graph: n=%d m=%lld (instance seed %llu)\n", g.n(),
              static_cast<long long>(g.m()),
              static_cast<unsigned long long>(c.instance_seed));

  // ---- set-up, repeated; the last one stays up ---------------------------
  core::SchemeParams params;
  params.k = kK;
  params.seed = instance.fork(2).next();
  params.threads = pool;
  if (c.rounds_only) {  // pins.json maintenance (perfbench/pin.py)
    const auto scheme = core::RoutingScheme::build(g, params);
    std::printf("PERFBENCH_ROUNDS %lld\n",
                static_cast<long long>(scheme.total_rounds()));
    return 0;
  }
  std::vector<double> setup_s, build_s, freeze_s, save_s, map_s, boot_s;
  std::int64_t rounds = -1, messages = -1;
  std::uint64_t image_hash = 0;
  double image_mib = 0, stretch_bound = 0, mapped_mb = 0, reuse_pct = 0;
  std::unique_ptr<net::Server> server;
  for (int r = 0; r < kSetups; ++r) {
    server.reset();
    const auto a0 = util::SlabPool::global().stats();
    const std::int64_t t0 = now_ns();
    auto scheme = core::RoutingScheme::build(g, params);
    const std::int64_t t1 = now_ns();
    const auto a1 = util::SlabPool::global().stats();
    auto frozen = serve::FrozenScheme::freeze(scheme);
    const std::int64_t t2 = now_ns();
    frozen.save_file(img);
    const std::int64_t t3 = now_ns();
    auto mapped = serve::FrozenScheme::map(img);
    const std::int64_t t4 = now_ns();
    pin_current_thread(Cpus::kServer);  // the server's threads inherit it
    server = std::make_unique<net::Server>(std::move(mapped),
                                           server_options(c, wal_dir));
    pin_current_thread(Cpus::kAll);
    {
      net::Client first("127.0.0.1", server->port());
      const auto d = first.route({{0, static_cast<graph::Vertex>(c.n - 1)}});
      R.check(d.size() == 1, "set-up probe query answered");
    }
    const std::int64_t t5 = now_ns();
    const std::int64_t parent = R.spans.add("setup", t0, t5, 0, r);
    R.spans.add("core.build", t0, t1, parent, r);
    R.spans.add("frozen.freeze", t1, t2, parent, r);
    R.spans.add("frozen.save", t2, t3, parent, r);
    R.spans.add("frozen.map", t3, t4, parent, r);
    R.spans.add("server.boot", t4, t5, parent, r);
    setup_s.push_back(static_cast<double>(t5 - t0) / 1e9);
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    freeze_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    save_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    map_s.push_back(static_cast<double>(t4 - t3) / 1e9);
    boot_s.push_back(static_cast<double>(t5 - t4) / 1e9);

    // Construction is deterministic: every repeat must agree exactly.
    std::int64_t msgs = 0;
    for (const auto& e : scheme.ledger().entries()) msgs += e.messages;
    const std::uint64_t h = file_hash(img);
    if (r == 0) {
      rounds = scheme.total_rounds();
      messages = msgs;
      image_hash = h;
      image_mib = static_cast<double>(fs::file_size(img)) / (1024.0 * 1024.0);
      stretch_bound = scheme.stretch_bound();
      mapped_mb = static_cast<double>(a1.bytes_mapped - a0.bytes_mapped) /
                  (1024.0 * 1024.0);
      const double reused = static_cast<double>(a1.bytes_reused - a0.bytes_reused);
      const double fresh = static_cast<double>(a1.bytes_mapped - a0.bytes_mapped);
      reuse_pct = reused + fresh > 0 ? 100.0 * reused / (reused + fresh) : 0;
    } else {
      R.check(scheme.total_rounds() == rounds && msgs == messages,
              "repeated construction gives the same round ledger");
      R.check(h == image_hash, "repeated construction gives the same image");
    }
    std::printf(
        "setup %d: build %.3fs freeze %.3fs save %.3fs map %.3fs boot %.3fs "
        "= %.3fs\n",
        r, build_s.back(), freeze_s.back(), save_s.back(), map_s.back(),
        boot_s.back(), setup_s.back());
  }
  util::SlabPool::global().trim();
  {  // the image's write-back must not land inside the measured window
    const int fd = ::open(img.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fdatasync(fd);
      ::close(fd);
    }
  }
  std::printf("rounds %lld messages %lld image %.3f MiB stretch bound %.4f\n",
              static_cast<long long>(rounds), static_cast<long long>(messages),
              image_mib, stretch_bound);
  if (c.rounds_pin >= 0) {
    R.check(rounds == c.rounds_pin,
            "congest.rounds equals the value pinned for this workload (" +
                std::to_string(rounds) + " vs " +
                std::to_string(c.rounds_pin) + ")");
  }

  // The reference image: the same file, mapped in-process.
  const auto ref = serve::FrozenScheme::map(img);

  // ---- workload inputs ---------------------------------------------------
  std::vector<PoolEdge> wpool, fpool;
  {
    util::Rng er = master.fork(3);
    pick_edges(g, er, 512, 64, wpool, fpool);
  }
  std::vector<std::vector<serve::EdgeUpdate>> batches;  // by batch index
  std::vector<serve::EdgeUpdate> noop;  // frozen weights: changes nothing
  for (int i = 0; i < kUpdateEvents; ++i) {
    const auto& e = wpool[static_cast<std::size_t>(i) % wpool.size()];
    noop.push_back(serve::EdgeUpdate::weight(e.u, e.v, e.w));
  }

  // At most nproc connections in all; the last one carries admin frames.
  const int read_conns = std::max(1, std::min(c.conns, nproc - 1));
  const int admin = read_conns;
  perfbench::Generator gen(server->port(), read_conns + 1);
  std::printf(
      "serving on 127.0.0.1:%d: loops=%d shards=%d cache_entries=%d "
      "window=%d | generator: 1 thread, %d read connections + 1 admin\n",
      server->port(), kLoops, kShards, kCacheEntries, kWindow, read_conns);
  Json stamp;  // where and how the figures were made; run.py adds the rest
  stamp.num("n", c.n)
      .num("k", kK)
      .num("pool", pool)
      .num("setups", kSetups)
      .num("loops", kLoops)
      .num("shards", kShards)
      .num("cache_entries", kCacheEntries)
      .num("window", kWindow)
      .num("generator_threads", 1)
      .num("read_conns", read_conns)
      .num("admin_conns", 1)
      .num("nominal_qps", c.nominal_qps)
      .num("p99_limit_us", kP99LimitUs)
      .num("lag_limit_us", kLagLimitUs)
      .num("instance_seed", static_cast<double>(c.instance_seed));
  std::printf("PERFBENCH_STAMP %s\n", stamp.dump().c_str());

  QuerySource src(c, master.fork(7).next());
  std::int64_t phase_no = 0;
  std::int64_t next_batch = 0;
  std::vector<std::int64_t> acked_batches;  // batch indices, in apply order
  // Admin traffic beside the reads: none, the churn stream, or the no-op
  // probe (every event restates a frozen weight, so no answer changes).
  enum class Admin { kNone, kChurn, kProbe };
  batches.push_back(noop);
  const auto noop_idx = static_cast<std::uint32_t>(batches.size() - 1);
  auto make_phase = [&](double qps, double secs, Admin admin_ops) {
    perfbench::PhaseInput in;
    auto qs = std::make_shared<std::vector<serve::Query>>();
    src.reseed(master.fork(100 + static_cast<std::uint64_t>(phase_no++)).next());
    const double mean_qpf = 0.5 * (c.qpf_min + c.qpf_max);
    const double frame_rate = qps / mean_qpf;
    const auto horizon = static_cast<std::int64_t>(secs * 1e9);
    double t = src.exp_gap(frame_rate);
    std::uint32_t frame = 0;
    while (static_cast<std::int64_t>(t * 1e9) < horizon) {
      Op op;
      op.due_ns = static_cast<std::int64_t>(t * 1e9);
      op.conn = frame++ % static_cast<std::uint32_t>(read_conns);
      op.kind = OpKind::kRead;
      op.off = static_cast<std::uint32_t>(qs->size());
      op.len = static_cast<std::uint32_t>(src.frame_size());
      for (std::uint32_t i = 0; i < op.len; ++i) qs->push_back(src.next());
      in.ops.push_back(op);
      t += src.exp_gap(frame_rate);
    }
    if (admin_ops == Admin::kProbe) {
      const auto gap = static_cast<std::int64_t>(1e9 / kProbeRate);
      for (std::int64_t due = gap / 2; due < horizon; due += gap) {
        Op op;
        op.due_ns = due;
        op.conn = static_cast<std::uint32_t>(admin);
        op.kind = OpKind::kUpdate;
        op.off = noop_idx;
        in.ops.push_back(op);
      }
    }
    if (admin_ops == Admin::kChurn) {
      const auto gap = static_cast<std::int64_t>(1e9 / c.update_rate);
      for (std::int64_t due = gap / 2; due < horizon; due += gap) {
        const std::int64_t b = next_batch++;
        batches.push_back(
            churn_batch(b, kUpdateEvents, kFailEvents, wpool, fpool));
        Op op;
        op.due_ns = due;
        op.conn = static_cast<std::uint32_t>(admin);
        op.kind = OpKind::kUpdate;
        op.off = static_cast<std::uint32_t>(batches.size() - 1);
        in.ops.push_back(op);
        if ((b + 1) % kCheckpointEvery == 0) {
          op.kind = OpKind::kCheckpoint;
          op.due_ns = due + 1;
          in.ops.push_back(op);
        }
      }
    }
    std::stable_sort(in.ops.begin(), in.ops.end(),
                     [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });
    in.batches = &batches;
    return std::make_pair(std::move(in), qs);
  };

  // The delta after every acked batch so far (nullptr: the bare image),
  // replayed in-process with DeltaSet::apply, and how many checked read
  // frames were answered while it held live overrides.
  std::shared_ptr<const serve::DeltaSet> live;
  std::int64_t live_checked = 0;

  // Every read answer is compared with the in-process route on the same
  // image, after the phase and outside its timed window. Beside updates a
  // frame is compared under the delta it was answered with: the server
  // publishes a batch's generation before acking it, so a frame sent after
  // batch i's ack arrived and answered before batch i+1 was sent was
  // admitted under exactly the state after batch i. Frames that straddle a
  // batch are not checked; of the others, churn checks an even sample of
  // at most kChurnCheckFrames per phase. Returns the wrong frames.
  auto check_phase = [&](const perfbench::PhaseInput& in,
                         const perfbench::PhaseOutput& out,
                         const std::vector<serve::Query>& qs) {
    std::vector<const Op*> ups;  // in send order (one admin connection)
    std::vector<std::shared_ptr<const serve::DeltaSet>> after{live};
    for (const Op& op : in.ops) {
      if (op.kind != OpKind::kUpdate) continue;
      ups.push_back(&op);
      if (op.status == OpStatus::kOk) {
        acked_batches.push_back(op.off);
        live = serve::DeltaSet::apply(ref, live.get(),
                                      batches[static_cast<std::size_t>(op.off)]);
      }
      after.push_back(live);  // after[u]: the state after the first u updates
    }
    std::vector<const serve::DeltaSet*> under(in.ops.size(), nullptr);
    std::vector<char> checked(in.ops.size(), 0);
    std::int64_t eligible = 0;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      if (op.kind != OpKind::kRead || op.status != OpStatus::kOk) continue;
      std::size_t u = 0;  // updates acked before this frame was sent
      while (u < ups.size() && ups[u]->status == OpStatus::kOk &&
             ups[u]->recv_start <= op.send_start) {
        ++u;
      }
      if (u < ups.size() && ups[u]->send_start != 0 &&
          ups[u]->send_start < op.recv_start) {
        continue;  // the next batch may have landed before admission
      }
      under[i] = after[u].get();
      checked[i] = 1;
      ++eligible;
    }
    const std::int64_t stride =
        churn ? std::max<std::int64_t>(1, eligible / kChurnCheckFrames) : 1;
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      if (!checked[i]) continue;
      if (seen++ % stride != 0) {
        checked[i] = 0;
      } else if (under[i] != nullptr && under[i]->override_count() > 0) {
        ++live_checked;
      }
    }
    std::vector<char> bad(in.ops.size(), 0);
    parallel_for(in.ops.size(), std::max(1, std::min(4, nproc)),
                 [&](std::size_t i) {
                   if (!checked[i]) return;
                   const Op& op = in.ops[i];
                   for (std::uint32_t j = op.off; j < op.off + op.len; ++j) {
                     const auto want =
                         under[i] != nullptr
                             ? ref.route_overlay(qs[j].u, qs[j].v, *under[i])
                             : ref.route(qs[j].u, qs[j].v);
                     if (!same_decision(out.answers[j], want)) {
                       bad[i] = 1;
                       return;
                     }
                   }
                 });
    std::int64_t wrong = 0;
    for (const char b : bad) wrong += b;
    R.check(wrong == 0, std::to_string(wrong) +
                            " read frames differ from the in-process route");
    return wrong;
  };

  const Admin window_admin = churn ? Admin::kChurn : Admin::kNone;
  auto run_phase = [&](double qps, double secs, Admin admin_ops,
                       const char* label) {
    auto [in, qs] = make_phase(qps, secs, admin_ops);
    in.queries = qs.get();
    const ProcCpu p0 = proc_cpu();
    auto out = gen.run(in);
    const ProcCpu p1 = proc_cpu();
    const PhaseStats s = summarize(in, out);
    const std::int64_t wrong = check_phase(in, out, *qs);
    R.attempted += s.attempted;
    R.failed += s.failed + wrong;
    std::printf(
        "%-10s offered %9.0f q/s (target %9.0f) answered %9.0f q/s | frame "
        "p50 %8.1fus p99 %8.1fus | lag p99 %6.1fus | failed %lld/%lld\n",
        label, s.offered_qps, qps, s.achieved_qps,
        quantile(s.read_lat_us, 0.5), quantile(s.read_lat_us, 0.99),
        quantile(s.lag_us, 0.99), static_cast<long long>(s.failed + wrong),
        static_cast<long long>(s.attempted));
    if (out.stream_broken) R.check(false, std::string(label) + ": stream broke");
    if (out.misrouted > 0) {
      R.check(false, std::string(label) + ": " +
                         std::to_string(out.misrouted) +
                         " responses carried another request's id (first: "
                         "expected " +
                         std::to_string(out.first_misrouted[0]) + ", got " +
                         std::to_string(out.first_misrouted[1]) +
                         " on connection " +
                         std::to_string(out.first_misrouted[2]) + ")");
    }
    struct Result {
      perfbench::PhaseInput in;
      std::shared_ptr<std::vector<serve::Query>> qs;
      perfbench::PhaseOutput out;
      PhaseStats s;
      ProcCpu cpu0, cpu1;
      std::int64_t wrong;
    };
    return Result{std::move(in), qs, std::move(out), s, p0, p1, wrong};
  };

  // Before any timing: a closed-loop sweep that routes from and to every
  // vertex (so the server's image pages are faulted in, as in a long-lived
  // daemon), then a short open-loop phase at the nominal rate.
  auto warm_up = [&] {
    util::Rng wr = master.fork(6);
    std::vector<serve::Query> sweep;
    for (int v = 0; v < c.n; ++v) {
      auto w = static_cast<graph::Vertex>(
          wr.uniform(static_cast<std::uint64_t>(c.n)));
      if (w == v) w = (w + 1) % c.n;
      sweep.push_back({v, w});
      sweep.push_back({w, v});
    }
    net::Client cl("127.0.0.1", server->port());
    const auto got = cl.route(sweep);
    R.check(got.size() == sweep.size(), "warm-up sweep answered");
    run_phase(c.nominal_qps, kWarmupS, Admin::kNone, "warm-up");
  };

  // A phase whose figures are read from kept slices (Slices) runs again
  // until, pooled over its runs, at least half a phase's worth of slices
  // was kept for every kind of frame it reports: a spell in which the
  // shared host stalls the generator or the server costs a rerun, not the
  // run. Reruns of phases and ladder rungs share kRerunBudgetS, so a long
  // spell costs a bounded time. Once it is spent, a phase whose generator
  // missed its schedule on a calm host in most slices makes the run
  // invalid; one the host stole from takes its figures from what was kept
  // (or from the stolen slices), and the log says so. Returns the last run.
  HostSteal host;
  bool gen_valid = true;
  double rerun_s = 0;
  auto run_kept = [&](double qps, double secs, Admin admin_ops,
                      const char* label, Slices* reads, Slices* acks) {
    for (;;) {
      auto r = run_phase(qps, secs, admin_ops, label);
      if (reads != nullptr) reads->add(r.in, r.out, OpKind::kRead, host);
      if (acks != nullptr) acks->add(r.in, r.out, OpKind::kUpdate, host);
      const Slices& shown = reads != nullptr ? *reads : *acks;
      std::printf("%-10s slices kept %zu of %d (dropped: %d generator lag, "
                  "%zu host steal); kept p50s (us):",
                  label, shown.kept.size(), shown.total, shown.lag_dropped,
                  shown.stolen.size());
      for (const auto& l : shown.kept) std::printf(" %.0f", quantile(l, 0.5));
      std::printf("\n");
      if ((reads == nullptr || reads->enough()) &&
          (acks == nullptr || acks->enough())) {
        return r;
      }
      if (rerun_s + secs > kRerunBudgetS) {
        if (shown.generator_failed()) gen_valid = false;
        std::printf("%-10s too few slices kept and the rerun budget is "
                    "spent\n",
                    label);
        return r;
      }
      rerun_s += secs;
      std::printf("%-10s too few slices kept: running the phase again\n",
                  label);
    }
  };

  // ---- the measured window -----------------------------------------------
  if (!c.trace) {
    warm_up();
    Slices reads(kSlices), acks(kSlices);
    auto nominal =
        run_kept(c.nominal_qps, c.seconds * kNominalShare, window_admin,
                 "nominal", &reads, churn ? &acks : nullptr);
    R.e2e.num("read_p50_us", reads.quantile_of(0.5));
    if (churn) R.e2e.num("update_ack_p50_us", acks.quantile_of(0.5));
    // Rate ladder: the highest rate whose p99 meets the limit with no
    // failures and no growing backlog, as the generator measured it
    // offered (answered-per-span would charge the drain tail). The p99 is the median of per-slice
    // p99s, like every tail here: one host stall moves one slice, while a
    // rate over capacity grows the latency of every later slice (and the
    // backlog). A failing rung is run once more before it counts (one
    // scheduler hiccup on a shared box must not end the ladder); past the
    // first failing rung the gap to the last passing one is bisected
    // kRefine times. A rung that keeps fewer than half its slices (Slices)
    // is rerun from the rerun budget, not the ladder's. Once that is spent,
    // a rung the host stole from is judged on its stolen slices (the log
    // says so), while one in which the generator missed its schedule on a
    // calm host is invalid, not failed: it would measure the generator, and
    // the ladder stops there and says so.
    enum class Rung { kPass, kFail, kInvalid, kOutOfTime };
    const double mean_qpf = 0.5 * (c.qpf_min + c.qpf_max);
    const double budget = c.seconds * (1.0 - kNominalShare);
    double spent = 0;
    auto attempt = [&](double rate, double& offered) {
      Rung res = Rung::kOutOfTime;
      for (int fails = 0; fails < 2;) {
        if (spent + kRungS > budget + 1e-9) return res;
        auto r = run_phase(rate, kRungS, window_admin, "rung");
        Slices rs(kRungSlices);
        rs.add(r.in, r.out, OpKind::kRead, host);
        if (!rs.enough()) {
          const bool rerun = rerun_s + kRungS <= kRerunBudgetS;
          const bool usable = !rs.generator_failed() &&
                              !(rs.kept.empty() && rs.stolen.empty());
          std::printf("rung %.0f q/s: %d of %d slices dropped for generator "
                      "lag, %zu for host steal (offered %.0f q/s): %s\n",
                      rate, rs.lag_dropped, kRungSlices, rs.stolen.size(),
                      r.s.offered_qps,
                      rerun    ? "running it again"
                      : usable ? "judged on what it has"
                               : "invalid");
          if (rerun) {
            rerun_s += kRungS;
            continue;
          }
          if (!usable) return Rung::kInvalid;
        }
        spent += kRungS;
        const double frame_rate = rate / mean_qpf;
        const bool backlog_ok =
            static_cast<double>(r.s.outstanding) <=
            std::max(8.0, 2.0 * frame_rate * kP99LimitUs * 1e-6);
        if (r.s.failed + r.wrong == 0 && backlog_ok &&
            rs.quantile_of(0.99) <= kP99LimitUs) {
          offered = r.s.offered_qps;
          return Rung::kPass;
        }
        res = Rung::kFail;
        ++fails;
      }
      return res;
    };
    // The nominal phase is the ladder's first rung.
    double lo = 0, hi = 0, max_qps = 0;
    if (nominal.s.failed + nominal.wrong == 0 &&
        reads.quantile_of(0.99) <= kP99LimitUs) {
      lo = c.nominal_qps;
      max_qps = nominal.s.offered_qps;
    }
    Rung stop = Rung::kPass;  // why the ladder stopped; kPass: it ran out
    for (const double rung : c.ladder) {
      double offered = 0;
      stop = attempt(rung, offered);
      if (stop != Rung::kPass) {
        if (stop == Rung::kFail) hi = rung;
        break;
      }
      lo = rung;
      max_qps = offered;
    }
    // A host slow enough that even the nominal rate fails walks down.
    for (double rate = c.nominal_qps / 1.5;
         lo == 0 && rate > 1000 && stop == Rung::kFail; rate /= 1.5) {
      double offered = 0;
      const Rung r = attempt(rate, offered);
      if (r == Rung::kPass) {
        lo = rate;
        max_qps = offered;
      } else if (r != Rung::kFail) {
        stop = r;
      }
    }
    for (int i = 0; i < kRefine && lo > 0 && hi > lo && stop == Rung::kFail;
         ++i) {
      const double mid = std::sqrt(lo * hi);
      double offered = 0;
      const Rung r = attempt(mid, offered);
      if (r == Rung::kPass) {
        lo = mid;
        max_qps = offered;
      } else if (r == Rung::kFail) {
        hi = mid;
      } else {
        if (r == Rung::kInvalid) stop = r;
        break;  // out of time: the bisection ends, the ladder stood
      }
    }
    const char* why = stop == Rung::kFail      ? "a rung failed"
                      : stop == Rung::kInvalid ? "an invalid rung (generator lag)"
                      : stop == Rung::kOutOfTime ? "time budget spent"
                                                 : "ladder exhausted";
    std::printf("ladder: highest passing rate %.0f q/s (offered %.0f q/s), "
                "lowest failing %.0f q/s, %.2fs spent (%.2fs of reruns so "
                "far), stopped by %s\n",
                lo, max_qps, hi, spent, rerun_s, why);
    R.e2e.num("read_max_qps", max_qps);
  } else {
    // Traced run: an untraced half, then a traced half at the same rate;
    // the p50 difference is the tracing overhead. The frame spans are the
    // generator's own per-frame timestamps, which it keeps in memory in
    // both halves, so tracing adds no work on the request path and the
    // overhead should read as noise around zero.
    const double half = c.seconds / 2;
    warm_up();
    Slices plain_reads(kSlices), plain_acks(2);
    auto plain = run_kept(c.nominal_qps, half, window_admin, "untraced",
                          &plain_reads, churn ? &plain_acks : nullptr);
    auto traced = run_phase(c.nominal_qps, half, window_admin, "traced");
    const double lag_p99 = quantile(plain.s.lag_us, 0.99);
    const double p50_plain = quantile(plain.s.read_lat_us, 0.5);
    const double p50_traced = quantile(traced.s.read_lat_us, 0.5);

    // Frame spans: gen.frame [due, answer] with client.send and
    // client.recv children, from the generator's own timestamps.
    for (std::size_t i = 0; i < traced.in.ops.size(); ++i) {
      const Op& op = traced.in.ops[i];
      if (op.status != OpStatus::kOk) continue;
      const std::int64_t due = traced.out.t0 + op.due_ns;
      const char* name = op.kind == OpKind::kRead     ? "gen.frame"
                         : op.kind == OpKind::kUpdate ? "client.update"
                                                      : "client.checkpoint";
      const std::int64_t id = R.spans.add(name, due, op.recv_end, 0,
                                          static_cast<std::int64_t>(i));
      R.spans.add("client.send", op.send_start,
                  std::max(op.send_start, op.send_end), id,
                  static_cast<std::int64_t>(i));
      R.spans.add("client.recv", op.recv_start, op.recv_end, id,
                  static_cast<std::int64_t>(i));
    }

    // Process CPU over the untraced half, minus the generator thread.
    const auto& gc = plain.out.gen_cpu;
    const double gen_user = gc.user_s, gen_sys = gc.sys_s;
    const std::int64_t gen_csw = gc.nvcsw + gc.nivcsw;
    const double user = plain.cpu1.user_s - plain.cpu0.user_s - gen_user;
    const double sys = plain.cpu1.sys_s - plain.cpu0.sys_s - gen_sys;
    const double csw =
        static_cast<double>(plain.cpu1.csw - plain.cpu0.csw - gen_csw);
    const double answered =
        std::max<double>(1, static_cast<double>(plain.s.answered_queries));
    R.layer.num("proc.cpu_us_per_query", (user + sys) * 1e6 / answered);
    R.layer.num("proc.sys_share", user + sys > 0 ? sys / (user + sys) : 0);
    R.layer.num("proc.ctx_switches_per_frame",
                csw / std::max<double>(1, static_cast<double>(plain.s.frames)));
    R.layer.num("gen.lag_p99_us", lag_p99);
    R.layer.num("gen.offered_qps", plain.s.offered_qps);
    R.layer.num("read.p90_us", plain_reads.quantile_of(0.90));
    R.layer.num("read.p99_us", plain_reads.quantile_of(0.99));
    if (churn) R.layer.num("update.ack_p99_us", plain_acks.quantile_of(0.99));
    R.layer.num("trace.overhead_pct",
                p50_plain > 0 ? 100.0 * (p50_traced - p50_plain) / p50_plain
                              : 0);
    const double client_p50 = quantile(plain.s.send_lat_us, 0.5);
    const auto st = server->stats();
    R.layer.num("net.outside_server_us",
                client_p50 - static_cast<double>(st.p50_ns) / 1e3);
    if (churn) {
      R.layer.num("checkpoint.s", median(plain.s.ckpt_lat_us));
    }

    // ---- post-window replays of the workload's own inputs --------------
    const auto& tin = traced.in;
    const auto& tqs = *traced.qs;
    std::vector<const Op*> frames;
    for (const Op& op : tin.ops) {
      if (op.kind == OpKind::kRead &&
          frames.size() < static_cast<std::size_t>(kReplayFrames)) {
        frames.push_back(&op);
      }
    }
    {  // frozen: single-thread pipelined engine over the query stream
      const std::size_t total =
          std::min(tqs.size(), kReplayQueries);
      std::vector<serve::Decision> outd(total);
      serve::BatchStats bs;
      const std::size_t chunk = 4096;
      const std::int64_t t0 = now_ns();
      for (std::size_t lo = 0; lo < total; lo += chunk) {
        const std::size_t len = std::min(chunk, total - lo);
        const std::int64_t a = now_ns();
        ref.route_batch(tqs.data() + lo, len, outd.data() + lo, &bs);
        R.spans.add("frozen.route_batch", a, now_ns(), 0,
                    static_cast<std::int64_t>(lo));
      }
      const double ns = static_cast<double>(now_ns() - t0);
      R.layer.num("frozen.ns_per_query",
                  ns / std::max<double>(1, static_cast<double>(total)));
      R.layer.num("frozen.avg_hops",
                  static_cast<double>(bs.hops) /
                      std::max<double>(1, static_cast<double>(bs.completed)));
    }
    {  // shard: the server's geometry, one blocking serve() per frame
      serve::ShardedOptions so;
      so.shards = kShards;
      so.cache_entries = kCacheEntries;
      serve::ShardedRouteServer shard(ref, so);
      std::vector<serve::Decision> outd(tqs.size());
      std::int64_t q = 0;
      const std::int64_t t0 = now_ns();
      for (const Op* op : frames) {
        const std::int64_t a = now_ns();
        shard.serve(tqs.data() + op->off, op->len, outd.data() + op->off);
        R.spans.add("shard.serve", a, now_ns(), 0, op->off);
        q += op->len;
      }
      const double ns = static_cast<double>(now_ns() - t0);
      const auto tot = shard.totals();
      double lo = 1e300, hi = 0;
      for (int s = 0; s < shard.shards(); ++s) {
        const auto q_s = static_cast<double>(shard.shard_stats(s).queries);
        lo = std::min(lo, q_s);
        hi = std::max(hi, q_s);
      }
      R.layer.num("shard.ns_per_query", ns / std::max<double>(1, q));
      R.layer.num("shard.block_p99_us", tot.p99_us);
      R.layer.num("shard.balance", hi > 0 ? lo / hi : 0);
      const double looks = static_cast<double>(tot.cache_hits + tot.cache_misses);
      R.layer.num("cache.hit_pct",
                  looks > 0 ? 100.0 * static_cast<double>(tot.cache_hits) / looks
                            : 0);
    }
    {  // wire: request encode and response parse on the workload's frames
      std::vector<std::vector<std::uint8_t>> responses;
      std::vector<std::uint8_t> body, frame;
      std::int64_t bytes = 0, q = 0;
      std::vector<serve::Decision> ds;
      for (const Op* op : frames) {
        ds.resize(op->len);
        ref.route_batch(tqs.data() + op->off, op->len, ds.data());
        body.clear();
        net::encode_route_response(body, ds.data(), ds.size());
        responses.emplace_back();
        net::append_frame(responses.back(), net::FrameType::kRouteAck, 1, body);
      }
      double enc_ns = 0, parse_ns = 0;
      for (const Op* op : frames) {
        const std::int64_t a = now_ns();
        body.clear();
        frame.clear();
        net::encode_route_request(body, tqs.data() + op->off, op->len);
        net::append_frame(frame, net::FrameType::kRoute, 1, body);
        const std::int64_t b = now_ns();
        R.spans.add("wire.encode", a, b, 0, op->off);
        enc_ns += static_cast<double>(b - a);
        bytes += static_cast<std::int64_t>(frame.size());
        q += op->len;
      }
      for (const auto& resp : responses) {
        const std::int64_t a = now_ns();
        const auto pr = net::parse_frame(resp.data(), resp.size());
        const auto decoded = net::decode_route_response(pr.frame.body);
        const std::int64_t b = now_ns();
        R.spans.add("wire.parse", a, b);
        parse_ns += static_cast<double>(b - a);
        bytes += static_cast<std::int64_t>(resp.size());
        R.check(!decoded.empty(), "wire replay decodes");
      }
      const double nf = std::max<double>(1, static_cast<double>(frames.size()));
      R.layer.num("wire.encode_ns_per_frame", enc_ns / nf);
      R.layer.num("wire.parse_ns_per_frame", parse_ns / nf);
      R.layer.num("wire.bytes_per_query",
                  static_cast<double>(bytes) / std::max<double>(1, q));
    }
  }

  // ---- read workloads: the update ack path after the window --------------
  // The workload's reads at the nominal rate beside no-op kUpdate batches;
  // the read figures of this phase are not reported (each batch publishes
  // a generation), only its acks.
  if (!churn) {
    Slices acks(c.trace ? 2 : kSlices);
    auto probe = run_kept(c.nominal_qps, kProbeS, Admin::kProbe, "probe",
                          nullptr, &acks);
    if (c.trace) {
      for (const Op& op : probe.in.ops) {
        if (op.kind == OpKind::kUpdate && op.status == OpStatus::kOk) {
          R.spans.add("client.update", probe.out.t0 + op.due_ns, op.recv_end);
        }
      }
      std::vector<double> ck;
      net::Client cl("127.0.0.1", server->port());
      for (int i = 0; i < 3; ++i) {
        const std::int64_t a = now_ns();
        cl.checkpoint();
        const std::int64_t b = now_ns();
        R.spans.add("client.checkpoint", a, b);
        ck.push_back(static_cast<double>(b - a) / 1e9);
      }
      R.layer.num("checkpoint.s", median(ck));
      R.layer.num("update.ack_p99_us", acks.quantile_of(0.99));
    } else {
      R.e2e.num("update_ack_p50_us", acks.quantile_of(0.5));
    }
  }

  // ---- correctness: stretch sample against Dijkstra ----------------------
  {
    util::Rng sr = master.fork(4);
    double worst = 0;
    int pairs = 0;
    for (int s = 0; s < kStretchSources; ++s) {
      const auto u = static_cast<graph::Vertex>(
          sr.uniform(static_cast<std::uint64_t>(c.n)));
      const auto sp = graph::dijkstra(g, u);
      for (int d = 0; d < kStretchDests; ++d) {
        const auto v = static_cast<graph::Vertex>(
            sr.uniform(static_cast<std::uint64_t>(c.n)));
        const graph::Dist dist = sp.dist[static_cast<std::size_t>(v)];
        if (u == v || dist <= 0 || graph::is_inf(dist)) continue;
        const auto dec = ref.route(u, v);
        ++pairs;
        const double st = dec.ok ? static_cast<double>(dec.length) /
                                       static_cast<double>(dist)
                                 : 1e300;
        worst = std::max(worst, st);
      }
    }
    std::printf("stretch sample: %d pairs, worst %.4f (bound %.4f)\n", pairs,
                worst, stretch_bound);
    R.check(pairs > 0 && worst <= stretch_bound + 1e-9,
            "sampled stretch within stretch_bound()");
  }

  // ---- churn: digest of the live routes vs an in-process replay ----------
  // The stream alternates applying and reverting batches, so the window
  // may end with every override reverted; the digest is then taken after
  // one more applying batch, so it always compares live overrides.
  if (churn && (live == nullptr || live->override_count() == 0)) {
    batches.push_back(
        churn_batch(next_batch++, kUpdateEvents, kFailEvents, wpool, fpool));
    net::Client cl("127.0.0.1", server->port());
    cl.update(batches.back());
    acked_batches.push_back(static_cast<std::int64_t>(batches.size() - 1));
    live = serve::DeltaSet::apply(ref, live.get(), batches.back());
  }
  const auto stats = server->stats();
  std::vector<std::vector<serve::EdgeUpdate>> replay_batches;
  for (const std::int64_t b : acked_batches) {
    replay_batches.push_back(batches[static_cast<std::size_t>(b)]);
  }
  if (churn) {
    util::Rng dr = master.fork(5);
    std::vector<serve::Query> pairs;
    while (pairs.size() < static_cast<std::size_t>(kDigestPairs)) {
      const auto u = static_cast<graph::Vertex>(
          dr.uniform(static_cast<std::uint64_t>(c.n)));
      const auto v = static_cast<graph::Vertex>(
          dr.uniform(static_cast<std::uint64_t>(c.n)));
      if (u != v) pairs.push_back({u, v});
    }
    net::Client cl("127.0.0.1", server->port());
    const auto got = cl.route(pairs);
    std::int64_t diff = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto want = ref.route_overlay(pairs[i].u, pairs[i].v, *live);
      diff += same_decision(got[i], want) ? 0 : 1;
    }
    std::printf("churn digest: %zu pairs after %zu acked batches (%lld live "
                "overrides), %lld differ; %lld in-window frames checked under "
                "live overrides\n",
                pairs.size(), acked_batches.size(),
                static_cast<long long>(live->override_count()),
                static_cast<long long>(diff),
                static_cast<long long>(live_checked));
    R.check(live->override_count() > 0,
            "the churn digest is taken with live overrides");
    R.check(live_checked > 0,
            "some in-window reads were checked under live overrides");
    R.check(diff == 0, "live routes equal the in-process replay of the acked "
                       "batches");
    R.check(stats.wal_records == static_cast<std::int64_t>(acked_batches.size()),
            "wal.records (" + std::to_string(stats.wal_records) +
                ") equals the acked batches (" +
                std::to_string(acked_batches.size()) + ")");
  }

  // ---- shared outputs ----------------------------------------------------
  if (!c.trace) {
    R.e2e.num("setup_s", median(setup_s));
    R.e2e.num("image_mib", image_mib);
  } else {
    R.layer.num("core.build_s", median(build_s));
    R.layer.num("congest.rounds", static_cast<double>(rounds));
    R.layer.num("congest.messages", static_cast<double>(messages));
    R.layer.num("arena.mapped_mb", mapped_mb);
    R.layer.num("arena.reuse_pct", reuse_pct);
    R.layer.num("frozen.freeze_s", median(freeze_s));
    R.layer.num("frozen.save_s", median(save_s));
    R.layer.num("frozen.map_s", median(map_s));
    R.layer.num("server.p50_us", static_cast<double>(stats.p50_ns) / 1e3);
    R.layer.num("server.p99_us", static_cast<double>(stats.p99_ns) / 1e3);
    R.layer.num("server.max_inflight", static_cast<double>(stats.max_inflight));
    R.layer.num("server.shed", static_cast<double>(stats.shed));
    R.layer.num("server.timeouts", static_cast<double>(stats.timeouts));
    R.layer.num("server.stalls", static_cast<double>(stats.stalls));
    const double q = std::max<double>(1, static_cast<double>(stats.queries));
    R.layer.num("server.repaired_pct",
                100.0 * static_cast<double>(stats.repaired) / q);
    R.layer.num("server.masked_pct",
                100.0 * static_cast<double>(stats.masked) / q);
    R.layer.num("wal.records", static_cast<double>(stats.wal_records));

    // delta: the same batches through Server::apply_updates on an
    // identical server (+ WAL for churn), timed per call.
    const std::string replay_wal = churn ? c.work_dir + "/wal-replay" : "";
    const auto opt = server_options(c, replay_wal);
    std::vector<double> apply_us;
    {
      net::Server twin(serve::FrozenScheme::map(img), opt);
      for (const auto& b : replay_batches) {
        const std::int64_t a = now_ns();
        twin.apply_updates(b);
        const std::int64_t e = now_ns();
        R.spans.add("server.apply_updates", a, e);
        apply_us.push_back(static_cast<double>(e - a) / 1e3);
      }
      const auto ts = twin.stats();
      R.layer.num("wal.bytes_per_batch",
                  churn && ts.wal_records > 0
                      ? static_cast<double>(dir_bytes(replay_wal)) /
                            static_cast<double>(ts.wal_records)
                      : 0);
    }
    if (churn) fs::remove_all(replay_wal);
    R.layer.num("delta.apply_us_p50", quantile(apply_us, 0.5));
    R.layer.num("delta.apply_us_p99", quantile(apply_us, 0.99));
  }
  R.e2e.num("peak_rss_mb", peak_rss_mb());

  std::printf(
      "server: %lld frames, %lld queries, p50 %.1fus p99 %.1fus, "
      "max_inflight %lld, shed %lld, timeouts %lld, stalls %lld, updates "
      "%lld, wal_records %lld, checkpoints %lld, protocol_errors %lld\n",
      static_cast<long long>(stats.frames_in),
      static_cast<long long>(stats.queries), stats.p50_ns / 1e3,
      stats.p99_ns / 1e3, static_cast<long long>(stats.max_inflight),
      static_cast<long long>(stats.shed), static_cast<long long>(stats.timeouts),
      static_cast<long long>(stats.stalls),
      static_cast<long long>(stats.updates),
      static_cast<long long>(stats.wal_records),
      static_cast<long long>(stats.checkpoints),
      static_cast<long long>(stats.protocol_errors));
  R.check(stats.protocol_errors == 0, "no protocol errors");

  server.reset();
  fs::remove(img);
  fs::remove(c.work_dir + "/checkpoint.frozen");
  if (!wal_dir.empty()) fs::remove_all(wal_dir);

  if (c.trace && !c.span_file.empty()) {
    R.spans.write(c.span_file);
    std::printf("spans: %zu written to %s\n", R.spans.size(),
                c.span_file.c_str());
  }
  if (!gen_valid) {
    std::printf("INVALID RUN: the generator's lag p99 was over %.0fus in "
                "most slices of a phase still short of kept slices when the "
                "%.0fs rerun budget was spent; the figures would measure the "
                "generator\n",
                kLagLimitUs, kRerunBudgetS);
  }
  const double error_pct =
      100.0 * static_cast<double>(R.failed) /
      std::max<double>(1, static_cast<double>(R.attempted));
  std::printf("error_pct %.4f %% (%lld failed of %lld attempted)\n", error_pct,
              static_cast<long long>(R.failed),
              static_cast<long long>(R.attempted));

  Json result;
  result.raw("correct", R.problems.empty() ? "true" : "false")
      .raw("valid", gen_valid ? "true" : "false")
      .num("attempted", static_cast<double>(R.attempted))
      .num("failed", static_cast<double>(R.failed))
      .num("error_pct", error_pct)
      .raw("e2e", R.e2e.dump())
      .raw("layer", R.layer.dump());
  std::printf("PERFBENCH_RESULT %s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Run run(parse_flags(argc, argv));
    return run_benchmark(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nors_perfbench: %s\n", e.what());
    return 2;
  }
}

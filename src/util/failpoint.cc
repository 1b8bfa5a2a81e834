#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/bytes.h"
#include "util/check.h"

namespace nors::util {

std::atomic<int> Failpoints::active_{0};

namespace {

enum class Mode : std::uint8_t { kError, kDelay, kPartial, kOneshot };

struct Fp {
  Mode mode = Mode::kError;
  double rate = 1.0;        // probability; for oneshot: the firing hit index
  int delay_ms = 10;        // delay mode only
  std::int64_t hits = 0;    // evaluations so far
  bool fired = false;       // oneshot latch
  std::uint64_t rng = 0;    // per-failpoint stream, seeded from the name
};

struct Registry {
  std::mutex m;
  std::unordered_map<std::string, Fp> map;
  std::atomic<std::int64_t> trips{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// splitmix64 step → uniform double in [0, 1). Deterministic per
/// failpoint given its seed, so a chaos run is reproducible modulo
/// thread interleaving.
double roll(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

Fp parse_one(const std::string& name, const std::string& mode,
             const std::string& rate, const std::string& arg) {
  Fp fp;
  if (mode == "error") {
    fp.mode = Mode::kError;
  } else if (mode == "delay") {
    fp.mode = Mode::kDelay;
  } else if (mode == "partial") {
    fp.mode = Mode::kPartial;
  } else if (mode == "oneshot") {
    fp.mode = Mode::kOneshot;
  } else {
    NORS_CHECK_MSG(false, "unknown failpoint mode '" << mode << "' for '"
                                                     << name << "'");
  }
  if (!rate.empty()) {
    char* end = nullptr;
    fp.rate = std::strtod(rate.c_str(), &end);
    NORS_CHECK_MSG(end != nullptr && *end == '\0' && fp.rate >= 0,
                   "bad failpoint rate '" << rate << "' for '" << name
                                          << "'");
  } else if (fp.mode == Mode::kOneshot) {
    fp.rate = 1;  // fire on the first evaluation
  }
  if (!arg.empty()) {
    fp.delay_ms = std::atoi(arg.c_str());
    NORS_CHECK_MSG(fp.delay_ms >= 0,
                   "bad failpoint arg '" << arg << "' for '" << name << "'");
  }
  fp.rng = fnv1a(name.data(), name.size());
  return fp;
}

/// Installs NORS_FAILPOINTS at static-init time, before main() spawns
/// any server thread (the registry is a function-local static, so the
/// order against other globals is immaterial).
struct EnvInit {
  EnvInit() {
    if (const char* e = std::getenv("NORS_FAILPOINTS")) {
      if (*e != '\0') Failpoints::configure(e);
    }
  }
} env_init;

}  // namespace

void Failpoints::configure(const std::string& spec) {
  Registry& r = registry();
  std::unordered_map<std::string, Fp> next;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(',', at);
    if (end == std::string::npos) end = spec.size();
    const std::string one = spec.substr(at, end - at);
    at = end + 1;
    if (one.empty()) continue;
    // name:mode[:rate[:arg]]
    std::string parts[4];
    std::size_t p = 0, field = 0;
    while (field < 4) {
      std::size_t colon = one.find(':', p);
      if (colon == std::string::npos || field == 3) {
        parts[field++] = one.substr(p);
        break;
      }
      parts[field++] = one.substr(p, colon - p);
      p = colon + 1;
    }
    NORS_CHECK_MSG(!parts[0].empty() && !parts[1].empty(),
                   "failpoint spec needs name:mode — got '" << one << "'");
    next.emplace(parts[0],
                 parse_one(parts[0], parts[1], parts[2], parts[3]));
  }
  {
    std::lock_guard<std::mutex> lk(r.m);
    r.map = std::move(next);
    active_.store(static_cast<int>(r.map.size()),
                  std::memory_order_relaxed);
  }
}

void Failpoints::clear() { configure(""); }

std::int64_t Failpoints::trips() {
  return registry().trips.load(std::memory_order_relaxed);
}

FpAction Failpoints::eval(const char* name) {
  Registry& r = registry();
  FpAction act = FpAction::kNone;
  int delay_ms = 0;
  {
    std::lock_guard<std::mutex> lk(r.m);
    const auto it = r.map.find(name);
    if (it == r.map.end()) return FpAction::kNone;
    Fp& fp = it->second;
    ++fp.hits;
    switch (fp.mode) {
      case Mode::kError:
        if (roll(fp.rng) < fp.rate) act = FpAction::kError;
        break;
      case Mode::kPartial:
        if (roll(fp.rng) < fp.rate) act = FpAction::kPartial;
        break;
      case Mode::kDelay:
        if (roll(fp.rng) < fp.rate) delay_ms = fp.delay_ms;
        break;
      case Mode::kOneshot:
        if (!fp.fired &&
            fp.hits >= static_cast<std::int64_t>(fp.rate)) {
          fp.fired = true;
          act = FpAction::kError;
        }
        break;
    }
    if (act != FpAction::kNone || delay_ms > 0) {
      r.trips.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return act;
}

}  // namespace nors::util

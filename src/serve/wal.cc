#include "serve/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "core/serialize.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace nors::serve {

namespace {

constexpr std::uint64_t kSegMagic = 0x314C415753524F4Eull;  // "NORSWAL1"
constexpr std::uint32_t kWalVersion = 1;
constexpr std::uint32_t kRecMagic = 0x3152574Eu;  // "NWR1"
constexpr std::uint32_t kFlagSnapshot = 1u;

using util::fnv1a;
using util::read_le;
using util::write_le;

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void throw_errno(const char* what, int err) {
  throw WalError(std::string(what) + ": " + std::strerror(err));
}

/// fsync the directory itself so segment creates/renames/unlinks are
/// durable — a WAL whose records are safe but whose *name* is not would
/// vanish wholesale on reboot.
void sync_dir(const std::string& dir) {
  if (const int err = util::fsync_dir(dir); err != 0) {
    throw_errno("wal: fsync dir", err);
  }
}

bool parse_segment_name(const std::string& name, std::uint64_t& base) {
  if (name.size() != 4 + 16 + 4) return false;
  if (name.compare(0, 4, "wal-") != 0) return false;
  if (name.compare(20, 4, ".log") != 0) return false;
  base = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
    base = (base << 4) | digit;
  }
  return true;
}

std::vector<std::uint8_t> read_whole_file(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_errno("wal: fstat segment", errno);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t k = ::read(fd, buf.data() + got, buf.size() - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WalError("wal: read " + path + ": " + std::strerror(errno));
    }
    if (k == 0) break;  // raced a concurrent truncate; take what we have
    got += static_cast<std::size_t>(k);
  }
  buf.resize(got);
  return buf;
}

}  // namespace

FsyncPolicy parse_fsync_policy(const std::string& s) {
  if (s == "always") return FsyncPolicy::kAlways;
  if (s == "interval") return FsyncPolicy::kInterval;
  if (s == "off") return FsyncPolicy::kOff;
  throw std::runtime_error("unknown fsync policy '" + s +
                           "' (want always/interval/off)");
}

std::vector<std::uint8_t> Wal::encode_segment_header(std::uint64_t base_seq) {
  std::vector<std::uint8_t> h(kSegHeaderBytes, 0);
  write_le<std::uint64_t>(h.data(), kSegMagic);
  write_le<std::uint32_t>(h.data() + 8, kWalVersion);
  write_le<std::uint32_t>(h.data() + 12, 0);
  write_le<std::uint64_t>(h.data() + 16, base_seq);
  return h;
}

std::vector<std::uint8_t> Wal::encode_record(
    std::uint64_t seq, bool snapshot, std::span<const EdgeUpdate> events) {
  std::vector<std::uint8_t> body;
  encode_edge_updates(body, events);
  NORS_CHECK_MSG(body.size() <= kMaxWalBody, "wal record body over cap");
  std::vector<std::uint8_t> rec(kRecHeaderBytes + body.size() +
                                kRecTrailerBytes);
  std::uint8_t* p = rec.data();
  write_le<std::uint32_t>(p, kRecMagic);
  write_le<std::uint32_t>(p + 4, static_cast<std::uint32_t>(body.size()));
  write_le<std::uint64_t>(p + 8, seq);
  write_le<std::uint32_t>(p + 16, snapshot ? kFlagSnapshot : 0u);
  write_le<std::uint32_t>(p + 20, 0);
  if (!body.empty()) std::memcpy(p + kRecHeaderBytes, body.data(), body.size());
  write_le<std::uint64_t>(p + kRecHeaderBytes + body.size(),
                          fnv1a(p, kRecHeaderBytes + body.size()));
  return rec;
}

std::string Wal::segment_path(std::uint64_t base_seq) const {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%016" PRIx64 ".log", base_seq);
  return dir_ + "/" + name;
}

Wal::Wal(std::string dir, WalOptions opt,
         const std::function<void(const WalRecord&)>& replay)
    : dir_(std::move(dir)), opt_(opt) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno(("wal: mkdir " + dir_).c_str(), errno);
  }
  if (util::failpoint("wal.recover") == util::FpAction::kError) {
    throw WalError("wal.recover failpoint: injected recovery failure");
  }
  last_sync_ms_ = steady_ms();
  try {
    recover(replay);
  } catch (...) {
    if (fd_ >= 0) ::close(fd_);
    throw;
  }
}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort final flush; a destructor must not throw.
    if (dirty_ && opt_.fsync != FsyncPolicy::kOff) ::fdatasync(fd_);
    ::close(fd_);
  }
}

void Wal::recover(const std::function<void(const WalRecord&)>& replay) {
  // Collect wal-*.log segments, ascending base seq (hex names sort).
  std::vector<std::pair<std::uint64_t, std::string>> found;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) throw_errno(("wal: opendir " + dir_).c_str(), errno);
  while (struct dirent* ent = ::readdir(d)) {
    std::uint64_t base = 0;
    if (parse_segment_name(ent->d_name, base)) {
      found.emplace_back(base, dir_ + "/" + ent->d_name);
    }
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());

  for (std::size_t si = 0; si < found.size(); ++si) {
    const bool is_last = si + 1 == found.size();
    const std::string& path = found[si].second;
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) throw_errno(("wal: open " + path).c_str(), errno);
    std::vector<std::uint8_t> buf;
    try {
      buf = read_whole_file(fd, path);
    } catch (...) {
      ::close(fd);
      throw;
    }

    if (buf.size() < kSegHeaderBytes) {
      // A segment whose header never made it to disk: only explicable as
      // a crash during creation of the *newest* segment.
      if (!is_last) {
        ::close(fd);
        throw WalCorrupt("wal: truncated segment header mid-log: " + path);
      }
      ::close(fd);
      if (::unlink(path.c_str()) != 0) {
        throw_errno(("wal: unlink torn segment " + path).c_str(), errno);
      }
      found.pop_back();
      break;  // it was the last one
    }
    if (read_le<std::uint64_t>(buf.data()) != kSegMagic ||
        read_le<std::uint32_t>(buf.data() + 8) != kWalVersion) {
      ::close(fd);
      throw WalCorrupt("wal: bad segment magic/version: " + path);
    }
    const std::uint64_t base = read_le<std::uint64_t>(buf.data() + 16);
    if (base != found[si].first) {
      ::close(fd);
      throw WalCorrupt("wal: segment name disagrees with header: " + path);
    }
    // Even a record-less segment pins the sequence floor: its base says
    // every earlier seq was consumed — by appends in prior segments or by
    // the checkpoint/reload reset() that created it. Without this, a
    // reboot after an empty reset would restart seqs from zero and break
    // update_seq monotonicity.
    if (base > 0) last_seq_ = std::max(last_seq_, base - 1);

    std::size_t off = kSegHeaderBytes;
    std::uint64_t seg_prev_seq = 0;  // within-segment ascending check
    bool torn = false;
    std::string damage;
    while (off < buf.size()) {
      const std::size_t remaining = buf.size() - off;
      if (remaining < kRecHeaderBytes) {
        torn = true;
        break;
      }
      const std::uint8_t* p = buf.data() + off;
      if (read_le<std::uint32_t>(p) != kRecMagic) {
        // Zero-fill to EOF is a torn append on a zero-filling filesystem;
        // any other byte is damage a crash cannot produce.
        const bool all_zero = std::all_of(
            p, p + remaining, [](std::uint8_t b) { return b == 0; });
        if (all_zero) {
          torn = true;
          break;
        }
        damage = "bad record magic";
        break;
      }
      const std::uint32_t body_len = read_le<std::uint32_t>(p + 4);
      if (body_len > kMaxWalBody) {
        damage = "record body length over cap";
        break;
      }
      const std::size_t total =
          kRecHeaderBytes + body_len + kRecTrailerBytes;
      if (remaining < total) {
        torn = true;
        break;
      }
      const std::uint64_t want =
          read_le<std::uint64_t>(p + kRecHeaderBytes + body_len);
      if (fnv1a(p, kRecHeaderBytes + body_len) != want) {
        if (remaining == total) {
          torn = true;  // checksum breaks exactly at EOF: interrupted append
          break;
        }
        damage = "record checksum mismatch";
        break;
      }
      WalRecord rec;
      rec.seq = read_le<std::uint64_t>(p + 8);
      const std::uint32_t flags = read_le<std::uint32_t>(p + 16);
      if ((flags & ~kFlagSnapshot) != 0 ||
          read_le<std::uint32_t>(p + 20) != 0) {
        damage = "unknown record flags";
        break;
      }
      rec.snapshot = (flags & kFlagSnapshot) != 0;
      if (rec.seq < base || rec.seq <= seg_prev_seq) {
        damage = "record sequence not ascending";
        break;
      }
      seg_prev_seq = rec.seq;
      try {
        const std::uint8_t* bp = p + kRecHeaderBytes;
        const std::uint8_t* bend = bp + body_len;
        bp = decode_edge_updates(bp, bend, rec.events,
                                 kMaxWalBody);  // effectively uncapped
        if (bp != bend) damage = "trailing bytes after record body";
      } catch (const std::logic_error& e) {
        damage = std::string("undecodable record body: ") + e.what();
      }
      if (!damage.empty()) break;
      if (rec.seq <= last_seq_) {
        // Checkpoint overlap: the squash summarizes this state already.
        ++stats_.records_skipped;
      } else {
        last_seq_ = rec.seq;
        ++stats_.records_recovered;
        if (replay) replay(rec);
      }
      off += total;
    }

    if (!damage.empty()) {
      ::close(fd);
      throw WalCorrupt("wal: " + damage + " at byte " + std::to_string(off) +
                       " of " + path);
    }
    if (torn) {
      if (!is_last) {
        ::close(fd);
        throw WalCorrupt("wal: torn record inside non-final segment " + path);
      }
      stats_.torn_bytes_dropped += buf.size() - off;
      if (::ftruncate(fd, static_cast<off_t>(off)) != 0) {
        const int err = errno;
        ::close(fd);
        throw_errno(("wal: truncate torn tail of " + path).c_str(), err);
      }
      if (opt_.fsync != FsyncPolicy::kOff && ::fdatasync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        throw_errno(("wal: fsync truncated " + path).c_str(), err);
      }
      buf.resize(off);
    }

    segments_.push_back(path);
    if (is_last) {
      fd_ = fd;
      seg_size_ = buf.size();
      if (::lseek(fd_, static_cast<off_t>(seg_size_), SEEK_SET) < 0) {
        throw_errno("wal: seek to append position", errno);
      }
    } else {
      ::close(fd);
    }
  }

  if (segments_.empty()) open_fresh_segment(last_seq_ + 1);
}

void Wal::open_fresh_segment(std::uint64_t base_seq) {
  const std::string path = segment_path(base_seq);
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno(("wal: create segment " + path).c_str(), errno);
  const auto header = encode_segment_header(base_seq);
  if (const int err = util::write_all(fd, header.data(), header.size());
      err != 0) {
    ::close(fd);
    throw_errno("wal: write segment header", err);
  }
  if (opt_.fsync != FsyncPolicy::kOff) {
    if (::fdatasync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      throw_errno("wal: fsync new segment", err);
    }
    try {
      sync_dir(dir_);
    } catch (...) {
      ::close(fd);
      throw;
    }
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  seg_size_ = header.size();
  segments_.push_back(path);
}

void Wal::maybe_rotate(std::size_t incoming_bytes) {
  if (seg_size_ <= kSegHeaderBytes) return;  // never rotate an empty segment
  if (seg_size_ + incoming_bytes <= opt_.segment_bytes) return;
  // The outgoing segment must be durable before the new name appears, or
  // recovery could see a later segment whose predecessor tail is missing.
  if (dirty_) do_sync();
  open_fresh_segment(last_seq_ + 1);
}

void Wal::rollback_to(std::uint64_t size, const char* why) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    // The torn record is still on disk and we cannot remove it; refuse
    // further appends so the in-memory seq and the file cannot diverge.
    // (Recovery would truncate the same bytes as a torn tail anyway.)
    broken_ = true;
    throw WalError(std::string(why) +
                   "; rollback ftruncate also failed: " +
                   std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    broken_ = true;
    throw WalError(std::string(why) + "; rollback lseek also failed: " +
                   std::strerror(errno));
  }
  seg_size_ = size;
}

void Wal::append(std::uint64_t seq, bool snapshot,
                 std::span<const EdgeUpdate> events) {
  NORS_CHECK_MSG(!broken_, "wal is failed: reopen to recover");
  NORS_CHECK_MSG(fd_ >= 0, "wal has no live segment");
  NORS_CHECK_MSG(seq > last_seq_, "wal sequence must be ascending");
  const auto rec = encode_record(seq, snapshot, events);
  maybe_rotate(rec.size());
  const std::uint64_t at = seg_size_;

  const util::FpAction fp = util::failpoint("wal.append");
  if (fp == util::FpAction::kError) {
    throw WalError("wal.append failpoint: injected append failure");
  }
  // `partial` mode simulates the disk filling mid-record: a torn prefix
  // lands on disk, the write reports no space, and the append must roll
  // back and shed — exactly the ENOSPC shape (DESIGN.md §14).
  const std::size_t limit =
      fp == util::FpAction::kPartial ? rec.size() / 2 : rec.size();
  int err = 0;
  std::size_t wrote = 0;
  while (wrote < limit) {
    const ssize_t k = ::write(fd_, rec.data() + wrote, limit - wrote);
    if (k < 0) {
      if (errno == EINTR) continue;
      err = errno;
      break;
    }
    if (k == 0) {
      err = ENOSPC;
      break;
    }
    wrote += static_cast<std::size_t>(k);
  }
  seg_size_ += wrote;
  if (wrote < rec.size()) {
    if (err == 0) err = ENOSPC;  // the injected short write
    rollback_to(at, "wal append short write");
    throw WalError(std::string("wal append failed: ") + std::strerror(err) +
                   " (record rolled back)");
  }
  dirty_ = true;
  ++stats_.appends;
  try {
    maybe_sync();
  } catch (...) {
    // The bytes are written but not known durable: un-write them so the
    // caller's shed (no publish, no ack) matches the on-disk log.
    rollback_to(at, "wal fsync failed after append");
    throw;
  }
  last_seq_ = seq;
}

void Wal::maybe_sync() {
  switch (opt_.fsync) {
    case FsyncPolicy::kAlways:
      do_sync();
      break;
    case FsyncPolicy::kInterval: {
      const std::int64_t now = steady_ms();
      if (now - last_sync_ms_ >=
          static_cast<std::int64_t>(opt_.fsync_interval_ms)) {
        do_sync();
      }
      break;
    }
    case FsyncPolicy::kOff:
      break;
  }
}

void Wal::do_sync() {
  if (util::failpoint("wal.fsync") == util::FpAction::kError) {
    throw WalError("wal.fsync failpoint: injected fsync failure");
  }
  if (::fdatasync(fd_) != 0) throw_errno("wal: fdatasync", errno);
  ++stats_.syncs;
  dirty_ = false;
  last_sync_ms_ = steady_ms();
}

void Wal::sync() {
  NORS_CHECK_MSG(fd_ >= 0, "wal has no live segment");
  do_sync();
}

void Wal::reset(std::uint64_t last_seq,
                const std::vector<EdgeUpdate>* snapshot) {
  NORS_CHECK_MSG(snapshot == nullptr || last_seq >= 1,
                 "wal snapshot needs an applied sequence");
  const std::uint64_t base = snapshot != nullptr ? last_seq : last_seq + 1;
  const std::string tmp = dir_ + "/wal-reset.tmp";
  const std::string path = segment_path(base);
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("wal: create reset segment", errno);
  try {
    std::vector<std::uint8_t> bytes = encode_segment_header(base);
    if (snapshot != nullptr) {
      const auto rec = encode_record(last_seq, /*snapshot=*/true, *snapshot);
      bytes.insert(bytes.end(), rec.begin(), rec.end());
    }
    if (const int err = util::write_all(fd, bytes.data(), bytes.size());
        err != 0) {
      throw_errno("wal: write reset segment", err);
    }
    // The squash replaces history: it must be durable before history goes,
    // regardless of the append-path fsync policy.
    if (::fdatasync(fd) != 0) throw_errno("wal: fsync reset segment", errno);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw_errno("wal: rename reset segment", errno);
    }
    sync_dir(dir_);
    // Only now is the old history disposable.
    for (const std::string& old : segments_) {
      if (old == path) continue;
      if (::unlink(old.c_str()) != 0 && errno != ENOENT) {
        throw_errno(("wal: unlink " + old).c_str(), errno);
      }
    }
    sync_dir(dir_);
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
    struct stat st{};
    NORS_CHECK(::fstat(fd_, &st) == 0);
    seg_size_ = static_cast<std::uint64_t>(st.st_size);
    segments_.assign(1, path);
    last_seq_ = last_seq;
    dirty_ = false;
    broken_ = false;
    last_sync_ms_ = steady_ms();
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
}

}  // namespace nors::serve

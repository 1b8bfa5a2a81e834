#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "serve/frozen.h"
#include "util/bytes.h"

// Property/fuzz hardening pass over the NORSFRZ1 frozen-table format: take
// valid images, corrupt them (single-bit flips, truncations, multi-byte
// splats, garbage tails), and assert every corruption is rejected with a
// clean std::logic_error — never a crash, hang, or out-of-bounds read.
// CI runs this binary under ASan+UBSan, so "no UB" is machine-checked,
// not asserted. Both decode paths are covered: the owning load() and the
// zero-copy mmap path (map()), which parses the image in place and must
// therefore be exactly as strict.

namespace nors {
namespace {

std::vector<std::uint8_t> make_image(int n, int k, bool label_trick,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  const auto g = graph::connected_gnm(
      n, 3LL * n, graph::WeightSpec::uniform(1, 16), rng);
  core::SchemeParams p;
  p.k = k;
  p.seed = seed + 1;
  p.label_trick = label_trick;
  return serve::FrozenScheme::freeze(core::RoutingScheme::build(g, p)).save();
}

/// Expects `body` to throw std::logic_error — whose message contains
/// `want`, when given.
template <typename Body>
void expect_rejects(Body&& body, const char* what, const char* want) {
  try {
    body();
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::logic_error& e) {
    if (want != nullptr) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << what << ": " << e.what();
    }
  }
}

/// Writes bytes to a temp file, expects map() to reject them, cleans up.
void expect_map_rejects(const std::vector<std::uint8_t>& bytes,
                        const char* what, const char* want = nullptr) {
  const std::string path = ::testing::TempDir() + "/nors_fuzz_map.bin";
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), fp), bytes.size());
  }
  std::fclose(fp);
  expect_rejects([&] { serve::FrozenScheme::map(path); }, what, want);
  std::remove(path.c_str());
}

class FrozenFuzz : public ::testing::Test {
 protected:
  // One modest image per fixture instantiation; the per-test loops below
  // drive hundreds of corruptions against it. A second image with
  // different shape parameters guards against "rejection only works for
  // one layout" bugs.
  static const std::vector<std::uint8_t>& image() {
    static const std::vector<std::uint8_t> img =
        make_image(70, 2, /*label_trick=*/true, 7001);
    return img;
  }
  static const std::vector<std::uint8_t>& image2() {
    static const std::vector<std::uint8_t> img =
        make_image(90, 3, /*label_trick=*/false, 7002);
    return img;
  }
};

TEST_F(FrozenFuzz, PristineImagesLoadOnBothPaths) {
  for (const auto* img : {&image(), &image2()}) {
    EXPECT_NO_THROW(serve::FrozenScheme::load(*img));
    const std::string path = ::testing::TempDir() + "/nors_fuzz_ok.bin";
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fwrite(img->data(), 1, img->size(), fp), img->size());
    std::fclose(fp);
    EXPECT_NO_THROW(serve::FrozenScheme::map(path));
    std::remove(path.c_str());
  }
}

TEST_F(FrozenFuzz, EverySingleBitFlipIsRejected) {
  // Random positions across many seeds; the trailing-checksum bytes are
  // included on purpose (a flipped checksum must mismatch the payload).
  const auto& bytes = image();
  util::Rng rng(424242);
  int mapped_probes = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto bad = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(bytes.size())));
    const auto bit = static_cast<int>(rng.uniform(8));
    bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "bit " << bit << " at byte " << pos << " slipped through";
    // The mmap path must reject identically; probing a subset keeps the
    // test fast (file round-trip per probe).
    if (trial % 16 == 0) {
      expect_map_rejects(bad, "mapped bit flip");
      ++mapped_probes;
    }
  }
  EXPECT_GE(mapped_probes, 25);
}

TEST_F(FrozenFuzz, EverySingleBitFlipIsRejectedOnSecondLayout) {
  const auto& bytes = image2();
  util::Rng rng(434343);
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(bytes.size())));
    bad[pos] ^= static_cast<std::uint8_t>(
        1u << static_cast<int>(rng.uniform(8)));
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "byte " << pos;
  }
}

TEST_F(FrozenFuzz, EveryTruncationIsRejected) {
  const auto& bytes = image();
  util::Rng rng(555555);
  // Deterministic short prefixes (0..64 walks the whole header region
  // byte by byte), then random cuts across the payload.
  for (std::size_t len = 0; len < 64 && len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> bad(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "prefix " << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(bytes.size())));
    const std::vector<std::uint8_t> bad(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "cut at " << len;
    if (trial % 16 == 0) expect_map_rejects(bad, "mapped truncation");
  }
  expect_map_rejects({}, "empty file");
}

TEST_F(FrozenFuzz, MultiByteSplatsAreRejected) {
  // Overwrite a random 8-byte window with random bytes — the shape of a
  // corrupted section length or a forged offset. The checksum catches it
  // before any length is believed; this test pins that ordering (no
  // allocation-of-2^60-elements on the way to the rejection).
  const auto& bytes = image();
  util::Rng rng(777777);
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = bytes;
    const auto pos = static_cast<std::size_t>(rng.uniform(
        static_cast<std::uint64_t>(bytes.size() - 8)));
    bool changed = false;
    for (int j = 0; j < 8; ++j) {
      const auto b = static_cast<std::uint8_t>(rng.uniform(256));
      changed |= bad[pos + static_cast<std::size_t>(j)] != b;
      bad[pos + static_cast<std::size_t>(j)] = b;
    }
    if (!changed) continue;
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "splat at " << pos;
    if (trial % 16 == 0) expect_map_rejects(bad, "mapped splat");
  }
}

TEST_F(FrozenFuzz, GarbageTailsAndForeignFilesAreRejected) {
  const auto& bytes = image();
  util::Rng rng(888888);

  // Appended garbage breaks the framing even when the prefix is intact.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    auto bad = bytes;
    for (std::size_t i = 0; i < extra; ++i) {
      bad.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    }
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error)
        << "tail of " << extra;
  }

  // Pure noise of various sizes — not even a magic number.
  for (const std::size_t len : {std::size_t{16}, std::size_t{100},
                                std::size_t{4096}}) {
    std::vector<std::uint8_t> noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_THROW(serve::FrozenScheme::load(noise), std::logic_error)
        << "noise of " << len;
    expect_map_rejects(noise, "mapped noise");
  }

  // Noise that *starts* with a valid header prefix but decays into junk.
  {
    auto bad = bytes;
    for (std::size_t i = 48; i < bad.size(); ++i) {
      bad[i] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);
    expect_map_rejects(bad, "mapped junk body");
  }
}

// ---- v3 varint-section corruption ---------------------------------------
// The blind corruptions above are caught by the trailing FNV-1a checksum
// before the varint decoder ever runs. These cases re-patch the checksum
// after corrupting, so the *decoder's own* guards (truncated varints,
// over-long encodings, section-length mismatches) are what must reject —
// the threat model is a forged image, not an accidental flip.

void repatch_checksum(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), 8u);
  const std::uint64_t sum = util::fnv1a(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
}

/// Offsets of the v3 varint blob section's payload ([begin, end)) and of
/// its u64 count field, found by walking the section chain: 32-byte
/// header, then (count, padded payload) sections of known element sizes —
/// level i32, tree_root i32, tree_level i32, table_off i64, table_tree
/// i32 — with the blob next.
struct BlobRange {
  std::size_t count_at = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

BlobRange locate_varint_blob(const std::vector<std::uint8_t>& bytes) {
  auto count_of = [&](std::size_t pos) {
    std::uint64_t c = 0;
    std::memcpy(&c, bytes.data() + pos, 8);
    return c;
  };
  std::size_t pos = 32;
  for (const std::size_t elem : {std::size_t{4}, std::size_t{4},
                                 std::size_t{4}, std::size_t{8},
                                 std::size_t{4}}) {
    pos += 8 + (count_of(pos) * elem + 7) / 8 * 8;
  }
  BlobRange r;
  r.count_at = pos;
  r.begin = pos + 8;
  r.end = r.begin + count_of(pos);
  return r;
}

void expect_both_paths_reject(const std::vector<std::uint8_t>& bad,
                              const char* what, const char* want = nullptr) {
  expect_rejects([&] { serve::FrozenScheme::load(bad); }, what, want);
  expect_map_rejects(bad, what, want);
}

TEST_F(FrozenFuzz, UnsupportedVersionsAreRejected) {
  // A well-formed image under any version number but the one supported
  // (2 was the fixed-slot format this one replaced; 4 is from the future)
  // must be refused by name, not decoded under the wrong layout.
  for (const std::uint32_t version : {2u, 4u}) {
    auto bad = image();
    std::memcpy(bad.data() + 8, &version, sizeof(version));  // after magic
    repatch_checksum(bad);
    const std::string want =
        "unsupported frozen-table version " + std::to_string(version);
    expect_both_paths_reject(bad, "forged version", want.c_str());
  }
}

TEST_F(FrozenFuzz, VarintSectionTruncatedTailIsRejected) {
  const auto& bytes = image();
  const auto blob = locate_varint_blob(bytes);
  ASSERT_GT(blob.end, blob.begin + 16) << "expected a non-trivial blob";
  ASSERT_LE(blob.end + 8, bytes.size());

  // Continuation bit forced onto the final blob byte: the last varint
  // never terminates inside the section.
  {
    auto bad = bytes;
    bad[blob.end - 1] |= 0x80;
    repatch_checksum(bad);
    expect_both_paths_reject(bad, "unterminated final varint");
  }
  // 0xff splat over the tail: a run of continuation bytes racing off the
  // section end (and past the 10-byte varint cap if the run is long).
  {
    auto bad = bytes;
    for (std::size_t i = blob.end - 12; i < blob.end; ++i) bad[i] = 0xff;
    repatch_checksum(bad);
    expect_both_paths_reject(bad, "continuation splat tail");
  }
}

TEST_F(FrozenFuzz, VarintSectionOverlongEncodingIsRejected) {
  // Turn a terminal byte b (0 < b < 0x80) plus its successor into
  // {b | 0x80, 0x00}: the same value encoded with a trailing zero byte —
  // exactly the over-long shape the canonical decoder must refuse.
  const auto& bytes = image();
  const auto blob = locate_varint_blob(bytes);
  int patched = 0;
  for (std::size_t at = blob.begin; at + 1 < blob.end && patched < 8; ++at) {
    const std::uint8_t b = bytes[at];
    if (b == 0 || b >= 0x80) continue;
    auto bad = bytes;
    bad[at] = static_cast<std::uint8_t>(b | 0x80);
    bad[at + 1] = 0x00;
    repatch_checksum(bad);
    expect_both_paths_reject(bad, "over-long encoding");
    ++patched;
    at += 16;  // spread probes across the section
  }
  EXPECT_GE(patched, 4);
}

TEST_F(FrozenFuzz, VarintSectionLengthMismatchIsRejected) {
  // Shrink/grow the blob's count field by an amount that keeps the padded
  // section size identical, so every later section still parses at its
  // old offset and the checksum (re-patched) passes — only the exact-
  // consumption check in the varint decoder can catch the lie.
  const auto& bytes = image();
  const auto blob = locate_varint_blob(bytes);
  const std::uint64_t len =
      static_cast<std::uint64_t>(blob.end - blob.begin);
  auto padded = [](std::uint64_t c) { return (c + 7) / 8 * 8; };
  int tested = 0;
  for (const std::int64_t delta : {-1, 1, -3, 3, -7, 7}) {
    const std::uint64_t forged = len + static_cast<std::uint64_t>(delta);
    if (delta < 0 && len < static_cast<std::uint64_t>(-delta)) continue;
    if (padded(forged) != padded(len)) continue;
    auto bad = bytes;
    std::memcpy(bad.data() + blob.count_at, &forged, 8);
    repatch_checksum(bad);
    expect_both_paths_reject(bad, "forged blob length");
    ++tested;
  }
  EXPECT_GE(tested, 2) << "padding math should admit both directions";
}

TEST_F(FrozenFuzz, VarintBodyBitFlipsAreRejectedOrDecodeToRejectedTables) {
  // Checksum-repatched bit flips inside the blob body: the decoder either
  // trips a varint guard, a narrowing check, the exact-consumption check,
  // or — when the flip decodes to in-range but wrong values — validate()'s
  // structural checks (sorted slabs, port ranges). None may crash, and a
  // flip that slips through *all* of those must still produce an image
  // whose save() differs (no silent canonical collision).
  const auto& bytes = image();
  const auto blob = locate_varint_blob(bytes);
  util::Rng rng(999999);
  int rejected = 0, survived = 0;
  for (int trial = 0; trial < 120; ++trial) {
    auto bad = bytes;
    const auto pos =
        blob.begin + static_cast<std::size_t>(rng.uniform(
                         static_cast<std::uint64_t>(blob.end - blob.begin)));
    bad[pos] ^= static_cast<std::uint8_t>(
        1u << static_cast<int>(rng.uniform(8)));
    repatch_checksum(bad);
    try {
      const auto f = serve::FrozenScheme::load(bad);
      EXPECT_NE(f.save(), bytes) << "flip at " << pos << " vanished";
      ++survived;
    } catch (const std::logic_error&) {
      ++rejected;
    }
    if (trial % 24 == 0) {
      // The mapped path must agree (reject or accept; never crash).
      const std::string path =
          ::testing::TempDir() + "/nors_fuzz_varint.bin";
      std::FILE* fp = std::fopen(path.c_str(), "wb");
      ASSERT_NE(fp, nullptr);
      ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), fp), bad.size());
      std::fclose(fp);
      try {
        const auto m = serve::FrozenScheme::map(path);
        EXPECT_NE(m.save(), bytes);
      } catch (const std::logic_error&) {
      }
      std::remove(path.c_str());
    }
  }
  EXPECT_GT(rejected, 0) << "no flip tripped any decoder guard?";
  EXPECT_EQ(rejected + survived, 120);
}

TEST_F(FrozenFuzz, RejectionsLeaveNoPartiallyConstructedState) {
  // A rejected image must not poison later loads — decode into fresh
  // state each time (regression guard for static/global scratch).
  const auto& bytes = image();
  auto bad = bytes;
  bad[bytes.size() / 3] ^= 0x10;
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(serve::FrozenScheme::load(bad), std::logic_error);
    const auto ok = serve::FrozenScheme::load(bytes);
    EXPECT_EQ(ok.save(), bytes);
  }
}

}  // namespace
}  // namespace nors

#include "db/index_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "db/serving_faults.h"
#include "util/csv.h"
#include "util/random.h"

namespace mocemg {
namespace {

MotionDatabase MakeDb(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < n; ++i) {
    MotionRecord r;
    r.name = "m" + std::to_string(i);
    r.label = i % 4;
    r.label_name = "class" + std::to_string(r.label);
    r.feature.resize(dim);
    const double cx = static_cast<double>(i % 4) * 20.0;
    for (size_t j = 0; j < dim; ++j) {
      r.feature[j] = (j == 0 ? cx : 0.0) + rng.Gaussian(0, 1.0);
    }
    EXPECT_TRUE(db.Insert(std::move(r)).ok());
  }
  return db;
}

/// Small partitions still get int8 codes, so the snapshot covers the
/// quantized tier at test scale.
FeatureIndexOptions QuantizedOptions() {
  FeatureIndexOptions opts;
  opts.num_partitions = 4;
  opts.quantized_min_rows = 1;
  return opts;
}

/// Mirrored fp32 options: quantization off, so every partition carries
/// the version-3 fp32 mirror instead of int8 codes.
FeatureIndexOptions F32Options() {
  FeatureIndexOptions opts;
  opts.num_partitions = 4;
  opts.quantized_scan = false;
  opts.exact_precision = ExactPrecision::kF32;
  return opts;
}

uint64_t TestFnv(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Frames `payload` under the given 10-byte magic with a consistent
/// length + checksum header, so parse attempts reach the payload
/// readers instead of failing at the frame.
std::string TestFrame(const std::string& magic, const char* payload,
                      size_t n) {
  std::string out = magic;
  uint64_t fields[2] = {n, TestFnv(payload, n)};
  for (uint64_t v : fields) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  out.append(payload, n);
  return out;
}

/// Down-converts a freshly serialized version-3 index snapshot to a
/// genuine version-2 file: drops the options' exact-precision field
/// and every partition's mirror block (max-abs + two float arrays),
/// rewrites the magic, and re-frames with a fresh length + checksum.
/// Mirrors the documented v2 layout so read-compat is tested against
/// real old bytes, not against the current writer.
std::string DownConvertToV2(const std::string& v3) {
  const size_t kHeader = 10 + 16;  // magic + size + checksum
  const char* p = v3.data() + kHeader;
  const size_t size = v3.size() - kHeader;
  size_t pos = 0;
  auto u64_at = [&](size_t at) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(p[at + i]))
           << (8 * i);
    }
    return v;
  };
  std::string out;
  auto copy = [&](size_t n) {
    out.append(p + pos, n);
    pos += n;
  };
  auto skip = [&](size_t n) { pos += n; };
  // epoch, dim, max_partition_size, num_partitions, seed,
  // quantized_scan, quantized_min_rows, quant_bits.
  copy(8 * 8);
  skip(8);      // exact_precision: the field version 3 added
  copy(8 * 2);  // max_threads, grain
  copy(8 * 2);  // references rows, cols
  copy(8 + u64_at(pos) * 8);  // references data
  const uint64_t nparts = u64_at(pos);
  copy(8);
  for (uint64_t i = 0; i < nparts; ++i) {
    copy(8 * 7);                // six doubles + quant_bits
    copy(8 + u64_at(pos) * 8);  // record_indices
    copy(8 + u64_at(pos) * 8);  // block
    copy(8 + u64_at(pos) * 8);  // norms_sq
    copy(8 + u64_at(pos) * 8);  // quant_offsets
    copy(8 + u64_at(pos));      // quant_codes
    skip(8);                    // mirror_max_abs: version 3
    skip(8 + u64_at(pos) * 4);  // block_f32: version 3
    skip(8 + u64_at(pos) * 4);  // norms_f32: version 3
  }
  EXPECT_EQ(pos, size) << "v3 payload walk desynchronized";
  return TestFrame("MOCEMGIX2\n", out.data(), out.size());
}

std::vector<std::vector<double>> MakeQueries(size_t n, size_t dim,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> queries(n);
  for (auto& q : queries) {
    q.resize(dim);
    for (double& v : q) v = rng.Gaussian(10.0, 15.0);
  }
  return queries;
}

void ExpectHitsEqual(const std::vector<QueryHit>& a,
                     const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].record_index, b[i].record_index);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

TEST(IndexSnapshotTest, SerializeRequiresBuiltIndex) {
  FeatureIndex empty;
  EXPECT_FALSE(SerializeFeatureIndex(empty).ok());
}

// The round trip must be bit-exact: a reloaded index re-serializes to
// the same bytes, and answers queries — exact AND coarse — with the
// same bits as the original.
TEST(IndexSnapshotTest, RoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 31);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->has_quantized_tier());

  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  auto loaded = DeserializeFeatureIndex(*bytes, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->built_epoch(), index->built_epoch());
  EXPECT_EQ(loaded->num_partitions(), index->num_partitions());
  EXPECT_TRUE(loaded->has_quantized_tier());

  auto again = SerializeFeatureIndex(*loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*bytes, *again) << "reload must re-serialize byte-for-byte";

  for (const auto& q : MakeQueries(12, 9, 32)) {
    auto a = index->NearestNeighbors(q, 5);
    auto b = loaded->NearestNeighbors(q, 5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
    double bound_a = 0.0, bound_b = 0.0;
    auto ca = index->CoarseNearestNeighbors(q, 5, &bound_a);
    auto cb = loaded->CoarseNearestNeighbors(q, 5, &bound_b);
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    ExpectHitsEqual(*ca, *cb);
    EXPECT_EQ(bound_a, bound_b);
  }
}

TEST(IndexSnapshotTest, SaveCommitsAtomicallyAndLoads) {
  MotionDatabase db = MakeDb(80, 5, 33);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_snapshot.bin";
  ASSERT_TRUE(SaveFeatureIndex(*index, path).ok());
  // The temporary staging file must be gone after the commit.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  auto loaded = LoadFeatureIndex(path, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->built_epoch(), db.epoch());
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, BitFlipCorruptionDetectedAndRecovered) {
  MotionDatabase db = MakeDb(90, 6, 34);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_bitflip.bin";
  ASSERT_TRUE(SaveFeatureIndex(*index, path).ok());

  ServingFaultInjector injector(ServingFaultOptions{});
  ASSERT_TRUE(injector.CorruptSnapshotBitFlip(path).ok());
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].type, ServingFaultType::kSnapshotBitFlip);

  auto direct = LoadFeatureIndex(path, &db);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
      << direct.status();

  // The recovery path degrades to a rebuild, never to wrong answers.
  IndexSnapshotLoadInfo info;
  auto recovered =
      LoadOrRebuildFeatureIndex(path, &db, QuantizedOptions(), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_FALSE(info.fallback_reason.empty());
  EXPECT_EQ(recovered->built_epoch(), db.epoch());
  for (const auto& q : MakeQueries(6, 6, 35)) {
    auto a = recovered->NearestNeighbors(q, 3);
    auto b = db.NearestNeighbors(q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, TruncationDetectedAndRecovered) {
  MotionDatabase db = MakeDb(70, 4, 36);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_trunc.bin";
  ASSERT_TRUE(SaveFeatureIndex(*index, path).ok());

  ServingFaultInjector injector(ServingFaultOptions{});
  ASSERT_TRUE(injector.CorruptSnapshotTruncate(path).ok());

  auto direct = LoadFeatureIndex(path, &db);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError)
      << direct.status();
  EXPECT_NE(direct.status().message().find("truncated"), std::string::npos)
      << "truncation should be reported distinctly: " << direct.status();

  IndexSnapshotLoadInfo info;
  auto recovered =
      LoadOrRebuildFeatureIndex(path, &db, QuantizedOptions(), &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(info.rebuilt);
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, MissingFileFallsBackToRebuild) {
  MotionDatabase db = MakeDb(30, 3, 37);
  IndexSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildFeatureIndex(
      ::testing::TempDir() + "/idx_does_not_exist.bin", &db,
      QuantizedOptions(), &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
}

// A snapshot from an older database epoch must not serve silently —
// the recovery path rebuilds against the current epoch.
TEST(IndexSnapshotTest, StaleEpochTriggersRebuild) {
  MotionDatabase db = MakeDb(60, 4, 38);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/idx_stale.bin";
  ASSERT_TRUE(SaveFeatureIndex(*index, path).ok());
  ASSERT_TRUE(db.UpdateFeature(0, db.record(1).feature).ok());

  IndexSnapshotLoadInfo info;
  auto recovered =
      LoadOrRebuildFeatureIndex(path, &db, QuantizedOptions(), &info);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_NE(info.fallback_reason.find("epoch"), std::string::npos);
  EXPECT_EQ(recovered->built_epoch(), db.epoch());
  std::remove(path.c_str());
}

TEST(IndexSnapshotTest, DimensionMismatchRejected) {
  MotionDatabase db = MakeDb(40, 5, 39);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  MotionDatabase other = MakeDb(40, 7, 40);
  auto loaded = DeserializeFeatureIndex(*bytes, &other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(IndexSnapshotTest, GarbageAndShortFilesRejected) {
  MotionDatabase db = MakeDb(20, 3, 41);
  EXPECT_FALSE(DeserializeFeatureIndex("", &db).ok());
  EXPECT_FALSE(DeserializeFeatureIndex("not a snapshot", &db).ok());
  std::string wrong_magic(64, '\0');
  EXPECT_FALSE(DeserializeFeatureIndex(wrong_magic, &db).ok());
}

// A 4-bit index round-trips with its code width intact: the reloaded
// index reports quant_bits = 4, re-serializes byte-for-byte, and
// answers — exact AND coarse, with the certified bound — bit-identically.
TEST(IndexSnapshotTest, FourBitRoundTripPreservesCodeWidth) {
  MotionDatabase db = MakeDb(120, 9, 55);
  FeatureIndexOptions opts = QuantizedOptions();
  opts.quant_bits = 4;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  ASSERT_TRUE(index->has_quantized_tier());

  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  auto loaded = DeserializeFeatureIndex(*bytes, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().quant_bits, 4u);
  EXPECT_TRUE(loaded->has_quantized_tier());
  auto again = SerializeFeatureIndex(*loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*bytes, *again);

  for (const auto& q : MakeQueries(10, 9, 56)) {
    auto a = index->NearestNeighbors(q, 5);
    auto b = loaded->NearestNeighbors(q, 5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
    double bound_a = 0.0, bound_b = 0.0;
    auto ca = index->CoarseNearestNeighbors(q, 5, &bound_a);
    auto cb = loaded->CoarseNearestNeighbors(q, 5, &bound_b);
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    ExpectHitsEqual(*ca, *cb);
    EXPECT_EQ(bound_a, bound_b);
  }
}

// Version-1 snapshots predate the code-width field; the reader must
// refuse them with the *detected* version named and the supported
// range, so the operator knows to regenerate rather than debug.
TEST(IndexSnapshotTest, VersionOneMagicRejected) {
  MotionDatabase db = MakeDb(60, 5, 57);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  std::string v1 = *bytes;
  ASSERT_EQ(v1.compare(0, 10, "MOCEMGIX3\n"), 0);
  v1.replace(0, 10, "MOCEMGIX1\n");
  auto loaded = DeserializeFeatureIndex(v1, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("container version 1"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("2..3"), std::string::npos)
      << loaded.status();
}

// A snapshot from a *newer* writer is refused the same way — named
// version, supported range, regeneration hint — never mis-parsed.
TEST(IndexSnapshotTest, FutureVersionRejectedWithDetectedVersion) {
  MotionDatabase db = MakeDb(40, 4, 59);
  auto index = FeatureIndex::Build(&db, QuantizedOptions());
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  std::string v4 = *bytes;
  v4.replace(0, 10, "MOCEMGIX4\n");
  auto loaded = DeserializeFeatureIndex(v4, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("container version 4"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("regenerate"), std::string::npos)
      << loaded.status();
}

// A stored width that disagrees with the partition's code array must be
// rejected even when the checksum is valid — i.e. the width is part of
// the validated structure, not advisory. We forge the mismatch by
// flipping u64 fields holding 4 to 8 and recomputing the FNV-1a64
// payload checksum; the edit that hits a partition's quant_bits makes
// the 4-bit code array the wrong size for an 8-bit width.
TEST(IndexSnapshotTest, CodeWidthMismatchRejected) {
  MotionDatabase db = MakeDb(60, 5, 58);  // odd dim: 4-bit stride differs
  FeatureIndexOptions opts = QuantizedOptions();
  opts.quant_bits = 4;
  opts.num_partitions = 1;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok()) << index.status();
  ASSERT_TRUE(index->has_quantized_tier());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());

  const size_t kMagicLen = 10;
  const size_t payload_off = kMagicLen + 16;  // size + checksum
  ASSERT_GT(bytes->size(), payload_off);
  auto fnv = [](const char* data, size_t n) {
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
    return h;
  };
  auto put_u64 = [](std::string* s, size_t off, uint64_t v) {
    for (size_t i = 0; i < 8; ++i) {
      (*s)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  bool width_rejected = false;
  for (size_t off = payload_off; off + 8 <= bytes->size(); ++off) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= uint64_t(static_cast<unsigned char>((*bytes)[off + i]))
           << (8 * i);
    }
    if (v != 4) continue;
    std::string forged = *bytes;
    put_u64(&forged, off, 8);
    put_u64(&forged, kMagicLen + 8,
            fnv(forged.data() + payload_off, forged.size() - payload_off));
    auto loaded = DeserializeFeatureIndex(forged, &db);
    if (loaded.ok()) continue;  // e.g. the rebuild-options copy of the width
    if (loaded.status().message().find("width implies") !=
        std::string::npos) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
      width_rejected = true;
    }
  }
  EXPECT_TRUE(width_rejected)
      << "no forged width mismatch was rejected by the size validation";
}

// A version-3 snapshot of an fp32-tier index round-trips everything:
// the resolved precision, the mirrors (the reload re-serializes
// byte-for-byte, mirror blocks included), and the reload still scans
// through the fp32 tier — with answers bit-identical to the original.
TEST(IndexSnapshotTest, F32MirrorRoundTripBitIdentity) {
  MotionDatabase db = MakeDb(120, 9, 60);
  auto index = FeatureIndex::Build(&db, F32Options());
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->options().exact_precision, ExactPrecision::kF32);

  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->compare(0, 10, "MOCEMGIX3\n"), 0);
  auto loaded = DeserializeFeatureIndex(*bytes, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().exact_precision, ExactPrecision::kF32);
  auto again = SerializeFeatureIndex(*loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*bytes, *again)
      << "reload must re-serialize byte-for-byte, mirrors included";

  IndexQueryStats orig_stats, load_stats;
  for (const auto& q : MakeQueries(12, 9, 61)) {
    auto a = index->NearestNeighbors(q, 5, &orig_stats);
    auto b = loaded->NearestNeighbors(q, 5, &load_stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  EXPECT_GT(orig_stats.f32_scans, 0u) << "fp32 tier never engaged";
  EXPECT_EQ(load_stats.f32_scans, orig_stats.f32_scans);
  EXPECT_EQ(load_stats.f32_refined, orig_stats.f32_refined);
}

// Down-converted version-2 bytes (no precision field, no mirrors)
// still load: as concrete f64, answering bit-identically to an f64
// build, and re-saving upgrades them to a valid version-3 snapshot.
TEST(IndexSnapshotTest, VersionTwoReadCompatLoadsAsF64) {
  MotionDatabase db = MakeDb(110, 7, 62);
  FeatureIndexOptions opts = QuantizedOptions();
  opts.exact_precision = ExactPrecision::kF64;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());

  const std::string v2 = DownConvertToV2(*bytes);
  auto loaded = DeserializeFeatureIndex(v2, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->options().exact_precision, ExactPrecision::kF64);
  IndexQueryStats stats;
  for (const auto& q : MakeQueries(10, 7, 63)) {
    auto a = index->NearestNeighbors(q, 5);
    auto b = loaded->NearestNeighbors(q, 5, &stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
  EXPECT_EQ(stats.f32_scans, 0u) << "a v2 load must carry no mirrors";

  // Re-saving the loaded index writes current-version bytes.
  auto upgraded = SerializeFeatureIndex(*loaded);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(upgraded->compare(0, 10, "MOCEMGIX3\n"), 0);
  EXPECT_TRUE(DeserializeFeatureIndex(*upgraded, &db).ok());
  // And matches what the v3 writer produced for the same index.
  EXPECT_EQ(*upgraded, *bytes);
}

// A v2 file whose quantization is off must also load (its partitions
// end right after the empty code array).
TEST(IndexSnapshotTest, VersionTwoReadCompatUnquantized) {
  MotionDatabase db = MakeDb(80, 5, 64);
  FeatureIndexOptions opts;
  opts.num_partitions = 3;
  opts.quantized_scan = false;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  auto loaded = DeserializeFeatureIndex(DownConvertToV2(*bytes), &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (const auto& q : MakeQueries(6, 5, 65)) {
    auto a = index->NearestNeighbors(q, 3);
    auto b = loaded->NearestNeighbors(q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectHitsEqual(*a, *b);
  }
}

/// Cuts `snapshot`'s payload to every possible length and re-frames
/// each cut with a consistent header, so the parse reaches the payload
/// readers; every cut must fail with ParseError — classified, in
/// bounds (the asan run enforces no over-read), never accepted.
void SweepPayloadTruncations(const std::string& snapshot,
                             const MotionDatabase& db) {
  const size_t kHeader = 10 + 16;
  ASSERT_GT(snapshot.size(), kHeader);
  const std::string magic = snapshot.substr(0, 10);
  const char* payload = snapshot.data() + kHeader;
  const size_t payload_size = snapshot.size() - kHeader;
  for (size_t cut = 0; cut < payload_size; ++cut) {
    const std::string forged = TestFrame(magic, payload, cut);
    auto loaded = DeserializeFeatureIndex(forged, &db);
    ASSERT_FALSE(loaded.ok()) << "cut at payload byte " << cut
                              << " of " << payload_size << " accepted";
    ASSERT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "cut at payload byte " << cut << ": " << loaded.status();
  }
  // Raw file prefixes (no re-framing) exercise the header-level
  // classification: too short for a header, then length mismatch.
  for (size_t cut : {size_t{0}, size_t{5}, size_t{10}, size_t{25},
                     kHeader, snapshot.size() - 1}) {
    auto loaded = DeserializeFeatureIndex(snapshot.substr(0, cut), &db);
    ASSERT_FALSE(loaded.ok()) << "raw prefix of " << cut << " accepted";
  }
}

// Every truncation point of a version-3 snapshot — options block,
// partition headers, double blocks, and the mirror blocks new in v3 —
// is rejected as ParseError without reading out of bounds.
TEST(IndexSnapshotTest, TruncationSweepVersionThree) {
  MotionDatabase db = MakeDb(40, 4, 66);
  FeatureIndexOptions opts = F32Options();
  opts.num_partitions = 2;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  SweepPayloadTruncations(*bytes, db);
}

// The same sweep over genuine version-2 bytes: the compat path's
// readers are held to the same bounds discipline.
TEST(IndexSnapshotTest, TruncationSweepVersionTwo) {
  MotionDatabase db = MakeDb(40, 4, 67);
  FeatureIndexOptions opts = QuantizedOptions();
  opts.num_partitions = 2;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  SweepPayloadTruncations(DownConvertToV2(*bytes), db);
}

// A forged mirror inside an otherwise valid, checksummed v3 payload —
// float block sized for every row but a norms array that disagrees —
// must be rejected by the all-or-nothing mirror check, not scanned.
TEST(IndexSnapshotTest, ForgedMirrorCountRejected) {
  MotionDatabase db = MakeDb(30, 3, 68);
  FeatureIndexOptions opts = F32Options();
  opts.num_partitions = 1;
  auto index = FeatureIndex::Build(&db, opts);
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  const size_t kHeader = 10 + 16;
  const char* payload = bytes->data() + kHeader;
  const size_t payload_size = bytes->size() - kHeader;
  // The final field of the payload is norms_f32: count u64 + 30
  // floats. Flip its count to 7 and drop the excess floats.
  const size_t count_off = payload_size - 8 - 30 * 4;
  std::string forged(payload, count_off);
  for (int i = 0; i < 8; ++i) {
    forged.push_back(static_cast<char>(i == 0 ? 7 : 0));
  }
  forged.append(payload + count_off + 8, 7 * 4);
  auto loaded = DeserializeFeatureIndex(
      TestFrame("MOCEMGIX3\n", forged.data(), forged.size()), &db);
  ASSERT_FALSE(loaded.ok()) << "forged mirror accepted";
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("mirror malformed"),
            std::string::npos)
      << loaded.status();
}

/// One partition's record list, exact rows and squared norms as a
/// version-3 payload stores them.
struct PartitionRows {
  std::vector<uint64_t> records;
  std::vector<std::string> rows;   ///< each row's dim doubles, raw bytes
  std::vector<std::string> norms;  ///< each row's squared norm, raw bytes
};

/// Re-frames `snapshot` after `edit` rewrote its first partition's
/// record list, rows and norms (counts follow the vectors). Only an
/// index with one uncoded f64 partition is supported: its codes and
/// fp32 mirror are empty, so the fields after the norms copy verbatim.
/// The fresh checksum makes the forged file pass the frame checks, so
/// only the payload's own validation can reject it.
template <typename Edit>
std::string ForgePartitionRows(const std::string& snapshot, size_t dim,
                               const Edit& edit) {
  const size_t kHeader = 10 + 16;
  const char* p = snapshot.data() + kHeader;
  const size_t size = snapshot.size() - kHeader;
  size_t pos = 0;
  auto u64 = [&]() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(p[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  };
  auto put_u64 = [](std::string* out, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  pos = 8 * 11;  // epoch, dim, max_partition_size, eight options fields
  pos += 8 * 2;  // references rows, cols
  pos += 8 * u64();  // references data
  EXPECT_EQ(u64(), 1u) << "forging needs a single partition";
  pos += 8 * 7;  // six doubles + quant_bits
  std::string out(p, pos);
  PartitionRows part;
  const uint64_t n = u64();
  for (uint64_t i = 0; i < n; ++i) part.records.push_back(u64());
  EXPECT_EQ(u64(), n * dim);
  for (uint64_t i = 0; i < n; ++i) {
    part.rows.emplace_back(p + pos, 8 * dim);
    pos += 8 * dim;
  }
  EXPECT_EQ(u64(), n);
  for (uint64_t i = 0; i < n; ++i) {
    part.norms.emplace_back(p + pos, 8);
    pos += 8;
  }
  edit(&part);
  put_u64(&out, part.records.size());
  for (uint64_t r : part.records) put_u64(&out, r);
  put_u64(&out, part.rows.size() * dim);
  for (const std::string& row : part.rows) out += row;
  put_u64(&out, part.norms.size());
  for (const std::string& norm : part.norms) out += norm;
  out.append(p + pos, size - pos);
  return TestFrame(snapshot.substr(0, 10), out.data(), out.size());
}

/// One uncoded f64 partition over 30 records, dimension 3.
FeatureIndexOptions OnePartitionF64Options() {
  FeatureIndexOptions opts;
  opts.num_partitions = 1;
  opts.quantized_scan = false;
  opts.exact_precision = ExactPrecision::kF64;
  return opts;
}

/// The forged snapshot must fail DeserializeFeatureIndex with
/// ParseError naming `expect`, and LoadOrRebuildFeatureIndex must
/// rebuild and then answer record 1's own feature with (1, 0), as the
/// linear scan does.
void ExpectForgedRecordListRebuilt(const std::string& forged,
                                   const MotionDatabase& db,
                                   const std::string& expect,
                                   const std::string& file) {
  auto loaded = DeserializeFeatureIndex(forged, &db);
  ASSERT_FALSE(loaded.ok()) << "forged record list accepted";
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(expect), std::string::npos)
      << loaded.status();
  const std::string path = ::testing::TempDir() + "/" + file;
  ASSERT_TRUE(WriteStringToFile(path, forged).ok());
  IndexSnapshotLoadInfo info;
  auto recovered = LoadOrRebuildFeatureIndex(
      path, &db, OnePartitionF64Options(), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(info.loaded_from_snapshot);
  EXPECT_TRUE(info.rebuilt);
  auto hits = recovered->NearestNeighbors(db.record(1).feature, 1);
  ASSERT_TRUE(hits.ok()) << hits.status();
  auto linear = db.NearestNeighbors(db.record(1).feature, 1);
  ASSERT_TRUE(linear.ok());
  ExpectHitsEqual(*linear, *hits);
  EXPECT_EQ((*hits)[0].record_index, 1u);
  EXPECT_EQ((*hits)[0].distance, 0.0);
  std::remove(path.c_str());
}

// A checksummed payload whose partition lists record 0 twice (in place
// of record 1, whose row stays in the block) would answer record 1's
// own feature with record 0. The reader must reject it.
TEST(IndexSnapshotTest, ForgedDuplicateRecordRejected) {
  MotionDatabase db = MakeDb(30, 3, 69);
  auto index = FeatureIndex::Build(&db, OnePartitionF64Options());
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  const std::string forged =
      ForgePartitionRows(*bytes, 3, [](PartitionRows* part) {
        part->records[1] = part->records[0];
      });
  ExpectForgedRecordListRebuilt(forged, db, "more than once",
                                "idx_forged_dup.bin");
}

// A checksummed payload whose partitions leave a record out (its row,
// norm and list entry dropped, counts consistent) must be rejected
// too: the index would never return that record.
TEST(IndexSnapshotTest, ForgedMissingRecordRejected) {
  MotionDatabase db = MakeDb(30, 3, 70);
  auto index = FeatureIndex::Build(&db, OnePartitionF64Options());
  ASSERT_TRUE(index.ok());
  auto bytes = SerializeFeatureIndex(*index);
  ASSERT_TRUE(bytes.ok());
  const std::string forged =
      ForgePartitionRows(*bytes, 3, [](PartitionRows* part) {
        part->records.pop_back();
        part->rows.pop_back();
        part->norms.pop_back();
      });
  ExpectForgedRecordListRebuilt(forged, db, "out of every partition",
                                "idx_forged_gap.bin");
}

}  // namespace
}  // namespace mocemg

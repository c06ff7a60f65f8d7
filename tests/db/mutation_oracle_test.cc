/// Linear-scan oracle for the serving index's mutation paths. A seeded
/// random sequence of UpdateFeature + ApplyUpdate, Insert + Rebuild,
/// snapshot save + LoadOrRebuild + SwapIndex, and served submits runs
/// over one database; after every step the index's exact hits must
/// equal MotionDatabase::NearestNeighbors bit for bit, every coarse hit
/// must lie within its certified bound, and the server's answers must
/// equal the linear scan while coming from the index (its stats grow),
/// not from the exact fallback.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/feature_index.h"
#include "db/index_snapshot.h"
#include "db/motion_database.h"
#include "db/query_server.h"
#include "util/distance_kernels.h"
#include "util/random.h"

namespace mocemg {
namespace {

constexpr size_t kDim = 6;

MotionRecord MakeRecord(size_t i, Rng* rng) {
  MotionRecord r;
  r.name = "m" + std::to_string(i);
  r.label = i % 4;
  r.label_name = "class" + std::to_string(r.label);
  r.feature.resize(kDim);
  const double cx = static_cast<double>(i % 4) * 20.0;
  for (size_t j = 0; j < kDim; ++j) {
    r.feature[j] = (j == 0 ? cx : 0.0) + rng->Gaussian(0, 1.0);
  }
  return r;
}

/// A query near a random stored record (so neighbours sit at small,
/// sometimes tied distances) or anywhere in the data's range.
std::vector<double> MakeQuery(const MotionDatabase& db, Rng* rng) {
  std::vector<double> q(kDim);
  if (rng->NextBelow(2) == 0) {
    q = db.record(rng->NextBelow(db.size())).feature;
    if (rng->NextBelow(2) == 0) q[rng->NextBelow(kDim)] += 0.05;
  } else {
    for (double& v : q) v = rng->Gaussian(30.0, 25.0);
  }
  return q;
}

void ExpectHitsEqual(const std::vector<QueryHit>& want,
                     const std::vector<QueryHit>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].record_index, got[i].record_index);
    EXPECT_EQ(want[i].distance, got[i].distance);
  }
}

/// The per-step oracle: index, coarse tier and server against the
/// linear scan over the database as it stands.
void CheckAgainstLinearScan(const MotionDatabase& db,
                            const FeatureIndex& index, QueryServer* server,
                            Rng* rng) {
  ASSERT_EQ(index.built_epoch(), db.epoch());
  for (int i = 0; i < 4; ++i) {
    const std::vector<double> q = MakeQuery(db, rng);
    for (size_t k : {1, 5}) {
      auto linear = db.NearestNeighbors(q, k);
      auto hits = index.NearestNeighbors(q, k);
      ASSERT_TRUE(linear.ok());
      ASSERT_TRUE(hits.ok()) << hits.status();
      ExpectHitsEqual(*linear, *hits);
    }
    double bound = -1.0;
    auto coarse = index.CoarseNearestNeighbors(q, 5, &bound);
    ASSERT_TRUE(coarse.ok()) << coarse.status();
    EXPECT_GE(bound, 0.0);
    for (const QueryHit& h : *coarse) {
      const double truth = std::sqrt(SquaredL2(
          q.data(), db.record(h.record_index).feature.data(), kDim));
      EXPECT_LE(std::abs(h.distance - truth), bound)
          << "record " << h.record_index;
    }
  }
  // Served answers: kNN at k = 1 and 5 plus one classify request, all
  // distinct queries, so none can come from the cache.
  const uint64_t before = server->stats().index_stats.distance_computations;
  std::vector<std::vector<double>> queries;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(MakeQuery(db, rng));
    queries.back()[0] += 1e-3 * (i + 1);
    auto t = i == 5 ? server->SubmitClassify(queries.back(), 5)
                    : server->SubmitNearestNeighbors(queries.back(),
                                                     i % 2 == 0 ? 1 : 5);
    ASSERT_TRUE(t.ok()) << t.status();
    tickets.push_back(*t);
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const size_t k = i == 5 ? 5 : (i % 2 == 0 ? 1 : 5);
    auto linear = db.NearestNeighbors(queries[i], k);
    ASSERT_TRUE(linear.ok());
    if (i == 5) {
      auto label = server->TakeLabel(tickets[i]);
      ASSERT_TRUE(label.ok()) << label.status();
      auto want = db.VoteAmongHits(*linear);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(*want, *label);
    } else {
      auto hits = server->TakeHits(tickets[i]);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ExpectHitsEqual(*linear, *hits);
    }
  }
  EXPECT_GT(server->stats().index_stats.distance_computations, before)
      << "the index must serve, not the exact fallback";
}

void RunOracle(const FeatureIndexOptions& options, uint64_t seed,
               const std::string& snapshot_name) {
  Rng rng(seed);
  MotionDatabase db;
  for (size_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(db.Insert(MakeRecord(i, &rng)).ok());
  }
  auto built = FeatureIndex::Build(&db, options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto index = std::make_unique<FeatureIndex>(std::move(*built));
  QueryServerOptions sopts;
  sopts.max_batch = 4;
  auto server = QueryServer::Create(&db, index.get(), sopts);
  ASSERT_TRUE(server.ok()) << server.status();
  const std::string path = ::testing::TempDir() + "/" + snapshot_name;
  size_t counts[4] = {0, 0, 0, 0};
  for (int step = 0; step < 60; ++step) {
    const size_t kind = rng.NextBelow(4);
    ++counts[kind];
    SCOPED_TRACE("step " + std::to_string(step) + " kind " +
                 std::to_string(kind));
    switch (kind) {
      case 0: {  // UpdateFeature + ApplyUpdate
        const size_t rec = rng.NextBelow(db.size());
        std::vector<double> f = rng.NextBelow(2) == 0
                                    ? db.record(rng.NextBelow(db.size())).feature
                                    : MakeRecord(rec, &rng).feature;
        ASSERT_TRUE(db.UpdateFeature(rec, f).ok());
        ASSERT_TRUE(index->ApplyUpdate(rec).ok());
        break;
      }
      case 1: {  // Insert + Rebuild
        ASSERT_TRUE(db.Insert(MakeRecord(db.size(), &rng)).ok());
        ASSERT_TRUE(index->Rebuild().ok());
        break;
      }
      case 2: {  // snapshot round trip, swapped in under the server
        ASSERT_TRUE(SaveFeatureIndex(*index, path).ok());
        IndexSnapshotLoadInfo info;
        auto loaded = LoadOrRebuildFeatureIndex(path, &db, options, &info);
        ASSERT_TRUE(loaded.ok()) << loaded.status();
        EXPECT_TRUE(info.loaded_from_snapshot) << info.fallback_reason;
        auto next = std::make_unique<FeatureIndex>(std::move(*loaded));
        ASSERT_TRUE(server->SwapIndex(next.get()).ok());
        index = std::move(next);
        break;
      }
      default: {  // served submits, repeats included (cache hits)
        const std::vector<double> q = MakeQuery(db, &rng);
        for (size_t k : {1, 5, 1}) {
          auto hits = server->NearestNeighbors(q, k);
          auto linear = db.NearestNeighbors(q, k);
          ASSERT_TRUE(hits.ok()) << hits.status();
          ASSERT_TRUE(linear.ok());
          ExpectHitsEqual(*linear, *hits);
        }
        break;
      }
    }
    CheckAgainstLinearScan(db, *index, &*server, &rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t kind = 0; kind < 4; ++kind) {
    EXPECT_GT(counts[kind], 0u) << "step kind " << kind << " never ran";
  }
  EXPECT_GT(server->stats().cache_hits, 0u);
  std::remove(path.c_str());
}

TEST(FeatureIndexOracleTest, MutationSequenceDefaultOptions) {
  RunOracle(FeatureIndexOptions{}, 2024, "oracle_default.bin");
}

TEST(FeatureIndexOracleTest, MutationSequenceEveryPartitionCoded) {
  FeatureIndexOptions options;
  options.quantized_min_rows = 1;
  RunOracle(options, 2025, "oracle_coded.bin");
}

}  // namespace
}  // namespace mocemg

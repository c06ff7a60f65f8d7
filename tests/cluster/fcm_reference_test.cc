// FitFcm against the fit it replaced, bit for bit. The `reference`
// namespace keeps the earlier per-point fit verbatim: E-step distances
// through SquaredL2ManyToMany, one MembershipRow per point, and the
// M-step as a plain loop in this file. FitFcm must reproduce its
// centres, memberships, objective history and iteration count exactly
// on every usable kernel backend, at every chunking and thread count,
// for m = 2 (the lane path) and m = 1.5 (the scalar rows), both inits,
// crisp rows and re-seeded degenerate clusters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/fcm.h"
#include "cluster/kmeans.h"
#include "util/distance_kernels.h"
#include "util/kernel_dispatch.h"
#include "util/macros.h"
#include "util/random.h"

namespace mocemg {
namespace {
namespace reference {

// Point tile for the E-step's blocked distance kernel: a tile's
// point-to-center distances land in one scratch block so the center
// rows stream once per tile, not once per point. Tiling never changes
// bits (each pair's accumulation is self-contained in the kernel).
constexpr size_t kEstepTile = 32;

// u^m, with the paper's m = 2 special-cased to a multiply: pow()
// otherwise dominates the M-step accumulation at small dimensions.
inline double FuzzyWeight(double u, double m) {
  return m == 2.0 ? u * u : std::pow(u, m);
}

// Membership update for one point given squared distances to all
// centers: u_i = 1 / Σ_j (d_i/d_j)^(2/(m−1)) computed stably via the
// reciprocal-power form. Points coinciding with centers get crisp rows.
void MembershipRow(const double* sq_dists, size_t c, double exponent,
                   double* row) {
  // Exact hits: distribute crisp membership over coincident centers.
  size_t zero_count = 0;
  for (size_t i = 0; i < c; ++i) {
    if (sq_dists[i] <= 0.0) ++zero_count;
  }
  if (zero_count > 0) {
    for (size_t i = 0; i < c; ++i) {
      row[i] = sq_dists[i] <= 0.0 ? 1.0 / static_cast<double>(zero_count)
                                  : 0.0;
    }
    return;
  }
  // u_i ∝ d_i^(−1/(m−1)) on squared distances (so exponent = 1/(m−1)).
  // The paper's m = 2 means exponent = 1: a plain reciprocal — skip the
  // pow() call, which otherwise dominates the row (IEEE pow(x, 1) == x
  // exactly, so the fast path is bit-identical).
  double sum = 0.0;
  if (exponent == 1.0) {
    for (size_t i = 0; i < c; ++i) {
      row[i] = 1.0 / sq_dists[i];
      sum += row[i];
    }
  } else {
    for (size_t i = 0; i < c; ++i) {
      row[i] = std::pow(1.0 / sq_dists[i], exponent);
      sum += row[i];
    }
  }
  for (size_t i = 0; i < c; ++i) row[i] /= sum;
}

struct Fit {
  FcmModel model;
  double objective = std::numeric_limits<double>::infinity();
};

Result<Fit> FitOnce(const Matrix& points, const FcmOptions& options,
                    uint64_t seed) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t c = options.num_clusters;
  const double m = options.fuzziness;
  const double exponent = 1.0 / (m - 1.0);

  Rng rng(seed);
  Matrix u(n, c);
  Matrix centers(c, d);

  // Both inits pick distinct data points as the initial centers and
  // derive U from them via the membership formula (see FcmInit docs for
  // why a random membership matrix is not an option).
  Matrix init_centers(c, d);
  if (options.init == FcmInit::kRandomPoints) {
    // Partial Fisher–Yates over indices for c distinct draws.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < c; ++i) {
      const size_t j = i + static_cast<size_t>(rng.NextBelow(n - i));
      std::swap(idx[i], idx[j]);
      init_centers.SetRow(i, points.Row(idx[i]));
    }
  } else {
    KmeansOptions km;
    km.num_clusters = c;
    km.seed = seed;
    km.max_iterations = 1;  // seeding only: k-means++ centers
    MOCEMG_ASSIGN_OR_RETURN(KmeansModel seeded, FitKmeans(points, km));
    init_centers = std::move(seeded.centers);
  }
  // Initial memberships from the seed centers: each point's row is
  // independent, so this parallelizes with bit-identical results.
  {
    Status st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
          std::vector<double> sq(kEstepTile * c);
          for (size_t k0 = begin; k0 < end; k0 += kEstepTile) {
            const size_t tile = std::min(kEstepTile, end - k0);
            SquaredL2ManyToMany(points.RowPtr(k0), tile,
                                init_centers.RowPtr(0), c, d, sq.data(),
                                c);
            for (size_t t = 0; t < tile; ++t) {
              MembershipRow(sq.data() + t * c, c, exponent,
                            u.RowPtr(k0 + t));
            }
          }
          return Status::OK();
        },
        options.parallel);
    MOCEMG_RETURN_NOT_OK(st);
  }

  // Per-chunk partial accumulators for the M-step and the per-iteration
  // reductions. The chunk decomposition is a pure function of (n, grain)
  // — never of the thread count — and partials are combined in ascending
  // chunk order, so every thread count produces the same bits. Allocated
  // once, reused every iteration.
  const size_t num_chunks = ParallelNumChunks(n, options.parallel.grain);
  std::vector<Matrix> part_centers(num_chunks, Matrix(c, d));
  std::vector<std::vector<double>> part_weight(
      num_chunks, std::vector<double>(c, 0.0));
  std::vector<double> part_objective(num_chunks, 0.0);
  std::vector<double> part_max_delta(num_chunks, 0.0);

  FcmModel model;
  size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Center update: c_i = Σ_k u_ik^m x_k / Σ_k u_ik^m, accumulated as
    // per-chunk partial sums.
    Status st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t chunk) -> Status {
          Matrix& pc = part_centers[chunk];
          std::vector<double>& pw = part_weight[chunk];
          std::fill(pc.mutable_data().begin(), pc.mutable_data().end(),
                    0.0);
          std::fill(pw.begin(), pw.end(), 0.0);
          for (size_t k = begin; k < end; ++k) {
            const double* urow = u.RowPtr(k);
            const double* prow = points.RowPtr(k);
            for (size_t i = 0; i < c; ++i) {
              const double w = FuzzyWeight(urow[i], m);
              pw[i] += w;
              double* crow = pc.RowPtr(i);
              for (size_t j = 0; j < d; ++j) crow[j] += w * prow[j];
            }
          }
          return Status::OK();
        },
        options.parallel);
    MOCEMG_RETURN_NOT_OK(st);
    std::fill(centers.mutable_data().begin(),
              centers.mutable_data().end(), 0.0);
    std::vector<double> weight(c, 0.0);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const Matrix& pc = part_centers[chunk];
      const std::vector<double>& pw = part_weight[chunk];
      for (size_t i = 0; i < c; ++i) {
        weight[i] += pw[i];
        double* crow = centers.RowPtr(i);
        const double* prow = pc.RowPtr(i);
        for (size_t j = 0; j < d; ++j) crow[j] += prow[j];
      }
    }
    for (size_t i = 0; i < c; ++i) {
      if (weight[i] <= 0.0) {
        // Degenerate cluster: re-seed its center at a random point.
        const size_t pick = static_cast<size_t>(rng.NextBelow(n));
        centers.SetRow(i, points.Row(pick));
      } else {
        double* crow = centers.RowPtr(i);
        for (size_t j = 0; j < d; ++j) crow[j] /= weight[i];
      }
    }

    // Membership update + objective + convergence check. Rows of U are
    // written disjointly; the objective is an ordered per-chunk sum and
    // max_delta an (order-insensitive) max.
    st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t chunk) -> Status {
          std::vector<double> sq(kEstepTile * c);
          std::vector<double> new_row(c);
          double objective = 0.0;
          double max_delta = 0.0;
          for (size_t k0 = begin; k0 < end; k0 += kEstepTile) {
            const size_t tile = std::min(kEstepTile, end - k0);
            SquaredL2ManyToMany(points.RowPtr(k0), tile,
                                centers.RowPtr(0), c, d, sq.data(), c);
            for (size_t t = 0; t < tile; ++t) {
              const double* sq_row = sq.data() + t * c;
              MembershipRow(sq_row, c, exponent, new_row.data());
              double* urow = u.RowPtr(k0 + t);
              for (size_t i = 0; i < c; ++i) {
                max_delta =
                    std::max(max_delta, std::fabs(new_row[i] - urow[i]));
                urow[i] = new_row[i];
                objective += FuzzyWeight(new_row[i], m) * sq_row[i];
              }
            }
          }
          part_objective[chunk] = objective;
          part_max_delta[chunk] = max_delta;
          return Status::OK();
        },
        options.parallel);
    MOCEMG_RETURN_NOT_OK(st);
    double objective = 0.0;
    double max_delta = 0.0;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      objective += part_objective[chunk];
      max_delta = std::max(max_delta, part_max_delta[chunk]);
    }
    model.objective_history.push_back(objective);
    if (max_delta < options.epsilon) {
      ++iter;
      break;
    }
  }

  model.centers = std::move(centers);
  model.memberships = std::move(u);
  model.iterations = iter;
  Fit fit;
  fit.objective = model.objective_history.empty()
                      ? std::numeric_limits<double>::infinity()
                      : model.objective_history.back();
  fit.model = std::move(model);
  return fit;
}

Result<FcmModel> FitFcm(const Matrix& points, const FcmOptions& options) {
  Rng seeder(options.seed);
  Fit best;
  bool have_best = false;
  for (int r = 0; r < options.restarts; ++r) {
    MOCEMG_ASSIGN_OR_RETURN(Fit fit,
                            FitOnce(points, options, seeder.NextUint64()));
    if (!have_best || fit.objective < best.objective) {
      best = std::move(fit);
      have_best = true;
    }
  }
  return std::move(best.model);
}

}  // namespace reference

// Restores the auto-detected backend when a test that forces one exits.
struct ScopedAutoBackend {
  ~ScopedAutoBackend() {
    EXPECT_TRUE(SetKernelBackend(KernelBackend::kAuto).ok());
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data());
}

// n points in d dims: Gaussian blobs, with every third point an exact
// copy of an earlier one, so seed centres drawn from the data have
// points on them (crisp rows) scattered through the 8-point groups.
Matrix MakePoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix points(n, d);
  for (size_t k = 0; k < n; ++k) {
    if (k % 3 == 2) {
      points.SetRow(k, points.Row(rng.NextBelow(k)));
      continue;
    }
    const double blob = static_cast<double>(rng.NextBelow(4));
    for (size_t j = 0; j < d; ++j) {
      points(k, j) = 4.0 * blob * static_cast<double>(j % 2 == 0) +
                     rng.Gaussian(0.0, 1.0);
    }
  }
  return points;
}

void ExpectSameFit(const Matrix& points, const FcmOptions& options,
                   const std::string& where) {
  auto want = reference::FitFcm(points, options);
  auto got = FitFcm(points, options);
  ASSERT_TRUE(want.ok()) << want.status() << " " << where;
  ASSERT_TRUE(got.ok()) << got.status() << " " << where;
  EXPECT_EQ(got->iterations, want->iterations) << where;
  EXPECT_TRUE(SameBits(got->objective_history, want->objective_history))
      << where;
  EXPECT_TRUE(SameBits(got->centers, want->centers)) << where;
  EXPECT_TRUE(SameBits(got->memberships, want->memberships)) << where;
}

std::string Where(KernelBackend backend, const FcmOptions& o, size_t n,
                  size_t d) {
  return std::string(KernelBackendName(backend)) + " n=" +
         std::to_string(n) + " d=" + std::to_string(d) +
         " c=" + std::to_string(o.num_clusters) +
         " m=" + std::to_string(o.fuzziness) +
         " init=" + std::to_string(static_cast<int>(o.init)) +
         " grain=" + std::to_string(o.parallel.grain) +
         " threads=" + std::to_string(o.parallel.max_threads);
}

constexpr size_t kGrains[] = {0, 3, 8, 13};
constexpr size_t kThreads[] = {1, 2, 8};

TEST(FcmReferenceTest, MatchesReferenceFitOnEveryBackend) {
  ScopedAutoBackend restore;
  std::vector<size_t> dims;
  for (size_t d = 1; d <= 17; ++d) dims.push_back(d);
  dims.push_back(30);
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    size_t round = 0;
    for (size_t c : {1, 2, 5, 15, 40}) {
      for (size_t d : dims) {
        const size_t n = std::max<size_t>(3 * c, 40) + (c + d) % 9;
        const Matrix points = MakePoints(n, d, 1000 * c + d);
        for (double m : {2.0, 1.5}) {
          for (FcmInit init :
               {FcmInit::kRandomPoints, FcmInit::kKmeansPlusPlus}) {
            FcmOptions options;
            options.num_clusters = c;
            options.fuzziness = m;
            options.init = init;
            options.max_iterations = 12;
            options.epsilon = 1e-5;
            options.seed = 7 + round;
            options.parallel.grain = kGrains[round % 4];
            options.parallel.max_threads = kThreads[round % 3];
            ++round;
            ExpectSameFit(points, options, Where(backend, options, n, d));
          }
        }
      }
    }
  }
}

TEST(FcmReferenceTest, EveryChunkingAndThreadCountMatchesReference) {
  // grain 3 and 13 give chunks shorter and longer than a tile and not
  // on tile boundaries; grain 8 gives whole tiles; grain 0 the default
  // 64 chunks. Restarts pick the best fit the same way.
  ScopedAutoBackend restore;
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (size_t d : {11, 16}) {
      const Matrix points = MakePoints(203, d, 31 + d);
      for (size_t grain : kGrains) {
        for (size_t threads : kThreads) {
          FcmOptions options;
          options.num_clusters = 15;
          options.max_iterations = 20;
          options.epsilon = 1e-4;
          options.restarts = 2;
          options.parallel.grain = grain;
          options.parallel.max_threads = threads;
          ExpectSameFit(points, options,
                        Where(backend, options, points.rows(), d));
        }
      }
    }
  }
}

TEST(FcmReferenceTest, CrispRowsAndDegenerateClustersMatchReference) {
  // Points duplicated onto a handful of locations: every seed centre has
  // points on it, so whole groups hold crisp rows. At m = 2000 a
  // near-uniform membership u ~ 1/c gives u^m == 0, so every cluster
  // without a crisp point has zero weight and is re-seeded at a random
  // point.
  ScopedAutoBackend restore;
  for (KernelBackend backend : UsableKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    for (size_t d : {2, 5, 16}) {
      Matrix points(90, d);
      for (size_t k = 0; k < points.rows(); ++k) {
        for (size_t j = 0; j < d; ++j) {
          points(k, j) = static_cast<double>((k * 7 + j) % 6);
        }
      }
      for (double m : {2.0, 1.5, 2000.0}) {
        for (FcmInit init :
             {FcmInit::kRandomPoints, FcmInit::kKmeansPlusPlus}) {
          for (size_t c : {3, 8}) {
            FcmOptions options;
            options.num_clusters = c;
            options.fuzziness = m;
            options.init = init;
            options.max_iterations = 10;
            options.epsilon = 0.0;
            options.parallel.grain = 5;
            options.parallel.max_threads = 2;
            ExpectSameFit(points, options,
                          Where(backend, options, points.rows(), d));
            if (m != 2000.0 || c != 8) continue;
            // The data does reach the re-seed: with more centres than
            // locations, some cluster's weight over the final
            // memberships is exactly zero.
            auto fit = FitFcm(points, options);
            ASSERT_TRUE(fit.ok());
            bool degenerate = false;
            for (size_t i = 0; i < c; ++i) {
              double weight = 0.0;
              for (size_t k = 0; k < points.rows(); ++k) {
                weight += std::pow(fit->memberships(k, i), m);
              }
              degenerate |= weight <= 0.0;
            }
            EXPECT_TRUE(degenerate) << Where(backend, options,
                                             points.rows(), d);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mocemg

#include "cluster/fcm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kmeans.h"
#include "linalg/vector_ops.h"
#include "util/distance_kernels.h"
#include "util/macros.h"
#include "util/random.h"

namespace mocemg {
namespace {

// Points per E-step block: 8 tiles, so a block's centre-major distances
// (c × 64 doubles) stay in L1 while its membership rows are formed.
constexpr size_t kEstepRows = 8 * kL2TileRows;

// u^m (the M-step's weight W and the objective's), with the paper's
// m = 2 special-cased to a multiply: pow() otherwise dominates the
// E-step at small dimensions.
inline double FuzzyWeight(double u, double m) {
  return m == 2.0 ? u * u : std::pow(u, m);
}

Status ValidateOptions(const Matrix& points, const FcmOptions& options) {
  if (points.rows() == 0 || points.cols() == 0) {
    return Status::InvalidArgument("FCM on empty point set");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("FCM needs at least one cluster");
  }
  if (points.rows() < options.num_clusters) {
    return Status::InvalidArgument(
        "FCM with c=" + std::to_string(options.num_clusters) +
        " clusters needs at least that many points, got " +
        std::to_string(points.rows()));
  }
  if (options.fuzziness <= 1.0) {
    return Status::InvalidArgument("fuzzifier m must be > 1");
  }
  if (options.max_iterations == 0 || options.restarts <= 0) {
    return Status::InvalidArgument("iterations and restarts must be >= 1");
  }
  // A single NaN point poisons every center through the weighted means
  // and the fit silently degenerates; surface it instead.
  for (size_t r = 0; r < points.rows(); ++r) {
    for (size_t c = 0; c < points.cols(); ++c) {
      if (!std::isfinite(points(r, c))) {
        return Status::NumericalError(
            "FCM input contains a non-finite value at point " +
            std::to_string(r) + ", dimension " + std::to_string(c));
      }
    }
  }
  return Status::OK();
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

// E-step over `rows` points held as one PackL2Tiles block. Writes each
// point's membership row against `centers` into u (row-major, stride
// c), and FuzzyWeight(u) into w when w is set. With `objective` set it
// also adds Σ_k Σ_i w_ki · d²_ki to *objective in (point, centre) order
// and returns max |u_new − u_old| over the rows it replaces.
//
// Every value keeps the bits of SquaredL2OneToMany + MembershipRow per
// point: l2_tiles with the centre as the query computes fl(c − x) where
// the pair kernel computes fl(x − c), and round-to-nearest negates
// exactly, so the squares and their 4-lane sums match. A group of 8
// points (one tile) then runs MembershipRow's m = 2 ops in its order:
// 1 / d_i and the running sum over ascending i with the points in
// lanes, then (1 / d_i) / sum point by point, beside the serial
// objective. Division is correctly rounded, so every lane keeps the
// scalar bits. A group with a crisp row (some d_i <= 0), and every
// group when m != 2, takes its rows from MembershipRow point by point
// instead, over sums of 1 (x / 1 == x exactly).
double MembershipRows(const double* tiles, size_t rows,
                      const Matrix& centers, double m, double* u, double* w,
                      double* objective) {
  constexpr size_t G = kL2TileRows;
  const size_t c = centers.rows();
  const size_t d = centers.cols();
  const double exponent = 1.0 / (m - 1.0);
  // dist: a block's distances, centre-major with the points in lanes;
  // lanes: one group's 1 / d_i (or its finished rows from the scalar
  // fallback), centre-major; sq/row: one point's distances and row for
  // that fallback.
  std::vector<double> scratch(c * (kEstepRows + G + 2));
  double* dist = scratch.data();
  double* lanes = dist + c * kEstepRows;
  double* sq = lanes + c * G;
  double* row = sq + c;
  double obj = objective != nullptr ? *objective : 0.0;
  double max_delta = 0.0;
  for (size_t r0 = 0; r0 < rows; r0 += kEstepRows) {
    const size_t block = std::min(rows - r0, kEstepRows);
    for (size_t i = 0; i < c; ++i) {
      double* di = dist + i * kEstepRows;
      SquaredL2Tiles(centers.RowPtr(i), tiles + r0 * d, block, d, di);
      // The pad lanes of a partial last group divide harmlessly and
      // never look crisp.
      std::fill(di + block, di + (block + G - 1) / G * G, 1.0);
    }
    for (size_t g0 = 0; g0 < block; g0 += G) {
      const double* dg = dist + g0;
      const size_t n = std::min(block - g0, G);
      double sum[G] = {};
      size_t crisp = 0;
      for (size_t i = 0; i < c; ++i) {
        const double* di = dg + i * kEstepRows;
        double* li = lanes + i * G;
        for (size_t l = 0; l < G; ++l) {
          li[l] = 1.0 / di[l];
          sum[l] += li[l];
          crisp += di[l] <= 0.0;
        }
      }
      if (exponent != 1.0 || crisp > 0) {
        for (size_t l = 0; l < n; ++l) {
          for (size_t i = 0; i < c; ++i) sq[i] = dg[i * kEstepRows + l];
          MembershipRow(sq, c, exponent, row);
          for (size_t i = 0; i < c; ++i) lanes[i * G + l] = row[i];
          sum[l] = 1.0;
        }
      }
      for (size_t l = 0; l < n; ++l) {
        const size_t k = r0 + g0 + l;
        double* urow = u + k * c;
        if (objective == nullptr) {
          for (size_t i = 0; i < c; ++i) urow[i] = lanes[i * G + l] / sum[l];
          if (w != nullptr) {
            for (size_t i = 0; i < c; ++i) {
              w[k * c + i] = FuzzyWeight(urow[i], m);
            }
          }
          continue;
        }
        double* wrow = w + k * c;
        for (size_t i = 0; i < c; ++i) {
          const double v = lanes[i * G + l] / sum[l];
          max_delta = std::max(max_delta, std::fabs(v - urow[i]));
          urow[i] = v;
          wrow[i] = FuzzyWeight(v, m);
          obj += wrow[i] * dg[i * kEstepRows + l];
        }
      }
    }
  }
  if (objective != nullptr) *objective = obj;
  return max_delta;
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

  Rng rng(seed);
  Matrix u(n, c);
  // W = FuzzyWeight(u), written by each E-step for the next M-step.
  Matrix w(n, c);
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

  // Per-chunk state. The chunk decomposition is a pure function of
  // (n, grain) — never of the thread count — and partials are combined
  // in ascending chunk order, so every thread count produces the same
  // bits. Each chunk's points are one block of 8-row tiles for the
  // E-step, packed by the chunk's first E-step; every block starts on a
  // tile boundary. Allocated once, reused every iteration.
  const size_t num_chunks = ParallelNumChunks(n, options.parallel.grain);
  std::vector<size_t> tile_offset(num_chunks + 1, 0);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const auto [begin, end] = ParallelChunkBounds(n, num_chunks, chunk);
    tile_offset[chunk + 1] = tile_offset[chunk] + L2TilesSize(end - begin, d);
  }
  std::vector<double> tiles(tile_offset.back());
  std::vector<Matrix> part_centers(num_chunks, Matrix(c, d));
  std::vector<std::vector<double>> part_weight(
      num_chunks, std::vector<double>(c, 0.0));
  std::vector<double> part_objective(num_chunks, 0.0);
  std::vector<double> part_max_delta(num_chunks, 0.0);

  // Initial memberships (and W) from the seed centers.
  MOCEMG_RETURN_NOT_OK(ParallelFor(
      n,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        double* block = tiles.data() + tile_offset[chunk];
        PackL2Tiles(points.RowPtr(begin), end - begin, d, block);
        MembershipRows(block, end - begin, init_centers, m, u.RowPtr(begin),
                       w.RowPtr(begin), nullptr);
        return Status::OK();
      },
      options.parallel));

  FcmModel model;
  size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Center update: c_i = Σ_k u_ik^m x_k / Σ_k u_ik^m, accumulated as
    // per-chunk partial sums.
    Status st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t chunk) -> Status {
          WeightedRowSums(w.RowPtr(begin), c, points.RowPtr(begin), d,
                          end - begin, part_centers[chunk].RowPtr(0),
                          part_weight[chunk].data());
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

    // Membership update + objective + convergence check. Rows of U and
    // W are written disjointly; the objective is an ordered per-chunk
    // sum and max_delta an (order-insensitive) max.
    st = ParallelFor(
        n,
        [&](size_t begin, size_t end, size_t chunk) -> Status {
          double objective = 0.0;
          part_max_delta[chunk] = MembershipRows(
              tiles.data() + tile_offset[chunk], end - begin, centers, m,
              u.RowPtr(begin), w.RowPtr(begin), &objective);
          part_objective[chunk] = objective;
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

}  // namespace

Result<FcmModel> FitFcm(const Matrix& points, const FcmOptions& options) {
  MOCEMG_RETURN_NOT_OK(ValidateOptions(points, options));
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

Result<std::vector<double>> EvaluateMembership(
    const Matrix& centers, const std::vector<double>& point,
    double fuzziness) {
  if (centers.rows() == 0) {
    return Status::InvalidArgument("no cluster centers");
  }
  if (point.size() != centers.cols()) {
    return Status::InvalidArgument(
        "point dimension " + std::to_string(point.size()) +
        " does not match center dimension " +
        std::to_string(centers.cols()));
  }
  if (fuzziness <= 1.0) {
    return Status::InvalidArgument("fuzzifier m must be > 1");
  }
  for (double v : point) {
    if (!std::isfinite(v)) {
      return Status::NumericalError(
          "membership evaluation on a non-finite point");
    }
  }
  const size_t c = centers.rows();
  std::vector<double> sq(c);
  SquaredL2OneToMany(point.data(), centers.RowPtr(0), c, centers.cols(),
                     sq.data());
  std::vector<double> row(c);
  MembershipRow(sq.data(), c, 1.0 / (fuzziness - 1.0), row.data());
  return row;
}

Result<Matrix> EvaluateMembershipBatch(const Matrix& centers,
                                       const Matrix& points,
                                       double fuzziness) {
  if (centers.rows() == 0) {
    return Status::InvalidArgument("no cluster centers");
  }
  if (points.cols() != centers.cols()) {
    return Status::InvalidArgument(
        "points dimension " + std::to_string(points.cols()) +
        " does not match center dimension " +
        std::to_string(centers.cols()));
  }
  if (fuzziness <= 1.0) {
    return Status::InvalidArgument("fuzzifier m must be > 1");
  }
  for (double v : points.data()) {
    if (!std::isfinite(v)) {
      return Status::NumericalError(
          "membership evaluation on a non-finite point");
    }
  }
  const size_t n = points.rows();
  const size_t d = centers.cols();
  Matrix out(n, centers.rows());
  std::vector<double> tiles(L2TilesSize(n, d));
  PackL2Tiles(points.data().data(), n, d, tiles.data());
  MembershipRows(tiles.data(), n, centers, fuzziness,
                 out.mutable_data().data(), nullptr, nullptr);
  return out;
}

}  // namespace mocemg

/// \file fcm.h
/// \brief Fuzzy c-means clustering (Bezdek), the paper's Eq. 4 and the
/// heart of its feature construction. Hand-rolled: the model exposes both
/// the training fit over the database's window points and the
/// out-of-sample membership evaluation for query windows (Eq. 9).

#ifndef MOCEMG_CLUSTER_FCM_H_
#define MOCEMG_CLUSTER_FCM_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/parallel.h"
#include "util/result.h"

namespace mocemg {

/// \brief Initialization strategy for the FCM iteration.
///
/// A fully random row-stochastic membership matrix (MATLAB initfcm's
/// textbook init) is deliberately NOT offered: averaged over many points
/// it places every initial center at (almost) the global centroid, which
/// is a *fixed point* of the FCM update — the iteration can stall there
/// under any finite epsilon, yielding uniform memberships u ≡ 1/c and
/// useless features. Both inits below start from distinct data points.
enum class FcmInit : int {
  /// c distinct points drawn uniformly from the data as initial centers.
  kRandomPoints = 0,
  /// k-means++ seeded centers: spread-out, usually fewer iterations.
  kKmeansPlusPlus = 1,
};

/// \brief FCM hyper-parameters. Defaults follow the paper: m = 2 ("most
/// widely used", their Section 4, citing Nascimento).
struct FcmOptions {
  /// Pre-determined number of clusters c (the paper sweeps 2–40).
  size_t num_clusters = 6;
  /// Fuzzifier m ∈ (1, ∞); the paper fixes 2.
  double fuzziness = 2.0;
  size_t max_iterations = 300;
  /// Convergence: stop when max |U_new − U_old| < epsilon.
  double epsilon = 1e-6;
  uint64_t seed = 42;
  FcmInit init = FcmInit::kKmeansPlusPlus;
  /// Independent restarts; the fit with the lowest final objective wins.
  int restarts = 1;
  /// Point-level parallelism for the membership (E) and center-
  /// accumulation (M) steps. Each chunk keeps its points as one block
  /// of 8-row tiles (PackL2Tiles) for the E-step and sums its M-step
  /// partials through WeightedRowSums; the partials are combined in a
  /// fixed chunk order, so fits — and therefore restarts — are
  /// bit-identical for every max_threads and kernel backend. The chunks
  /// depend on `grain` only, never on max_threads.
  ParallelOptions parallel;
};

/// \brief A fitted fuzzy c-means model.
struct FcmModel {
  /// Cluster centers, c × d (the paper's "center/median points").
  Matrix centers;
  /// Membership matrix U, points × c; each row sums to 1.
  Matrix memberships;
  /// Objective J_m per iteration (the paper's objFcn history).
  std::vector<double> objective_history;
  size_t iterations = 0;

  size_t num_clusters() const { return centers.rows(); }
  size_t dimension() const { return centers.cols(); }
};

/// \brief Fits FCM to row-points. Fails when there are fewer points than
/// clusters, on invalid hyper-parameters, or on dimension mismatches.
Result<FcmModel> FitFcm(const Matrix& points, const FcmOptions& options);

/// \brief Out-of-sample membership of one point against fixed centers —
/// the paper's Eq. 9: u_i = 1 / Σ_j (‖x−c_i‖ / ‖x−c_j‖)^(2/(m−1)).
/// A point coinciding with a center gets membership 1 there, 0 elsewhere.
Result<std::vector<double>> EvaluateMembership(const Matrix& centers,
                                               const std::vector<double>& point,
                                               double fuzziness = 2.0);

/// \brief Eq. 9 membership for a whole matrix of row-points at once
/// (the classifier's per-window evaluation path). Row k is bit-identical
/// to EvaluateMembership(centers, points.Row(k), fuzziness): the batch
/// runs the fit's own E-step, which packs the points into 8-row tiles,
/// scores each tile against every centre through SquaredL2Tiles and
/// forms a tile's rows with its points in lanes, each lane doing the
/// one-point path's operations in its order.
Result<Matrix> EvaluateMembershipBatch(const Matrix& centers,
                                       const Matrix& points,
                                       double fuzziness = 2.0);

}  // namespace mocemg

#endif  // MOCEMG_CLUSTER_FCM_H_

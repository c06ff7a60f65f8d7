#include "mocap/local_transform.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/macros.h"

namespace mocemg {

Result<MotionSequence> ToPelvisLocal(
    const MotionSequence& motion, const LocalTransformOptions& options) {
  MotionSequence out = motion;
  const size_t markers = motion.num_markers();
  std::vector<size_t> all(markers);
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<double*> tracks(markers);
  for (size_t m = 0; m < markers; ++m) {
    tracks[m] = out.mutable_positions().mutable_data().data() + 3 * m;
  }
  // A change of coordinates, not a validation: non-finite positions
  // carry through to the output, so the finiteness answer goes unread.
  MOCEMG_RETURN_NOT_OK(WritePelvisLocalTracks(motion, options, all,
                                              tracks.data(), 3 * markers)
                           .status());
  return out;
}

Result<bool> WritePelvisLocalTracks(const MotionSequence& motion,
                                    const LocalTransformOptions& options,
                                    const std::vector<size_t>& markers,
                                    double* const* tracks, size_t stride) {
  const MarkerSet& set = motion.marker_set();
  MOCEMG_ASSIGN_OR_RETURN(const size_t pelvis, set.IndexOf(Segment::kPelvis));
  const size_t frames = motion.num_frames();
  const size_t width = motion.positions().cols();
  const double* rows = motion.positions().data().data();

  // Optional heading: the average pelvis→reference displacement over
  // the first frames (the clavicle, or else the first non-pelvis
  // marker) is rotated about Z onto +X.
  bool rotate = false;
  double c = 1.0;
  double s = 0.0;
  if (options.normalize_heading && frames > 0 && set.num_markers() > 1) {
    size_t ref = pelvis == 0 ? 1 : 0;
    auto clav = set.IndexOf(Segment::kClavicle);
    if (clav.ok()) ref = *clav;
    const size_t n = std::min(options.heading_frames, frames);
    double hx = 0.0;
    double hy = 0.0;
    for (size_t f = 0; f < n; ++f) {
      const double* row = rows + f * width;
      hx += row[3 * ref] - row[3 * pelvis];
      hy += row[3 * ref + 1] - row[3 * pelvis + 1];
    }
    const double norm = std::hypot(hx, hy);
    if (norm > 1e-9) {
      rotate = true;
      c = hx / norm;
      s = hy / norm;
    }
  }

  // The finiteness check rides along: v − v is +0 for finite v and NaN
  // for NaN or ±Inf, so the running sum stays +0 exactly while every
  // coordinate read is finite. (IEEE semantics — it holds because
  // nothing here builds with -ffast-math, which may fold v − v to 0.)
  double check = 0.0;
  for (size_t f = 0; f < frames; ++f) {
    const double* row = rows + f * width;
    const double ox = row[3 * pelvis];
    const double oy = row[3 * pelvis + 1];
    const double oz = row[3 * pelvis + 2];
    double frame_check = (ox - ox) + (oy - oy) + (oz - oz);
    for (size_t j = 0; j < markers.size(); ++j) {
      const double* p = row + 3 * markers[j];
      frame_check += (p[0] - p[0]) + (p[1] - p[1]) + (p[2] - p[2]);
      const double x = p[0] - ox;
      const double y = p[1] - oy;
      const double z = p[2] - oz;
      double* out = tracks[j] + f * stride;
      if (rotate) {
        // Rotate by -heading: (x, y) → (c·x + s·y, -s·x + c·y).
        out[0] = c * x + s * y;
        out[1] = -s * x + c * y;
      } else {
        out[0] = x;
        out[1] = y;
      }
      out[2] = z;
    }
    check += frame_check;
  }
  return check == 0.0;
}

}  // namespace mocemg

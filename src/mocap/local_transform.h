/// \file local_transform.h
/// \brief The paper's local transformation (Section 3.2): global marker
/// positions are re-expressed relative to the pelvis segment — the root of
/// all body segments — so that motions performed at different locations
/// and in different directions become comparable.

#ifndef MOCEMG_MOCAP_LOCAL_TRANSFORM_H_
#define MOCEMG_MOCAP_LOCAL_TRANSFORM_H_

#include <vector>

#include "mocap/motion_sequence.h"
#include "util/result.h"

namespace mocemg {

/// \brief Options for the pelvis-local transform.
struct LocalTransformOptions {
  /// Also rotate about the vertical (Z) axis so the subject's initial
  /// heading is +X. The paper only translates; heading normalization is
  /// an extension that additionally removes facing-direction variance
  /// (evaluated in the ablation benches).
  bool normalize_heading = false;
  /// Heading is estimated from the first `heading_frames` frames of the
  /// clavicle (or, if absent, the first non-pelvis marker) displacement
  /// from the pelvis.
  size_t heading_frames = 5;
};

/// \brief Returns a copy of `motion` with every marker expressed in
/// pelvis-local coordinates per frame. The pelvis columns become zero.
/// Fails if the motion does not capture the pelvis.
Result<MotionSequence> ToPelvisLocal(const MotionSequence& motion,
                                     const LocalTransformOptions& options = {});

/// \brief The pelvis-local rule itself, which ToPelvisLocal and the
/// window-feature extractor both run: writes marker `markers[j]`'s
/// pelvis-local position at frame f (x, y, z) to
/// `tracks[j] + f * stride`, for every frame, in one pass over the
/// positions. ToPelvisLocal writes every marker into a motion matrix
/// (stride 3·markers); the extractor writes each joint's frames × 3
/// track (stride 3).
///
/// Returns whether every coordinate of the pelvis and of the listed
/// markers is finite, so a caller that lists every other marker
/// validates the motion in the same pass. Fails if the motion does not
/// capture the pelvis.
Result<bool> WritePelvisLocalTracks(const MotionSequence& motion,
                                    const LocalTransformOptions& options,
                                    const std::vector<size_t>& markers,
                                    double* const* tracks, size_t stride);

}  // namespace mocemg

#endif  // MOCEMG_MOCAP_LOCAL_TRANSFORM_H_

#include "core/window_features.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "linalg/vector_ops.h"
#include "util/logging.h"
#include "util/macros.h"

namespace mocemg {
namespace {

// Fraction of its own length a stream may lose to the work-on-the-
// overlap policy before the truncation is worth a warning.
constexpr double kTruncationWarnFraction = 0.05;

// Per-chunk incremental-mocap counters; merged in ascending chunk order
// after the parallel loop (chunking is pure in (n, grain), so the
// totals are thread-count independent).
struct ChunkGramStats {
  size_t fast = 0;
  size_t fallback = 0;
  size_t refreshes = 0;
  size_t fresh_retries = 0;
};

}  // namespace

size_t WindowFeatureDimension(const WindowFeatureOptions& options,
                              size_t emg_channels, size_t mocap_segments) {
  size_t dim = 0;
  if (options.use_emg) {
    dim += EmgFeatureWidth(options.emg_feature) * emg_channels;
  }
  if (options.use_mocap) dim += 3 * mocap_segments;
  return dim;
}

Result<size_t> ResolveHopFrames(const WindowFeatureOptions& options,
                                double frame_rate_hz,
                                size_t window_frames) {
  if (options.hop_ms > 0.0) {
    const size_t from_ms = WindowMsToFrames(options.hop_ms, frame_rate_hz);
    if (options.hop_frames > 0 && options.hop_frames != from_ms) {
      return Status::InvalidArgument(
          "hop_ms=" + std::to_string(options.hop_ms) + " resolves to " +
          std::to_string(from_ms) + " frames at " +
          std::to_string(frame_rate_hz) + " Hz but hop_frames=" +
          std::to_string(options.hop_frames) +
          " disagrees; hop_ms takes precedence over hop_frames — set "
          "only one, or make them agree");
    }
    return from_ms;
  }
  return options.hop_frames > 0 ? options.hop_frames : window_frames;
}

Result<WindowFeatureMatrix> ExtractWindowFeatures(
    const MotionSequence& mocap, const EmgRecording& emg,
    const WindowFeatureOptions& options, WindowFeatureStats* stats) {
  if (stats != nullptr) *stats = WindowFeatureStats{};
  if (!options.use_emg && !options.use_mocap) {
    return Status::InvalidArgument(
        "at least one modality must be enabled");
  }
  // Reject malformed segmentation parameters here with messages naming
  // the option fields; WindowMsToFrames clamps to >= 1 frame, so a
  // negative window_ms would otherwise silently become a 1-frame window
  // and MakeWindowPlan would never see anything wrong.
  if (!(options.window_ms > 0.0)) {
    return Status::InvalidArgument(
        "window_ms must be positive, got " +
        std::to_string(options.window_ms));
  }
  if (options.hop_ms < 0.0) {
    return Status::InvalidArgument(
        "hop_ms must be non-negative, got " +
        std::to_string(options.hop_ms));
  }
  // The positions are read once. Each joint is its segment's first
  // marker (MarkerSet::IndexOf); with mocap featurized, the pass that
  // writes the joints' pelvis-local tracks — frames × 3 each, row-major,
  // the layout the Gram slides and window copies read — also checks
  // that every position it reads is finite. That is every position
  // unless a segment repeats; MotionSequence::Validate covers the other
  // cases and, on a failed check, supplies the exact Status.
  const MarkerSet& marker_set = mocap.marker_set();
  std::vector<size_t> joint_markers;
  bool reads_every_marker = true;
  for (size_t m = 0; m < marker_set.num_markers(); ++m) {
    const Segment s = marker_set.segments()[m];
    MOCEMG_ASSIGN_OR_RETURN(const size_t first, marker_set.IndexOf(s));
    reads_every_marker = reads_every_marker && first == m;
    if (s != Segment::kPelvis) joint_markers.push_back(first);
  }
  const bool write_tracks = options.use_mocap && !joint_markers.empty();
  if (!write_tracks || !reads_every_marker || mocap.num_frames() == 0) {
    MOCEMG_RETURN_NOT_OK(mocap.Validate());
  }
  const size_t track_len = 3 * mocap.num_frames();
  std::unique_ptr<double[]> tracks;
  if (write_tracks) {
    tracks = std::make_unique_for_overwrite<double[]>(joint_markers.size() *
                                                      track_len);
    std::vector<double*> dst(joint_markers.size());
    for (size_t j = 0; j < dst.size(); ++j) {
      dst[j] = tracks.get() + j * track_len;
    }
    MOCEMG_ASSIGN_OR_RETURN(
        const bool finite,
        WritePelvisLocalTracks(mocap, options.local_transform, joint_markers,
                               dst.data(), 3));
    if (!finite) return mocap.Validate();
  }
  const size_t num_joints = write_tracks ? joint_markers.size() : 0;
  if (options.use_emg) {
    MOCEMG_RETURN_NOT_OK(emg.Validate());
    if (std::fabs(emg.sample_rate_hz() - mocap.frame_rate_hz()) > 1e-9) {
      return Status::FailedPrecondition(
          "EMG must be conditioned to the mocap frame rate before "
          "feature extraction (got " +
          std::to_string(emg.sample_rate_hz()) + " Hz vs " +
          std::to_string(mocap.frame_rate_hz()) + " Hz)");
    }
  }

  // The synchronized streams can differ by a few frames at the capture
  // edges (resampler rounding); work on the overlap and account for the
  // truncation instead of dropping it silently.
  size_t frames = mocap.num_frames();
  if (options.use_emg) frames = std::min(frames, emg.num_samples());
  const size_t mocap_dropped = mocap.num_frames() - frames;
  const size_t emg_dropped =
      options.use_emg ? emg.num_samples() - frames : 0;
  if (stats != nullptr) {
    stats->mocap_frames_dropped = mocap_dropped;
    stats->emg_samples_dropped = emg_dropped;
    stats->frames_used = frames;
  }
  if (static_cast<double>(mocap_dropped) >
      kTruncationWarnFraction * static_cast<double>(mocap.num_frames())) {
    MOCEMG_LOG(kWarning)
        << "mocap/EMG length mismatch: dropping " << mocap_dropped
        << " of " << mocap.num_frames()
        << " mocap frames to the stream overlap (" << frames
        << " frames); check capture synchronization";
  }
  if (options.use_emg &&
      static_cast<double>(emg_dropped) >
          kTruncationWarnFraction *
              static_cast<double>(emg.num_samples())) {
    MOCEMG_LOG(kWarning)
        << "mocap/EMG length mismatch: dropping " << emg_dropped
        << " of " << emg.num_samples()
        << " EMG samples to the stream overlap (" << frames
        << " frames); check capture synchronization";
  }

  const size_t window_frames =
      WindowMsToFrames(options.window_ms, mocap.frame_rate_hz());
  MOCEMG_ASSIGN_OR_RETURN(
      const size_t hop_frames,
      ResolveHopFrames(options, mocap.frame_rate_hz(), window_frames));
  if (window_frames == 0 || hop_frames == 0) {
    return Status::InvalidArgument(
        "window/hop resolve to zero frames (window_ms=" +
        std::to_string(options.window_ms) +
        ", hop_ms=" + std::to_string(options.hop_ms) + ")");
  }
  MOCEMG_ASSIGN_OR_RETURN(
      WindowPlan plan,
      MakeWindowPlan(frames, window_frames, hop_frames));

  if (options.use_mocap && joint_markers.empty()) {
    return Status::InvalidArgument(
        "mocap modality enabled but capture has no non-pelvis markers");
  }
  const auto track = [&](size_t j) { return tracks.get() + j * track_len; };

  // Hoist the per-channel EMG sample pointers out of the window loop.
  const size_t num_channels = options.use_emg ? emg.num_channels() : 0;
  std::vector<const double*> channel_ptrs(num_channels, nullptr);
  for (size_t c = 0; c < num_channels; ++c) {
    channel_ptrs[c] = emg.channel(c).data();
  }
  const size_t emg_width =
      options.use_emg ? EmgFeatureWidth(options.emg_feature) : 0;

  // Engine selection, per modality: only the weighted-SVD mocap feature
  // and the scalar EMG features have incremental forms; kAuto picks
  // incremental exactly when consecutive windows overlap.
  const FeaturizationMode emg_mode =
      (options.use_emg &&
       EmgFeatureSupportsIncremental(options.emg_feature))
          ? ResolveFeaturizationMode(options.featurization_mode,
                                     window_frames, hop_frames)
          : FeaturizationMode::kExact;
  const FeaturizationMode mocap_mode =
      (options.use_mocap &&
       options.mocap_feature == MocapFeatureKind::kWeightedSvd)
          ? ResolveFeaturizationMode(options.featurization_mode,
                                     window_frames, hop_frames)
          : FeaturizationMode::kExact;
  const size_t refresh_interval =
      std::max<size_t>(options.gram_refresh_interval, 1);

  const size_t dim =
      WindowFeatureDimension(options, num_channels, num_joints);
  Matrix points(plan.num_windows(), dim);

  // With the generic grain (0 → up to 64 chunks) a typical trial gets
  // 1-2-window chunks, and every chunk seeds its incremental state with
  // an exact recomputation — O(window) per window again. Give sliding
  // state room to amortize: at least one refresh period per chunk.
  // Chunking stays a pure function of (num_windows, grain, options), so
  // thread-count invariance is untouched.
  ParallelOptions parallel = options.parallel;
  if (parallel.grain == 0 &&
      (emg_mode == FeaturizationMode::kIncremental ||
       mocap_mode == FeaturizationMode::kIncremental)) {
    parallel.grain = std::max<size_t>(refresh_interval, 16);
  }

  const size_t num_chunks =
      ParallelNumChunks(plan.num_windows(), parallel.grain);
  std::vector<ChunkGramStats> gram_stats(num_chunks);

  // Each window fills its own row of `points`; rows are disjoint, so
  // windows parallelize with bit-identical results at any thread count.
  // Scratch (SVD workspace, the w×3 window copy, and the incremental
  // sliding state) is per chunk: the first window of a chunk seeds the
  // state exactly, later windows slide it, and chunk boundaries depend
  // only on (num_windows, grain) — never on the thread count.
  Status st = ParallelFor(
      plan.num_windows(),
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        MocapFeatureScratch mocap_scratch;
        Matrix window(window_frames, 3);
        std::vector<EmgWindowSums> sums(
            emg_mode == FeaturizationMode::kIncremental ? num_channels : 0,
            EmgWindowSums(options.emg_feature));
        std::vector<JointGramState> grams(
            mocap_mode == FeaturizationMode::kIncremental ? num_joints : 0);
        std::vector<GramSvd3Task> tasks(grams.size());
        ChunkGramStats& cs = gram_stats[chunk];
        WindowSpan prev{};
        for (size_t w = begin; w < end; ++w) {
          const WindowSpan span = plan.spans[w];
          // Exact reseed on the chunk's first window and every
          // refresh_interval windows after it, bounding float drift of
          // the incremental state.
          const bool refresh = (w - begin) % refresh_interval == 0;
          double* row = points.RowPtr(w);
          size_t col = 0;
          if (emg_mode == FeaturizationMode::kIncremental) {
            for (size_t c = 0; c < num_channels; ++c) {
              if (refresh) {
                sums[c].Recompute(channel_ptrs[c], span.begin, span.end);
              } else {
                sums[c].Slide(channel_ptrs[c], prev.begin, prev.end,
                              span.begin, span.end);
              }
              MOCEMG_RETURN_NOT_OK(sums[c].Emit(
                  options.emg_feature, span.length(), row + col));
              col += emg_width;
            }
          } else {
            for (size_t c = 0; c < num_channels; ++c) {
              MOCEMG_RETURN_NOT_OK(ExtractEmgFeatureInto(
                  options.emg_feature, channel_ptrs[c] + span.begin,
                  span.length(), row + col));
              col += emg_width;
            }
          }
          if (options.use_mocap) {
            // Every plan span is full window length today; guard the
            // scratch shape anyway so a future partial-window plan
            // cannot silently read stale rows.
            if (window.rows() != span.length()) {
              window = Matrix(span.length(), 3);
            }
            if (mocap_mode == FeaturizationMode::kIncremental) {
              if (refresh) ++cs.refreshes;
              // Slide every joint first, then solve all eigenproblems
              // in one batched call: the joints' rotation chains are
              // independent, and ComputeSvdFromGram3Many interleaves
              // them pairwise so their sqrt/divide latencies overlap.
              for (size_t j = 0; j < num_joints; ++j) {
                if (refresh) {
                  grams[j].Refresh(track(j) + 3 * span.begin,
                                   span.length());
                } else {
                  grams[j].Slide(track(j), prev.begin, prev.end, span.begin,
                                 span.end);
                }
                grams[j].FillTask(&tasks[j]);
              }
              ComputeSvdFromGram3Many(tasks.data(), tasks.size());
              for (size_t j = 0; j < num_joints; ++j) {
                bool fast = grams[j].FinishSolve(
                    tasks[j], options.gram_condition_floor, row + col,
                    /*fresh=*/refresh);
                if (!fast && !refresh) {
                  // The guard budgets for slide drift; an exact refresh
                  // removes it, so the fresh-state floors (≈10× looser,
                  // see incremental_window.h) often still clear this
                  // window without the full one-sided SVD. The refresh
                  // also resets drift for the windows after it.
                  grams[j].Refresh(track(j) + 3 * span.begin,
                                   span.length());
                  ++cs.fresh_retries;
                  fast = grams[j].WeightedSvdFeature(
                      options.gram_condition_floor, row + col,
                      /*fresh=*/true);
                }
                if (fast) {
                  ++cs.fast;
                } else {
                  // Conditioning guard: recompute this joint-window on
                  // the exact path (identical bytes to kExact).
                  std::memcpy(window.RowPtr(0), track(j) + 3 * span.begin,
                              span.length() * 3 * sizeof(double));
                  MOCEMG_RETURN_NOT_OK(ExtractMocapFeatureInto(
                      options.mocap_feature, window, &mocap_scratch,
                      row + col));
                  ++cs.fallback;
                }
                col += 3;
              }
            } else {
              for (size_t j = 0; j < num_joints; ++j) {
                // The w×3 slice of a row-major frames×3 track is one
                // contiguous block.
                std::memcpy(window.RowPtr(0), track(j) + 3 * span.begin,
                            span.length() * 3 * sizeof(double));
                MOCEMG_RETURN_NOT_OK(ExtractMocapFeatureInto(
                    options.mocap_feature, window, &mocap_scratch,
                    row + col));
                col += 3;
              }
            }
          }
          prev = span;
        }
        return Status::OK();
      },
      parallel);
  MOCEMG_RETURN_NOT_OK(st);

  if (stats != nullptr) {
    stats->num_windows = plan.num_windows();
    stats->emg_mode = emg_mode;
    stats->mocap_mode = mocap_mode;
    for (const ChunkGramStats& cs : gram_stats) {
      stats->gram_fast_windows += cs.fast;
      stats->gram_fallback_windows += cs.fallback;
      stats->gram_refreshes += cs.refreshes;
      stats->gram_fresh_retries += cs.fresh_retries;
    }
  }

  WindowFeatureMatrix out;
  out.points = std::move(points);
  out.plan = std::move(plan);
  return out;
}

}  // namespace mocemg

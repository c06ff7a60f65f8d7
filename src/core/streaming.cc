#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "emg/features.h"
#include "linalg/vector_ops.h"
#include "signal/window.h"
#include "util/macros.h"

namespace mocemg {
namespace {

// Per-channel width of the EMG feature block.
size_t PerChannelWidth(const WindowFeatureOptions& f) {
  WindowFeatureOptions one_channel = f;
  one_channel.use_mocap = false;
  return WindowFeatureDimension(one_channel, 1, 0);
}

}  // namespace

Result<StreamingClassifier> StreamingClassifier::Create(
    const MotionClassifier* model, size_t num_markers,
    size_t pelvis_index, size_t num_emg_channels,
    const StreamingOptions& options) {
  if (model == nullptr || model->num_motions() == 0) {
    return Status::InvalidArgument("streaming needs a trained model");
  }
  if (num_markers == 0 || pelvis_index >= num_markers) {
    return Status::InvalidArgument("invalid marker layout");
  }
  if (options.frame_rate_hz <= 0.0) {
    return Status::InvalidArgument("frame rate must be positive");
  }
  const WindowFeatureOptions& f = model->options().features;
  if (f.use_emg && num_emg_channels == 0) {
    return Status::InvalidArgument(
        "model uses EMG but stream has no EMG channels");
  }
  if (f.use_mocap && num_markers < 2) {
    return Status::InvalidArgument(
        "model uses mocap but stream has no non-pelvis markers");
  }
  // Check dimensional compatibility against the trained normalizer.
  const size_t dim = WindowFeatureDimension(
      f, f.use_emg ? num_emg_channels : 0,
      f.use_mocap ? num_markers - 1 : 0);
  if (dim != model->normalizer().dimension()) {
    return Status::InvalidArgument(
        "stream layout yields " + std::to_string(dim) +
        "-d window features but the model expects " +
        std::to_string(model->normalizer().dimension()));
  }

  StreamingClassifier s;
  s.model_ = model;
  s.options_ = options;
  s.num_markers_ = num_markers;
  s.pelvis_index_ = pelvis_index;
  s.num_emg_channels_ = num_emg_channels;
  s.window_frames_ = WindowMsToFrames(f.window_ms, options.frame_rate_hz);
  // Shared hop resolution (hop_ms precedence + conflict rejection),
  // identical to the batch extractor's.
  MOCEMG_ASSIGN_OR_RETURN(
      s.hop_frames_,
      ResolveHopFrames(f, options.frame_rate_hz, s.window_frames_));
  // Featurization engine: the stream option overrides the model's, and
  // streaming restricts incremental to overlapping windows — with
  // hop >= window nothing carries over between windows.
  const FeaturizationMode requested =
      options.featurization_mode.value_or(f.featurization_mode);
  if (s.hop_frames_ < s.window_frames_ &&
      ResolveFeaturizationMode(requested, s.window_frames_,
                               s.hop_frames_) ==
          FeaturizationMode::kIncremental) {
    if (f.use_emg && EmgFeatureSupportsIncremental(f.emg_feature)) {
      s.emg_mode_ = FeaturizationMode::kIncremental;
    }
    if (f.use_mocap &&
        f.mocap_feature == MocapFeatureKind::kWeightedSvd) {
      s.mocap_mode_ = FeaturizationMode::kIncremental;
    }
  }
  s.gram_refresh_interval_ = std::max<size_t>(f.gram_refresh_interval, 1);
  s.gram_condition_floor_ = f.gram_condition_floor;
  s.emg_sums_.assign(num_emg_channels, EmgWindowSums(f.emg_feature));
  s.joint_grams_.assign(num_markers, JointGramState{});
  BindModeState(&s.full_state_, model, ClassifierMode::kFull);
  if (options.tolerate_faults && model->has_fallbacks()) {
    BindModeState(&s.mocap_state_, model->submodel(ClassifierMode::kMocapOnly),
                  ClassifierMode::kMocapOnly);
    BindModeState(&s.emg_state_, model->submodel(ClassifierMode::kEmgOnly),
                  ClassifierMode::kEmgOnly);
  }
  s.last_pelvis_global_.assign(3, 0.0);
  s.last_local_.assign(num_markers, std::vector<double>(3, 0.0));
  s.have_marker_.assign(num_markers, false);
  s.hold_streak_.assign(num_markers, 0);
  s.last_emg_.assign(num_emg_channels, 0.0);
  s.emg_tail_.assign(num_emg_channels, {});
  s.channel_masked_.assign(num_emg_channels, false);
  return s;
}

void StreamingClassifier::BindModeState(ModeState* state,
                                        const MotionClassifier* model,
                                        ClassifierMode mode) {
  state->model = model;
  state->mode = mode;
  const size_t c = model->codebook().num_clusters();
  state->min_per_cluster.assign(c, 0.0);
  state->max_per_cluster.assign(c, 0.0);
  state->cluster_seen.assign(c, false);
  state->votes.assign(c, 0.0);
}

Status StreamingClassifier::PushFrame(
    const std::vector<double>& marker_positions,
    const std::vector<double>& emg_envelope) {
  if (marker_positions.size() != 3 * num_markers_) {
    return Status::InvalidArgument(
        "marker frame has " + std::to_string(marker_positions.size()) +
        " values, expected " + std::to_string(3 * num_markers_));
  }
  if (emg_envelope.size() != num_emg_channels_) {
    return Status::InvalidArgument(
        "EMG frame has " + std::to_string(emg_envelope.size()) +
        " channels, expected " + std::to_string(num_emg_channels_));
  }
  if (!options_.tolerate_faults) {
    for (double v : marker_positions) {
      if (!std::isfinite(v)) {
        return Status::NumericalError("non-finite marker coordinate");
      }
    }
    for (double v : emg_envelope) {
      if (!std::isfinite(v)) {
        return Status::NumericalError("non-finite EMG sample");
      }
    }
  }

  bool patched = false;

  // Pelvis first: it anchors the local transform, so a lost pelvis is
  // held at its last captured global position.
  std::vector<double> pelvis(3);
  bool pelvis_missing = false;
  for (size_t k = 0; k < 3; ++k) {
    pelvis[k] = marker_positions[3 * pelvis_index_ + k];
    if (!std::isfinite(pelvis[k])) pelvis_missing = true;
  }
  if (pelvis_missing) {
    pelvis = last_pelvis_global_;  // zeros until first capture
    patched = true;
    if (++hold_streak_[pelvis_index_] > options_.max_hold_frames) {
      health_.mocap_degraded = true;
    }
  } else {
    last_pelvis_global_ = pelvis;
    have_pelvis_ = true;
    hold_streak_[pelvis_index_] = 0;
  }

  // Pelvis-local transform, applied per frame as it arrives; occluded
  // markers are held at their last captured *local* position, freezing
  // the relative pose rather than fabricating motion.
  std::vector<double> local(3 * num_markers_, 0.0);
  for (size_t m = 0; m < num_markers_; ++m) {
    if (m == pelvis_index_) continue;
    bool missing = false;
    for (size_t k = 0; k < 3; ++k) {
      if (!std::isfinite(marker_positions[3 * m + k])) missing = true;
    }
    if (missing) {
      for (size_t k = 0; k < 3; ++k) local[3 * m + k] = last_local_[m][k];
      patched = true;
      if (++hold_streak_[m] > options_.max_hold_frames) {
        health_.mocap_degraded = true;
      }
    } else {
      for (size_t k = 0; k < 3; ++k) {
        local[3 * m + k] = marker_positions[3 * m + k] - pelvis[k];
        last_local_[m][k] = local[3 * m + k];
      }
      have_marker_[m] = true;
      hold_streak_[m] = 0;
    }
  }

  // EMG: patch non-finite samples with the last good value and feed the
  // trailing window the flatline detector evaluates.
  std::vector<double> emg = emg_envelope;
  for (size_t c = 0; c < num_emg_channels_; ++c) {
    if (!std::isfinite(emg[c])) {
      emg[c] = last_emg_[c];
      patched = true;
    } else {
      last_emg_[c] = emg[c];
    }
    if (options_.tolerate_faults && options_.flatline_window_frames > 0) {
      std::vector<double>& tail = emg_tail_[c];
      tail.push_back(emg[c]);
      if (tail.size() > options_.flatline_window_frames) {
        tail.erase(tail.begin());
      }
      if (tail.size() == options_.flatline_window_frames) {
        double mean = 0.0;
        for (double v : tail) mean += v;
        mean /= static_cast<double>(tail.size());
        double var = 0.0;
        for (double v : tail) var += (v - mean) * (v - mean);
        var /= static_cast<double>(tail.size());
        const bool was_masked = channel_masked_[c];
        channel_masked_[c] = var < options_.flatline_variance_floor;
        if (channel_masked_[c] && !was_masked) {
          ++health_.flatlined_channels;
        } else if (!channel_masked_[c] && was_masked) {
          --health_.flatlined_channels;
        }
      }
    }
  }
  if (patched) ++health_.frames_patched;
  health_.markers_held = 0;
  for (size_t streak : hold_streak_) {
    if (streak > 0) ++health_.markers_held;
  }

  mocap_buffer_.push_back(std::move(local));
  emg_buffer_.push_back(std::move(emg));
  ++frames_pushed_;

  // O(1) incremental-state update for the arriving frame. The state
  // covers [next_window_start_, frames_pushed_); with overlapping hops
  // (the only geometry the incremental modes resolve to) every arriving
  // frame is at or past the next window start.
  const size_t frame_index = frames_pushed_ - 1;
  if (frame_index >= next_window_start_) {
    if (mocap_mode_ == FeaturizationMode::kIncremental) {
      const std::vector<double>& row = mocap_buffer_.back();
      for (size_t m = 0; m < num_markers_; ++m) {
        if (m == pelvis_index_) continue;
        joint_grams_[m].AddRow(&row[3 * m]);
      }
    }
    if (emg_mode_ == FeaturizationMode::kIncremental) {
      const std::vector<double>& cur = emg_buffer_.back();
      if (frame_index > next_window_start_) {
        const std::vector<double>& prev =
            emg_buffer_[emg_buffer_.size() - 2];
        for (size_t c = 0; c < num_emg_channels_; ++c) {
          emg_sums_[c].AddTailSample(cur[c], prev[c]);
        }
      } else {
        for (size_t c = 0; c < num_emg_channels_; ++c) {
          emg_sums_[c].AddTailSample(cur[c]);
        }
      }
    }
  }

  while (frames_pushed_ >= next_window_start_ + window_frames_) {
    MOCEMG_RETURN_NOT_OK(CompleteWindow());
    const size_t old_start = next_window_start_;
    next_window_start_ += hop_frames_;
    // Drop the hopped-over frames from the incremental state before the
    // buffer trim below discards their rows.
    RebaseIncrementalState(old_start);
    // Trim consumed prefix.
    const size_t drop = next_window_start_ - buffer_start_frame_;
    if (drop > 0 && drop <= mocap_buffer_.size()) {
      mocap_buffer_.erase(mocap_buffer_.begin(),
                          mocap_buffer_.begin() +
                              static_cast<ptrdiff_t>(drop));
      emg_buffer_.erase(emg_buffer_.begin(),
                        emg_buffer_.begin() +
                            static_cast<ptrdiff_t>(drop));
      buffer_start_frame_ = next_window_start_;
    }
  }
  return Status::OK();
}

Status StreamingClassifier::UpdateModeState(
    ModeState* state, std::vector<double> raw_feature) {
  MOCEMG_RETURN_NOT_OK(
      state->model->normalizer().TransformInPlace(&raw_feature));
  MOCEMG_ASSIGN_OR_RETURN(
      std::vector<double> u,
      state->model->codebook().Membership(raw_feature));
  MOCEMG_ASSIGN_OR_RETURN(size_t winner, ArgMax(u));
  const double h = u[winner];
  if (!state->cluster_seen[winner]) {
    state->cluster_seen[winner] = true;
    state->min_per_cluster[winner] = h;
    state->max_per_cluster[winner] = h;
  } else {
    state->min_per_cluster[winner] =
        std::min(state->min_per_cluster[winner], h);
    state->max_per_cluster[winner] =
        std::max(state->max_per_cluster[winner], h);
  }
  state->votes[winner] += 1.0;
  return Status::OK();
}

Status StreamingClassifier::CompleteWindow() {
  const WindowFeatureOptions& f = model_->options().features;
  const size_t offset = next_window_start_ - buffer_start_frame_;

  // Periodic exact reseed of the incremental state, bounding the float
  // drift of the per-frame add/remove updates (same cadence contract as
  // the batch extractor; see incremental_window.h).
  if ((emg_mode_ == FeaturizationMode::kIncremental ||
       mocap_mode_ == FeaturizationMode::kIncremental) &&
      windows_since_refresh_ >= gram_refresh_interval_) {
    RefreshIncrementalState(offset);
    windows_since_refresh_ = 0;
  }
  ++windows_since_refresh_;

  // Raw (un-normalized) modality parts of this window's feature point.
  std::vector<double> emg_part;
  std::vector<double> mocap_part;

  if (f.use_emg) {
    const size_t per_channel = PerChannelWidth(f);
    std::vector<double> channel(window_frames_);
    for (size_t c = 0; c < num_emg_channels_; ++c) {
      if (options_.tolerate_faults && channel_masked_[c]) {
        // Neutralize a flatlined channel: the full model's training mean
        // z-scores to exactly 0 (fallback sub-models share the same raw
        // means, fitted on the same pooled windows).
        for (size_t d = 0; d < per_channel; ++d) {
          emg_part.push_back(
              model_->normalizer().mean()[c * per_channel + d]);
        }
        continue;
      }
      if (emg_mode_ == FeaturizationMode::kIncremental) {
        // All incremental EMG kinds are width 1 (AR(4) is excluded by
        // EmgFeatureSupportsIncremental).
        double value = 0.0;
        MOCEMG_RETURN_NOT_OK(
            emg_sums_[c].Emit(f.emg_feature, window_frames_, &value));
        emg_part.push_back(value);
        continue;
      }
      for (size_t i = 0; i < window_frames_; ++i) {
        channel[i] = emg_buffer_[offset + i][c];
      }
      MOCEMG_ASSIGN_OR_RETURN(
          std::vector<double> part,
          ExtractEmgFeature(f.emg_feature, channel.data(),
                            window_frames_));
      emg_part.insert(emg_part.end(), part.begin(), part.end());
    }
  }
  if (f.use_mocap) {
    Matrix joint(window_frames_, 3);
    // The state is fresh (pure in-order accumulation, no slide drift)
    // on the first window after Create/Reset and on every cadence
    // reseed, which both leave the counter at 1 here.
    const bool state_fresh = windows_since_refresh_ == 1;
    if (mocap_mode_ == FeaturizationMode::kIncremental) {
      // Batch the non-pelvis eigensolves into one call so the joints'
      // independent rotation chains interleave (same pattern as the
      // batch extractor, see ComputeSvdFromGram3Many).
      gram_tasks_.clear();
      for (size_t m = 0; m < num_markers_; ++m) {
        if (m == pelvis_index_) continue;
        gram_tasks_.emplace_back();
        joint_grams_[m].FillTask(&gram_tasks_.back());
      }
      ComputeSvdFromGram3Many(gram_tasks_.data(), gram_tasks_.size());
    }
    size_t task_index = 0;
    for (size_t m = 0; m < num_markers_; ++m) {
      if (m == pelvis_index_) continue;
      if (mocap_mode_ == FeaturizationMode::kIncremental) {
        double feature[3];
        bool fast = joint_grams_[m].FinishSolve(
            gram_tasks_[task_index++], gram_condition_floor_, feature,
            state_fresh);
        if (!fast && !state_fresh) {
          // Retry at the fresh-state floors after recomputing this
          // joint's Gram over the completing window (same two-tier
          // policy as the batch extractor, see incremental_window.h).
          joint_grams_[m].Reset();
          for (size_t i = 0; i < window_frames_; ++i) {
            joint_grams_[m].AddRow(&mocap_buffer_[offset + i][3 * m]);
          }
          fast = joint_grams_[m].WeightedSvdFeature(
              gram_condition_floor_, feature, /*fresh=*/true);
        }
        if (fast) {
          mocap_part.insert(mocap_part.end(), feature, feature + 3);
          continue;
        }
        // Conditioning guard tripped: recompute this joint-window on
        // the exact path below.
      }
      for (size_t i = 0; i < window_frames_; ++i) {
        joint(i, 0) = mocap_buffer_[offset + i][3 * m];
        joint(i, 1) = mocap_buffer_[offset + i][3 * m + 1];
        joint(i, 2) = mocap_buffer_[offset + i][3 * m + 2];
      }
      MOCEMG_ASSIGN_OR_RETURN(
          std::vector<double> part,
          ExtractMocapFeature(f.mocap_feature, joint));
      mocap_part.insert(mocap_part.end(), part.begin(), part.end());
    }
  }

  std::vector<double> feature = emg_part;
  feature.insert(feature.end(), mocap_part.begin(), mocap_part.end());
  MOCEMG_RETURN_NOT_OK(UpdateModeState(&full_state_, std::move(feature)));
  if (mocap_state_.model != nullptr) {
    MOCEMG_RETURN_NOT_OK(UpdateModeState(&mocap_state_, mocap_part));
  }
  if (emg_state_.model != nullptr) {
    MOCEMG_RETURN_NOT_OK(UpdateModeState(&emg_state_, emg_part));
  }
  ++windows_completed_;
  return Status::OK();
}

void StreamingClassifier::RebaseIncrementalState(size_t old_start) {
  if (emg_mode_ != FeaturizationMode::kIncremental &&
      mocap_mode_ != FeaturizationMode::kIncremental) {
    return;
  }
  // The incremental modes only run with hop < window, so the advanced
  // start stays strictly inside the pushed frames and every removed
  // frame (and its successor, for the pair terms) is still buffered.
  for (size_t frame = old_start; frame < next_window_start_; ++frame) {
    const size_t off = frame - buffer_start_frame_;
    if (mocap_mode_ == FeaturizationMode::kIncremental) {
      const std::vector<double>& row = mocap_buffer_[off];
      for (size_t m = 0; m < num_markers_; ++m) {
        if (m == pelvis_index_) continue;
        joint_grams_[m].RemoveRow(&row[3 * m]);
      }
    }
    if (emg_mode_ == FeaturizationMode::kIncremental) {
      const std::vector<double>& cur = emg_buffer_[off];
      const std::vector<double>& next = emg_buffer_[off + 1];
      for (size_t c = 0; c < num_emg_channels_; ++c) {
        emg_sums_[c].RemoveHeadSample(cur[c], next[c]);
      }
    }
  }
}

void StreamingClassifier::RefreshIncrementalState(size_t offset) {
  // The state covers exactly the completing window (completion fires on
  // the frame that fills it), so a full recomputation over
  // [offset, offset + window) reseeds it with the same frame order a
  // fresh run would use.
  if (mocap_mode_ == FeaturizationMode::kIncremental) {
    for (size_t m = 0; m < num_markers_; ++m) {
      if (m == pelvis_index_) continue;
      joint_grams_[m].Reset();
    }
    for (size_t i = 0; i < window_frames_; ++i) {
      const std::vector<double>& row = mocap_buffer_[offset + i];
      for (size_t m = 0; m < num_markers_; ++m) {
        if (m == pelvis_index_) continue;
        joint_grams_[m].AddRow(&row[3 * m]);
      }
    }
  }
  if (emg_mode_ == FeaturizationMode::kIncremental) {
    for (size_t c = 0; c < num_emg_channels_; ++c) {
      emg_sums_[c].Reset();
    }
    for (size_t i = 0; i < window_frames_; ++i) {
      const std::vector<double>& cur = emg_buffer_[offset + i];
      if (i > 0) {
        const std::vector<double>& prev = emg_buffer_[offset + i - 1];
        for (size_t c = 0; c < num_emg_channels_; ++c) {
          emg_sums_[c].AddTailSample(cur[c], prev[c]);
        }
      } else {
        for (size_t c = 0; c < num_emg_channels_; ++c) {
          emg_sums_[c].AddTailSample(cur[c]);
        }
      }
    }
  }
}

Result<std::vector<double>> StreamingClassifier::FinalFeatureFromState(
    const ModeState& state) const {
  if (windows_completed_ == 0) {
    return Status::FailedPrecondition("no completed windows yet");
  }
  const size_t c = state.min_per_cluster.size();
  if (state.model->options().cluster_method ==
      ClusterMethod::kFuzzyCMeans) {
    std::vector<double> feature(2 * c, 0.0);
    for (size_t i = 0; i < c; ++i) {
      feature[2 * i] = state.min_per_cluster[i];
      feature[2 * i + 1] = state.max_per_cluster[i];
    }
    return feature;
  }
  std::vector<double> feature(state.votes);
  const double inv = 1.0 / static_cast<double>(windows_completed_);
  for (double& v : feature) v *= inv;
  return feature;
}

Result<std::vector<double>> StreamingClassifier::CurrentFinalFeature()
    const {
  return FinalFeatureFromState(full_state_);
}

Result<size_t> StreamingClassifier::CurrentDecision() const {
  if (windows_completed_ < options_.min_windows_for_decision) {
    return Status::FailedPrecondition(
        "only " + std::to_string(windows_completed_) +
        " windows completed; decision needs " +
        std::to_string(options_.min_windows_for_decision));
  }
  MOCEMG_ASSIGN_OR_RETURN(std::vector<MotionMatch> nn, CurrentMatches(1));
  return nn[0].label;
}

Result<std::vector<MotionMatch>> StreamingClassifier::CurrentMatches(
    size_t k) const {
  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> feature,
                          CurrentFinalFeature());
  return model_->NearestNeighbors(feature, k);
}

Result<StreamingDecision> StreamingClassifier::CurrentRobustDecision()
    const {
  if (!options_.tolerate_faults) {
    return Status::FailedPrecondition(
        "robust decisions need StreamingOptions::tolerate_faults");
  }
  if (windows_completed_ < options_.min_windows_for_decision) {
    return Status::FailedPrecondition(
        "only " + std::to_string(windows_completed_) +
        " windows completed; decision needs " +
        std::to_string(options_.min_windows_for_decision));
  }
  StreamingDecision decision;
  decision.health = health_;

  // Mode policy mirrors ClassifyRobust: a majority of flatlined channels
  // drops EMG, a marker held beyond bound drops mocap — provided the
  // model carries the matching fallback. With both degraded (or no
  // fallbacks) the full subspace decides, best effort, flagged degraded.
  const bool emg_unusable =
      2 * health_.flatlined_channels > num_emg_channels_;
  const bool mocap_unusable = health_.mocap_degraded;
  const ModeState* state = &full_state_;
  if (emg_unusable && !mocap_unusable && mocap_state_.model != nullptr) {
    state = &mocap_state_;
  } else if (mocap_unusable && !emg_unusable &&
             emg_state_.model != nullptr) {
    state = &emg_state_;
  }
  decision.mode = state->mode;

  MOCEMG_ASSIGN_OR_RETURN(std::vector<double> feature,
                          FinalFeatureFromState(*state));
  MOCEMG_ASSIGN_OR_RETURN(std::vector<MotionMatch> nn,
                          state->model->NearestNeighbors(feature, 1));
  decision.label = nn[0].label;
  decision.distance = nn[0].distance;
  decision.degraded =
      decision.mode != ClassifierMode::kFull || health_.degraded();
  return decision;
}

void StreamingClassifier::Reset() {
  mocap_buffer_.clear();
  emg_buffer_.clear();
  frames_pushed_ = 0;
  next_window_start_ = 0;
  buffer_start_frame_ = 0;
  windows_completed_ = 0;
  for (EmgWindowSums& sums : emg_sums_) sums.Reset();
  for (JointGramState& gram : joint_grams_) gram.Reset();
  windows_since_refresh_ = 0;
  for (ModeState* state : {&full_state_, &mocap_state_, &emg_state_}) {
    std::fill(state->min_per_cluster.begin(),
              state->min_per_cluster.end(), 0.0);
    std::fill(state->max_per_cluster.begin(),
              state->max_per_cluster.end(), 0.0);
    std::fill(state->cluster_seen.begin(), state->cluster_seen.end(),
              false);
    std::fill(state->votes.begin(), state->votes.end(), 0.0);
  }
  health_ = StreamingHealth{};
  have_pelvis_ = false;
  std::fill(last_pelvis_global_.begin(), last_pelvis_global_.end(), 0.0);
  for (auto& l : last_local_) std::fill(l.begin(), l.end(), 0.0);
  std::fill(have_marker_.begin(), have_marker_.end(), false);
  std::fill(hold_streak_.begin(), hold_streak_.end(), 0);
  std::fill(last_emg_.begin(), last_emg_.end(), 0.0);
  for (auto& t : emg_tail_) t.clear();
  std::fill(channel_masked_.begin(), channel_masked_.end(), false);
}

}  // namespace mocemg

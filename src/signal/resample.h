/// \file resample.h
/// \brief Sample-rate conversion: the Myomonitor's 1000 Hz EMG stream must
/// be brought down to the Vicon frame rate (120 Hz) before the two streams
/// can share windows. 1000/120 is not an integer ratio, so the library
/// provides an anti-aliased arbitrary-ratio resampler in addition to an
/// integer decimator.

#ifndef MOCEMG_SIGNAL_RESAMPLE_H_
#define MOCEMG_SIGNAL_RESAMPLE_H_

#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mocemg {

/// \brief Integer decimation by `factor` after an 8th-order Butterworth
/// anti-alias low-pass at 0.4·(fs/factor). Fails on factor < 1.
Result<std::vector<double>> Decimate(const std::vector<double>& signal,
                                     double sample_rate_hz, int factor);

/// \brief Arbitrary-ratio resampling: zero-phase anti-alias low-pass at
/// 0.45·min(fs_in, fs_out) followed by linear interpolation at the output
/// instants k/fs_out. Output length is floor(duration · fs_out) + 1.
Result<std::vector<double>> Resample(const std::vector<double>& signal,
                                     double fs_in, double fs_out);

/// \brief Resample() over `lanes` interleaved signals of `frames` frames
/// (frame f of lane l at data[f * lanes + l]): lane l's result goes to
/// out[l], bit-identical to Resample() on that lane alone. When fs_out <
/// fs_in the anti-alias filter runs in place on `data`, so the buffer
/// must hold BiquadCascade::FiltFiltLanes's edge padding around it.
Status ResampleLanes(double* data, size_t frames, size_t lanes,
                     double fs_in, double fs_out, std::vector<double>* out);

/// \brief Length Resample() will produce for an input of `input_len`
/// samples — used to pre-align multi-channel buffers. Equal rates keep
/// every sample.
size_t ResampledLength(size_t input_len, double fs_in, double fs_out);

}  // namespace mocemg

#endif  // MOCEMG_SIGNAL_RESAMPLE_H_

// mocemg — command-line front end for the library.
//
// Subcommands:
//   train    --manifest <csv> --model <out> [--clusters N] [--window MS]
//            [--hop MS] [--kmeans] [--no-emg | --no-mocap]
//   classify --model <file> --trc <file> --emg <file> [--k N]
//   info     --model <file>
//   kernel-info [--json]       dispatch report + backend equivalence gate
//
// Every subcommand accepts --kernel {auto,scalar,avx2,avx512,neon} to
// force the SIMD kernel backend (same semantics as MOCEMG_KERNEL, but
// forcing an unusable backend is a hard error here).
//
// The manifest is a CSV with header `trc,emg,label,label_name`; each row
// names one captured motion: a TRC marker file, an EMG CSV (raw, with a
// sample_rate_hz comment), its integer class label and class name.
//
// Example session:
//   mocemg_cli train --manifest lab/session1.csv --model hand.model
//   mocemg_cli classify --model hand.model --trc q.trc --emg q.csv --k 5

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/model_io.h"
#include "emg/emg_io.h"
#include "mocap/trc_io.h"
#include "util/csv.h"
#include "util/distance_kernels.h"
#include "util/kernel_dispatch.h"
#include "util/macros.h"
#include "util/quant_kernels.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace mocemg;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mocemg_cli train    --manifest <csv> --model <out>\n"
               "                      [--clusters N] [--window MS] "
               "[--hop MS] [--kmeans] [--no-emg | --no-mocap]\n"
               "  mocemg_cli classify --model <file> --trc <file> "
               "--emg <file> [--k N]\n"
               "  mocemg_cli info     --model <file>\n"
               "  mocemg_cli kernel-info [--json]\n"
               "  (any subcommand) --kernel auto|scalar|avx2|avx512|neon\n");
  return 2;
}

/// Pulls `--flag value` pairs out of argv; returns empty for missing.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  std::string Get(const std::string& flag,
                  const std::string& fallback = "") const {
    for (size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == flag) return tokens_[i + 1];
    }
    return fallback;
  }

  bool Has(const std::string& flag) const {
    for (const auto& t : tokens_) {
      if (t == flag) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> tokens_;
};

Result<std::vector<LabeledMotion>> LoadManifest(const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(CsvTable table, CsvTable::FromFile(path));
  MOCEMG_ASSIGN_OR_RETURN(size_t trc_col, table.ColumnIndex("trc"));
  MOCEMG_ASSIGN_OR_RETURN(size_t emg_col, table.ColumnIndex("emg"));
  MOCEMG_ASSIGN_OR_RETURN(size_t label_col, table.ColumnIndex("label"));
  MOCEMG_ASSIGN_OR_RETURN(size_t name_col,
                          table.ColumnIndex("label_name"));
  std::vector<LabeledMotion> motions;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.rows()[r];
    LabeledMotion m;
    MOCEMG_ASSIGN_OR_RETURN(m.mocap, ReadTrcFile(row[trc_col]));
    MOCEMG_ASSIGN_OR_RETURN(m.emg, ReadEmgCsvFile(row[emg_col]));
    MOCEMG_ASSIGN_OR_RETURN(int64_t label, ParseInt(row[label_col]));
    m.label = static_cast<size_t>(label);
    m.label_name = row[name_col];
    motions.push_back(std::move(m));
  }
  if (motions.empty()) {
    return Status::InvalidArgument("manifest lists no motions");
  }
  return motions;
}

int RunTrain(const Args& args) {
  const std::string manifest = args.Get("--manifest");
  const std::string model_path = args.Get("--model");
  if (manifest.empty() || model_path.empty()) return Usage();

  auto motions = LoadManifest(manifest);
  if (!motions.ok()) return Fail(motions.status());
  std::printf("loaded %zu motions from %s\n", motions->size(),
              manifest.c_str());

  ClassifierOptions options;
  auto clusters = ParseInt(args.Get("--clusters", "15"));
  auto window = ParseDouble(args.Get("--window", "100"));
  auto hop = ParseDouble(args.Get("--hop", "50"));
  if (!clusters.ok()) return Fail(clusters.status());
  if (!window.ok()) return Fail(window.status());
  if (!hop.ok()) return Fail(hop.status());
  options.fcm.num_clusters = static_cast<size_t>(*clusters);
  options.features.window_ms = *window;
  options.features.hop_ms = *hop;
  if (args.Has("--kmeans")) {
    options.cluster_method = ClusterMethod::kKmeansHard;
  }
  if (args.Has("--no-emg")) options.features.use_emg = false;
  if (args.Has("--no-mocap")) options.features.use_mocap = false;

  auto clf = MotionClassifier::Train(*motions, options);
  if (!clf.ok()) return Fail(clf.status());
  Status save = SaveClassifier(*clf, model_path);
  if (!save.ok()) return Fail(save);
  std::printf("trained c=%zu, %zu-d final features; model -> %s\n",
              clf->codebook().num_clusters(),
              clf->final_features().cols(), model_path.c_str());
  return 0;
}

int RunClassify(const Args& args) {
  const std::string model_path = args.Get("--model");
  const std::string trc = args.Get("--trc");
  const std::string emg = args.Get("--emg");
  if (model_path.empty() || trc.empty() || emg.empty()) return Usage();
  auto k = ParseInt(args.Get("--k", "1"));
  if (!k.ok() || *k < 1) return Usage();

  auto model = LoadClassifier(model_path);
  if (!model.ok()) return Fail(model.status());
  auto mocap = ReadTrcFile(trc);
  if (!mocap.ok()) return Fail(mocap.status());
  auto recording = ReadEmgCsvFile(emg);
  if (!recording.ok()) return Fail(recording.status());

  auto feature = model->Featurize(*mocap, *recording);
  if (!feature.ok()) return Fail(feature.status());
  auto matches =
      model->NearestNeighbors(*feature, static_cast<size_t>(*k));
  if (!matches.ok()) return Fail(matches.status());

  std::printf("prediction: %s (label %zu)\n",
              model->label_names()[(*matches)[0].index].c_str(),
              (*matches)[0].label);
  for (const MotionMatch& m : *matches) {
    std::printf("  match %-16s label=%zu d=%.4f\n",
                model->label_names()[m.index].c_str(), m.label,
                m.distance);
  }
  return 0;
}

int RunInfo(const Args& args) {
  const std::string model_path = args.Get("--model");
  if (model_path.empty()) return Usage();
  auto model = LoadClassifier(model_path);
  if (!model.ok()) return Fail(model.status());
  const ClassifierOptions& o = model->options();
  std::printf("model: %s\n", model_path.c_str());
  std::printf("  motions:        %zu\n", model->num_motions());
  std::printf("  clusters:       %zu (m=%.2f, %s)\n",
              model->codebook().num_clusters(),
              model->codebook().fuzziness(),
              o.cluster_method == ClusterMethod::kFuzzyCMeans
                  ? "fuzzy c-means"
                  : "k-means hard");
  std::printf("  window:         %.0f ms (hop %.0f ms)\n",
              o.features.window_ms, o.features.hop_ms);
  std::printf("  modalities:     %s%s\n",
              o.features.use_emg ? "emg " : "",
              o.features.use_mocap ? "mocap" : "");
  std::printf("  window dim:     %zu\n", model->codebook().dimension());
  std::printf("  final dim:      %zu\n", model->final_features().cols());
  // Class inventory.
  std::vector<std::string> seen;
  for (size_t i = 0; i < model->num_motions(); ++i) {
    const std::string& name = model->label_names()[i];
    bool dup = false;
    for (const auto& s : seen) dup |= (s == name);
    if (!dup) seen.push_back(name);
  }
  std::printf("  classes (%zu):", seen.size());
  for (const auto& s : seen) std::printf(" %s", s.c_str());
  std::printf("\n");
  return 0;
}

// --- kernel-info: dispatch report + backend equivalence gate ----------
//
// Prints which SIMD backend the dispatcher picked (and why it could),
// then verifies every CPU-usable backend against the scalar reference
// across dims 1..67 for all eleven table entries (five f64/int ops, two
// fp32-mirror ops, the gather refine, the biquad lane kernel over
// 1..67 frames of 1..9 lanes, forward and reverse, the tiled exact
// scan over 1..19 rows and the FCM M-step sums over 1..40 centres and
// 0..19 points) — the same
// bit-exactness contract the unit tests enforce, exercised on the
// actual production binary and CPU. Also reports per-op backend
// coverage; a compiled backend with a missing (null) table entry fails
// the gate. Exits 1 on any mismatch or hole, so CI can gate on
// `mocemg_cli kernel-info`.

bool BitsEqual(double a, double b) {
  uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

bool BitsEqualF(float a, float b) {
  uint32_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

/// Every KernelOps entry with its field name, for coverage reporting.
std::vector<std::pair<const char*, bool>> NamedOpPresence(
    const KernelOps* ops) {
  return {
      {"squared_l2_pair", ops->squared_l2_pair != nullptr},
      {"l2_one_to_many", ops->l2_one_to_many != nullptr},
      {"l2dot_one_to_many", ops->l2dot_one_to_many != nullptr},
      {"ssd8_one_to_many", ops->ssd8_one_to_many != nullptr},
      {"ssd4_one_to_many", ops->ssd4_one_to_many != nullptr},
      {"l2dot_f32_one_to_many", ops->l2dot_f32_one_to_many != nullptr},
      {"row_norms_f32", ops->row_norms_f32 != nullptr},
      {"l2_gather", ops->l2_gather != nullptr},
      {"biquad_cascade_lanes", ops->biquad_cascade_lanes != nullptr},
      {"l2_tiles", ops->l2_tiles != nullptr},
      {"weighted_row_sums", ops->weighted_row_sums != nullptr},
  };
}

Status VerifyKernelEquivalence() {
  const KernelOps* ref = GetKernelOps(KernelBackend::kScalar);
  if (ref == nullptr) {
    return Status::Unknown("scalar kernel backend missing");
  }
  for (const KernelBackend backend : UsableKernelBackends()) {
    if (backend == KernelBackend::kScalar) continue;
    const KernelOps* ops = GetKernelOps(backend);
    if (ops == nullptr) {
      return Status::Unknown(
          std::string("usable backend has no ops table: ") +
          KernelBackendName(backend));
    }
    const size_t rows = 7;
    for (size_t d = 1; d <= 67; ++d) {
      Rng rng(0xC0FFEE ^ (d * 131 + static_cast<size_t>(backend)));
      std::vector<double> x(d), block(rows * d), norms(rows);
      for (double& v : x) v = rng.Gaussian(0.0, 1.0);
      for (double& v : block) v = rng.Gaussian(0.0, 1.0);
      for (size_t r = 0; r < rows; ++r) {
        norms[r] = SquaredNorm(block.data() + r * d, d);
      }
      const double x_sq = SquaredNorm(x.data(), d);
      std::vector<uint8_t> qc(d), codes(rows * d);
      for (auto& v : qc) v = static_cast<uint8_t>(rng.NextBelow(256));
      for (auto& v : codes) v = static_cast<uint8_t>(rng.NextBelow(256));
      const size_t stride = PackedNibbleStride(d);
      std::vector<uint8_t> qn(d), rn(rows * d);
      for (auto& v : qn) v = static_cast<uint8_t>(rng.NextBelow(16));
      for (auto& v : rn) v = static_cast<uint8_t>(rng.NextBelow(16));
      std::vector<uint8_t> qp(stride), rp(rows * stride);
      PackNibbleRows(qn.data(), 1, d, qp.data());
      PackNibbleRows(rn.data(), rows, d, rp.data());

      const auto fail = [&](const char* op) {
        return Status::Unknown(
            std::string("kernel backend ") + KernelBackendName(backend) +
            " diverges from scalar on " + op + " at dim " +
            std::to_string(d));
      };
      for (size_t r = 0; r < rows; ++r) {
        const double* y = block.data() + r * d;
        if (!BitsEqual(ref->squared_l2_pair(x.data(), y, d),
                       ops->squared_l2_pair(x.data(), y, d))) {
          return fail("squared_l2_pair");
        }
      }
      std::vector<double> want(rows), got(rows);
      ref->l2_one_to_many(x.data(), block.data(), rows, d, want.data());
      ops->l2_one_to_many(x.data(), block.data(), rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) return fail("l2_one_to_many");
      }
      ref->l2dot_one_to_many(x.data(), x_sq, block.data(), norms.data(),
                             rows, d, want.data());
      ops->l2dot_one_to_many(x.data(), x_sq, block.data(), norms.data(),
                             rows, d, got.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqual(want[r], got[r])) return fail("l2dot_one_to_many");
      }
      std::vector<uint32_t> wanti(rows), goti(rows);
      ref->ssd8_one_to_many(qc.data(), codes.data(), rows, d,
                            wanti.data());
      ops->ssd8_one_to_many(qc.data(), codes.data(), rows, d,
                            goti.data());
      if (wanti != goti) return fail("ssd8_one_to_many");
      ref->ssd4_one_to_many(qp.data(), rp.data(), rows, d, wanti.data());
      ops->ssd4_one_to_many(qp.data(), rp.data(), rows, d, goti.data());
      if (wanti != goti) return fail("ssd4_one_to_many");
      // fp32-mirror ops: same fixtures narrowed to float, compared at
      // the fp32 bit level.
      std::vector<float> xf(d), blockf(rows * d), normsf(rows);
      for (size_t i = 0; i < d; ++i) {
        xf[i] = static_cast<float>(x[i]);
      }
      for (size_t i = 0; i < rows * d; ++i) {
        blockf[i] = static_cast<float>(block[i]);
      }
      ref->row_norms_f32(blockf.data(), rows, d, normsf.data());
      float xf_sq = 0.0f;
      ref->row_norms_f32(xf.data(), 1, d, &xf_sq);
      std::vector<float> wantf(rows), gotf(rows);
      ref->l2dot_f32_one_to_many(xf.data(), xf_sq, blockf.data(),
                                 normsf.data(), rows, d, wantf.data());
      ops->l2dot_f32_one_to_many(xf.data(), xf_sq, blockf.data(),
                                 normsf.data(), rows, d, gotf.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqualF(wantf[r], gotf[r])) {
          return fail("l2dot_f32_one_to_many");
        }
      }
      ref->row_norms_f32(blockf.data(), rows, d, wantf.data());
      ops->row_norms_f32(blockf.data(), rows, d, gotf.data());
      for (size_t r = 0; r < rows; ++r) {
        if (!BitsEqualF(wantf[r], gotf[r])) return fail("row_norms_f32");
      }
      std::vector<uint32_t> ridx;
      for (size_t r = 0; r < rows; ++r) {
        if ((r + d) % 2 == 0) ridx.push_back(static_cast<uint32_t>(r));
      }
      if (ridx.empty()) ridx.push_back(0);
      std::vector<double> gathered(ridx.size());
      ops->l2_gather(x.data(), block.data(), ridx.data(), ridx.size(), d,
                     gathered.data());
      for (size_t i = 0; i < ridx.size(); ++i) {
        if (!BitsEqual(gathered[i],
                       ref->squared_l2_pair(
                           x.data(), block.data() + ridx[i] * d, d))) {
          return fail("l2_gather");
        }
      }
      // Tiled exact scan: 1..19 rows (every partial last tile and the
      // two-tile runs) of the same fixtures, each row against the pair
      // kernel.
      const size_t tile_rows = 1 + d % 19;
      std::vector<double> tile_block(tile_rows * d);
      for (double& v : tile_block) v = rng.Gaussian(0.0, 1.0);
      std::vector<double> tiles(L2TilesSize(tile_rows, d));
      PackL2Tiles(tile_block.data(), tile_rows, d, tiles.data());
      std::vector<double> tiled(tile_rows);
      ops->l2_tiles(x.data(), tiles.data(), tile_rows, d, tiled.data());
      for (size_t r = 0; r < tile_rows; ++r) {
        if (!BitsEqual(tiled[r], ref->squared_l2_pair(
                                     x.data(), tile_block.data() + r * d,
                                     d))) {
          return fail("l2_tiles");
        }
      }
      // FCM M-step sums: 1..40 centres of dimension d over 0..19
      // points, sums and totals both.
      const size_t centres = 1 + d % 40;
      const size_t points = d % 20;
      std::vector<double> weights(points * centres), coords(points * d);
      for (double& v : weights) v = rng.NextDouble();
      for (double& v : coords) v = rng.Gaussian(0.0, 1.0);
      std::vector<double> want_sums(centres * d), got_sums(centres * d);
      std::vector<double> want_totals(centres), got_totals(centres);
      ref->weighted_row_sums(weights.data(), centres, coords.data(), d,
                             points, want_sums.data(), want_totals.data());
      ops->weighted_row_sums(weights.data(), centres, coords.data(), d,
                             points, got_sums.data(), got_totals.data());
      if (std::memcmp(want_sums.data(), got_sums.data(),
                      want_sums.size() * sizeof(double)) != 0 ||
          std::memcmp(want_totals.data(), got_totals.data(),
                      want_totals.size() * sizeof(double)) != 0) {
        return fail("weighted_row_sums");
      }
      // Biquad lane kernel: d frames of 1..9 interleaved lanes through
      // a cascade of 1..6 stable sections, both directions, from a
      // carried state.
      const size_t sections = 1 + d % 6;
      std::vector<double> coeffs(5 * sections);
      for (size_t s = 0; s < sections; ++s) {
        const double radius = 0.3 + 0.65 * rng.NextDouble();
        const double theta = M_PI * rng.NextDouble();
        coeffs[5 * s] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 1] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 2] = rng.Gaussian(0.0, 1.0);
        coeffs[5 * s + 3] = -2.0 * radius * std::cos(theta);
        coeffs[5 * s + 4] = radius * radius;
      }
      for (size_t lanes = 1; lanes <= 9; ++lanes) {
        std::vector<double> signal(d * lanes), state(2 * sections * lanes);
        for (double& v : signal) v = rng.Gaussian(0.0, 1.0);
        for (double& v : state) v = rng.Gaussian(0.0, 0.1);
        for (const bool reverse : {false, true}) {
          std::vector<double> wantb = signal, gotb = signal;
          std::vector<double> want_state = state, got_state = state;
          ref->biquad_cascade_lanes(coeffs.data(), sections,
                                    want_state.data(), wantb.data(), d,
                                    lanes, reverse);
          ops->biquad_cascade_lanes(coeffs.data(), sections,
                                    got_state.data(), gotb.data(), d, lanes,
                                    reverse);
          if (std::memcmp(wantb.data(), gotb.data(),
                          wantb.size() * sizeof(double)) != 0 ||
              std::memcmp(want_state.data(), got_state.data(),
                          want_state.size() * sizeof(double)) != 0) {
            return fail("biquad_cascade_lanes");
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Per-op backend coverage over every compiled backend: any null table
/// entry is a packaging bug worth failing CI for. Returns the coverage
/// lines to print and flags holes via the status.
Status VerifyOpCoverage(std::vector<std::string>* lines) {
  Status holes = Status::OK();
  for (const KernelBackend backend : CompiledKernelBackends()) {
    const KernelOps* ops = GetKernelOps(backend);
    if (ops == nullptr) {
      return Status::Unknown(
          std::string("compiled backend has no ops table: ") +
          KernelBackendName(backend));
    }
    std::string missing;
    for (const auto& [name, present] : NamedOpPresence(ops)) {
      if (!present) {
        missing += missing.empty() ? name : (std::string(", ") + name);
      }
    }
    std::string line = std::string(KernelBackendName(backend)) + ": ";
    if (missing.empty()) {
      line += "all 11 ops";
    } else {
      line += "MISSING " + missing;
      holes = Status::Unknown(
          std::string("backend ") + KernelBackendName(backend) +
          " is missing ops: " + missing);
    }
    lines->push_back(std::move(line));
  }
  return holes;
}

int RunKernelInfo(const Args& args) {
  const bool json = args.Has("--json");
  const KernelDispatchInfo info = GetKernelDispatchInfo();
  std::vector<std::string> coverage;
  const Status holes = VerifyOpCoverage(&coverage);
  const Status equiv =
      holes.ok() ? VerifyKernelEquivalence() : holes;
  if (json) {
    std::printf("{\n");
    std::printf("  \"active\": \"%s\",\n", info.active.c_str());
    std::printf("  \"compiled\": \"%s\",\n", info.compiled.c_str());
    std::printf("  \"usable\": \"%s\",\n", info.usable.c_str());
    std::printf("  \"cpu_features\": \"%s\",\n", info.cpu_features.c_str());
    std::printf("  \"env_override\": %s,\n",
                info.env_override ? "true" : "false");
    std::printf("  \"op_coverage\": [");
    for (size_t i = 0; i < coverage.size(); ++i) {
      std::printf("%s\"%s\"", i > 0 ? ", " : "", coverage[i].c_str());
    }
    std::printf("],\n");
    std::printf("  \"op_coverage_ok\": %s,\n",
                holes.ok() ? "true" : "false");
    std::printf("  \"equivalence_ok\": %s\n}\n",
                equiv.ok() ? "true" : "false");
  } else {
    std::printf("kernel dispatch:\n");
    std::printf("  active:       %s%s\n", info.active.c_str(),
                info.env_override ? " (MOCEMG_KERNEL override)" : "");
    std::printf("  compiled:     %s\n", info.compiled.c_str());
    std::printf("  usable:       %s\n", info.usable.c_str());
    std::printf("  cpu features: %s\n", info.cpu_features.c_str());
    std::printf("  op coverage:\n");
    for (const std::string& line : coverage) {
      std::printf("    %s\n", line.c_str());
    }
    std::printf("  equivalence:  %s\n",
                equiv.ok() ? "every usable backend bit-identical to scalar "
                             "(dims 1..67, all 11 ops)"
                           : equiv.ToString().c_str());
  }
  return equiv.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  // --kernel: force the SIMD backend before any kernel runs. Unlike the
  // MOCEMG_KERNEL env override (warning + auto), an explicit flag
  // naming an unusable backend is a hard error.
  const std::string kernel = args.Get("--kernel");
  if (!kernel.empty()) {
    auto backend = ParseKernelBackend(kernel);
    if (!backend.ok()) return Usage();
    Status set = SetKernelBackend(*backend);
    if (!set.ok()) return Fail(set);
  }
  if (std::strcmp(argv[1], "train") == 0) return RunTrain(args);
  if (std::strcmp(argv[1], "classify") == 0) return RunClassify(args);
  if (std::strcmp(argv[1], "info") == 0) return RunInfo(args);
  if (std::strcmp(argv[1], "kernel-info") == 0)
    return RunKernelInfo(args);
  return Usage();
}

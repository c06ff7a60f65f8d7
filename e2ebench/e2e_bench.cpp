// End-to-end benchmark program: the paper's capture → label pipeline, the
// prosthetic control loop, and served classification, measured from the
// outside through the public surfaces (MotionClassifier,
// StreamingClassifier, MotionDatabase, FeatureIndex, QueryServer) at
// default options. README.md in this directory documents the workloads
// and every metric.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Earlier lines carry host/build metadata and a readable
// report. Exit code 0 only when every metric was produced.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "core/codebook.h"
#include "core/streaming.h"
#include "core/window_features.h"
#include "db/feature_index.h"
#include "db/motion_database.h"
#include "db/query_server.h"
#include "emg/acquisition.h"
#include "eval/protocols.h"
#include "signal/butterworth.h"
#include "signal/rectify.h"
#include "signal/resample.h"
#include "synth/dataset.h"
#include "util/kernel_dispatch.h"
#include "util/parallel.h"
#include "util/random.h"

namespace e2e {
namespace {

using namespace mocemg;

// ---------------------------------------------------------------------------
// Fixed parameters. The training set, pipeline settings and the served
// database are the same in every run; only query and enrollment captures
// come from --seed.

constexpr uint64_t kTrainingSeed = 20070415;  // EXPERIMENTS.md
constexpr size_t kTrainingTrialsPerClass = 10;
constexpr uint64_t kServedDbSeed = kTrainingSeed + 1;
constexpr size_t kServedDbTrialsPerClass = 334;  // 6 classes -> 2004 motions
constexpr size_t kSetupRepeats = 7;
constexpr size_t kFoldSize = 12;  // 60 motions / 5 folds
constexpr size_t kBatchCaptures = 120;  // 10 folds
constexpr size_t kStreamCaptures = 24;
constexpr size_t kControlTickFrames = 30;
constexpr size_t kServeK = 5;
constexpr size_t kBulkQueries = 64;
constexpr size_t kPoolCaptures = 256;
// Thread budget of batch_classify's ClassifyBatch phase, capped at the
// CPUs online. Every surface left at its default budget follows
// MOCEMG_THREADS, which run.py sets to 1.
constexpr size_t kBatchThreads = 2;

// served_knn: the nominal rate, and the frozen ladder for sustained_qps:
// kLadderRungs geometric rates, kLadderRatio apart, from kLadderLowQps.
// Every round runs one short sub-run on every rung; a sub-run passes when
// its p99 meets kLatencyLimitUs and its backlog never passes
// kMaxOutstanding (no growing backlog).
constexpr double kKnnNominalQps = 10000.0;
constexpr double kLadderLowQps = 16000.0;
constexpr double kLadderRatio = 1.15;
constexpr size_t kLadderRungs = 14;  // 16k .. ~98k requests/s
constexpr size_t kServeRounds = 4;
constexpr double kLatencyLimitUs = 1000.0;
constexpr size_t kMaxOutstanding = 512;     // half the default admission bound

// served_enroll: fixed read rate and fixed enrollment rate.
constexpr double kEnrollReadQps = 10000.0;
constexpr double kEnrollPerSecond = 10.0;

// ---------------------------------------------------------------------------
// Time, statistics, memory.

using SteadyClock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Quantile (q in [0, 1]) of times measured in whole nanoseconds and
// stored in microseconds. Each sample stands for its 1 ns bin and the
// quantile is interpolated inside the group of tied samples it falls in,
// so a distribution that ties on a few nanosecond values (a 100 ns frame
// push) still yields a measured value instead of one of a few integers.
// `bin` is the resolution in the stored unit; 0 gives the plain
// nearest-rank quantile.
double Quantile(std::vector<double> v, double q, double bin = 1e-3) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const size_t at = std::min(v.size() - 1, static_cast<size_t>(rank));
  const auto lo = std::lower_bound(v.begin(), v.end(), v[at]);
  const auto hi = std::upper_bound(v.begin(), v.end(), v[at]);
  const double within = (rank - static_cast<double>(lo - v.begin())) /
                        static_cast<double>(hi - lo);
  return v[at] + bin * (std::clamp(within, 0.0, 1.0) - 0.5);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5, 0); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Median over consecutive sub-runs of a per-sub-run quantile. Samples
// are split into as many slices (at most kMaxSlices) as leave at least
// ten samples beyond the quantile in each, so a host stall that spans a
// few slices does not own the run's tail.
double SubRunQuantile(const std::vector<double>& samples, double q) {
  constexpr size_t kMaxSlices = 64;
  const size_t n = samples.size();
  const size_t slices = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(n) * (1.0 - q) / 10.0), 1,
      kMaxSlices);
  std::vector<double> per;
  for (size_t s = 0; s < slices; ++s) {
    const size_t b = n * s / slices;
    const size_t e = n * (s + 1) / slices;
    per.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<ptrdiff_t>(b),
                            samples.begin() + static_cast<ptrdiff_t>(e)),
        q));
  }
  return Median(per);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into each layer.
// One Tracer per thread (no locking on the hot path). Self time = span
// duration minus the time its child spans cover, aggregated online; the
// first kMaxKeptSpans spans are kept for the trace file.

class Tracer {
 public:
  static constexpr size_t kMaxKeptSpans = 20000;

  struct Agg {
    double self_ns = 0.0;
    double total_ns = 0.0;
    uint64_t count = 0;
  };
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into kept spans, -1 for a root or unkept parent
    uint64_t request;
  };

  explicit Tracer(int thread_id) : thread_id_(thread_id) {}

  void Begin(const char* name, uint64_t request) {
    Open open;
    open.name = name;
    open.request = request;
    open.kept = -1;
    if (kept_.size() < kMaxKeptSpans) {
      open.kept = static_cast<int64_t>(kept_.size());
      kept_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back().kept,
                       request});
    }
    stack_.push_back(open);
    stack_.back().start_ns = NowNs();
  }

  // `rename`, when given, relabels the span (for calls whose layer is
  // only known once they return).
  void End(const char* rename = nullptr) {
    const int64_t end = NowNs();
    Open open = stack_.back();
    stack_.pop_back();
    if (rename != nullptr) open.name = rename;
    const double dur = static_cast<double>(end - open.start_ns);
    Agg& agg = aggs_[open.name];
    agg.total_ns += dur;
    agg.self_ns += dur - open.child_ns;
    ++agg.count;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (open.kept >= 0) {
      kept_[static_cast<size_t>(open.kept)].name = open.name;
      kept_[static_cast<size_t>(open.kept)].start_ns = open.start_ns;
      kept_[static_cast<size_t>(open.kept)].end_ns = end;
    }
  }

  const std::map<std::string, Agg>& aggregates() const { return aggs_; }
  const std::vector<Span>& kept() const { return kept_; }
  int thread_id() const { return thread_id_; }

 private:
  struct Open {
    const char* name = nullptr;
    int64_t start_ns = 0;
    double child_ns = 0.0;
    int64_t kept = -1;
    uint64_t request = 0;
  };
  int thread_id_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::map<std::string, Agg> aggs_;
};

// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// All tracers of a run; merged at the end.
class TraceSet {
 public:
  Tracer* New() {
    tracers_.push_back(std::make_unique<Tracer>(
        static_cast<int>(tracers_.size())));
    return tracers_.back().get();
  }
  Tracer::Agg Get(const std::string& name) const {
    Tracer::Agg out;
    for (const auto& t : tracers_) {
      auto it = t->aggregates().find(name);
      if (it == t->aggregates().end()) continue;
      out.self_ns += it->second.self_ns;
      out.total_ns += it->second.total_ns;
      out.count += it->second.count;
    }
    return out;
  }
  uint64_t Count(const std::string& name) const { return Get(name).count; }

  // Chrome trace-event JSON (one event per kept span).
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (const auto& t : tracers_) {
      for (size_t i = 0; i < t->kept().size(); ++i) {
        const Tracer::Span& s = t->kept()[i];
        if (s.end_ns == 0) continue;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld,\"request\":%llu}}",
                     first ? "" : ",\n", s.name, t->thread_id(),
                     NsToUs(s.start_ns), NsToUs(s.end_ns - s.start_ns), i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

// ---------------------------------------------------------------------------
// Run accounting and output.

struct Metric {
  double value;
  std::string unit;
};

// Operations attempted and failed; updated from the load and enrollment
// threads of the served workloads, hence the lock.
class Outcome {
 public:
  void Add(uint64_t attempted) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += attempted;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    Add(1);
    if (!ok) Fail(what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

#define E2E_CHECK_OK(expr)                                                 \
  do {                                                                     \
    ::mocemg::Status _st = (expr);                                         \
    if (!_st.ok()) {                                                       \
      std::fprintf(stderr, "e2e_bench: %s failed: %s\n", #expr,            \
                   _st.ToString().c_str());                                \
      std::exit(2);                                                        \
    }                                                                      \
  } while (false)

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "e2e_bench: %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return *std::move(r);
}

// ---------------------------------------------------------------------------
// Inputs.

DatasetOptions Lab(uint64_t seed) {
  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.trials_per_class = kTrainingTrialsPerClass;
  lab.seed = seed;
  return lab;
}

ClassifierOptions PaperOptions() {
  ClassifierOptions opts;
  opts.features.window_ms = 100.0;
  opts.features.hop_ms = 50.0;
  opts.fcm.num_clusters = 15;
  opts.fcm.seed = kTrainingSeed ^ 0xC0FFEE;
  opts.fcm.max_iterations = 80;
  opts.fcm.epsilon = 1e-4;
  // One capture is featurized on the calling thread; batch calls spread
  // captures over the thread budget instead.
  opts.features.parallel.max_threads = 1;
  return opts;
}

// `n` held-out captures from the workload seed; `salt` separates the
// query, stream, pool and enrollment sets of one seed.
std::vector<LabeledMotion> HeldOut(uint64_t seed, uint64_t salt, size_t n) {
  const DatasetOptions lab = Lab(seed);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  const size_t classes = NumClassesForLimb(lab.limb);
  std::vector<CapturedMotion> captured;
  captured.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    captured.push_back(Unwrap(
        GenerateTrial(lab, i % classes, 1000 + i, rng.NextUint64()),
        "GenerateTrial"));
  }
  return ToLabeledMotions(std::move(captured));
}

// ---------------------------------------------------------------------------
// The capture path composed from the layers' public functions, with a
// span around each call. Conditioning replays ConditionRecording's
// default chain per channel (band-pass, rectify, resample + clamp).

struct CapturePathResult {
  std::vector<double> final_feature;
  EmgRecording conditioned;
  WindowFeatureStats window_stats;
  Matrix memberships;
};

Result<EmgRecording> ComposedCondition(const EmgRecording& raw,
                                       const AcquisitionOptions& acq,
                                       Tracer* tr, uint64_t req) {
  ScopedSpan span(tr, "emg.condition", req);
  const double fs = raw.sample_rate_hz();
  std::vector<std::vector<double>> channels;
  channels.reserve(raw.num_channels());
  for (size_t c = 0; c < raw.num_channels(); ++c) {
    std::vector<double> x;
    {
      ScopedSpan s(tr, "signal.bandpass", req);
      auto bp = DesignBandPass(acq.filter_order, acq.band_low_hz,
                               acq.band_high_hz, fs);
      if (!bp.ok()) return bp.status();
      x = bp->ProcessSignal(raw.channel(c));
    }
    {
      ScopedSpan s(tr, "signal.rectify", req);
      x = FullWaveRectify(x);
    }
    {
      ScopedSpan s(tr, "signal.resample", req);
      auto r = Resample(x, fs, acq.output_rate_hz);
      if (!r.ok()) return r.status();
      x = *std::move(r);
      for (double& v : x) {
        if (v < 0.0) v = 0.0;
      }
    }
    channels.push_back(std::move(x));
  }
  return EmgRecording::Create(raw.muscles(), std::move(channels),
                              acq.output_rate_hz);
}

Result<CapturePathResult> ComposedFeaturize(const MotionClassifier& clf,
                                            const LabeledMotion& m,
                                            Tracer* tr, uint64_t req) {
  CapturePathResult out;
  AcquisitionOptions acq = clf.options().acquisition;
  acq.output_rate_hz = m.mocap.frame_rate_hz();
  auto cond = ComposedCondition(m.emg, acq, tr, req);
  if (!cond.ok()) return cond.status();
  out.conditioned = *std::move(cond);
  Matrix points;
  {
    ScopedSpan s(tr, "core.window_features", req);
    auto wf = ExtractWindowFeatures(m.mocap, out.conditioned,
                                    clf.options().features,
                                    &out.window_stats);
    if (!wf.ok()) return wf.status();
    points = std::move(wf->points);
  }
  {
    ScopedSpan s(tr, "core.normalize", req);
    auto n = clf.normalizer().Transform(points);
    if (!n.ok()) return n.status();
    points = *std::move(n);
  }
  {
    ScopedSpan s(tr, "core.membership", req);
    auto mm = clf.codebook().MembershipMatrix(points);
    if (!mm.ok()) return mm.status();
    out.memberships = *std::move(mm);
  }
  {
    ScopedSpan s(tr, "core.final_feature", req);
    auto f = FinalMotionFeature(out.memberships);
    if (!f.ok()) return f.status();
    out.final_feature = *std::move(f);
  }
  return out;
}

bool SameRecording(const EmgRecording& a, const EmgRecording& b) {
  if (a.num_channels() != b.num_channels() ||
      a.sample_rate_hz() != b.sample_rate_hz()) {
    return false;
  }
  for (size_t c = 0; c < a.num_channels(); ++c) {
    if (a.channel(c) != b.channel(c)) return false;
  }
  return true;
}

// One traced capture → label, checked against the library's own path:
// composed conditioning bit-equal to ConditionRecording, final vector
// bit-equal to Featurize, label equal to Classify's.
void TracedCapture(const MotionClassifier& clf, const LabeledMotion& m,
                   size_t expected_label, Tracer* tr, uint64_t req,
                   bool verify, Outcome* outcome,
                   WindowFeatureStats* window_totals) {
  size_t label = 0;
  Result<CapturePathResult> path = Status::Unknown("not run");
  {
    ScopedSpan span(tr, "core.capture", req);
    path = ComposedFeaturize(clf, m, tr, req);
    if (path.ok()) {
      ScopedSpan s(tr, "core.knn", req);
      auto nn = clf.NearestNeighbors(path->final_feature, 1);
      if (nn.ok()) label = (*nn)[0].label;
    }
  }
  if (!path.ok()) {
    outcome->Check(false, "composed capture path: " +
                              path.status().ToString());
    return;
  }
  window_totals->gram_fast_windows += path->window_stats.gram_fast_windows;
  window_totals->gram_fallback_windows +=
      path->window_stats.gram_fallback_windows;
  bool ok = label == expected_label;
  if (verify) {
    AcquisitionOptions acq = clf.options().acquisition;
    acq.output_rate_hz = m.mocap.frame_rate_hz();
    auto lib = ConditionRecording(m.emg, acq);
    ok = ok && lib.ok() && SameRecording(*lib, path->conditioned);
    auto feature = clf.Featurize(m.mocap, m.emg);
    ok = ok && feature.ok() && *feature == path->final_feature;
  }
  outcome->Check(ok, "composed capture path disagrees with Classify");
}

// ---------------------------------------------------------------------------
// Set-up: the timed part of every workload.

struct Setup {
  std::vector<double> total_s;
  std::vector<double> train_s;
  std::vector<double> index_build_ms;
  double featurize_s = 0.0;  // served database featurization, one pass
};

MotionClassifier TrainOnce(const std::vector<LabeledMotion>& training,
                           Setup* setup) {
  const int64_t t0 = NowNs();
  auto clf = Unwrap(MotionClassifier::Train(training, PaperOptions()),
                    "MotionClassifier::Train");
  setup->train_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return clf;
}

// A served database, its index and its server. Heap-held so the index
// and server keep valid pointers to their database.
struct Serving {
  MotionDatabase db;
  FeatureIndex index;
  std::optional<QueryServer> server;  // QueryServer has no usable default state
};

// Builds index + server over `serving->db`; returns seconds spent.
double BuildServing(Serving* serving, Setup* setup) {
  const int64_t t0 = NowNs();
  serving->index =
      Unwrap(FeatureIndex::Build(&serving->db), "FeatureIndex::Build");
  const int64_t t1 = NowNs();
  serving->server = Unwrap(QueryServer::Create(&serving->db, &serving->index),
                           "QueryServer::Create");
  const int64_t t2 = NowNs();
  if (setup != nullptr) {
    setup->index_build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return static_cast<double>(t2 - t0) / 1e9;
}

MotionRecord RecordFor(const LabeledMotion& m, std::vector<double> feature,
                       size_t id) {
  MotionRecord rec;
  rec.name = m.label_name + "/" + std::to_string(id);
  rec.label = m.label;
  rec.label_name = m.label_name;
  rec.feature = std::move(feature);
  return rec;
}

// ---------------------------------------------------------------------------
// Open-loop load against a started server: seeded Poisson arrivals of
// SubmitClassify(k = 5). A generator thread submits on schedule; a taker
// thread takes answers in ticket order. Latency runs from each request's
// scheduled send time until its answer is taken.

struct Pool {
  std::vector<std::vector<double>> vectors;
  std::vector<size_t> reference;  // ClassifyByVote on the initial database
  size_t cursor = 0;
};

struct LoadStep {
  std::vector<double> latency_us;  // answered requests, in send order
  std::vector<double> lag_us;      // generator lateness per send
  double achieved_qps = 0.0;
  size_t sent = 0;
  size_t answered = 0;
  bool aborted = false;  // outstanding requests passed kMaxOutstanding
};

// Lets the enrollment thread quiesce clients while it mutates the
// database (Submit validates against the database; Take may serve inline
// while the worker is stopped).
struct Gate {
  std::shared_mutex mu;
  std::atomic<size_t> db_size{0};
};

struct Sent {
  int64_t sched_ns = 0;
  uint64_t ticket = 0;
  uint32_t pool_index = 0;
  uint32_t db_size = 0;
  bool admitted = false;
};

LoadStep RunOpenLoop(QueryServer* server, Pool* pool, double rate,
                     double seconds, uint64_t seed, Gate* gate,
                     Tracer* gen_tr, Tracer* take_tr, Outcome* outcome,
                     std::vector<std::pair<Sent, size_t>>* answers_out) {
  LoadStep step;
  Rng rng(seed);
  std::vector<int64_t> sched;
  {
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / rate;
      if (t >= seconds) break;
      sched.push_back(static_cast<int64_t>(t * 1e9));
    }
  }
  const size_t n = sched.size();
  std::vector<Sent> sent(n);
  std::vector<size_t> labels(n, 0);
  std::vector<int64_t> done(n, 0);
  std::vector<uint8_t> took(n, 0);
  // Requests [0, published) are submitted; kDone marks the generator
  // finished. The taker blocks on the counter instead of spinning.
  constexpr size_t kDone = size_t{1} << 63;
  std::atomic<size_t> published{0};
  std::atomic<size_t> taken{0};

  std::thread taker([&] {
    size_t i = 0;
    while (true) {
      const size_t state = published.load(std::memory_order_acquire);
      if (i >= (state & ~kDone)) {
        if (state & kDone) break;
        published.wait(state, std::memory_order_acquire);
        continue;
      }
      if (sent[i].admitted) {
        Result<size_t> label = Status::Unknown("unset");
        {
          std::shared_lock<std::shared_mutex> lock;
          if (gate != nullptr) {
            lock = std::shared_lock<std::shared_mutex>(gate->mu);
          }
          ScopedSpan s(take_tr, "db.take", sent[i].ticket);
          label = server->TakeLabel(sent[i].ticket);
        }
        done[i] = NowNs();
        if (label.ok()) {
          labels[i] = *label;
          took[i] = 1;
        }
      }
      ++i;
      taken.store(i, std::memory_order_release);
    }
  });

  const int64_t start = NowNs() + 2000000;  // 2 ms lead-in
  size_t i = 0;
  for (; i < n; ++i) {
    const size_t outstanding = i - taken.load(std::memory_order_acquire);
    if (outstanding > kMaxOutstanding) {
      step.aborted = true;
      break;
    }
    const size_t pi = pool->cursor;
    pool->cursor = (pool->cursor + 1) % pool->vectors.size();
    std::vector<double> query = pool->vectors[pi];
    const int64_t due = start + sched[i];
    int64_t now = NowNs();
    // Sleep only through long gaps: a late wake-up would show up as
    // request latency, so the last 2 ms before a send are spun. The spin
    // yields until the last 20 us, so on a short-handed host it does not
    // hold a CPU the server's worker or the taker is waiting for.
    if (due - now > 4000000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 2000000));
    }
    while ((now = NowNs()) < due) {
      if (due - now > 20000) std::this_thread::yield();
    }
    Sent& s = sent[i];
    s.sched_ns = due;
    s.pool_index = static_cast<uint32_t>(pi);
    {
      std::shared_lock<std::shared_mutex> lock;
      if (gate != nullptr) {
        lock = std::shared_lock<std::shared_mutex>(gate->mu);
        s.db_size = static_cast<uint32_t>(gate->db_size.load());
      }
      step.lag_us.push_back(NsToUs(NowNs() - due));
      ScopedSpan span(gen_tr, "db.submit", i);
      auto ticket = server->SubmitClassify(std::move(query), kServeK);
      if (ticket.ok()) {
        s.ticket = *ticket;
        s.admitted = true;
      }
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  step.sent = i;
  published.store(i | kDone, std::memory_order_release);
  published.notify_one();
  taker.join();

  int64_t last_done = start;
  for (size_t j = 0; j < step.sent; ++j) {
    outcome->Add(1);
    if (!sent[j].admitted) {
      outcome->Fail("request rejected by admission");
      continue;
    }
    if (!took[j]) {
      outcome->Fail("request failed (expired or error)");
      continue;
    }
    ++step.answered;
    step.latency_us.push_back(NsToUs(done[j] - sent[j].sched_ns));
    last_done = std::max(last_done, done[j]);
    if (answers_out != nullptr) {
      answers_out->push_back({sent[j], labels[j]});
    } else if (labels[j] != pool->reference[sent[j].pool_index]) {
      outcome->Fail("served label differs from ClassifyByVote");
    }
  }
  const double seconds_taken = static_cast<double>(last_done - start) / 1e9;
  step.achieved_qps = seconds_taken > 0
                          ? static_cast<double>(step.answered) / seconds_taken
                          : 0.0;
  return step;
}

// Final vectors of window spans of held-out captures: many distinct
// queries from a few captures. More distinct vectors than the server's
// default cache capacity, cycled in order, so FIFO eviction has dropped
// each one before it recurs and every request is a cache miss.
Pool MakePool(const MotionClassifier& clf, uint64_t seed, uint64_t salt) {
  const size_t want = QueryServerOptions{}.cache_capacity + 1024;
  const std::vector<LabeledMotion> captures =
      HeldOut(seed, salt, kPoolCaptures);
  std::vector<Matrix> memberships;
  for (const LabeledMotion& m : captures) {
    auto path = ComposedFeaturize(clf, m, nullptr, 0);
    if (!path.ok()) continue;
    memberships.push_back(std::move(path->memberships));
  }
  Rng rng(seed ^ (salt * 0xD1B54A32D192ED03ULL));
  std::set<std::vector<double>> seen;
  Pool pool;
  for (size_t attempt = 0; pool.vectors.size() < want && attempt < want * 8;
       ++attempt) {
    const Matrix& mm = memberships[attempt % memberships.size()];
    const size_t w = mm.rows();
    if (w < 4) continue;
    const size_t len = 2 + rng.NextBelow(w - 1);
    const size_t begin = rng.NextBelow(w - len + 1);
    auto f = FinalMotionFeature(mm.RowSlice(begin, begin + len));
    if (!f.ok() || !seen.insert(*f).second) continue;
    pool.vectors.push_back(*std::move(f));
  }
  return pool;
}

void ComputeReferences(const MotionDatabase& db, Pool* pool) {
  pool->reference.resize(pool->vectors.size());
  for (size_t i = 0; i < pool->vectors.size(); ++i) {
    pool->reference[i] =
        Unwrap(db.ClassifyByVote(pool->vectors[i], kServeK), "ClassifyByVote");
  }
}

// ---------------------------------------------------------------------------
// Streaming inputs: captures conditioned up front, frames flattened.

struct StreamInput {
  size_t markers = 0;
  size_t channels = 0;
  std::vector<std::vector<double>> mocap;  // per frame, 3·markers values
  std::vector<std::vector<double>> emg;    // per frame, one per channel
  size_t classify_label = 0;
};

StreamInput MakeStreamInput(const MotionClassifier& clf,
                            const LabeledMotion& m) {
  StreamInput in;
  AcquisitionOptions acq = clf.options().acquisition;
  acq.output_rate_hz = m.mocap.frame_rate_hz();
  const EmgRecording emg =
      Unwrap(ConditionRecording(m.emg, acq), "ConditionRecording");
  in.markers = m.mocap.num_markers();
  in.channels = emg.num_channels();
  const size_t frames = std::min(m.mocap.num_frames(), emg.num_samples());
  for (size_t f = 0; f < frames; ++f) {
    const double* row = m.mocap.positions().RowPtr(f);
    in.mocap.emplace_back(row, row + 3 * in.markers);
    in.emg.emplace_back(in.channels);
    for (size_t c = 0; c < in.channels; ++c) {
      in.emg.back()[c] = emg.channel(c)[f];
    }
  }
  in.classify_label = Unwrap(clf.Classify(m.mocap, m.emg), "Classify");
  return in;
}

// Per-tick cost is bimodal (about half the ticks cost 1.5x the others),
// so ticks are timed in groups of kTicksPerSample: one second of stream.
struct StreamStats {
  static constexpr size_t kTicksPerSample = 4;
  std::vector<double> second_us;  // 120 frames: 4 ticks and their decisions
  std::vector<double> start_us;   // Create, first tick, first decision
  size_t frames = 0;
};

// Replays one capture through a fresh StreamingClassifier: PushFrame
// every frame, CurrentDecision at each control tick, and a final
// decision at the end. Returns the final decision (SIZE_MAX on error).
// Untraced replays time every frame into `stats`; traced replays record
// spans instead, labelling a push that completes a window
// core.stream_window and any other push core.stream_push.
size_t ReplayStream(const MotionClassifier& clf, const StreamInput& in,
                    StreamStats* stats, Tracer* tr, uint64_t req) {
  const int64_t s0 = NowNs();
  auto streamer =
      Unwrap(StreamingClassifier::Create(&clf, in.markers, 0, in.channels,
                                         StreamingOptions{}),
             "StreamingClassifier::Create");
  const size_t frames = in.mocap.size();
  bool ok = true;
  size_t ticks = 0;
  int64_t sample_start = NowNs();
  for (size_t f = 0; f < frames; ++f) {
    const bool tick = f % kControlTickFrames == kControlTickFrames - 1;
    if (tr != nullptr) {
      const size_t windows = streamer.windows_completed();
      tr->Begin("core.stream_frame", req);
      tr->Begin("core.stream_push", req);
      ok = streamer.PushFrame(in.mocap[f], in.emg[f]).ok() && ok;
      tr->End(streamer.windows_completed() != windows ? "core.stream_window"
                                                       : "core.stream_push");
      if (tick) {
        ScopedSpan s(tr, "core.stream_decide", req);
        (void)streamer.CurrentDecision();
      }
      tr->End();
      continue;
    }
    ok = streamer.PushFrame(in.mocap[f], in.emg[f]).ok() && ok;
    if (!tick) continue;
    (void)streamer.CurrentDecision();
    const int64_t now = NowNs();
    if (++ticks == 1) {
      stats->start_us.push_back(NsToUs(now - s0));
    }
    if (ticks % StreamStats::kTicksPerSample == 0) {
      stats->second_us.push_back(NsToUs(now - sample_start));
      sample_start = now;
    }
  }
  auto decision = streamer.CurrentDecision();
  if (stats != nullptr) stats->frames += frames;
  return ok && decision.ok() ? *decision : SIZE_MAX;
}

// ---------------------------------------------------------------------------
// The run context shared by workloads and the traced census.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Run {
  Args args;
  Outcome outcome;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> report;  // readable aliases, not in JSON
  TraceSet traces;
  Setup setup;
  std::vector<LabeledMotion> training;
  MotionClassifier clf;
  std::vector<LabeledMotion> captures;  // workload's raw held-out captures
  std::vector<size_t> classify_labels;  // Classify() on `captures`
  std::unique_ptr<Serving> serving;     // served workloads
  size_t thread_budget = 1;

  void Put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

void PrepareClassifyLabels(Run* run) {
  run->classify_labels.clear();
  for (const LabeledMotion& m : run->captures) {
    run->classify_labels.push_back(
        Unwrap(run->clf.Classify(m.mocap, m.emg), "Classify"));
  }
}

// Set-up shared by every workload: Train, repeated kSetupRepeats times
// (training is deterministic; the last model is kept). A served workload
// adds featurizing its `db_size` database captures, FeatureIndex::Build
// and QueryServer::Create. `db_capture(i)` generates capture i untimed,
// so only one raw capture is held at a time.
void TimedSetup(Run* run, size_t db_size,
                const std::function<LabeledMotion(size_t)>& db_capture) {
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    double total = 0.0;
    const int64_t t0 = NowNs();
    run->clf = TrainOnce(run->training, &run->setup);
    total += static_cast<double>(NowNs() - t0) / 1e9;
    if (db_size > 0) {
      // Featurization dominates set-up; it runs in full once (a sum
      // over db_size timed calls) and is charged to every repeat.
      if (rep == 0) {
        run->serving = std::make_unique<Serving>();
        int64_t featurize_ns = 0;
        for (size_t i = 0; i < db_size; ++i) {
          const LabeledMotion m = db_capture(i);
          const int64_t f0 = NowNs();
          auto feature = Unwrap(run->clf.Featurize(m.mocap, m.emg),
                                "Featurize (served database)");
          E2E_CHECK_OK(run->serving->db.Insert(RecordFor(m, feature, i)));
          featurize_ns += NowNs() - f0;
        }
        run->setup.featurize_s = static_cast<double>(featurize_ns) / 1e9;
      }
      total += run->setup.featurize_s;
      total += BuildServing(run->serving.get(), &run->setup);
    }
    run->setup.total_s.push_back(total);
  }
}

// ---------------------------------------------------------------------------
// Workload: batch_classify.

void BatchClassify(Run* run) {
  run->captures = HeldOut(run->args.seed, 1, kBatchCaptures);
  TimedSetup(run, 0, nullptr);
  // The final-vector server that QueryServer::ClassifyBatch runs through
  // inside MotionClassifier::ClassifyBatch, for core.batch_serve_us.
  const int64_t c0 = NowNs();
  QueryServer batch_server = Unwrap(
      QueryServer::Create(run->clf.final_database(),
                          static_cast<const FeatureIndex*>(nullptr)),
      "QueryServer::Create");
  const double create_s = static_cast<double>(NowNs() - c0) / 1e9;
  for (double& t : run->setup.total_s) t += create_s;
  PrepareClassifyLabels(run);

  const MotionClassifier& clf = run->clf;
  const size_t n = run->captures.size();
  std::vector<std::vector<LabeledMotion>> folds;
  for (size_t b = 0; b < n; b += kFoldSize) {
    folds.emplace_back(run->captures.begin() + static_cast<ptrdiff_t>(b),
                       run->captures.begin() +
                           static_cast<ptrdiff_t>(std::min(n, b + kFoldSize)));
  }
  ParallelOptions par;
  par.max_threads = run->thread_budget;

  // Rounds interleave the two phases (and, in a traced run, the traced
  // composed path) so that a slow spell of the host lands on every
  // metric alike: one Classify pass over the captures, one ClassifyBatch
  // pass over the folds.
  std::vector<double> capture_us;
  std::vector<double> batch_ms;
  std::vector<double> round_rate;  // motions/s of each round's batch pass
  Tracer* tr = run->args.trace ? run->traces.New() : nullptr;
  WindowFeatureStats wstats;
  const int64_t end =
      NowNs() + static_cast<int64_t>(run->args.seconds * 1e9);
  for (size_t round = 0; round == 0 || NowNs() < end; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const LabeledMotion& m = run->captures[i];
      const int64_t t0 = NowNs();
      auto label = clf.Classify(m.mocap, m.emg);
      capture_us.push_back(NsToUs(NowNs() - t0));
      run->outcome.Check(label.ok() && *label == run->classify_labels[i],
                         "Classify is not deterministic");
    }
    int64_t busy_ns = 0;
    for (size_t f = 0; f < folds.size(); ++f) {
      const int64_t t0 = NowNs();
      auto labels = clf.ClassifyBatch(folds[f], par);
      const int64_t t1 = NowNs();
      batch_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      busy_ns += t1 - t0;
      bool ok = labels.ok() && labels->size() == folds[f].size();
      for (size_t j = 0; ok && j < labels->size(); ++j) {
        ok = (*labels)[j] == run->classify_labels[f * kFoldSize + j];
      }
      run->outcome.Check(ok, "ClassifyBatch differs from Classify");
    }
    round_rate.push_back(static_cast<double>(n) /
                         (static_cast<double>(busy_ns) / 1e9));
    if (tr != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        TracedCapture(clf, run->captures[i], run->classify_labels[i], tr,
                      round * n + i, round == 0, &run->outcome, &wstats);
      }
    }
  }

  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    correct += run->classify_labels[i] == run->captures[i].label;
  }
  run->report["classify_accuracy"] = {
      100.0 * static_cast<double>(correct) / static_cast<double>(n), "%"};

  if (!run->args.trace) {
    run->Put("p50_us", SubRunQuantile(capture_us, 0.5), "us");
    run->Put("p90_us", SubRunQuantile(capture_us, 0.9), "us");
    run->Put("ops_per_s", Median(round_rate), "1/s");
    run->Put("heavy_p50_ms", SubRunQuantile(batch_ms, 0.5), "ms");
    run->Put("heavy_p90_ms", SubRunQuantile(batch_ms, 0.9), "ms");
    run->report["capture_p50_us"] = run->metrics["p50_us"];
    run->report["capture_p99_us"] = {SubRunQuantile(capture_us, 0.99), "us"};
    run->report["motions_per_s(thread-dependent)"] = run->metrics["ops_per_s"];
    run->report["capture_samples"] = {static_cast<double>(capture_us.size()),
                                      "count"};
    return;
  }

  const Tracer::Agg cap = run->traces.Get("core.capture");
  run->Put("bench.trace_overhead_pct",
           100.0 * (cap.total_ns / static_cast<double>(cap.count) / 1e3 /
                        Mean(capture_us) -
                    1.0),
           "%");
  run->Put("core.gram_fast_ratio",
           static_cast<double>(wstats.gram_fast_windows) /
               std::max<double>(1.0, static_cast<double>(
                                         wstats.gram_fast_windows +
                                         wstats.gram_fallback_windows)),
           "ratio");
  // core.batch_serve_us: QueryServer::ClassifyBatch on each fold's final
  // vectors (the serving half of MotionClassifier::ClassifyBatch).
  std::vector<std::vector<std::vector<double>>> finals(folds.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    for (const LabeledMotion& m : folds[f]) {
      finals[f].push_back(
          Unwrap(clf.Featurize(m.mocap, m.emg), "Featurize"));
    }
  }
  for (size_t r = 0; r < 200; ++r) {
    const size_t f = r % folds.size();
    Result<std::vector<size_t>> labels = Status::Unknown("unset");
    {
      ScopedSpan s(tr, "core.batch_serve", r);
      labels = batch_server.ClassifyBatch(finals[f], 1);
    }
    bool ok = labels.ok();
    for (size_t j = 0; ok && j < labels->size(); ++j) {
      ok = (*labels)[j] == run->classify_labels[f * kFoldSize + j];
    }
    run->outcome.Check(ok, "QueryServer::ClassifyBatch differs");
  }
}

// ---------------------------------------------------------------------------
// Workload: stream_control.

void StreamControl(Run* run) {
  run->captures = HeldOut(run->args.seed, 2, kStreamCaptures);
  TimedSetup(run, 0, nullptr);
  PrepareClassifyLabels(run);
  std::vector<StreamInput> inputs;
  for (const LabeledMotion& m : run->captures) {
    inputs.push_back(MakeStreamInput(run->clf, m));
  }
  const MotionClassifier& clf = run->clf;
  const size_t n = inputs.size();
  std::vector<size_t> first_decision(n, SIZE_MAX);
  size_t agreement = 0;
  auto check = [&](size_t i, size_t decision) {
    const size_t c = i % n;
    if (i < n) {
      first_decision[c] = decision;
      agreement += decision == inputs[c].classify_label;
    }
    run->outcome.Check(decision != SIZE_MAX && decision == first_decision[c],
                       "stream decision failed or changed between replays");
  };

  // A traced run alternates untraced and traced replays of each capture.
  StreamStats stats;
  Tracer* tr = run->args.trace ? run->traces.New() : nullptr;
  double loop_s = 0.0;
  const int64_t end =
      NowNs() + static_cast<int64_t>(run->args.seconds * 1e9);
  for (size_t i = 0; NowNs() < end || i < n; ++i) {
    const int64_t t0 = NowNs();
    check(i, ReplayStream(clf, inputs[i % n], &stats, nullptr, i));
    loop_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (tr != nullptr) {
      run->outcome.Check(
          ReplayStream(clf, inputs[i % n], nullptr, tr, i) ==
              first_decision[i % n],
          "traced stream decision differs");
    }
  }
  run->outcome.Add(stats.frames);  // every frame is an operation
  run->report["stream_agreement_with_classify"] = {
      static_cast<double>(agreement), "count"};

  if (!run->args.trace) {
    run->Put("p50_us", SubRunQuantile(stats.second_us, 0.5), "us");
    run->Put("p90_us", SubRunQuantile(stats.second_us, 0.9), "us");
    run->report["second_p99_us"] = {SubRunQuantile(stats.second_us, 0.99),
                                    "us"};
    run->Put("ops_per_s", static_cast<double>(stats.frames) / loop_s,
             "1/s");
    run->Put("heavy_p50_ms", SubRunQuantile(stats.start_us, 0.5) / 1e3, "ms");
    run->Put("heavy_p90_ms", SubRunQuantile(stats.start_us, 0.9) / 1e3, "ms");
    run->report["frames_per_s"] = run->metrics["ops_per_s"];
    return;
  }
  run->Put("core.stream_agreement", static_cast<double>(agreement), "count");
  const Tracer::Agg frame = run->traces.Get("core.stream_frame");
  run->Put("bench.trace_overhead_pct",
           100.0 * (frame.total_ns / static_cast<double>(frame.count) / 1e3 /
                        (std::accumulate(stats.second_us.begin(),
                                         stats.second_us.end(), 0.0) /
                         static_cast<double>(stats.second_us.size() *
                                             StreamStats::kTicksPerSample *
                                             kControlTickFrames)) -
                    1.0),
           "%");
}

// ---------------------------------------------------------------------------
// Workload: served_knn.

double LadderRate(double rung) {
  return kLadderLowQps * std::pow(kLadderRatio, rung);
}

bool SubRunPasses(const LoadStep& step) {
  return !step.aborted && Quantile(step.latency_us, 0.99) <= kLatencyLimitUs;
}

// Closed loop at saturation: one client keeps kSaturationWindow requests
// outstanding for `seconds`. Returns the answer rate of each 50 ms slice.
std::vector<double> RunSaturated(QueryServer* server, Pool* pool,
                                 double seconds, Outcome* outcome) {
  constexpr size_t kSaturationWindow = 256;
  constexpr int64_t kSliceNs = 50000000;
  std::deque<std::pair<uint64_t, size_t>> inflight;  // ticket, pool index
  std::vector<double> rates;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t slice_start = NowNs();
  size_t slice_answers = 0;
  while (NowNs() < end || !inflight.empty()) {
    if (NowNs() < end && inflight.size() < kSaturationWindow) {
      const size_t pi = pool->cursor;
      pool->cursor = (pool->cursor + 1) % pool->vectors.size();
      auto ticket = server->SubmitClassify(pool->vectors[pi], kServeK);
      outcome->Add(1);
      if (!ticket.ok()) {
        outcome->Fail("saturation submit rejected");
        continue;
      }
      inflight.emplace_back(*ticket, pi);
      continue;
    }
    const auto [ticket, pi] = inflight.front();
    inflight.pop_front();
    auto label = server->TakeLabel(ticket);
    if (!label.ok() || *label != pool->reference[pi]) {
      outcome->Fail("saturation answer differs from ClassifyByVote");
    }
    ++slice_answers;
    const int64_t now = NowNs();
    if (now - slice_start >= kSliceNs) {
      rates.push_back(static_cast<double>(slice_answers) /
                      (static_cast<double>(now - slice_start) / 1e9));
      slice_start = now;
      slice_answers = 0;
    }
  }
  return rates;
}

void PutServerStats(Run* run, const QueryServerStats& st, size_t dim) {
  const double misses = std::max<double>(1.0, st.cache_misses);
  const IndexQueryStats& ix = st.index_stats;
  run->Put("db.batch_size_mean",
           static_cast<double>(st.served) /
               std::max<double>(1.0, static_cast<double>(st.batches)),
           "count");
  run->Put("db.queue_high_water", static_cast<double>(st.queue_high_water),
           "count");
  run->Put("db.rejected", static_cast<double>(st.rejected), "count");
  run->Put("db.expired", static_cast<double>(st.expired), "count");
  run->Put("db.index.distance_computations_per_request",
           static_cast<double>(ix.distance_computations) / misses, "count");
  run->Put("db.index.partitions_pruned_ratio",
           static_cast<double>(ix.partitions_pruned) /
               std::max<double>(1.0, static_cast<double>(
                                         ix.partitions_visited +
                                         ix.partitions_pruned)),
           "ratio");
  // Computed, not measured: bytes each tier streams per evaluated row.
  const double bytes =
      static_cast<double>(ix.distance_computations) * 8.0 * dim +
      static_cast<double>(ix.coarse_computations) * 1.0 * dim +
      static_cast<double>(ix.f32_scans) * 4.0 * dim;
  run->Put("db.index.bytes_per_request", bytes / misses, "bytes_computed");
}

// db.index_scan_us: FeatureIndex::BatchNearestNeighbors on blocks of the
// observed mean micro-batch size, checked against the linear scan.
void TraceIndexScan(Run* run, const Serving& serving, const Pool& pool,
                    Tracer* tr) {
  const double mean_batch = run->metrics.count("db.batch_size_mean")
                                ? run->metrics["db.batch_size_mean"].value
                                : 1.0;
  const size_t block = std::max<size_t>(1, std::lround(mean_batch));
  const int64_t end = NowNs() + 300000000;  // 0.3 s
  for (size_t b = 0; NowNs() < end || b < 20; ++b) {
    std::vector<std::vector<double>> queries;
    for (size_t j = 0; j < block; ++j) {
      queries.push_back(pool.vectors[(b * block + j) % pool.vectors.size()]);
    }
    Result<std::vector<std::vector<QueryHit>>> hits = Status::Unknown("");
    {
      ScopedSpan s(tr, "db.index_scan", b);
      hits = serving.index.BatchNearestNeighbors(queries, kServeK);
    }
    bool ok = hits.ok();
    if (ok && b < 20) {
      for (size_t j = 0; ok && j < queries.size(); ++j) {
        auto ref = serving.db.NearestNeighbors(queries[j], kServeK);
        ok = ref.ok() && ref->size() == (*hits)[j].size();
        for (size_t h = 0; ok && h < ref->size(); ++h) {
          ok = (*ref)[h].record_index == (*hits)[j][h].record_index &&
               (*ref)[h].distance == (*hits)[j][h].distance;
        }
      }
    }
    run->outcome.Check(ok, "BatchNearestNeighbors differs from linear scan");
  }
}

void ServedKnn(Run* run) {
  // The served database is fixed (same in every run); queries come from
  // the workload seed.
  DatasetOptions lab = Lab(kServedDbSeed);
  lab.trials_per_class = kServedDbTrialsPerClass;
  const size_t classes = NumClassesForLimb(lab.limb);
  // GenerateDataset's trial order and seeds, one capture at a time.
  std::vector<uint64_t> trial_seeds;
  Rng seeder(lab.seed);
  for (size_t i = 0; i < classes * lab.trials_per_class; ++i) {
    trial_seeds.push_back(seeder.NextUint64());
  }
  TimedSetup(run, trial_seeds.size(), [&](size_t i) {
    std::vector<CapturedMotion> one;
    one.push_back(Unwrap(GenerateTrial(lab, i / lab.trials_per_class,
                                       i % lab.trials_per_class,
                                       trial_seeds[i]),
                         "GenerateTrial (served database)"));
    return std::move(ToLabeledMotions(std::move(one))[0]);
  });
  run->captures = HeldOut(run->args.seed, 3, 24);
  PrepareClassifyLabels(run);
  Serving& serving = *run->serving;
  Pool pool = MakePool(run->clf, run->args.seed, 4);
  ComputeReferences(serving.db, &pool);
  E2E_CHECK_OK(serving.server->Start());

  const double s = run->args.seconds;
  if (run->args.trace) {
    // Untraced and traced nominal-rate load alternate; the difference in
    // mean latency is the tracing overhead.
    Tracer* gen_tr = run->traces.New();
    Tracer* take_tr = run->traces.New();
    LoadStep plain;
    LoadStep traced;
    for (size_t round = 0; round < kServeRounds; ++round) {
      for (int pass = 0; pass < 2; ++pass) {
        LoadStep* into = pass == 0 ? &plain : &traced;
        const LoadStep part = RunOpenLoop(
            &*serving.server, &pool, kKnnNominalQps,
            s * 0.2 / kServeRounds, run->args.seed * 7 + 2 * round + pass,
            nullptr, pass == 0 ? nullptr : gen_tr,
            pass == 0 ? nullptr : take_tr, &run->outcome, nullptr);
        into->latency_us.insert(into->latency_us.end(),
                                part.latency_us.begin(),
                                part.latency_us.end());
        into->lag_us.insert(into->lag_us.end(), part.lag_us.begin(),
                            part.lag_us.end());
      }
    }
    run->Put("bench.trace_overhead_pct",
             100.0 * (Mean(traced.latency_us) / Mean(plain.latency_us) - 1.0),
             "%");
    run->Put("bench.generator_lag_p99_us", Quantile(traced.lag_us, 0.99),
             "us");
    PutServerStats(run, serving.server->stats(),
                   serving.db.feature_dimension());
    TraceIndexScan(run, serving, pool, run->traces.New());
    return;
  }
  // Rounds interleave the nominal-rate load, one sub-run on every ladder
  // rung and a slice of bulk classify calls, so that a slow spell of the
  // host lands on every metric alike.
  LoadStep nominal;
  std::vector<double> rung_passes(kLadderRungs, 0.0);
  std::vector<double> bulk_ms;
  std::vector<double> saturated_rates;
  for (size_t round = 0; round < kServeRounds; ++round) {
    const std::vector<double> rates = RunSaturated(
        &*serving.server, &pool, s * 0.2 / kServeRounds, &run->outcome);
    saturated_rates.insert(saturated_rates.end(), rates.begin(), rates.end());
    const LoadStep part = RunOpenLoop(
        &*serving.server, &pool, kKnnNominalQps, s * 0.35 / kServeRounds,
        run->args.seed * 7 + round, nullptr, nullptr, nullptr, &run->outcome,
        nullptr);
    nominal.latency_us.insert(nominal.latency_us.end(),
                              part.latency_us.begin(), part.latency_us.end());
    nominal.lag_us.insert(nominal.lag_us.end(), part.lag_us.begin(),
                          part.lag_us.end());
    for (size_t r = 0; r < kLadderRungs; ++r) {
      const LoadStep sub = RunOpenLoop(
          &*serving.server, &pool, LadderRate(static_cast<double>(r)),
          s * 0.25 / (kServeRounds * kLadderRungs),
          run->args.seed * 7919 + round * kLadderRungs + r, nullptr, nullptr,
          nullptr, &run->outcome, nullptr);
      rung_passes[r] += SubRunPasses(sub) ? 1.0 : 0.0;
    }
    // Bulk classify: QueryServer::ClassifyBatch of kBulkQueries vectors.
    const int64_t end =
        NowNs() + static_cast<int64_t>(s * 0.1 / kServeRounds * 1e9);
    for (size_t b = 0; NowNs() < end || b < 3; ++b) {
      std::vector<std::vector<double>> queries;
      std::vector<size_t> refs;
      for (size_t j = 0; j < kBulkQueries; ++j) {
        queries.push_back(pool.vectors[pool.cursor]);
        refs.push_back(pool.reference[pool.cursor]);
        pool.cursor = (pool.cursor + 1) % pool.vectors.size();
      }
      const int64_t t0 = NowNs();
      auto labels = serving.server->ClassifyBatch(queries, kServeK);
      bulk_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      run->outcome.Check(labels.ok() && *labels == refs,
                         "bulk ClassifyBatch differs from ClassifyByVote");
    }
  }
  // sustained_qps: with every rung below capacity passing and every rung
  // above failing, the passed fraction summed over rungs counts the
  // passing rungs, so the highest passing rung sits at that sum minus
  // one. Partial passes interpolate between rungs.
  double passed_rungs = 0.0;
  for (double p : rung_passes) passed_rungs += p / kServeRounds;
  const double sustained =
      passed_rungs > 0.0 ? LadderRate(passed_rungs - 1.0) : 0.0;
  serving.server->Stop();
  run->Put("p50_us", SubRunQuantile(nominal.latency_us, 0.5), "us");
  run->Put("p90_us", SubRunQuantile(nominal.latency_us, 0.9), "us");
  run->Put("ops_per_s", Quantile(saturated_rates, 0.9, 0), "1/s");
  run->report["generator_lag_p99_us"] = {Quantile(nominal.lag_us, 0.99),
                                         "us"};
  run->Put("heavy_p50_ms", SubRunQuantile(bulk_ms, 0.5), "ms");
  run->Put("heavy_p90_ms", SubRunQuantile(bulk_ms, 0.9), "ms");
  run->report["request_p50_us"] = run->metrics["p50_us"];
  run->report["request_p99_us"] = {SubRunQuantile(nominal.latency_us, 0.99),
                                   "us"};
  run->report["sustained_qps"] = {sustained, "1/s"};
  run->report["cache_hits"] = {
      static_cast<double>(serving.server->stats().cache_hits), "count"};
}

// ---------------------------------------------------------------------------
// Workload: served_enroll.

struct EnrollStats {
  std::vector<double> enroll_ms;
  size_t enrolled = 0;
};

// One enrollment under the server's quiesce protocol: featurize, block
// clients, Stop (drains the queue), Insert, Rebuild, Start, release;
// done once a kNN query for the new vector returns the new record.
void EnrollOne(Run* run, Serving* serving, Gate* gate,
               const LabeledMotion& m, Tracer* tr, uint64_t req,
               EnrollStats* stats, std::vector<MotionRecord>* log) {
  const int64_t t0 = NowNs();
  std::vector<double> feature;
  auto f = run->clf.Featurize(m.mocap, m.emg);
  if (f.ok()) feature = *std::move(f);
  if (feature.empty()) {
    run->outcome.Check(false, "enroll featurization failed");
    return;
  }
  size_t new_index = 0;
  bool ok = true;
  {
    std::unique_lock<std::shared_mutex> lock(gate->mu);
    {
      ScopedSpan s(tr, "db.quiesce", req);
      serving->server->Stop();
    }
    new_index = serving->db.size();
    MotionRecord rec = RecordFor(m, feature, new_index);
    {
      ScopedSpan s(tr, "db.insert", req);
      ok = serving->db.Insert(rec).ok();
    }
    {
      ScopedSpan s(tr, "db.index_rebuild", req);
      ok = ok && serving->index.Rebuild().ok();
    }
    {
      ScopedSpan s(tr, "db.quiesce", req);
      ok = ok && serving->server->Start().ok();
    }
    if (log != nullptr) log->push_back(std::move(rec));
    gate->db_size.store(serving->db.size());
  }
  auto ticket = serving->server->SubmitNearestNeighbors(feature, 1);
  auto hits = ticket.ok() ? serving->server->TakeHits(*ticket)
                          : Result<std::vector<QueryHit>>(ticket.status());
  ok = ok && hits.ok() && !hits->empty() &&
       ((*hits)[0].record_index == new_index || (*hits)[0].distance == 0.0);
  if (stats != nullptr) {
    stats->enroll_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    ++stats->enrolled;
  }
  run->outcome.Check(ok, "enrolled motion is not answerable");
}

// Re-checks every answered read against ClassifyByVote on the database
// state it was served from (the first db_size records).
void CheckAgainstStates(Run* run, const std::vector<MotionRecord>& initial,
                        const std::vector<MotionRecord>& enrolled,
                        const Pool& pool,
                        std::vector<std::pair<Sent, size_t>>* answers) {
  std::sort(answers->begin(), answers->end(),
            [](const auto& a, const auto& b) {
              return a.first.db_size < b.first.db_size;
            });
  MotionDatabase checker;
  size_t next = 0;
  auto grow_to = [&](size_t size) {
    while (checker.size() < size) {
      const size_t i = checker.size();
      E2E_CHECK_OK(checker.Insert(i < initial.size()
                                      ? initial[i]
                                      : enrolled[i - initial.size()]));
    }
  };
  for (; next < answers->size(); ++next) {
    const auto& [sent, label] = (*answers)[next];
    grow_to(sent.db_size);
    auto ref = checker.ClassifyByVote(pool.vectors[sent.pool_index], kServeK);
    if (!ref.ok() || *ref != label) {
      run->outcome.Fail("served label differs from ClassifyByVote");
    }
  }
}

void ServedEnroll(Run* run) {
  // The served database is the paper's 60 training motions.
  TimedSetup(run, run->training.size(),
             [&](size_t i) { return run->training[i]; });
  Serving& serving = *run->serving;
  const std::vector<MotionRecord> initial = serving.db.records();
  const double s = run->args.seconds;
  const size_t max_enrolls =
      static_cast<size_t>(kEnrollPerSecond * s * 0.9) + 2;
  std::vector<LabeledMotion> enroll_captures =
      HeldOut(run->args.seed, 5, max_enrolls);
  run->captures.assign(enroll_captures.begin(),
                       enroll_captures.begin() +
                           static_cast<ptrdiff_t>(std::min<size_t>(
                               24, enroll_captures.size())));
  PrepareClassifyLabels(run);
  Pool pool = MakePool(run->clf, run->args.seed, 6);
  pool.reference.assign(pool.vectors.size(), 0);  // checked per state
  Gate gate;
  gate.db_size.store(serving.db.size());
  E2E_CHECK_OK(serving.server->Start());

  auto phase = [&](double seconds, uint64_t seed, Tracer* gen_tr,
                   Tracer* take_tr, Tracer* enroll_tr, EnrollStats* es,
                   std::vector<MotionRecord>* log, size_t* cursor) {
    std::atomic<bool> stop{false};
    std::thread enroller([&] {
      const int64_t start = NowNs();
      const double period_ns = 1e9 / kEnrollPerSecond;
      for (size_t e = 0; !stop.load() && *cursor < enroll_captures.size();
           ++e) {
        const int64_t due = start + static_cast<int64_t>(period_ns * (e + 1));
        while (NowNs() < due && !stop.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop.load()) break;
        EnrollOne(run, &serving, &gate, enroll_captures[*cursor], enroll_tr,
                  *cursor, es, log);
        ++*cursor;
      }
    });
    std::vector<std::pair<Sent, size_t>> answers;
    LoadStep step = RunOpenLoop(&*serving.server, &pool, kEnrollReadQps,
                                seconds, seed, &gate, gen_tr, take_tr,
                                &run->outcome, &answers);
    stop.store(true);
    enroller.join();
    CheckAgainstStates(run, initial, *log, pool, &answers);
    return step;
  };

  std::vector<MotionRecord> log;
  size_t cursor = 0;
  EnrollStats es;
  const LoadStep reads = phase(s * (run->args.trace ? 0.4 : 0.85),
                               run->args.seed * 11 + 1, nullptr, nullptr,
                               nullptr, &es, &log, &cursor);
  if (run->args.trace) {
    Tracer* gen_tr = run->traces.New();
    Tracer* take_tr = run->traces.New();
    Tracer* enroll_tr = run->traces.New();
    EnrollStats traced_es;
    const LoadStep traced =
        phase(s * 0.4, run->args.seed * 11 + 2, gen_tr, take_tr, enroll_tr,
              &traced_es, &log, &cursor);
    run->Put("bench.trace_overhead_pct",
             100.0 * (Mean(traced.latency_us) / Mean(reads.latency_us) - 1.0),
             "%");
    run->Put("bench.generator_lag_p99_us", Quantile(traced.lag_us, 0.99),
             "us");
    PutServerStats(run, serving.server->stats(),
                   serving.db.feature_dimension());
    serving.server->Stop();
    TraceIndexScan(run, serving, pool, run->traces.New());
    return;
  }
  serving.server->Stop();
  run->Put("p50_us", SubRunQuantile(reads.latency_us, 0.5), "us");
  run->Put("p90_us", SubRunQuantile(reads.latency_us, 0.9), "us");
  run->Put("ops_per_s", reads.achieved_qps, "1/s");
  run->Put("heavy_p50_ms", Quantile(es.enroll_ms, 0.5), "ms");
  run->Put("heavy_p90_ms", Quantile(es.enroll_ms, 0.9), "ms");
  run->report["request_p50_us"] = run->metrics["p50_us"];
  run->report["request_p99_us"] = {SubRunQuantile(reads.latency_us, 0.99),
                                   "us"};
  run->report["enroll_p50_ms"] = run->metrics["heavy_p50_ms"];
  run->report["enroll_p90_ms"] = run->metrics["heavy_p90_ms"];
  run->report["enrolled"] = {static_cast<double>(es.enrolled), "count"};
}

// ---------------------------------------------------------------------------
// Traced census: every per-layer metric is reported by every traced run.
// Layers the workload itself did not reach are exercised here briefly on
// the workload's own captures and serving state.

void Census(Run* run) {
  const MotionClassifier& clf = run->clf;
  const size_t n = std::min<size_t>(run->captures.size(), 24);
  if (run->traces.Count("core.capture") == 0 ||
      run->traces.Count("core.knn") == 0) {
    Tracer* tr = run->traces.New();
    WindowFeatureStats wstats;
    for (size_t i = 0; i < 4 * n; ++i) {
      TracedCapture(clf, run->captures[i % n], run->classify_labels[i % n],
                    tr, i, i < n, &run->outcome, &wstats);
    }
    if (!run->metrics.count("core.gram_fast_ratio")) {
      run->Put("core.gram_fast_ratio",
               static_cast<double>(wstats.gram_fast_windows) /
                   std::max<double>(
                       1.0, static_cast<double>(wstats.gram_fast_windows +
                                                wstats.gram_fallback_windows)),
               "ratio");
    }
  }
  if (run->traces.Count("core.stream_frame") == 0) {
    Tracer* tr = run->traces.New();
    size_t agreement = 0;
    for (size_t i = 0; i < std::min<size_t>(n, 6); ++i) {
      const StreamInput in = MakeStreamInput(clf, run->captures[i]);
      const size_t d = ReplayStream(clf, in, nullptr, tr, i);
      run->outcome.Check(d != SIZE_MAX, "census stream failed");
      agreement += d == in.classify_label;
    }
    run->Put("core.stream_agreement", static_cast<double>(agreement),
             "count");
  }
  if (run->traces.Count("core.batch_serve") == 0) {
    Tracer* tr = run->traces.New();
    QueryServer server = Unwrap(
        QueryServer::Create(clf.final_database(),
                            static_cast<const FeatureIndex*>(nullptr)),
        "QueryServer::Create");
    std::vector<std::vector<double>> finals;
    std::vector<size_t> refs;
    for (size_t i = 0; i < std::min(n, kFoldSize); ++i) {
      finals.push_back(Unwrap(
          clf.Featurize(run->captures[i].mocap, run->captures[i].emg),
          "Featurize"));
      refs.push_back(run->classify_labels[i]);
    }
    for (size_t r = 0; r < 100; ++r) {
      Result<std::vector<size_t>> labels = Status::Unknown("unset");
      {
        ScopedSpan s(tr, "core.batch_serve", r);
        labels = server.ClassifyBatch(finals, 1);
      }
      run->outcome.Check(labels.ok() && *labels == refs,
                         "census QueryServer::ClassifyBatch differs");
    }
  }
  // Serving layers: closed-loop workloads get a serving stack over the
  // trained model's 60 final vectors.
  if (run->serving == nullptr) {
    run->serving = std::make_unique<Serving>();
    for (const MotionRecord& r : clf.final_database()->records()) {
      E2E_CHECK_OK(run->serving->db.Insert(r));
    }
    BuildServing(run->serving.get(), &run->setup);
  }
  Serving& serving = *run->serving;
  if (run->traces.Count("db.submit") == 0 ||
      run->traces.Count("db.index_scan") == 0) {
    Pool pool = MakePool(clf, run->args.seed, 7);
    ComputeReferences(serving.db, &pool);
    E2E_CHECK_OK(serving.server->Start());
    Tracer* gen_tr = run->traces.New();
    Tracer* take_tr = run->traces.New();
    const LoadStep step =
        RunOpenLoop(&*serving.server, &pool, kKnnNominalQps, 0.3,
                    run->args.seed * 13, nullptr, gen_tr, take_tr,
                    &run->outcome, nullptr);
    serving.server->Stop();
    run->Put("bench.generator_lag_p99_us", Quantile(step.lag_us, 0.99),
             "us");
    PutServerStats(run, serving.server->stats(),
                   serving.db.feature_dimension());
    TraceIndexScan(run, serving, pool, run->traces.New());
  }
  if (run->traces.Count("db.insert") == 0) {
    Tracer* tr = run->traces.New();
    Gate gate;
    gate.db_size.store(serving.db.size());
    E2E_CHECK_OK(serving.server->Start());
    for (size_t i = 0; i < 8; ++i) {
      EnrollOne(run, &serving, &gate, run->captures[i % n], tr, i, nullptr,
                nullptr);
    }
    serving.server->Stop();
  }
}

void PutLayerMetrics(Run* run) {
  const TraceSet& t = run->traces;
  auto per = [&](const char* name, bool self) {
    const Tracer::Agg a = t.Get(name);
    return (self ? a.self_ns : a.total_ns) /
           std::max<double>(1.0, static_cast<double>(a.count)) / 1e3;
  };
  // Capture path: per-capture self time of each layer. emg.condition is
  // reported inclusive of its signal.* children.
  const Tracer::Agg cap = t.Get("core.capture");
  const double captures = std::max<double>(1.0, static_cast<double>(cap.count));
  auto per_capture = [&](const char* name, bool self) {
    const Tracer::Agg a = t.Get(name);
    return (self ? a.self_ns : a.total_ns) / captures / 1e3;
  };
  const double condition = per_capture("emg.condition", false);
  const double parts[] = {
      condition,
      per_capture("core.window_features", true),
      per_capture("core.normalize", true),
      per_capture("core.membership", true),
      per_capture("core.final_feature", true),
      per_capture("core.knn", true),
  };
  double sum = 0.0;
  for (double p : parts) sum += p;
  const double total = cap.total_ns / captures / 1e3;
  run->Put("emg.condition_us", condition, "us");
  run->Put("signal.bandpass_us", per_capture("signal.bandpass", true), "us");
  run->Put("signal.rectify_us", per_capture("signal.rectify", true), "us");
  run->Put("signal.resample_us", per_capture("signal.resample", true), "us");
  run->Put("core.window_features_us", parts[1], "us");
  run->Put("core.normalize_us", parts[2], "us");
  run->Put("core.membership_us", parts[3], "us");
  run->Put("core.final_feature_us", parts[4], "us");
  run->Put("core.knn_us", parts[5], "us");
  run->Put("core.capture_total_us", total, "us");
  run->Put("bench.breakdown_sum_pct", 100.0 * sum / std::max(1e-9, total),
           "%");
  run->Put("core.batch_serve_us", per("core.batch_serve", false), "us");
  // Streaming: a frame that completes a window is counted in
  // core.stream_window; others in core.stream_push.
  run->Put("core.stream_push_us", per("core.stream_push", true), "us");
  run->Put("core.stream_window_us", per("core.stream_window", true), "us");
  run->Put("core.stream_decide_us", per("core.stream_decide", true), "us");
  run->Put("db.submit_us", per("db.submit", true), "us");
  run->Put("db.index_scan_us", per("db.index_scan", true), "us");
  run->Put("db.insert_us", per("db.insert", true), "us");
  run->Put("db.index_rebuild_us", per("db.index_rebuild", true), "us");
  const Tracer::Agg quiesce = t.Get("db.quiesce");
  // Two quiesce spans (Stop, Start) per enrollment.
  run->Put("db.quiesce_us",
           2.0 * quiesce.self_ns /
               std::max<double>(1.0, static_cast<double>(quiesce.count)) / 1e3,
           "us");
  run->Put("core.train_s", Median(run->setup.train_s), "s");
  run->Put("db.index_build_ms", Median(run->setup.index_build_ms), "ms");
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ", ",
                JsonString(name).c_str(), m.value, JsonString(m.unit).c_str());
    first = false;
  }
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <batch_classify|stream_control|"
                 "served_knn|served_enroll> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  run.thread_budget =
      std::min<size_t>(kBatchThreads, static_cast<size_t>(std::max(1L, cpus)));
  std::printf(
      "meta {\"cpus_online\": %ld, \"kernel_backend\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"batch_thread_budget\": %zu, \"default_thread_budget\": %zu, "
      "\"thread_dependent\": [\"ops_per_s@batch_classify\", "
      "\"heavy_p50_ms@batch_classify\", \"heavy_p90_ms@batch_classify\"], "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      cpus, mocemg::KernelBackendName(mocemg::ActiveKernelBackend()),
      E2E_COMPILER, E2E_BUILD_TYPE, run.thread_budget,
      mocemg::DefaultMaxThreads(),
      run.args.workload.c_str(),
      static_cast<unsigned long long>(run.args.seed), run.args.seconds,
      run.args.trace ? 1 : 0);
  std::fflush(stdout);

  const std::map<std::string, std::function<void(Run*)>> workloads = {
      {"batch_classify", BatchClassify},
      {"stream_control", StreamControl},
      {"served_knn", ServedKnn},
      {"served_enroll", ServedEnroll},
  };
  auto it = workloads.find(run.args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 run.args.workload.c_str());
    return 2;
  }
  run.training = mocemg::ToLabeledMotions(
      Unwrap(mocemg::GenerateDataset(Lab(kTrainingSeed)),
             "GenerateDataset (training)"));
  it->second(&run);

  if (run.args.trace) {
    Census(&run);
    PutLayerMetrics(&run);
    if (!run.args.trace_out.empty() && !run.traces.Write(run.args.trace_out)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   run.args.trace_out.c_str());
    }
  } else {
    run.Put("setup_s", Median(run.setup.total_s), "s");
    run.Put("peak_rss_mb", PeakRssMb(), "MB");
  }

  for (const auto& [name, m] : run.report) {
    std::printf("report %s = %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : run.outcome.errors()) {
    std::printf("error %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.outcome.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, run.outcome.attempted())),
              static_cast<unsigned long long>(run.outcome.failed()));
  PrintMetrics(run.metrics);
  std::printf("}}\n");
  return 0;
}

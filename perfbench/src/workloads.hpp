// The benchmark workloads and the inputs they share.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "nn/dataset.hpp"
#include "nn/model.hpp"
#include "serve/request.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch space inside the checkout
};

// ---- shared model and data ---------------------------------------------------

/// Features of one drug-response sample: 240 expression values plus 16
/// drug descriptors, the P1B3 input width.
inline constexpr candle::Index kFeatures = 256;

/// The P1B3-shaped regression MLP: 256 -> 1024 -> 512 -> 1.  Its init seed
/// is part of the program under test, not of the workload, so it is fixed.
candle::Model make_p1b3_model();

/// make_drug_response at the P1B3 width.
candle::Dataset make_queries(candle::Index samples, std::uint64_t seed);

/// Samples in the training workloads' dataset (one make_drug_response draw).
inline constexpr candle::Index kTrainSamples = 8192;

/// The serving workload's query pool: kQueryCohorts cohorts, each its own
/// make_drug_response draw (own pathways, loadings and drug mechanisms).
/// Scoring several cohorts averages the served model's loss over several
/// planted structures, so final_loss measures the model, not one draw.
inline constexpr candle::Index kQueryCohorts = 8;
inline constexpr candle::Index kCohortQueries = 512;
candle::Dataset make_query_pool(std::uint64_t seed);

// ---- frozen offered loads ---------------------------------------------------
//
// Capacity is the peak completion rate over a sweep of offered loads,
// measured with `candle_perfbench --calibrate --seed 1` on a 4-core x86-64
// host.  The rates are frozen as absolute numbers, so a faster program
// meets the same traffic rather than heavier traffic.  BENCHMARK.json
// repeats them in each workload's "why".

/// serve_poisson: continuous batching, 2 workers, max_batch 16.
inline constexpr double kPoissonCapacityRps = 45300.0;
inline constexpr double kPoissonLowRps = 4530.0;    // 0.1x
inline constexpr double kPoissonHighRps = 58890.0;  // 1.3x

/// Per-request latency limit and deadline of the serving workload.
inline constexpr double kLatencyLimitS = 50e-3;

// ---- seeded inputs -------------------------------------------------------------
// The workload seed is the only source of arrival traces, datasets and the
// crash step.

/// serve_poisson's trace for the `index`-th high phase or low window.
candle::serve::ArrivalTrace poisson_phase_trace(std::uint64_t seed, int index,
                                                bool high, double seconds);

struct CrashPoint {
  candle::Index step = 0;
  candle::Index rank = 0;
};
/// train_ckpt's seeded replica crash.
CrashPoint train_ckpt_crash(std::uint64_t seed);

RunResult run_serve_poisson(const RunOptions& opt);
RunResult run_train_dp(const RunOptions& opt);
RunResult run_train_ckpt(const RunOptions& opt);

/// Saturated-capacity measurement behind the frozen rates (req/s).
void calibrate_serving(std::uint64_t seed);

/// Standalone per-layer probes shared by every traced run: GEMM, infer,
/// forward/backward/optimizer, checkpoint write, all-reduce, sample store
/// and thread-pool contention, each timed around its public call.
void run_layer_probes(const RunOptions& opt, RunResult& r);

}  // namespace perfbench

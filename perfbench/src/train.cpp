// Training workloads: data-parallel P1B3 regression on make_drug_response.
//
// A run repeats one fixed training job (same data, same seed) until the
// measuring time is spent.  Repeats give the medians, and two repeats of
// one seed must end in bit-identical weights.  Step latency is read from
// outside the trainer: the replica-0 optimizer is an Adam whose per-slot
// update hook stamps the start of every optimizer step, so consecutive
// stamps bound one full step (forward, backward, all-reduce, update).
#include <cmath>
#include <filesystem>
#include <memory>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/resilient.hpp"
#include "runtime/rng.hpp"
#include "runtime/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace candle;

namespace {

constexpr Index kSamples = kTrainSamples;
constexpr Index kReplicas = 2;
constexpr Index kBatchPerReplica = 32;
constexpr Index kEpochs = 3;
constexpr Index kCheckpointEvery = 32;
constexpr float kLearningRate = 1e-3f;
/// final_loss must come in under this; the labels' variance is about 1.
constexpr double kLossCeiling = 0.5;

/// Adam that stamps the start of each optimizer step (its first slot
/// update) into `starts`, when given one.  Numerically it is plain Adam.
class TimedAdam final : public Adam {
 public:
  explicit TimedAdam(std::vector<Clock::time_point>* starts)
      : Adam(kLearningRate), starts_(starts) {}

 protected:
  void update(std::size_t slot, Tensor& param, const Tensor& grad) override {
    if (starts_ != nullptr && slot == 0) starts_->push_back(Clock::now());
    Adam::update(slot, param, grad);
  }

 private:
  std::vector<Clock::time_point>* starts_;
};

/// One training job's measurements.
struct Job {
  double setup_s = 0.0;     ///< timed data set-up before the call
  double wall_s = 0.0;      ///< call to return
  double first_step_s = 0.0;  ///< call to the first optimizer step
  double samples = 0.0;     ///< committed samples
  Index steps = 0, executed = 0;
  float final_loss = 0.0f;
  std::vector<double> step_s;
  std::vector<float> weights;
};

/// Optimizers of one job.  Trainers create them in replica order, so the
/// k-th belongs to replica k mod replicas; only replica 0's is timed.
struct StepStamps {
  std::vector<Clock::time_point> starts;
  Index created = 0;
};

parallel::OptimizerFactory timed_optimizers(StepStamps& st) {
  return [&st]() -> std::unique_ptr<Optimizer> {
    const bool replica0 = st.created++ % kReplicas == 0;
    return std::make_unique<TimedAdam>(replica0 ? &st.starts : nullptr);
  };
}

void finish_job(Job& job, Clock::time_point call, const StepStamps& st,
                const Model& out) {
  const auto& s = st.starts;
  if (!s.empty()) job.first_step_s = seconds_between(call, s.front());
  for (std::size_t i = 1; i < s.size(); ++i) {
    job.step_s.push_back(seconds_between(s[i - 1], s[i]));
    tracer().add_async("parallel.step", s[i - 1], s[i], i);
  }
  job.weights.resize(static_cast<std::size_t>(out.num_params()));
  out.copy_weights_to(job.weights);
}

parallel::DataParallelOptions base_options(std::uint64_t seed) {
  parallel::DataParallelOptions o;
  o.replicas = kReplicas;
  o.epochs = kEpochs;
  o.batch_per_replica = kBatchPerReplica;
  o.seed = seed;
  return o;
}

/// One timed data set-up: the training data and a model build.  Every job
/// repeats it, so the set-ups are spread over the run: this class of host
/// runs the same serial set-up up to 1.7x slower for seconds at a time.
double timed_data_setup(const RunOptions& opt, Dataset& data) {
  ScopedSpan span("setup.train");
  const auto t0 = Clock::now();
  {
    ScopedSpan s1("biodata.make_drug_response");
    data = make_queries(kSamples, opt.seed);
  }
  {
    ScopedSpan s2("nn.build");
    const Model m = make_p1b3_model();
  }
  return seconds_between(t0, Clock::now());
}

/// End-to-end metrics shared by both training workloads.  Rates and
/// set-up are per job, median over jobs.
void report_training(const std::vector<Job>& jobs, RunResult& r) {
  std::vector<double> setup, samples_rate, steps_rate, step_s;
  Index executed = 0;
  for (const Job& j : jobs) {
    setup.push_back(j.setup_s + j.first_step_s);
    samples_rate.push_back(j.samples / j.wall_s);
    steps_rate.push_back(static_cast<double>(j.steps) / j.wall_s);
    step_s.insert(step_s.end(), j.step_s.begin(), j.step_s.end());
    executed += j.executed;
  }
  r.attempted = static_cast<std::uint64_t>(executed);
  r.e2e["setup_s"] = median(setup);
  r.e2e["samples_per_s"] = median(samples_rate);
  r.e2e["goodput_rps"] = median(steps_rate);
  r.e2e["latency_p50_ms"] = quantile(step_s, 0.50) * 1e3;
  r.layer["parallel.step_p99_ms"] = quantile(step_s, 0.99) * 1e3;
  // Lost (replayed) step executions per job, as a rule-of-succession
  // estimate, median over jobs.
  std::vector<double> lost;
  for (const Job& j : jobs) {
    lost.push_back((static_cast<double>(j.executed - j.steps) + 1.0) /
                   (static_cast<double>(j.executed) + 2.0));
  }
  r.e2e["failed_frac"] = median(lost);
  const double loss = jobs.back().final_loss;
  r.e2e["final_loss"] = loss;
  r.check(std::isfinite(loss) && loss < kLossCeiling,
          "final_loss is not finite or above the ceiling");
}

/// Repeats the job at least twice, and while another one still fits in
/// the measuring time at the mean job length so far.  Each repeat's final
/// weights are compared with the first job's and then dropped, so memory
/// does not grow with the number of jobs.
template <class RunJob>
std::vector<Job> repeat_jobs(const RunOptions& opt, RunResult& r, const RunJob& run_job) {
  std::vector<Job> jobs;
  const auto start = Clock::now();
  for (;;) {
    jobs.push_back(run_job());
    if (jobs.size() > 1) {
      r.check(jobs.back().weights == jobs.front().weights,
              "repeats of one seed ended in different weights");
      std::vector<float>().swap(jobs.back().weights);
    }
    const double spent = seconds_between(start, Clock::now());
    const double mean_job = spent / static_cast<double>(jobs.size());
    if (jobs.size() >= 2 && spent + mean_job > opt.seconds) break;
  }
  return jobs;
}

}  // namespace

CrashPoint train_ckpt_crash(std::uint64_t seed) {
  // The seed picks which checkpoint interval (never the first or last) and
  // which replica.  The crash always lands mid-interval, so every seed
  // replays the same number of steps: the lost work is a property of the
  // program, not of the draw.
  const Index intervals = kSamples / (kReplicas * kBatchPerReplica) * kEpochs / kCheckpointEvery;
  Pcg32 rng(seed, 0xc4a5);
  CrashPoint c;
  c.step = (1 + static_cast<Index>(rng.next_below(static_cast<std::uint32_t>(intervals - 2)))) *
               kCheckpointEvery +
           kCheckpointEvery / 2;
  c.rank = static_cast<Index>(rng.next_below(kReplicas));
  return c;
}

RunResult run_train_dp(const RunOptions& opt) {
  RunResult r;
  Dataset data;
  MeanSquaredError mse;

  parallel::DataParallelOptions o = base_options(opt.seed);
  o.bucket_bytes = 512 << 10;
  o.overlap_comm = true;
  o.ingest.enabled = true;
  o.ingest.prefetch_depth = 2;
  o.ingest.fetch_threads = 1;
  // Half the dataset fits, so every epoch re-fetches through the store.
  o.ingest.store_byte_budget =
      static_cast<std::size_t>(kSamples) * (kFeatures + 1) * sizeof(float) / 2;

  std::vector<parallel::DataParallelResult> results;
  const std::uint64_t ws0 = workspace_stats().grow_count;
  const std::vector<Job> jobs = repeat_jobs(opt, r, [&] {
    StepStamps st;
    Model out;
    Job job;
    job.setup_s = timed_data_setup(opt, data);
    ScopedSpan span("parallel.train_data_parallel");
    const auto call = Clock::now();
    results.push_back(parallel::train_data_parallel(
        make_p1b3_model, timed_optimizers(st), data, mse, o, &out));
    job.wall_s = seconds_between(call, Clock::now());
    const auto& res = results.back();
    job.steps = job.executed = res.steps;
    job.samples = static_cast<double>(res.steps * kReplicas * kBatchPerReplica);
    job.final_loss = res.epoch_loss.back();
    finish_job(job, call, st, out);
    return job;
  });
  const std::uint64_t ws_grow = workspace_stats().grow_count - ws0;
  report_training(jobs, r);

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& res : results) v.push_back(field(res));
    return median(v);
  };
  using R = parallel::DataParallelResult;
  auto& L = r.layer;
  L["parallel.comm_busy_ms"] = med([](const R& x) { return x.measured_comm_busy_s * 1e3; });
  L["parallel.exposed_comm_ms"] =
      med([](const R& x) { return x.measured_exposed_comm_s * 1e3; });
  L["parallel.overlap_frac"] = med([](const R& x) { return x.measured_overlap_fraction; });
  L["parallel.grad_mb_per_step"] =
      med([](const R& x) { return x.grad_bytes_per_step / (1 << 20); });
  L["parallel.buckets_per_step"] =
      med([](const R& x) { return static_cast<double>(x.buckets_per_step); });
  L["data.exposed_ingest_ms"] =
      med([](const R& x) { return x.measured_exposed_ingest_s * 1e3; });
  L["data.ingest_busy_ms"] = med([](const R& x) { return x.measured_ingest_busy_s * 1e3; });
  L["data.ingest_overlap_frac"] =
      med([](const R& x) { return x.measured_ingest_overlap_fraction; });
  L["runtime.ws_grow_count"] = static_cast<double>(ws_grow);
  return r;
}

RunResult run_train_ckpt(const RunOptions& opt) {
  RunResult r;
  Dataset data;
  MeanSquaredError mse;

  parallel::ResilientOptions o;
  o.train = base_options(opt.seed);
  o.policy = parallel::RecoveryPolicy::Restart;
  o.checkpoint_every_steps = kCheckpointEvery;
  o.checkpoint_path =
      (std::filesystem::path(opt.out_dir) / "train_ckpt.ckpt").string();
  const CrashPoint crash = train_ckpt_crash(opt.seed);
  const Index planned = kSamples / (kReplicas * kBatchPerReplica) * kEpochs;

  const auto run_once = [&](bool with_crash) {
    parallel::ResilientOptions ro = o;
    if (with_crash) ro.faults.crash(crash.step, crash.rank);
    StepStamps st;
    Model out;
    Job job;
    job.setup_s = timed_data_setup(opt, data);
    ScopedSpan span("parallel.train_resilient");
    const auto call = Clock::now();
    const parallel::ResilientResult res =
        parallel::train_resilient(make_p1b3_model, timed_optimizers(st), data, mse, ro, &out);
    job.wall_s = seconds_between(call, Clock::now());
    job.steps = res.committed_steps;
    job.executed = res.executed_steps;
    job.samples = static_cast<double>(res.committed_steps * kReplicas * kBatchPerReplica);
    job.final_loss = res.epoch_loss.back();
    finish_job(job, call, st, out);
    return std::pair{job, res};
  };

  std::vector<parallel::ResilientResult> results;
  const std::uint64_t ws0 = workspace_stats().grow_count;
  const std::vector<Job> jobs = repeat_jobs(opt, r, [&] {
    auto [job, res] = run_once(true);
    results.push_back(std::move(res));
    return job;
  });
  const std::uint64_t ws_grow = workspace_stats().grow_count - ws0;
  report_training(jobs, r);
  for (const auto& res : results) {
    r.check(res.crashes == 1 && res.restarts == 1,
            "the seeded crash did not fire or was not recovered by restart");
    r.check(res.committed_steps == planned, "the run did not commit every step");
  }
  {
    // The Restart contract: bit-identical to the same run without the crash.
    ScopedSpan span("parallel.train_resilient_reference");
    const Job reference = run_once(false).first;
    r.check(reference.weights == jobs.front().weights,
            "restarted run differs from the failure-free run");
  }
  std::filesystem::remove(o.checkpoint_path);

  std::vector<double> replay, ckpts;
  for (const auto& res : results) {
    replay.push_back(static_cast<double>(res.executed_steps - res.committed_steps) /
                     static_cast<double>(res.executed_steps));
    ckpts.push_back(static_cast<double>(res.checkpoints_written));
  }
  r.layer["parallel.replay_frac"] = median(replay);
  r.layer["parallel.ckpts_written"] = median(ckpts);
  r.layer["runtime.ws_grow_count"] = static_cast<double>(ws_grow);
  return r;
}

}  // namespace perfbench

// The serving workload: open-loop single-sample drug-response scoring,
// plus the model and query inputs the training workloads share.
//
// One generator thread replays a seeded arrival trace into the engine.  It
// submits each request at its due time and harvests responses in
// submission order whenever it is ahead of the schedule.  Client latency
// is taken from the request's due time:
//   (submit start - due) + the engine's exact submit-to-response time,
// so a generator stall is charged to every request it delays.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "biodata/workloads.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "runtime/workspace.hpp"
#include "serve/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace candle;

Model make_p1b3_model() {
  Model m;
  m.add(make_dense(1024)).add(make_relu());
  m.add(make_dense(512)).add(make_relu());
  m.add(make_dense(1));
  m.build({kFeatures}, 17);
  return m;
}

Dataset make_queries(Index samples, std::uint64_t seed) {
  biodata::DrugResponseConfig cfg;
  cfg.samples = samples;
  cfg.genes = kFeatures - 16;
  cfg.drug_descriptors = 16;
  cfg.seed = seed;
  return biodata::make_drug_response(cfg);
}

Dataset make_query_pool(std::uint64_t seed) {
  Dataset pool{Tensor({kQueryCohorts * kCohortQueries, kFeatures}),
               Tensor({kQueryCohorts * kCohortQueries, 1})};
  for (Index k = 0; k < kQueryCohorts; ++k) {
    const Dataset cohort =
        make_queries(kCohortQueries, seed * 1000003ULL + static_cast<std::uint64_t>(k));
    std::copy(cohort.x.data(), cohort.x.data() + cohort.x.numel(),
              pool.x.data() + k * kCohortQueries * kFeatures);
    std::copy(cohort.y.data(), cohort.y.data() + cohort.y.numel(),
              pool.y.data() + k * kCohortQueries);
  }
  return pool;
}

namespace {

constexpr std::uint64_t kTraceSampleEvery = 64;  // traced requests
constexpr std::uint64_t kLayerSampleEvery = 8;   // per-layer quantiles
constexpr auto kSpinWindow = std::chrono::microseconds(100);

/// Client-side tallies of one or more replayed traces.  latency_s holds
/// every completed request of the tally's own phases and is not merged;
/// the per-layer samples keep one request in kLayerSampleEvery, so the
/// benchmark's own memory stays small next to the engine's.
struct Tally {
  std::uint64_t attempted = 0, completed = 0, within_limit = 0, late = 0;
  std::uint64_t shed = 0, failed = 0, mismatched = 0;
  std::vector<double> latency_s;
  std::vector<double> lag_s, submit_s, queue_wait_s, service_s;  // sampled
  double sq_err = 0.0;
  double duration_s = 0.0;

  void merge(const Tally& o) {
    attempted += o.attempted;
    completed += o.completed;
    within_limit += o.within_limit;
    late += o.late;
    shed += o.shed;
    failed += o.failed;
    mismatched += o.mismatched;
    sq_err += o.sq_err;
    duration_s += o.duration_s;
    for (auto [dst, src] :
         {std::pair{&lag_s, &o.lag_s}, std::pair{&submit_s, &o.submit_s},
          std::pair{&queue_wait_s, &o.queue_wait_s},
          std::pair{&service_s, &o.service_s}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

struct Inputs {
  Dataset queries;
  std::vector<float> reference;  ///< serial Model::predict of every query
};

struct InFlight {
  std::future<serve::Response> future;
  std::uint64_t id = 0;
  Index query = 0;
  double lag_s = 0.0;
  Clock::time_point submitted;
};

/// Replays one trace into an engine.  A precise replay (latency phases)
/// sleeps through long gaps and spins the last kSpinWindow before each due
/// time, which a sleep would overshoot.  Otherwise the generator only
/// sleeps: at overload a spinning generator would take a core from the
/// engine, and a few tens of microseconds of lag do not move goodput
/// against a 50 ms limit.
class Replayer {
 public:
  Replayer(serve::Engine& engine, const Inputs& in, Tally& tally, bool precise)
      : engine_(engine), in_(in), tally_(tally), precise_(precise) {}

  void run(const serve::ArrivalTrace& trace, std::uint64_t first_id) {
    const Index n = in_.queries.size();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < trace.at_s.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(trace.at_s[i]));
      for (auto now = Clock::now(); now < due; now = Clock::now()) {
        if (harvest_one()) continue;
        if (!precise_) {
          std::this_thread::sleep_until(due);
        } else if (due - now > kSpinWindow) {
          std::this_thread::sleep_until(due - kSpinWindow);
        } else {
          std::this_thread::yield();
        }
      }
      const std::uint64_t id = first_id + i;
      const Index q = static_cast<Index>(id % static_cast<std::uint64_t>(n));
      serve::Request req;
      req.id = id;
      req.input.assign(in_.queries.x.data() + q * kFeatures,
                       in_.queries.x.data() + (q + 1) * kFeatures);
      req.deadline_s = kLatencyLimitS;
      const bool traced = tracer().enabled() && id % kTraceSampleEvery == 0;
      const auto t0 = Clock::now();
      std::future<serve::Response> f;
      {
        ScopedSpan span(traced ? "serve.submit" : nullptr, traced ? id : 0);
        f = engine_.submit(std::move(req));
      }
      const auto t1 = Clock::now();
      if (id % kLayerSampleEvery == 0) {
        tally_.submit_s.push_back(seconds_between(t0, t1));
        tally_.lag_s.push_back(seconds_between(due, t0));
      }
      if (traced) tracer().add_async("loadgen.lag", due, t0, id);
      pending_.push_back({std::move(f), id, q, seconds_between(due, t0), t0});
      ++tally_.attempted;
    }
    while (!pending_.empty()) {
      pending_.front().future.wait();
      harvest_one();
    }
    tally_.duration_s += trace.duration_s;
  }

 private:
  bool harvest_one() {
    if (pending_.empty() || pending_.front().future.wait_for(
                                std::chrono::seconds(0)) !=
                                std::future_status::ready) {
      return false;
    }
    InFlight p = std::move(pending_.front());
    pending_.pop_front();
    const serve::Response r = p.future.get();
    switch (r.outcome) {
      case serve::Outcome::Completed: {
        ++tally_.completed;
        const double latency = p.lag_s + r.latency_s;
        tally_.latency_s.push_back(latency);
        if (p.id % kLayerSampleEvery == 0) {
          tally_.queue_wait_s.push_back(r.queue_wait_s);
          tally_.service_s.push_back(r.service_s);
        }
        if (latency <= kLatencyLimitS) {
          ++tally_.within_limit;
        } else {
          ++tally_.late;
        }
        const float ref = in_.reference[static_cast<std::size_t>(p.query)];
        if (r.output.size() != 1 ||
            std::memcmp(&r.output[0], &ref, sizeof(float)) != 0) {
          ++tally_.mismatched;
        } else {
          const double e = r.output[0] - in_.queries.y[p.query];
          tally_.sq_err += e * e;
        }
        if (tracer().enabled() && p.id % kTraceSampleEvery == 0) {
          const auto admit = p.submitted + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(r.queue_wait_s));
          const auto done = admit + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(r.service_s));
          tracer().add_async("serve.queue_wait", p.submitted, admit, p.id);
          tracer().add_async("serve.service", admit, done, p.id);
        }
        break;
      }
      case serve::Outcome::Failed:
        ++tally_.failed;
        break;
      default:
        ++tally_.shed;
        break;
    }
    return true;
  }

  serve::Engine& engine_;
  const Inputs& in_;
  Tally& tally_;
  const bool precise_;
  std::deque<InFlight> pending_;
};

static_assert((kQueryCohorts * kCohortQueries & (kQueryCohorts * kCohortQueries - 1)) == 0,
              "the query-pool permutation needs a power-of-two pool");

/// Fits the served model to the query pool for two epochs, so final_loss
/// is a fitted model's loss rather than a random init's.  The fit stops
/// early on purpose: across seeds its loss spreads about 6%, against 15-30%
/// for a random init or for a longer fit.  Then records
/// serial Model::predict of every query as the reference the served
/// outputs must match bit for bit.  Both are input preparation, outside
/// the timed set-up.
void fit_and_reference(Model& model, Inputs& in) {
  constexpr Index kBatch = 32;
  constexpr int kEpochs = 2;
  {
    ScopedSpan span("nn.fit_served_model");
    auto adam = make_adam(1e-3f);
    MeanSquaredError mse;
    const Index n = in.queries.size();
    Tensor xb({kBatch, kFeatures}), yb({kBatch, 1});
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (Index b0 = 0; b0 + kBatch <= n; b0 += kBatch) {
        for (Index i = 0; i < kBatch; ++i) {
          // An odd multiplier permutes the power-of-two pool, mixing cohorts.
          const Index q = static_cast<Index>(
              static_cast<std::uint64_t>(b0 + i) * 2654435761ULL % static_cast<std::uint64_t>(n));
          std::copy_n(in.queries.x.data() + q * kFeatures, kFeatures, xb.data() + i * kFeatures);
          yb[i] = in.queries.y[q];
        }
        model.train_batch(xb, yb, mse, *adam);
      }
    }
  }
  ScopedSpan span("nn.predict_reference");
  const Tensor ref = model.predict(in.queries.x);
  in.reference.assign(ref.data(), ref.data() + ref.numel());
}

std::unique_ptr<serve::Engine> make_poisson_engine(const Model& m) {
  serve::EngineOptions eo;
  eo.workers = 2;
  eo.batch.max_batch = 16;
  eo.batch.continuous = true;
  eo.calibration_probe = true;
  return std::make_unique<serve::Engine>(m, eo);
}

/// One full set-up: query data, model build and engine start, timed.
/// The engine runs `served` when given (the run's fitted model) and
/// otherwise the model built here.
struct SetUp {
  Dataset queries;
  std::unique_ptr<Model> model;
  std::unique_ptr<serve::Engine> engine;
  double seconds = 0.0;
};

SetUp timed_setup(const RunOptions& opt, const Model* served) {
  SetUp s;
  ScopedSpan span("setup.serve");
  const auto t0 = Clock::now();
  {
    ScopedSpan s1("biodata.make_drug_response");
    s.queries = make_query_pool(opt.seed);
  }
  {
    ScopedSpan s2("nn.build");
    s.model = std::make_unique<Model>(make_p1b3_model());
  }
  {
    ScopedSpan s3("serve.engine_start");
    s.engine = make_poisson_engine(served != nullptr ? *served : *s.model);
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

/// Drains one engine, checks its exact ledger, and folds its counters
/// into `total`.
void drain_into(serve::Engine& engine, serve::EngineStats& total, RunResult& r) {
  {
    ScopedSpan span("serve.drain");
    engine.drain();
  }
  const serve::EngineStats st = engine.stats();
  r.check(st.accounting_gap() == 0, "engine ledger has an accounting gap");
  r.check(st.inflight_rows == 0, "rows still in flight after drain");
  total.submitted += st.submitted;
  total.completed += st.completed;
  total.batches += st.batches;
  total.shed_deadline += st.shed_deadline;
  total.shed_queue_full += st.shed_queue_full;
  total.peak_queue_depth = std::max(total.peak_queue_depth, st.peak_queue_depth);
  // The admission estimate of the engine that ran last.
  total.ewma_row_service_s = st.ewma_row_service_s;
}

/// Rule-of-succession estimate (k+1)/(n+2) of the share of requests shed,
/// failed or completed past the latency limit: never exactly 0 or 1.
double failed_frac(const Tally& t) {
  return (static_cast<double>(t.shed + t.failed + t.late) + 1.0) /
         (static_cast<double>(t.attempted) + 2.0);
}

void report_serving(const Tally& t, const serve::EngineStats& st,
                    std::uint64_t ws_grow, RunResult& r) {
  r.attempted = t.attempted;
  r.failed = t.failed + t.mismatched;
  r.check(t.mismatched == 0,
          "served outputs differ from serial Model::predict");
  r.check(st.submitted == t.attempted, "engines saw a different request count");
  r.check(t.completed + t.shed + t.failed == t.attempted,
          "client saw a different outcome count");
  r.check(t.completed > 0, "no request completed");

  const double attempted = static_cast<double>(t.attempted);
  r.e2e["final_loss"] =
      t.completed > 0 ? t.sq_err / static_cast<double>(t.completed) : 0.0;

  auto& L = r.layer;
  L["serve.queue_wait_p50_ms"] = quantile(t.queue_wait_s, 0.50) * 1e3;
  L["serve.queue_wait_p99_ms"] = quantile(t.queue_wait_s, 0.99) * 1e3;
  L["serve.service_p50_ms"] = quantile(t.service_s, 0.50) * 1e3;
  L["serve.service_p99_ms"] = quantile(t.service_s, 0.99) * 1e3;
  L["serve.rows_per_iter"] = st.mean_batch_rows();
  L["serve.submit_us_p50"] = quantile(t.submit_s, 0.50) * 1e6;
  L["serve.submit_us_p99"] = quantile(t.submit_s, 0.99) * 1e6;
  L["serve.shed_deadline_frac"] = static_cast<double>(st.shed_deadline) / attempted;
  L["serve.shed_queue_full_frac"] = static_cast<double>(st.shed_queue_full) / attempted;
  const double service_p50 = quantile(t.service_s, 0.50);
  L["serve.price_error"] =
      service_p50 > 0.0 ? st.ewma_row_service_s * st.mean_batch_rows() / service_p50
                        : 0.0;
  L["serve.peak_queue_depth"] = static_cast<double>(st.peak_queue_depth);
  L["runtime.ws_grow_count"] = static_cast<double>(ws_grow);
  L["loadgen.lag_p99_ms"] = quantile(t.lag_s, 0.99) * 1e3;
}

}  // namespace

serve::ArrivalTrace poisson_phase_trace(std::uint64_t seed, int index, bool high,
                                        double seconds) {
  const std::uint64_t stream = seed * 1000003ULL + 2ULL * static_cast<std::uint64_t>(index);
  return high ? serve::poisson_trace(kPoissonHighRps, seconds, stream + 1)
              : serve::poisson_trace(kPoissonLowRps, seconds, stream);
}

RunResult run_serve_poisson(const RunOptions& opt) {
  RunResult r;
  // The first set-up's data and model are the run's; every cycle repeats
  // the whole set-up and keeps only its engine.  setup_s is the median
  // over all of them: this class of host runs the same serial set-up up to
  // 1.7x slower for seconds at a time, so set-ups spread over the run
  // sample it rather than one moment of it.
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<Model> model;
  {
    SetUp first = timed_setup(opt, nullptr);
    setups.push_back(first.seconds);
    first.engine.reset();
    in.queries = std::move(first.queries);
    model = std::move(first.model);
  }
  fit_and_reference(*model, in);

  // Each cycle starts a fresh engine: its speed differs from one start to
  // the next (which threads win the shared thread pool), so one engine per
  // run would make every run a single draw of it.  A cycle runs a high
  // phase, which also warms the engine's arenas, then kLowWindows windows
  // of the low phase.  The high phase
  // lasts two windows, so the queue it leaves to drain after its trace
  // ends stays small next to what it completed.  Latency is a per-window
  // quantile, median over windows.  This class of host deschedules a
  // thread for 5-20 ms about once a second, and one such stall sets the
  // p99 of the window it hits; windows of 0.3 s (~1360 requests at 0.1x,
  // so 13 beyond the p99) keep most windows free of one, so the median is
  // the engine's own tail.
  constexpr int kCycles = 20;
  constexpr int kLowWindows = 3;
  const double window_s = opt.seconds / (kCycles * (2 + kLowWindows));
  Tally all;
  serve::EngineStats stats;
  std::vector<double> goodput, p50, p99, failed, samples;
  const std::uint64_t ws0 = workspace_stats().grow_count;
  for (int c = 0; c < kCycles; ++c) {
    std::unique_ptr<serve::Engine> engine;
    {
      SetUp setup = timed_setup(opt, model.get());
      setups.push_back(setup.seconds);
      engine = std::move(setup.engine);
    }
    Tally cycle;
    {
      ScopedSpan span("serve.replay_high");
      Tally high;
      Replayer(*engine, in, high, false)
          .run(poisson_phase_trace(opt.seed, c, true, 2 * window_s),
               (static_cast<std::uint64_t>(c) << 40) | (1ULL << 39));
      goodput.push_back(static_cast<double>(high.within_limit) / high.duration_s);
      cycle.merge(high);
    }
    for (int w = 0; w < kLowWindows; ++w) {
      ScopedSpan span("serve.replay_low");
      const int window = c * kLowWindows + w;
      Tally low;
      Replayer(*engine, in, low, true)
          .run(poisson_phase_trace(opt.seed, window, false, window_s),
               static_cast<std::uint64_t>(window) << 40);
      p50.push_back(quantile(low.latency_s, 0.50) * 1e3);
      p99.push_back(quantile(low.latency_s, 0.99) * 1e3);
      failed.push_back(failed_frac(low));
      cycle.merge(low);
    }
    drain_into(*engine, stats, r);
    samples.push_back(static_cast<double>(cycle.completed) / cycle.duration_s);
    all.merge(cycle);
  }
  report_serving(all, stats, workspace_stats().grow_count - ws0, r);
  r.e2e["setup_s"] = median(setups);
  r.e2e["goodput_rps"] = median(goodput);
  r.e2e["latency_p50_ms"] = median(p50);
  r.layer["serve.client_p99_ms"] = median(p99);
  // Taken at the 0.1x phase, like latency, per window and median over
  // windows: there a typical window fails nothing, and the metric rises
  // when failures become typical.  The 1.3x phase's sheds are the complement of
  // goodput_rps and show per layer as serve.shed_*_frac; as a share they
  // would magnify the run-to-run capacity noise about 5x.
  r.e2e["failed_frac"] = median(failed);
  r.e2e["samples_per_s"] = median(samples);
  return r;
}

void calibrate_serving(std::uint64_t seed) {
  // Capacity is the peak completion rate over a sweep of overloads, each
  // replayed the way the workload replays its 1.3x phase (same queue,
  // deadlines and generator) on a fresh engine, as the median of three
  // replays.  Past the peak, shedding on the generator thread contends with
  // the workers for the batcher and completions fall again.
  Model model = make_p1b3_model();
  Inputs in;
  in.queries = make_query_pool(seed);
  fit_and_reference(model, in);
  double capacity = 0.0;
  for (double rps = 30000.0; rps <= 90000.0; rps += 10000.0) {
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      const auto engine = make_poisson_engine(model);
      Tally t;
      Replayer(*engine, in, t, false)
          .run(serve::poisson_trace(rps, 2.0, seed + static_cast<std::uint64_t>(rep)), 0);
      rates.push_back(static_cast<double>(t.completed) / t.duration_s);
    }
    capacity = std::max(capacity, median(rates));
    std::printf("offered %.0f req/s  completed %.0f req/s\n", rps, median(rates));
  }
  std::printf("capacity %.0f req/s\n", capacity);
}

}  // namespace perfbench

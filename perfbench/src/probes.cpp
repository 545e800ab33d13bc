// Standalone per-layer probes.  Each one times calls into a single layer's
// public API at the shapes the workloads use, and reports a median over
// repeated calls.  They run after the workload in every traced run, so
// every workload prints the same per-layer metric set.
#include <atomic>
#include <filesystem>
#include <functional>
#include <thread>

#include "core/kernels.hpp"
#include "data/store.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "parallel/collectives.hpp"
#include "runtime/rng.hpp"
#include "runtime/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace candle;

namespace {

constexpr Index kServeBatch = 16;  // serve_poisson max_batch
constexpr Index kTrainBatch = 32;  // per-replica training batch
constexpr double kProbeSeconds = 0.15;

/// Median seconds of `fn` over repeated calls: one warm-up call, then at
/// least 5 calls and until kProbeSeconds have passed.
double median_call_s(const char* span, const std::function<void()>& fn) {
  ScopedSpan s(span);
  fn();
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < 5 || seconds_between(start, Clock::now()) < kProbeSeconds) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

Tensor random_batch(Index rows, std::uint64_t seed) {
  Pcg32 rng(seed, 0x9b);
  return Tensor::randn({rows, kFeatures}, rng);
}

/// GEMM rate at the model's widest layer (1024 -> 512) for `rows` rows.
double gemm_gflops(const char* span, Index rows) {
  constexpr Index k = 1024, n = 512;
  Pcg32 rng(5, 0x6e);
  const Tensor a = Tensor::randn({rows, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({rows, n});
  const double t = median_call_s(span, [&] {
    gemm(Op::None, Op::None, rows, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
  });
  return 2.0 * static_cast<double>(rows * n * k) / t / 1e9;
}

}  // namespace

void run_layer_probes(const RunOptions& opt, RunResult& r) {
  auto& L = r.layer;
  L["runtime.ws_reserved_mb"] =
      static_cast<double>(workspace_stats().bytes_reserved) / (1 << 20);

  // ---- core: GEMM at the serving and training shapes.
  L["core.gemm_gflops_serve"] = gemm_gflops("core.gemm_serve", kServeBatch);
  L["core.gemm_gflops_train"] = gemm_gflops("core.gemm_train", kTrainBatch);
  {
    // Per GEMM call of one batch-16 infer: three dense layers.
    const Index dims[3][2] = {{kFeatures, 1024}, {1024, 512}, {512, 1}};
    double flops = 0.0, bytes = 0.0;
    for (const auto& d : dims) {
      flops += 2.0 * static_cast<double>(kServeBatch * d[0] * d[1]);
      bytes += 4.0 * static_cast<double>(kServeBatch * d[0] + d[0] * d[1] +
                                         kServeBatch * d[1]);
    }
    L["core.gemm_mflop_per_call"] = flops / 3.0 / 1e6;
    L["core.gemm_mb_per_call"] = bytes / 3.0 / (1 << 20);
  }

  // ---- nn: inference, training passes, optimizer, checkpoint.
  Model model = make_p1b3_model();
  const Tensor x1 = random_batch(1, opt.seed);
  const Tensor x16 = random_batch(kServeBatch, opt.seed);
  const Tensor x32 = random_batch(kTrainBatch, opt.seed);
  const double infer16_s = median_call_s("nn.infer_b16", [&] { model.infer(x16); });
  L["nn.infer_b1_ms"] = median_call_s("nn.infer_b1", [&] { model.infer(x1); }) * 1e3;
  L["nn.infer_b16_ms"] = infer16_s * 1e3;
  {
    MeanSquaredError mse;
    const Tensor y = Tensor::zeros({kTrainBatch, 1});
    Tensor dy;
    L["nn.forward_ms"] = median_call_s("nn.forward", [&] {
                           dy = mse.grad(model.forward(x32, true), y);
                         }) * 1e3;
    L["nn.backward_ms"] =
        median_call_s("nn.backward", [&] { model.backward(dy); }) * 1e3;
    auto adam = make_adam(1e-3f);
    const auto params = model.params();
    const auto grads = model.grads();
    L["nn.optimizer_ms"] =
        median_call_s("nn.optimizer", [&] { adam->step(params, grads); }) * 1e3;
    const std::string path =
        (std::filesystem::path(opt.out_dir) / "probe.ckpt").string();
    L["nn.ckpt_write_ms"] = median_call_s("nn.save_checkpoint", [&] {
                              save_checkpoint(model, adam.get(), 1, path);
                            }) * 1e3;
    L["nn.ckpt_mb"] = static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
    std::filesystem::remove(path);
  }

  // ---- runtime: one serving-shape infer alone vs while a second thread
  // runs the same call (both race for the process-wide thread pool).
  {
    std::atomic<bool> stop{false};
    std::thread rival([&] {
      while (!stop.load(std::memory_order_relaxed)) model.infer(x16);
    });
    const double contended_s =
        median_call_s("runtime.infer_b16_contended", [&] { model.infer(x16); });
    stop = true;
    rival.join();
    L["runtime.pool_contention_ratio"] = contended_s / infer16_s;
  }

  // ---- parallel: standalone 2-rank ring all-reduce of the gradient size.
  {
    std::vector<std::vector<float>> bufs(
        2, std::vector<float>(static_cast<std::size_t>(model.grad_size()), 1.0f));
    parallel::ShmCommunicator comm(2);
    L["parallel.allreduce_ms"] = median_call_s("parallel.allreduce_ring", [&] {
                                   std::thread peer([&] { comm.allreduce_ring(1, bufs[1]); });
                                   comm.allreduce_ring(0, bufs[0]);
                                   peer.join();
                                 }) * 1e3;
  }

  // ---- data: sample-store hit share at train_dp's budget (half the
  // dataset), over two epochs of seeded shuffled access.
  {
    const Dataset d = make_queries(kTrainSamples, opt.seed);
    data::DatasetSource source(d);
    data::SampleStoreOptions so;
    so.byte_budget = static_cast<std::size_t>(d.size()) * (kFeatures + 1) * sizeof(float) / 2;
    so.fetch_threads = 0;
    data::SampleStore store(source, so);
    std::vector<float> x(kFeatures), y(1);
    std::vector<Index> order(static_cast<std::size_t>(d.size()));
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<Index>(i);
    Pcg32 rng(opt.seed, 0x57);
    ScopedSpan s("data.sample_store");
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(static_cast<std::uint32_t>(i))]);
      }
      for (Index i : order) store.get(i, x, y);
    }
    const data::SampleStoreStats st = store.stats();
    L["data.store_hit_frac"] =
        static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses);
  }
}

}  // namespace perfbench

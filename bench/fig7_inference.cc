// Figure 7: machine-learning inference serving — (a) median latency vs
// throughput for cold-start ratios {0%, 2%, 20%}, (b) latency CDF at a fixed
// rate. FAASM serves the genuine wasm MLP; the baseline serves the native
// twin from containers with calibrated cold starts.
//
//   fig7_inference [--tiny] [--seed=<n>]
//
// Every request is counted as attempted; one whose submit fails, whose
// Await fails or whose function returns non-zero counts as failed and adds
// no latency sample. The run prints both counts per rate and exits 1 if any
// request failed.
#include <atomic>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "common/stats.h"
#include "runtime/cluster.h"
#include "workloads/inference.h"

namespace faasm {
namespace {

constexpr int kUserPool = 64;  // pre-registered per-user functions

struct LoadResult {
  Summary latency_ms;
  int attempted = 0;
  int failed = 0;
};

// Open-loop Poisson load: each request is its own simulated activity.
// `submit` returns 0 when the submit failed; `await` returns true when the
// call completed with exit code 0.
template <typename Cluster, typename Client>
LoadResult RunLoad(Cluster& cluster, uint64_t seed, double rate_per_s, double cold_ratio,
                   double duration_s,
                   const std::function<uint64_t(Client&, const std::string&, Bytes)>& submit,
                   const std::function<bool(Client&, uint64_t)>& await) {
  LoadResult result;
  std::mutex result_mutex;
  const MlpDims dims;

  std::atomic<int> outstanding{0};
  cluster.Run([&](Client& client) {
    Rng rng(seed);
    int next_cold_user = kUserPool;
    double t = 0;
    int request_index = 0;
    SimClock& clock = cluster.clock();
    while (t < duration_s) {
      const double gap = rng.NextExponential(1.0 / rate_per_s);
      t += gap;
      clock.SleepFor(static_cast<TimeNs>(gap * 1e9));
      std::string function;
      if (rng.NextDouble() < cold_ratio) {
        function = "infer-u" + std::to_string(next_cold_user++ % 4096);
      } else {
        function = "infer-u" + std::to_string(request_index % kUserPool);
      }
      const int index = request_index++;
      outstanding.fetch_add(1);
      cluster.executor().Spawn([&, function, index] {
        Client inner_client = client;
        const TimeNs start = cluster.clock().Now();
        auto image = SyntheticImage(dims, index);
        const uint64_t id = submit(inner_client, function, EncodeImage(image));
        const bool served = id != 0 && await(inner_client, id);
        const double ms = static_cast<double>(cluster.clock().Now() - start) / 1e6;
        {
          std::lock_guard<std::mutex> guard(result_mutex);
          result.attempted += 1;
          if (served) {
            result.latency_ms.Add(ms);
          } else {
            result.failed += 1;
          }
        }
        outstanding.fetch_sub(1);
      });
    }
    const bool drained =
        clock.WaitFor([&] { return outstanding.load() == 0; }, kMillisecond,
                      clock.Now() + static_cast<TimeNs>(120 * 1e9));
    if (!drained) {
      // Requests still in flight at the cut-off never finished: failures.
      std::lock_guard<std::mutex> guard(result_mutex);
      result.attempted += outstanding.load();
      result.failed += outstanding.load();
    }
  });
  return result;
}

// Pre-warms the steady-state user pool; failed warm-up calls count against
// the run like failed requests.
template <typename Client>
void Prewarm(Client& client, int warm_pool, LoadResult* warmup) {
  const MlpDims dims;
  for (int i = 0; i < warm_pool; ++i) {
    auto image = SyntheticImage(dims, i);
    auto id = client.Submit("infer-u" + std::to_string(i % kUserPool), EncodeImage(image));
    warmup->attempted += 1;
    if (!id.ok()) {
      warmup->failed += 1;
      continue;
    }
    auto code = client.Await(id.value());
    if (!code.ok() || code.value() != 0) {
      warmup->failed += 1;
    }
  }
}

void AddWarmup(const LoadResult& warmup, LoadResult* result) {
  result->attempted += warmup.attempted;
  result->failed += warmup.failed;
}

LoadResult RunFaasm(uint64_t seed, double rate, double cold_ratio, double duration_s,
                    int warm_pool) {
  ClusterConfig config;
  config.hosts = 4;
  config.host.cores = 4;
  config.host.max_concurrent_calls = 256;
  FaasmCluster cluster(config);
  const MlpDims dims;
  SeedMlpWeights(cluster.kvs(), dims);
  auto module = BuildMlpWasmModule(dims).value();
  for (int i = 0; i < 4096 + kUserPool; ++i) {
    (void)cluster.registry().RegisterWasm("infer-u" + std::to_string(i), module);
  }
  LoadResult warmup;
  cluster.Run([&](Frontend& frontend) { Prewarm(frontend, warm_pool, &warmup); });

  LoadResult result = RunLoad<FaasmCluster, Frontend>(
      cluster, seed, rate, cold_ratio, duration_s,
      [](Frontend& frontend, const std::string& fn, Bytes input) -> uint64_t {
        auto id = frontend.Submit(fn, std::move(input));
        return id.ok() ? id.value() : 0;
      },
      [](Frontend& frontend, uint64_t id) {
        auto code = frontend.Await(id);
        return code.ok() && code.value() == 0;
      });
  AddWarmup(warmup, &result);
  return result;
}

LoadResult RunKnative(uint64_t seed, double rate, double cold_ratio, double duration_s,
                      int warm_pool) {
  ClusterConfig config;
  config.hosts = 4;
  config.host.cores = 4;
  KnativeCluster cluster(config, ContainerModel{});
  const MlpDims dims;
  SeedMlpWeights(cluster.kvs(), dims);
  for (int i = 0; i < 4096 + kUserPool; ++i) {
    (void)cluster.registry().RegisterNative("infer-u" + std::to_string(i), MlpInferNative);
  }
  LoadResult warmup;
  cluster.Run([&](KnativeCluster::Client& client) { Prewarm(client, warm_pool, &warmup); });

  LoadResult result = RunLoad<KnativeCluster, KnativeCluster::Client>(
      cluster, seed, rate, cold_ratio, duration_s,
      [](KnativeCluster::Client& client, const std::string& fn, Bytes input) -> uint64_t {
        auto id = client.Submit(fn, std::move(input));
        return id.ok() ? id.value() : 0;
      },
      [](KnativeCluster::Client& client, uint64_t id) {
        auto code = client.Await(id);
        return code.ok() && code.value() == 0;
      });
  AddWarmup(warmup, &result);
  return result;
}

// Prints one line of request counts and returns the number of failures.
int ReportCounts(const char* label, double rate, const LoadResult& result) {
  std::printf("  %-16s rate %5.0f req/s: %5d attempted, %3d failed\n", label, rate,
              result.attempted, result.failed);
  return result.failed;
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool tiny = false;
  int seed = 1234;
  FlagTable flags;
  flags.AddBool("--tiny", &tiny, "two rates, one-second loads and a small warm pool (smoke)");
  flags.AddInt("--seed", &seed, "seed of the arrival times and cold-user draws");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  const uint64_t run_seed = static_cast<uint64_t>(seed);
  const double duration_s = tiny ? 1.0 : 2.0;
  const int warm_pool = tiny ? 8 : kUserPool;
  const std::vector<double> rates =
      tiny ? std::vector<double>{2.0, 10.0} : std::vector<double>{2.0, 10.0, 25.0, 50.0};

  PrintHeader("Figure 7a: median inference latency vs throughput");
  PrintContainerCalibration(ContainerModel{});

  int failures = 0;
  std::printf("\n%10s | %12s | %14s %14s\n", "rate(req/s)", "faasm med(ms)", "kn 0% cold",
              "kn 20% cold");
  std::fflush(stdout);
  for (double rate : rates) {
    // One FAASM line covers all cold-start ratios.
    LoadResult faasm = RunFaasm(run_seed, rate, 0.20, duration_s, warm_pool);
    LoadResult kn0 = RunKnative(run_seed, rate, 0.0, duration_s, warm_pool);
    LoadResult kn20 = RunKnative(run_seed, rate, 0.20, duration_s, warm_pool);
    std::printf("%10.0f | %12.1f | %14.1f %14.1f\n", rate, faasm.latency_ms.Median(),
                kn0.latency_ms.Median(), kn20.latency_ms.Median());
    failures += ReportCounts("faasm 20% cold", rate, faasm);
    failures += ReportCounts("kn 0% cold", rate, kn0);
    failures += ReportCounts("kn 20% cold", rate, kn20);
    std::fflush(stdout);
  }

  PrintHeader("Figure 7b: latency CDF at 10 req/s");
  LoadResult faasm = RunFaasm(run_seed, 10.0, 0.20, duration_s, warm_pool);
  LoadResult kn2 = RunKnative(run_seed, 10.0, 0.02, duration_s, warm_pool);
  LoadResult kn20 = RunKnative(run_seed, 10.0, 0.20, duration_s, warm_pool);
  std::printf("%12s %14s %14s %14s\n", "percentile", "faasm (ms)", "kn 2% (ms)", "kn 20% (ms)");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    std::printf("%11.0f%% %14.1f %14.1f %14.1f\n", p, faasm.latency_ms.Percentile(p),
                kn2.latency_ms.Percentile(p), kn20.latency_ms.Percentile(p));
  }
  failures += ReportCounts("faasm 20% cold", 10.0, faasm);
  failures += ReportCounts("kn 2% cold", 10.0, kn2);
  failures += ReportCounts("kn 20% cold", 10.0, kn20);
  std::printf("\nExpected shape (paper): FAASM cold starts add <1 ms, so one line covers all\n"
              "ratios and the tail stays flat; the container baseline's median explodes once\n"
              "cold-start queueing kicks in, with multi-second tails at 20%% cold.\n");
  if (failures > 0) {
    std::printf("\nFAIL: %d request(s) failed\n", failures);
    return 1;
  }
  return 0;
}

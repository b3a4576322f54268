// Figure 6: distributed SGD training — (a) training time, (b) network
// transfers, (c) billable memory — vs number of parallel functions, on FAASM
// and the container baseline. Also reproduces the §6.2 small-data variant
// (pass --small).
//
// Scale-down vs the paper (documented in EXPERIMENTS.md): synthetic
// RCV1-shaped dataset and proportionally smaller hosts, so the baseline hits
// the same memory wall at high parallelism the paper reports.
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "baseline/knative.h"
#include "runtime/cluster.h"
#include "workloads/sgd.h"

namespace faasm {
namespace {

struct Point {
  double seconds = 0;
  double network_mb = 0;
  double billable_gb_s = 0;
  size_t failed = 0;
  bool ok = false;
};

// Global-tier layout under test (--tier=central|sharded; default sharded,
// the production path).
StateTier g_tier = StateTier::kSharded;

ClusterConfig MakeClusterConfig(bool small_data) {
  ClusterConfig config;
  config.hosts = 10;
  config.state_tier = g_tier;
  config.host.cores = 4;
  // One training function per core before a host withdraws from the warm set
  // (mirrors the baseline's per-pod concurrency target of 1).
  config.host.max_concurrent_calls = 6;
  // Scaled host memory: dataset is ~2000x smaller than RCV1-on-16GB-hosts,
  // hosts shrink accordingly so container copies exhaust memory at high
  // parallelism exactly as in the paper.
  config.host.memory_bytes = small_data ? size_t{512} * 1024 * 1024 : size_t{56} * 1024 * 1024;
  return config;
}

SgdConfig MakeSgdConfig(bool small_data, uint32_t workers) {
  SgdConfig config;
  if (small_data) {
    config.n_examples = 128;  // §6.2: "training examples reduced ... to 128"
    config.n_features = 512;
    config.nnz_per_example = 8;
    config.n_epochs = 1;
  } else {
    config.n_examples = 16384;
    config.n_features = 4096;
    config.nnz_per_example = 32;
    config.n_epochs = 3;
  }
  config.n_workers = workers;
  return config;
}

template <typename Cluster, typename Client>
Point RunOn(Cluster& cluster, const SgdConfig& config,
            const std::function<void(const std::function<void(Client&)>&)>& run) {
  Point point;
  SeedSgdDataset(cluster.kvs(), config);
  if (!RegisterSgdFunctions(cluster.registry()).ok()) {
    return point;
  }
  run([&](Client& client) {
    const TimeNs start = cluster.clock().Now();
    auto result = RunSgdTraining(client, config);
    point.ok = result.ok();
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
    point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
    point.billable_gb_s = cluster.billable_gb_seconds();
  });
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    point.failed += record.state == CallState::kFailed ? 1 : 0;
  }
  return point;
}

Point RunFaasm(bool small_data, uint32_t workers) {
  FaasmCluster cluster(MakeClusterConfig(small_data));
  const SgdConfig config = MakeSgdConfig(small_data, workers);
  return RunOn<FaasmCluster, Frontend>(
      cluster, config, [&](const std::function<void(Frontend&)>& driver) {
        cluster.Run(driver);
      });
}

Point RunKnative(bool small_data, uint32_t workers) {
  ContainerModel model;  // full calibrated costs
  KnativeCluster cluster(MakeClusterConfig(small_data), model);
  const SgdConfig config = MakeSgdConfig(small_data, workers);
  return RunOn<KnativeCluster, KnativeCluster::Client>(
      cluster, config, [&](const std::function<void(KnativeCluster::Client&)>& driver) {
        cluster.Run(driver);
      });
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool small = false;
  bool central = false;
  bool sharded = false;
  FlagTable flags;
  flags.AddBool("--small", &small, "the Sec 6.2 small-data variant (CI smoke)");
  flags.AddBool("--tier=central", &central, "FAASM on the central global tier");
  flags.AddBool("--tier=sharded", &sharded, "FAASM on the sharded global tier (default)");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (central && sharded) {
    std::fprintf(stderr, "%s: --tier=central and --tier=sharded are exclusive\n", argv[0]);
    flags.PrintUsage(argv[0]);
    return 2;
  }
  g_tier = central ? StateTier::kCentral : StateTier::kSharded;
  std::printf("[FAASM global tier: %s]\n",
              g_tier == StateTier::kSharded ? "sharded (per-host masters)" : "central");

  if (small) {
    PrintHeader("Sec 6.2 small-data variant (128 examples, 32 parallel functions)");
    PrintContainerCalibration(ContainerModel{});
    Point f = RunFaasm(true, 32);
    Point k = RunKnative(true, 32);
    std::printf("%-10s %14s %16s %18s\n", "platform", "time (ms)", "network (MB)",
                "billable (GB-s)");
    std::printf("%-10s %14.0f %16.1f %18.3f\n", "FAASM", f.seconds * 1e3, f.network_mb,
                f.billable_gb_s);
    std::printf("%-10s %14.0f %16.1f %18.3f\n", "Knative", k.seconds * 1e3, k.network_mb,
                k.billable_gb_s);
    // The gate: both platforms must train to completion with no failed
    // call. At this size neither hits a memory wall, so a failure is a bug.
    if (!f.ok || !k.ok || f.failed > 0 || k.failed > 0) {
      std::fprintf(stderr, "FAIL: training did not complete (FAASM ok=%d failed=%zu, Knative "
                   "ok=%d failed=%zu)\n", f.ok, f.failed, k.ok, k.failed);
      return 1;
    }
    // And the direction Sec 6.2 reports: FAASM trains faster and accrues
    // less billable memory than the container baseline.
    if (f.seconds >= k.seconds || f.billable_gb_s >= k.billable_gb_s) {
      std::fprintf(stderr, "FAIL: FAASM is not below Knative (time %.0f vs %.0f ms, billable "
                   "%.3f vs %.3f GB-s)\n", f.seconds * 1e3, k.seconds * 1e3, f.billable_gb_s,
                   k.billable_gb_s);
      return 1;
    }
    return 0;
  }

  PrintHeader("Figure 6: SGD training vs parallelism (FAASM vs container baseline)");
  PrintContainerCalibration(ContainerModel{});
  std::printf("[synthetic RCV1-shaped dataset; 10 hosts; scaled-down sizes — see EXPERIMENTS.md]\n");
  std::printf("\n%8s | %12s %12s %12s | %12s %12s %12s %s\n", "workers", "faasm_t(s)",
              "faasm_netMB", "faasm_GBs", "knative_t(s)", "kn_netMB", "kn_GBs", "kn_status");
  for (uint32_t workers : {2u, 5u, 10u, 15u, 20u, 25u, 30u, 34u, 38u}) {
    Point f = RunFaasm(false, workers);
    Point k = RunKnative(false, workers);
    std::printf("%8u | %12.2f %12.1f %12.3f | %12.2f %12.1f %12.3f %s\n", workers, f.seconds,
                f.network_mb, f.billable_gb_s, k.seconds, k.network_mb, k.billable_gb_s,
                k.failed > 0 ? "OOM" : (k.ok ? "ok" : "FAILED"));
  }
  std::printf("\nExpected shape (paper): FAASM time keeps improving past the point where the\n"
              "baseline flattens and then exhausts host memory (>30 workers); FAASM moves\n"
              "less data and accrues far less billable memory.\n");
  return 0;
}

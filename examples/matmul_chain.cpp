// Chained serverless composition: divide-and-conquer matrix multiplication
// (64 multiplication + 9 merge functions), with operands and intermediate
// results flowing through the two-tier state (§6.4).
#include <cstdio>
#include <cstring>

#include "runtime/cluster.h"
#include "workloads/matmul.h"

using namespace faasm;

int main() {
  ClusterConfig cluster_config;
  cluster_config.hosts = 4;
  cluster_config.host.max_concurrent_calls = 64;
  FaasmCluster cluster(cluster_config);

  MatmulConfig config;
  config.n = 256;
  config.split_levels = 2;

  SeedMatmulInputs(cluster.kvs(), config);
  if (!RegisterMatmulFunctions(cluster.registry()).ok()) {
    return 1;
  }

  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    auto out_key = RunMatmul(frontend, config);
    if (!out_key.ok()) {
      std::fprintf(stderr, "matmul failed: %s\n", out_key.status().ToString().c_str());
      return;
    }
    std::printf("%ux%u multiply finished in %.2f virtual seconds\n", config.n, config.n,
                (cluster.clock().Now() - start) / 1e9);
  });

  // Verify against a single-node reference multiply.
  auto a_bytes = cluster.kvs().Get(kMatmulAKey).value();
  auto b_bytes = cluster.kvs().Get(kMatmulBKey).value();
  std::vector<double> a(config.n * config.n);
  std::vector<double> b(config.n * config.n);
  std::memcpy(a.data(), a_bytes.data(), a_bytes.size());
  std::memcpy(b.data(), b_bytes.data(), b_bytes.size());
  const auto expected = ReferenceMatmul(a, b, config.n);
  auto c_bytes = cluster.kvs().Get(std::string(kMatmulOutPrefix) + "root").value();
  std::vector<double> c(config.n * config.n);
  std::memcpy(c.data(), c_bytes.data(), c_bytes.size());
  double max_err = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    max_err = std::max(max_err, std::abs(c[i] - expected[i]));
  }
  std::printf("max abs error vs reference: %.2e\n", max_err);

  size_t mults = 0;
  size_t merges = 0;
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    mults += record.function == "mm_div" ? 1 : 0;
    merges += record.function == "mm_merge" ? 1 : 0;
  }
  std::printf("functions executed: %zu mm_div (1 root + 8 internal + 64 leaves), %zu merges\n",
              mults, merges);
  std::printf("network: %.1f MB, cold starts: %zu\n", cluster.network_bytes() / 1e6,
              cluster.cold_start_count());
  return 0;
}

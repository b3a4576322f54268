// Latency-sensitive serving: the wasm MLP classifier with weights in shared
// state, demonstrating warm-path latency and sub-millisecond Proto-Faaslet
// cold starts (§6.3).
#include <cstdio>

#include "runtime/cluster.h"
#include "workloads/inference.h"

using namespace faasm;

int main() {
  // Serving weights are written once and read forever: the canonical
  // workload for the leased per-host read cache (repeat weight pulls are
  // served with zero tier RPCs; an epoch flip or local write still
  // invalidates). Read-modify-write workloads must NOT set this.
  ClusterConfig config;
  config.host.read_cache = true;
  config.host.read_lease_ns = 50 * kMillisecond;
  FaasmCluster cluster(config);
  const MlpDims dims;
  SeedMlpWeights(cluster.kvs(), dims);
  if (!RegisterMlpWasm(cluster.registry(), "infer", dims).ok()) {
    return 1;
  }

  cluster.Run([&](Frontend& frontend) {
    for (uint64_t request = 0; request < 10; ++request) {
      const auto image = SyntheticImage(dims, request);
      const TimeNs start = cluster.clock().Now();
      auto id = frontend.Submit("infer", EncodeImage(image));
      if (!id.ok()) {
        return;
      }
      auto code = frontend.Await(id.value());
      const double latency_ms = (cluster.clock().Now() - start) / 1e6;
      auto output = frontend.Output(id.value());
      if (code.ok() && output.ok() && output.value().size() >= 4) {
        uint32_t predicted = 0;
        std::memcpy(&predicted, output.value().data(), 4);
        const uint32_t expected = MlpReference(cluster.kvs(), dims, image);
        std::printf("request %2llu: class %u (%s) latency %.2f ms%s\n",
                    static_cast<unsigned long long>(request), predicted,
                    predicted == expected ? "correct" : "MISMATCH", latency_ms,
                    request == 0 ? "  <- cold start" : "");
      }
    }
  });

  std::printf("\nweights stay in one shared local-tier replica per host; every Faaslet maps\n"
              "them zero-copy into its linear memory via get_state().\n");
  return 0;
}

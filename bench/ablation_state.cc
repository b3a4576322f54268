// Ablations on the two-tier state design (DESIGN.md §3):
//   1. AsyncArray push interval (the VectorAsync consistency/traffic knob of
//      Listing 1) × delta-vs-full push: network bytes vs interval for SGD,
//      with the weight sync shipping either dirty-run deltas (one batched
//      multi-range write per push) or the whole value.
//   2. Chunked vs full pulls (state chunks, Fig. 4): bytes moved when workers
//      touch column slices of a large matrix.
//   3. Centralised vs sharded global tier (§4.3): the same SGD workload
//      against one central KVS endpoint vs per-host shards with per-key
//      mastership, quantifying the cross-host traffic the sharded layout
//      (plus master-affinity scheduling) removes.
//   4. Batched vs unbatched state pushes (kvs_client.h kBatch): K
//      counters pushed per step inside one StateBatch scope vs with no
//      scope open (each push its own barrier, one RPC per key), at zero
//      lost updates either way.
//
// Flags:
//   --tiny           seconds-scale smoke configuration (CI)
//   --tier=central|sharded
//                    force the global-tier layout for ablations 1 and 2
//                    and restrict ablation 3 to that column (default:
//                    central for 1/2 so the delta-vs-full and chunk deltas
//                    stay visible, both columns for 3)
//   --batch=on|off   restrict ablation 4 to that column (default: both)
//   --json <path>    write the measured delta-push, tier and batch columns
//                    as JSON (the CI perf artifact BENCH_state.json)
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/state_batch_util.h"
#include "runtime/cluster.h"
#include "state/ddo.h"
#include "workloads/sgd.h"

namespace faasm {
namespace {

struct SgdPoint {
  double network_mb = 0;
  double seconds = 0;
  double loss = -1;
};

struct DeltaRow {
  uint32_t interval = 0;
  SgdPoint delta;
  SgdPoint full;
};

// Collected results for --json.
struct BenchResults {
  bool tiny = false;
  std::vector<DeltaRow> delta_rows;
  std::optional<SgdPoint> tier_central;
  std::optional<SgdPoint> tier_sharded;
  std::optional<BatchMicroPoint> batch_on;
  std::optional<BatchMicroPoint> batch_off;
};

SgdPoint RunSgdOnce(bool tiny, uint32_t interval, bool delta_push, StateTier tier) {
  ClusterConfig cluster_config;
  cluster_config.hosts = 4;
  cluster_config.state_tier = tier;
  FaasmCluster cluster(cluster_config);
  SgdConfig config;
  // Weights span many state pages (features * 8 B) while each inter-push
  // window dirties only a few, so the delta-vs-full gap is visible.
  config.n_examples = tiny ? 512 : 4096;
  config.n_features = tiny ? 8192 : 16384;
  config.nnz_per_example = 8;
  config.n_workers = tiny ? 4 : 8;
  config.n_epochs = 2;
  config.push_interval = interval;
  config.delta_push = delta_push;
  SeedSgdDataset(cluster.kvs(), config);
  (void)RegisterSgdFunctions(cluster.registry());
  SgdPoint point;
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    auto result = RunSgdTraining(frontend, config);
    point.loss = result.ok() ? result.value() : -1;
    point.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });
  point.network_mb = static_cast<double>(cluster.network_bytes()) / 1e6;
  return point;
}

void PushIntervalAblation(bool tiny, StateTier tier, BenchResults& results) {
  PrintHeader("Ablation 1: push interval x delta-vs-full push (SGD weight vector)");
  std::printf("[tier=%s]\n", tier == StateTier::kSharded ? "sharded" : "central");
  std::printf("%14s | %12s %12s %12s | %12s %12s %12s | %8s\n", "push interval",
              "delta (MB)", "time (ms)", "loss", "full (MB)", "time (ms)", "loss",
              "MB saved");
  const std::vector<uint32_t> intervals =
      tiny ? std::vector<uint32_t>{1u, 16u} : std::vector<uint32_t>{1u, 4u, 16u, 64u, 256u};
  for (uint32_t interval : intervals) {
    DeltaRow row;
    row.interval = interval;
    row.delta = RunSgdOnce(tiny, interval, /*delta_push=*/true, tier);
    row.full = RunSgdOnce(tiny, interval, /*delta_push=*/false, tier);
    results.delta_rows.push_back(row);
    std::printf("%14u | %12.1f %12.0f %12.4f | %12.1f %12.0f %12.4f | %7.0f%%\n", interval,
                row.delta.network_mb, row.delta.seconds * 1e3, row.delta.loss,
                row.full.network_mb, row.full.seconds * 1e3, row.full.loss,
                row.full.network_mb > 0
                    ? 100.0 * (row.full.network_mb - row.delta.network_mb) / row.full.network_mb
                    : 0.0);
  }
  std::printf("(delta pushes ship only dirtied weight pages as one batched multi-range\n"
              " write; larger intervals trade weight freshness for traffic either way)\n");
}

void ChunkAblation(bool tiny, StateTier tier) {
  PrintHeader("Ablation 2: chunked vs full state pulls (Fig. 4 state chunks)");
  std::printf("[tier=%s]\n", tier == StateTier::kSharded ? "sharded" : "central");
  // One big matrix; 16 workers each touch a 1/16 column slice.
  const size_t rows = tiny ? 64 : 256;
  const size_t cols = tiny ? 1024 : 4096;
  const size_t matrix_bytes = rows * cols * sizeof(double);

  for (bool chunked : {true, false}) {
    ClusterConfig cluster_config;
    cluster_config.hosts = 4;
    cluster_config.state_tier = tier;
    FaasmCluster cluster(cluster_config);
    std::vector<double> matrix(rows * cols, 1.0);
    const auto* p = reinterpret_cast<const uint8_t*>(matrix.data());
    cluster.kvs().Set("big", Bytes(p, p + matrix_bytes));

    (void)cluster.registry().RegisterNative(
        "touch", [rows, cols, chunked](InvocationContext& ctx) {
          ByteReader reader(ctx.Input());
          auto slice = reader.Get<uint32_t>();
          ReadOnlyMatrix<double> m(&ctx.state(), "big", rows, cols);
          if (!m.Init().ok()) {
            return 1;
          }
          const size_t per_slice = cols / 16;
          Status pull = chunked
                            ? m.PullColumns(slice.value() * per_slice,
                                            (slice.value() + 1) * per_slice)
                            : m.PullColumns(0, cols);  // full-value pull
          if (!pull.ok()) {
            return 2;
          }
          double sum = 0;
          for (size_t c = slice.value() * per_slice; c < (slice.value() + 1) * per_slice; ++c) {
            sum += m.At(0, c);
          }
          return sum > 0 ? 0 : 3;
        });

    cluster.Run([&](Frontend& frontend) {
      std::vector<uint64_t> ids;
      for (uint32_t slice = 0; slice < 16; ++slice) {
        Bytes input;
        ByteWriter writer(input);
        writer.Put<uint32_t>(slice);
        auto id = frontend.Submit("touch", std::move(input));
        if (id.ok()) {
          ids.push_back(id.value());
        }
      }
      for (uint64_t id : ids) {
        (void)frontend.Await(id);
      }
    });
    std::printf("%-18s network %8.1f MB  (matrix is %.1f MB; 4 hosts)\n",
                chunked ? "chunked pulls:" : "full pulls:",
                static_cast<double>(cluster.network_bytes()) / 1e6, matrix_bytes / 1e6);
  }
  std::printf("(chunked pulls replicate only the columns a worker touches)\n");
}

void TierAblation(bool tiny, std::optional<StateTier> only, BenchResults& results) {
  PrintHeader("Ablation 3: centralised vs sharded global tier (SGD, same workload)");
  std::printf("%10s | %12s %12s %12s\n", "tier", "net (MB)", "time (ms)", "loss");
  // Production path: delta pushes at the default interval.
  constexpr uint32_t kInterval = 16;
  if (!only.has_value() || *only == StateTier::kCentral) {
    const SgdPoint central = RunSgdOnce(tiny, kInterval, /*delta_push=*/true, StateTier::kCentral);
    results.tier_central = central;
    std::printf("%10s | %12.1f %12.0f %12.4f\n", "central", central.network_mb,
                central.seconds * 1e3, central.loss);
  }
  if (!only.has_value() || *only == StateTier::kSharded) {
    const SgdPoint sharded = RunSgdOnce(tiny, kInterval, /*delta_push=*/true, StateTier::kSharded);
    results.tier_sharded = sharded;
    std::printf("%10s | %12.1f %12.0f %12.4f\n", "sharded", sharded.network_mb,
                sharded.seconds * 1e3, sharded.loss);
  }
  if (results.tier_central && results.tier_sharded && results.tier_central->network_mb > 0) {
    // Loss is "no worse", not "equal": affinity placement also changes which
    // hosts the workers land on (often converging better, as all workers
    // share one in-memory replica).
    std::printf("(sharding + master-affinity placement removes %.0f%% of the cross-host\n"
                " tier traffic at %s final loss: master-local push/pull are in-process)\n",
                100.0 *
                    (results.tier_central->network_mb - results.tier_sharded->network_mb) /
                    results.tier_central->network_mb,
                results.tier_sharded->loss <= results.tier_central->loss * 1.05
                    ? "no-worse"
                    : "DEGRADED");
  }
}

void BatchAblation(bool tiny, std::optional<bool> only, BenchResults& results) {
  PrintHeader("Ablation 4: batched vs unbatched state pushes (multi-key pushes)");
  std::printf("%10s | %10s %12s %12s %8s\n", "protocol", "tier RPCs", "net (MB)",
              "time (ms)", "lost");
  auto row = [&](bool batched) {
    const BatchMicroPoint point = RunStateBatchMicro(BatchMicroConfig::ForScale(tiny, batched));
    PrintBatchMicroRow(batched ? "batched" : "unbatched", point);
    return point;
  };
  if (!only.has_value() || *only) {
    results.batch_on = row(true);
  }
  if (!only.has_value() || !*only) {
    results.batch_off = row(false);
  }
  if (results.batch_on && results.batch_off && results.batch_off->tier_rpcs > 0) {
    std::printf("(grouping each step's cross-shard pushes into per-endpoint kBatch RPCs\n"
                " removes %.0f%% of the tier round trips at %s loss)\n",
                100.0 *
                    static_cast<double>(results.batch_off->tier_rpcs -
                                        results.batch_on->tier_rpcs) /
                    static_cast<double>(results.batch_off->tier_rpcs),
                results.batch_on->lost_updates == 0 ? "zero" : "NONZERO");
  }
}

void WritePoint(std::FILE* f, const char* name, const SgdPoint& p, const char* suffix) {
  std::fprintf(f, "    \"%s\": {\"network_mb\": %.3f, \"seconds\": %.4f, \"loss\": %.5f}%s\n",
               name, p.network_mb, p.seconds, p.loss, suffix);
}

// Writes the perf-trajectory artifact (CI uploads it as BENCH_state.json).
bool WriteJson(const std::string& path, const BenchResults& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_state\",\n  \"tiny\": %s,\n",
               results.tiny ? "true" : "false");
  std::fprintf(f, "  \"delta_push\": [\n");
  for (size_t i = 0; i < results.delta_rows.size(); ++i) {
    const DeltaRow& row = results.delta_rows[i];
    std::fprintf(f, "    {\"push_interval\": %u,\n", row.interval);
    WritePoint(f, "delta", row.delta, ",");
    WritePoint(f, "full", row.full, "");
    std::fprintf(f, "    }%s\n", i + 1 < results.delta_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tier\": {\n");
  const bool both = results.tier_central.has_value() && results.tier_sharded.has_value();
  if (results.tier_central) {
    WritePoint(f, "central", *results.tier_central, both ? "," : "");
  }
  if (results.tier_sharded) {
    WritePoint(f, "sharded", *results.tier_sharded, "");
  }
  std::fprintf(f, "  },\n  \"batch\": {\n");
  const bool both_batch = results.batch_on.has_value() && results.batch_off.has_value();
  if (results.batch_on) {
    WriteBatchMicroPointJson(f, "batched", *results.batch_on, both_batch ? "," : "");
  }
  if (results.batch_off) {
    WriteBatchMicroPointJson(f, "unbatched", *results.batch_off, "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  bool tiny = false;
  std::optional<faasm::StateTier> tier_flag;
  std::optional<bool> batch_flag;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--tier=central") {
      tier_flag = faasm::StateTier::kCentral;
    } else if (arg == "--tier=sharded") {
      tier_flag = faasm::StateTier::kSharded;
    } else if (arg == "--batch=on") {
      batch_flag = true;
    } else if (arg == "--batch=off") {
      batch_flag = false;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tiny] [--tier=central|sharded] [--batch=on|off] "
                   "[--json <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  faasm::BenchResults results;
  results.tiny = tiny;
  // Ablations 1/2 default to the central tier so their deltas stay visible
  // (under sharding, master-local syncs are free and both columns collapse).
  const faasm::StateTier base_tier = tier_flag.value_or(faasm::StateTier::kCentral);
  faasm::PushIntervalAblation(tiny, base_tier, results);
  faasm::ChunkAblation(tiny, base_tier);
  faasm::TierAblation(tiny, tier_flag, results);
  faasm::BatchAblation(tiny, batch_flag, results);
  if (!json_path.empty() && !faasm::WriteJson(json_path, results)) {
    return 1;
  }
  return 0;
}

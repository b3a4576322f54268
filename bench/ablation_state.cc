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
// Each SGD cell of ablations 1 and 3 runs 5 times at the same seed and size,
// because hogwild SGD's final loss varies from run to run; a loss is printed
// as its median and range, and two losses compare as "unresolved" while
// their ranges overlap. The batched-vs-unbatched push columns are
// fig9_micro --state-batch.
//
// Flags:
//   --tiny           seconds-scale smoke configuration (CI)
//   --tier=central, --tier=sharded
//                    force the global-tier layout for ablations 1 and 2
//                    and restrict ablation 3 to that column (default:
//                    central for 1/2 so the delta-vs-full and chunk deltas
//                    stay visible, both columns for 3)
//   --json <path>    write the measured delta-push and tier columns (the
//                    medians, and every run's loss) as JSON (the CI perf
//                    artifact BENCH_state.json)
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
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

// Hogwild SGD's final loss varies from run to run at the same seed (worker
// interleavings differ), so each cell runs kRuns times: the network and time
// columns are medians, and the loss is reported as its median and range.
constexpr int kRuns = 5;

struct SgdCell {
  std::vector<SgdPoint> runs;

  double Median(double SgdPoint::*field) const {
    std::vector<double> values;
    for (const SgdPoint& run : runs) {
      values.push_back(run.*field);
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  }
  static bool ByLoss(const SgdPoint& a, const SgdPoint& b) { return a.loss < b.loss; }
  double MinLoss() const { return std::min_element(runs.begin(), runs.end(), ByLoss)->loss; }
  double MaxLoss() const { return std::max_element(runs.begin(), runs.end(), ByLoss)->loss; }
  // "median [min-max]".
  std::string Loss() const {
    char text[64];
    std::snprintf(text, sizeof(text), "%.3f [%.3f-%.3f]", Median(&SgdPoint::loss), MinLoss(),
                  MaxLoss());
    return text;
  }
};

// How `candidate`'s losses compare with `baseline`'s: "unresolved" while the
// two ranges overlap, else "no-worse" or "worse".
const char* LossVerdict(const SgdCell& candidate, const SgdCell& baseline) {
  if (candidate.MaxLoss() < baseline.MinLoss()) {
    return "no-worse";
  }
  if (candidate.MinLoss() > baseline.MaxLoss()) {
    return "worse";
  }
  return "unresolved";
}

struct DeltaRow {
  uint32_t interval = 0;
  SgdCell delta;
  SgdCell full;
};

// Collected results for --json.
struct BenchResults {
  bool tiny = false;
  std::vector<DeltaRow> delta_rows;
  std::optional<SgdCell> tier_central;
  std::optional<SgdCell> tier_sharded;
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

SgdCell RunSgdCell(bool tiny, uint32_t interval, bool delta_push, StateTier tier) {
  SgdCell cell;
  for (int run = 0; run < kRuns; ++run) {
    cell.runs.push_back(RunSgdOnce(tiny, interval, delta_push, tier));
  }
  return cell;
}

void PushIntervalAblation(bool tiny, StateTier tier, BenchResults& results) {
  PrintHeader("Ablation 1: push interval x delta-vs-full push (SGD weight vector)");
  std::printf("[tier=%s]\n", tier == StateTier::kSharded ? "sharded" : "central");
  std::printf("%14s | %12s %12s %21s | %12s %12s %21s | %8s | %10s\n", "push interval",
              "delta (MB)", "time (ms)", "loss [min-max]", "full (MB)", "time (ms)",
              "loss [min-max]", "MB saved", "delta loss");
  const std::vector<uint32_t> intervals =
      tiny ? std::vector<uint32_t>{1u, 16u} : std::vector<uint32_t>{1u, 4u, 16u, 64u, 256u};
  for (uint32_t interval : intervals) {
    DeltaRow row;
    row.interval = interval;
    row.delta = RunSgdCell(tiny, interval, /*delta_push=*/true, tier);
    row.full = RunSgdCell(tiny, interval, /*delta_push=*/false, tier);
    results.delta_rows.push_back(row);
    const double delta_mb = row.delta.Median(&SgdPoint::network_mb);
    const double full_mb = row.full.Median(&SgdPoint::network_mb);
    std::printf("%14u | %12.1f %12.0f %21s | %12.1f %12.0f %21s | %7.0f%% | %10s\n", interval,
                delta_mb, row.delta.Median(&SgdPoint::seconds) * 1e3, row.delta.Loss().c_str(),
                full_mb, row.full.Median(&SgdPoint::seconds) * 1e3, row.full.Loss().c_str(),
                full_mb > 0 ? 100.0 * (full_mb - delta_mb) / full_mb : 0.0,
                LossVerdict(row.delta, row.full));
  }
  std::printf("(delta pushes ship only dirtied weight pages as one batched multi-range\n"
              " write; larger intervals trade weight freshness for traffic either way;\n"
              " each cell is the median of %d runs, and a loss verdict is unresolved\n"
              " while the two ranges overlap)\n",
              kRuns);
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
  std::printf("%10s | %12s %12s %21s\n", "tier", "net (MB)", "time (ms)", "loss [min-max]");
  // Production path: delta pushes at the default interval.
  constexpr uint32_t kInterval = 16;
  auto print = [](const char* name, const SgdCell& cell) {
    std::printf("%10s | %12.1f %12.0f %21s\n", name, cell.Median(&SgdPoint::network_mb),
                cell.Median(&SgdPoint::seconds) * 1e3, cell.Loss().c_str());
  };
  if (!only.has_value() || *only == StateTier::kCentral) {
    results.tier_central = RunSgdCell(tiny, kInterval, /*delta_push=*/true, StateTier::kCentral);
    print("central", *results.tier_central);
  }
  if (!only.has_value() || *only == StateTier::kSharded) {
    results.tier_sharded = RunSgdCell(tiny, kInterval, /*delta_push=*/true, StateTier::kSharded);
    print("sharded", *results.tier_sharded);
  }
  if (results.tier_central && results.tier_sharded) {
    const double central_mb = results.tier_central->Median(&SgdPoint::network_mb);
    const double sharded_mb = results.tier_sharded->Median(&SgdPoint::network_mb);
    // Loss is compared, not equated: affinity placement also changes which
    // hosts the workers land on (often converging better, as all workers
    // share one in-memory replica).
    std::printf("(sharding + master-affinity placement removes %.0f%% of the cross-host\n"
                " tier traffic at %s final loss: master-local push/pull are in-process)\n",
                central_mb > 0 ? 100.0 * (central_mb - sharded_mb) / central_mb : 0.0,
                LossVerdict(*results.tier_sharded, *results.tier_central));
  }
}

// One cell: the median columns, then every run's loss.
void WriteCell(std::FILE* f, const char* name, const SgdCell& cell, const char* suffix) {
  std::fprintf(f, "    \"%s\": {\"network_mb\": %.3f, \"seconds\": %.4f, \"loss\": %.5f, ",
               name, cell.Median(&SgdPoint::network_mb), cell.Median(&SgdPoint::seconds),
               cell.Median(&SgdPoint::loss));
  std::fprintf(f, "\"losses\": [");
  for (size_t i = 0; i < cell.runs.size(); ++i) {
    std::fprintf(f, "%s%.5f", i == 0 ? "" : ", ", cell.runs[i].loss);
  }
  std::fprintf(f, "]}%s\n", suffix);
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
    WriteCell(f, "delta", row.delta, ",");
    WriteCell(f, "full", row.full, "");
    std::fprintf(f, "    }%s\n", i + 1 < results.delta_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tier\": {\n");
  const bool both = results.tier_central.has_value() && results.tier_sharded.has_value();
  if (results.tier_central) {
    WriteCell(f, "central", *results.tier_central, both ? "," : "");
  }
  if (results.tier_sharded) {
    WriteCell(f, "sharded", *results.tier_sharded, "");
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
  bool central = false;
  bool sharded = false;
  std::string json_path;
  faasm::FlagTable flags;
  flags.AddBool("--tiny", &tiny, "seconds-scale smoke configuration (CI)");
  flags.AddBool("--tier=central", &central,
                "central tier for ablations 1/2; ablation 3 runs only it");
  flags.AddBool("--tier=sharded", &sharded,
                "sharded tier for ablations 1/2; ablation 3 runs only it");
  flags.AddString("--json", &json_path, "write the delta-push and tier columns as JSON");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (central && sharded) {
    std::fprintf(stderr, "%s: --tier=central and --tier=sharded are exclusive\n", argv[0]);
    flags.PrintUsage(argv[0]);
    return 2;
  }
  std::optional<faasm::StateTier> tier_flag;
  if (central || sharded) {
    tier_flag = central ? faasm::StateTier::kCentral : faasm::StateTier::kSharded;
  }

  faasm::BenchResults results;
  results.tiny = tiny;
  // Ablations 1/2 default to the central tier so their deltas stay visible
  // (under sharding, master-local syncs are free and both columns collapse).
  const faasm::StateTier base_tier = tier_flag.value_or(faasm::StateTier::kCentral);
  faasm::PushIntervalAblation(tiny, base_tier, results);
  faasm::ChunkAblation(tiny, base_tier);
  faasm::TierAblation(tiny, tier_flag, results);
  if (!json_path.empty() && !faasm::WriteJson(json_path, results)) {
    return 1;
  }
  return 0;
}

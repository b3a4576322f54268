// train: HOGWILD SGD through RunSgdTraining, 4 workers on 4x4 hosts, on an
// RCV1-shaped dataset (65536 examples, 16384 features, 32 non-zeros each).
// The unit is one epoch. Write-heavy state traffic — batched delta weight
// pushes plus column pulls — with only 5 calls per epoch and no wasm. The
// library's placement and batching are kept: the weights' affinity puts all
// four workers on the master host, so the pushes take the shard-local path.
// Every call must return 0, and each episode's final loss must be finite and
// at most half its first epoch's.
#include <cmath>

#include "bench/faasm_bench/workloads.h"
#include "workloads/sgd.h"

namespace faasm::bench {

RunResult RunTrain(const Options& options, Trace* trace) {
  SgdConfig config;
  config.n_examples = options.tiny ? 4096 : 65536;
  config.n_features = options.tiny ? 2048 : 16384;
  config.nnz_per_example = 32;
  config.n_workers = 4;
  config.n_epochs = 1;  // one RunSgdTraining call per measured epoch
  const int epochs = options.tiny ? 4 : 40;

  Tally plain, traced;
  RunResult result;
  EpisodeClock episodes(options);
  for (int episode = 0; episodes.StartNext(); ++episode) {
    const bool traced_episode = EpisodeTraced(options, episode);
    Tally& tally = traced_episode ? traced : plain;
    config.seed = EpisodeSeed(options.seed, episode);

    Stopwatch setup_watch;
    FaasmCluster cluster;
    SeedSgdDataset(cluster.kvs(), config);
    const std::string matrix = kSgdMatrixKey;
    PresizeReplicas(cluster, {matrix + ":vals", matrix + ":rows", matrix + ":cols",
                              kSgdLabelsKey, kSgdWeightsKey});
    CallProbe probe(&cluster);
    FunctionOptions affinity;  // as RegisterSgdFunctions
    affinity.state_affinity_key = kSgdWeightsKey;
    if (traced_episode) {
      (void)cluster.registry().RegisterNative("sgd_update", probe.Wrap(SgdUpdateFunction),
                                              affinity);
      (void)cluster.registry().RegisterNative("sgd_loss", probe.Wrap(SgdLossFunction), affinity);
    } else {
      (void)RegisterSgdFunctions(cluster.registry());
    }

    // The first epoch (cold starts, first column pulls) is set-up; its loss
    // is the reference the final loss must halve.
    Result<double> first_loss = Internal("not run");
    Result<double> loss = Internal("not run");
    std::vector<double> epoch_ms;
    std::vector<ClientCall> calls;
    TimeNs phase_start = 0;
    Counters before;
    double wall_s = 0;
    cluster.Run([&](Frontend& frontend) {
      first_loss = RunSgdTraining(frontend, config);
      tally.setup_s.Add(static_cast<double>(setup_watch.ElapsedNs()) / 1e9);

      before = ReadCounters(cluster);
      phase_start = cluster.clock().Now();
      Stopwatch wall;
      RecordingClient client(frontend, cluster.clock());
      for (int e = 0; e < epochs && first_loss.ok(); ++e) {
        const TimeNs start = cluster.clock().Now();
        loss = RunSgdTraining(client, config);
        tally.attempted += 1;
        if (!loss.ok()) {
          tally.failed += 1;
          break;
        }
        epoch_ms.push_back(static_cast<double>(cluster.clock().Now() - start) / 1e6);
      }
      wall_s = static_cast<double>(wall.ElapsedNs()) / 1e9;
      calls = std::move(client.calls);
    });
    tally.virtual_s += static_cast<double>(cluster.clock().Now() - phase_start) / 1e9;
    tally.counters += Delta(ReadCounters(cluster), before);
    tally.work += static_cast<double>(epoch_ms.size()) * config.n_examples;
    tally.generator.inflight_max = config.n_workers;  // closed loop: one epoch's workers

    const bool converged = first_loss.ok() && loss.ok() && std::isfinite(loss.value()) &&
                           loss.value() <= 0.5 * first_loss.value();
    if (!converged) {
      std::fprintf(stderr, "train: episode %d: loss %s -> %s does not halve\n", episode,
                   first_loss.ok() ? std::to_string(first_loss.value()).c_str() : "error",
                   loss.ok() ? std::to_string(loss.value()).c_str() : "error");
      result.correct = false;
    }
    std::map<uint64_t, TimeNs> awaited;
    for (const ClientCall& call : calls) {
      awaited[call.call_id] = call.done;
    }
    probe.DrainInto(&tally);
    AddCallRecords(cluster, phase_start, awaited, &tally);
    tally.EndEpisode(epoch_ms, wall_s, epoch_ms.size());
    if (traced_episode && trace != nullptr) {
      AddRequestSpans(cluster, episode, calls, probe.TakeFrames(), {}, trace);
    }
  }
  AddCommonMetrics(plain, options.traced ? &traced : nullptr, 90, &result);
  return result;
}

}  // namespace faasm::bench

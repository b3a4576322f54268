// matmul: RunMatmul's divide-and-conquer multiply, n=256 with two split
// levels — 82 chained calls per job (9 divides, 64 leaf multiplies, 9
// merges), three levels deep, moving ~2.6 MB of large values. Closed loop with one client. Chain, await and dispatch sit
// on the critical path. Every episode builds a fresh cluster and runs one
// untimed warm-up job, because one cluster's placement luck moves the
// median by a fifth. Every job's C must equal a reference computed during
// set-up.
#include <cmath>
#include <cstring>

#include "bench/faasm_bench/workloads.h"
#include "workloads/matmul.h"

namespace faasm::bench {
namespace {

std::vector<double> ReadMatrix(FaasmCluster& cluster, const std::string& key) {
  auto bytes = cluster.kvs().Get(key);
  if (!bytes.ok()) {
    return {};
  }
  std::vector<double> out(bytes.value().size() / sizeof(double));
  std::memcpy(out.data(), bytes.value().data(), out.size() * sizeof(double));
  return out;
}

bool MatchesReference(const std::vector<double>& c, const std::vector<double>& reference) {
  if (c.size() != reference.size()) {
    return false;
  }
  for (size_t i = 0; i < c.size(); ++i) {
    // Leaves and merges sum in a different order than the reference loop.
    if (!(std::fabs(c[i] - reference[i]) <= 1e-9)) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunMatmul(const Options& options, Trace* trace) {
  MatmulConfig config;
  config.n = options.tiny ? 64 : 256;
  config.split_levels = 2;
  const int jobs = options.tiny ? 3 : 30;

  Tally plain, traced;
  RunResult result;
  EpisodeClock episodes(options);
  for (int episode = 0; episodes.StartNext(); ++episode) {
    const bool traced_episode = EpisodeTraced(options, episode);
    Tally& tally = traced_episode ? traced : plain;
    config.seed = EpisodeSeed(options.seed, episode);

    Stopwatch setup_watch;
    FaasmCluster cluster;
    SeedMatmulInputs(cluster.kvs(), config);
    PresizeReplicas(cluster, {kMatmulAKey, kMatmulBKey});
    const std::vector<double> reference = ReferenceMatmul(
        ReadMatrix(cluster, kMatmulAKey), ReadMatrix(cluster, kMatmulBKey), config.n);
    CallProbe probe(&cluster);
    if (traced_episode) {
      (void)cluster.registry().RegisterNative("mm_div", probe.Wrap(MatmulDivideFunction));
      (void)cluster.registry().RegisterNative("mm_merge", probe.Wrap(MatmulMergeFunction));
    } else {
      (void)RegisterMatmulFunctions(cluster.registry());
    }

    std::vector<double> job_ms;
    std::vector<ClientCall> calls;
    TimeNs phase_start = 0;
    Counters before;
    double wall_s = 0;
    bool all_correct = true;
    cluster.Run([&](Frontend& frontend) {
      RecordingClient warm(frontend, cluster.clock());
      auto warm_job = RunMatmul(warm, config);
      all_correct =
          warm_job.ok() && MatchesReference(ReadMatrix(cluster, warm_job.value()), reference);
      tally.setup_s.Add(static_cast<double>(setup_watch.ElapsedNs()) / 1e9);

      before = ReadCounters(cluster);
      phase_start = cluster.clock().Now();
      Stopwatch wall;
      RecordingClient client(frontend, cluster.clock());
      for (int j = 0; j < jobs; ++j) {
        const TimeNs start = cluster.clock().Now();
        auto job = RunMatmul(client, config);
        const TimeNs end = cluster.clock().Now();
        // The check reads C outside the system, so it costs no virtual time.
        Stopwatch check_watch;
        const bool correct =
            job.ok() && MatchesReference(ReadMatrix(cluster, job.value()), reference);
        wall_s -= static_cast<double>(check_watch.ElapsedNs()) / 1e9;
        tally.attempted += 1;
        if (!correct) {
          tally.failed += 1;
          continue;
        }
        job_ms.push_back(static_cast<double>(end - start) / 1e6);
      }
      wall_s += static_cast<double>(wall.ElapsedNs()) / 1e9;
      calls = std::move(client.calls);
    });
    if (!all_correct) {
      std::fprintf(stderr, "matmul: episode %d: warm-up job failed\n", episode);
      result.correct = false;
    }
    tally.virtual_s += static_cast<double>(cluster.clock().Now() - phase_start) / 1e9;
    tally.counters += Delta(ReadCounters(cluster), before);
    tally.work += static_cast<double>(job_ms.size());
    tally.generator.inflight_max = 1;  // closed loop, one job at a time

    std::map<uint64_t, TimeNs> awaited;
    for (const ClientCall& call : calls) {
      awaited[call.call_id] = call.done;
    }
    probe.DrainInto(&tally);
    AddCallRecords(cluster, phase_start, awaited, &tally);
    tally.EndEpisode(job_ms, wall_s, job_ms.size());
    if (traced_episode && trace != nullptr) {
      AddRequestSpans(cluster, episode, calls, probe.TakeFrames(), {}, trace);
    }
  }
  AddCommonMetrics(plain, options.traced ? &traced : nullptr, 90, &result);
  return result;
}

}  // namespace faasm::bench

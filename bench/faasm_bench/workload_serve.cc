// serve: open-loop inference on the wasm MLP (BuildMlpWasmModule), 4x4
// hosts, a 64-user pool pre-warmed during set-up. Poisson arrivals in two
// phases: lo at 100 req/s, then hi at 300 req/s. 2% of requests go to a
// never-seen user function and cold-start. Guest execution is most of a
// warm request, so the wasm, mem and core layers own this workload and the
// state tier barely runs; the hi phase exposes placement and CPU-share
// queueing. Every output class is checked against MlpReference.
#include <cmath>
#include <cstring>

#include "bench/faasm_bench/workloads.h"
#include "common/rng.h"
#include "workloads/inference.h"

namespace faasm::bench {
namespace {

constexpr int kUserPool = 64;
constexpr int kImages = 256;
constexpr double kColdFraction = 0.02;
constexpr double kLoRatePerS = 100;
constexpr double kHiRatePerS = 300;

enum class Kind { kLo, kHi, kCold };

std::string UserFunction(int user) { return "infer-u" + std::to_string(user); }

}  // namespace

RunResult RunServe(const Options& options, Trace* trace) {
  // A second of hi costs as much wall time as three of lo; the lo phase gets
  // the larger share because its p99 is an end-to-end metric.
  const double lo_s = options.tiny ? 0.5 : 6.0;
  const double hi_s = options.tiny ? 0.2 : 1.0;
  const MlpDims dims;
  std::vector<Bytes> images;
  for (int i = 0; i < kImages; ++i) {
    images.push_back(EncodeImage(SyntheticImage(dims, options.seed * kImages + i)));
  }
  Tally plain, traced;
  RunResult result;
  EpisodeClock episodes(options);
  for (int episode = 0; episodes.StartNext(); ++episode) {
    const bool traced_episode = EpisodeTraced(options, episode);
    Tally& tally = traced_episode ? traced : plain;

    // Inputs first: the cold functions need names before upload.
    Rng rng(EpisodeSeed(options.seed, episode));
    std::vector<double> times;
    for (double t = rng.NextExponential(1.0 / kLoRatePerS); t < lo_s + hi_s;
         t += rng.NextExponential(1.0 / (t >= lo_s ? kHiRatePerS : kLoRatePerS))) {
      times.push_back(t);
    }
    // Exactly kColdFraction of the requests cold-start, at seed-chosen
    // positions. A coin flip per request would let the cold count, and with
    // it the snapshot bytes every cold start publishes, vary by ±12%.
    std::vector<bool> cold(times.size(), false);
    for (long placed = 0; placed < std::lround(kColdFraction * static_cast<double>(times.size()));) {
      const size_t i = rng.NextBelow(times.size());
      placed += cold[i] ? 0 : 1;
      cold[i] = true;
    }
    std::vector<Arrival> arrivals;
    std::vector<Kind> kinds;
    std::vector<int> image_of;
    int cold_functions = 0;
    for (size_t i = 0; i < times.size(); ++i) {
      const int image = static_cast<int>(rng.NextBelow(kImages));
      const std::string function =
          cold[i] ? "infer-c" + std::to_string(cold_functions++)
                  : UserFunction(static_cast<int>(rng.NextBelow(kUserPool)));
      arrivals.push_back({static_cast<TimeNs>(times[i] * 1e9), function, images[image]});
      kinds.push_back(cold[i] ? Kind::kCold : (times[i] >= lo_s ? Kind::kHi : Kind::kLo));
      image_of.push_back(image);
    }

    Stopwatch setup_watch;
    FaasmCluster cluster;
    SeedMlpWeights(cluster.kvs(), dims, options.seed);
    std::vector<uint32_t> expected;
    for (int i = 0; i < kImages; ++i) {
      expected.push_back(
          MlpReference(cluster.kvs(), dims, SyntheticImage(dims, options.seed * kImages + i)));
    }
    auto module = BuildMlpWasmModule(dims);
    if (!module.ok()) {
      std::fprintf(stderr, "serve: module build failed: %s\n",
                   module.status().ToString().c_str());
      result.correct = false;
      break;
    }
    for (int user = 0; user < kUserPool; ++user) {
      (void)cluster.registry().RegisterWasm(UserFunction(user), module.value());
    }
    for (int i = 0; i < cold_functions; ++i) {
      (void)cluster.registry().RegisterWasm("infer-c" + std::to_string(i), module.value());
    }
    auto output_ok = [&](const Bytes& output, int image) {
      uint32_t label = ~0u;
      if (output.size() == sizeof(label)) {
        std::memcpy(&label, output.data(), sizeof(label));
      }
      return label == expected[image];
    };
    bool warm_ok = true;
    cluster.Run([&](Frontend& frontend) {
      for (int user = 0; user < kUserPool; ++user) {
        const int image = user % kImages;
        auto id = frontend.Submit(UserFunction(user), images[image]);
        auto code = id.ok() ? frontend.Await(id.value()) : Result<int>(id.status());
        warm_ok = warm_ok && code.ok() && code.value() == 0 &&
                  output_ok(frontend.Output(id.value()).value(), image);
      }
    });
    tally.setup_s.Add(static_cast<double>(setup_watch.ElapsedNs()) / 1e9);
    if (!warm_ok) {
      std::fprintf(stderr, "serve: episode %d: pre-warm failed\n", episode);
      result.correct = false;
    }

    const Counters before = ReadCounters(cluster);
    const TimeNs phase_start = cluster.clock().Now();
    Stopwatch wall;
    std::vector<Outcome> outcomes = RunOpenLoop(cluster, arrivals, &tally.generator);
    const double wall_s = static_cast<double>(wall.ElapsedNs()) / 1e9;
    tally.virtual_s += static_cast<double>(cluster.clock().Now() - phase_start) / 1e9;
    tally.counters += Delta(ReadCounters(cluster), before);

    std::vector<double> lo_ms;
    std::map<uint64_t, TimeNs> awaited;
    std::vector<ClientCall> calls;
    uint64_t failed = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& out = outcomes[i];
      if (!out.ok || !output_ok(out.output, image_of[i])) {
        ++failed;
        continue;
      }
      const double ms = static_cast<double>(out.done - out.due) / 1e6;
      switch (kinds[i]) {
        case Kind::kLo: lo_ms.push_back(ms); break;
        case Kind::kHi: tally.hi_latency_ms.Add(ms); break;
        case Kind::kCold: tally.cold_latency_ms.Add(ms); break;
      }
      awaited[out.call_id] = out.done;
      calls.push_back({out.call_id, HashBytes(arrivals[i].input), out.due, out.done});
    }
    tally.attempted += outcomes.size();
    tally.failed += failed;
    tally.work += static_cast<double>(outcomes.size() - failed);
    AddCallRecords(cluster, phase_start, awaited, &tally);
    tally.EndEpisode(lo_ms, wall_s, outcomes.size() - failed);
    if (traced_episode && trace != nullptr) {
      AddRequestSpans(cluster, episode, calls, {}, {}, trace);
    }
  }
  AddCommonMetrics(plain, options.traced ? &traced : nullptr, 99, &result);
  auto add = [&](const char* name, const Summary& samples, double p) {
    result.metrics.push_back({name, Percentile(samples, p), "ms", Source::kVirtual});
  };
  add("hi.p50_ms", plain.hi_latency_ms, 50);
  add("hi.tail_ms", plain.hi_latency_ms, 99);
  add("cold_p50_ms", plain.cold_latency_ms, 50);
  return result;
}

}  // namespace faasm::bench

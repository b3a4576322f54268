// kv: reads beside writes through the whole state read path. 4x4 hosts,
// replication factor 2 in sync mode, replica reads on and the read cache off
// (the defaults). Each request runs one native function owned by the
// benchmark: it prefetches 4 catalog values drawn Zipf(0.9) from 256 x 8 KiB
// keys, checksums them, and appends a 16-byte record (request id,
// checksum) to its user's log, a write that is forwarded synchronously to
// the backup. The function computes almost nothing, so the state tier, the
// replication forward and the runtime's polling quanta own the latency —
// the opposite mix to train.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench/faasm_bench/workloads.h"
#include "common/rng.h"

namespace faasm::bench {
namespace {

constexpr int kCatalogKeys = 256;
constexpr size_t kValueBytes = 8 * 1024;
constexpr int kUsers = 256;
constexpr int kKeysPerRequest = 4;
constexpr double kZipfExponent = 0.9;
constexpr double kRatePerS = 1000;
constexpr int kWarmupRequests = 16;

std::string CatalogKey(uint32_t index) { return "cat:" + std::to_string(index); }
std::string UserKey(uint32_t user) { return "user:" + std::to_string(user); }

uint64_t Combine(uint64_t checksum, uint64_t value_hash) {
  return checksum * 0x100000001B3ull ^ value_hash;
}

// Popularity rank r is key cat:<r-1> for every seed: which shard masters the
// hottest keys decides how many reads cross the network, and letting the
// seed move them would make runs of different seeds measure different
// workloads.
struct Catalog {
  std::vector<Bytes> values;
  std::vector<uint64_t> hashes;
  std::vector<double> zipf_cdf;  // over popularity ranks
};

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  Rng rng(seed);
  for (int i = 0; i < kCatalogKeys; ++i) {
    Bytes value(kValueBytes);
    for (size_t b = 0; b < kValueBytes; b += 8) {
      const uint64_t word = rng.NextU64();
      std::memcpy(value.data() + b, &word, 8);
    }
    catalog.hashes.push_back(HashBytes(value));
    catalog.values.push_back(std::move(value));
  }
  double total = 0;
  for (int rank = 1; rank <= kCatalogKeys; ++rank) {
    total += 1.0 / std::pow(rank, kZipfExponent);
    catalog.zipf_cdf.push_back(total);
  }
  for (double& c : catalog.zipf_cdf) {
    c /= total;
  }
  return catalog;
}

struct Request {
  uint64_t id = 0;
  uint32_t user = 0;
  std::vector<uint32_t> keys;
  uint64_t expected = 0;
};

Request DrawRequest(const Catalog& catalog, uint64_t id, Rng& rng) {
  Request request;
  request.id = id;
  request.user = static_cast<uint32_t>(rng.NextBelow(kUsers));
  while (request.keys.size() < kKeysPerRequest) {
    const double u = rng.NextDouble();
    const auto rank = std::lower_bound(catalog.zipf_cdf.begin(), catalog.zipf_cdf.end(), u) -
                      catalog.zipf_cdf.begin();
    const uint32_t key = static_cast<uint32_t>(std::min<long>(rank, kCatalogKeys - 1));
    if (std::find(request.keys.begin(), request.keys.end(), key) == request.keys.end()) {
      request.keys.push_back(key);
    }
  }
  for (uint32_t key : request.keys) {
    request.expected = Combine(request.expected, catalog.hashes[key]);
  }
  return request;
}

Bytes EncodeRequest(const Request& request) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(request.id);
  writer.Put<uint32_t>(request.user);
  for (uint32_t key : request.keys) {
    writer.Put<uint32_t>(key);
  }
  return out;
}

// What the function saw, keyed by request id (the function cannot see its
// call id; the client maps request ids to calls).
struct KvProbe {
  std::mutex mutex;
  Summary prefetch_us;
  Summary append_us;
  Summary compute_us;
  std::map<uint64_t, std::vector<ExtraSpan>> spans;
};

int KvRequestFunction(InvocationContext& ctx, KvProbe* probe) {
  ByteReader reader(ctx.Input());
  auto id = reader.Get<uint64_t>();
  auto user = reader.Get<uint32_t>();
  if (!id.ok() || !user.ok()) {
    return 2;
  }
  std::vector<std::string> keys;
  for (int k = 0; k < kKeysPerRequest; ++k) {
    auto key = reader.Get<uint32_t>();
    if (!key.ok()) {
      return 2;
    }
    keys.push_back(CatalogKey(key.value()));
  }
  Clock& clock = ctx.clock();
  const TimeNs prefetch_start = clock.Now();
  if (!ctx.state().Prefetch(keys).ok()) {
    return 3;
  }
  const TimeNs compute_start = clock.Now();
  Stopwatch compute;
  uint64_t checksum = 0;
  for (const std::string& key : keys) {
    auto value = ctx.state().Lookup(key);
    if (!value->allocated() || value->size() != kValueBytes) {
      return 4;
    }
    checksum = Combine(checksum, HashBytes(value->data(), value->size()));
  }
  const TimeNs compute_ns = compute.ElapsedNs();
  ctx.ChargeCompute(compute_ns);
  Bytes record;
  ByteWriter writer(record);
  writer.Put<uint64_t>(id.value());
  writer.Put<uint64_t>(checksum);
  const TimeNs append_start = clock.Now();
  if (!ctx.state().Lookup(UserKey(user.value()))->Append(record).ok()) {
    return 5;
  }
  const TimeNs append_end = clock.Now();
  Bytes output;
  AppendScalar(output, checksum);
  ctx.WriteOutput(std::move(output));

  std::lock_guard<std::mutex> guard(probe->mutex);
  probe->prefetch_us.Add(static_cast<double>(compute_start - prefetch_start) / 1e3);
  probe->append_us.Add(static_cast<double>(append_end - append_start) / 1e3);
  probe->compute_us.Add(static_cast<double>(compute_ns) / 1e3);
  probe->spans[id.value()] = {{"state.prefetch", prefetch_start, compute_start},
                              {"core.compute", compute_start, append_start},
                              {"state.append", append_start, append_end}};
  return 0;
}

// Every acknowledged append appears exactly once in its user's log, with the
// checksum the request returned, and no log holds a record of an unknown
// or failed request. Returns the number of violations.
uint64_t CheckLogs(FaasmCluster& cluster, const std::map<uint64_t, Request>& acked,
                   const std::map<uint64_t, Request>& all) {
  std::map<uint64_t, int> seen;
  uint64_t violations = 0;
  for (uint32_t user = 0; user < kUsers; ++user) {
    auto log = cluster.kvs().Get(UserKey(user) + ":log");
    if (!log.ok()) {
      continue;  // no request for this user was acknowledged (checked below)
    }
    if (log.value().size() % 16 != 0) {
      ++violations;
      continue;
    }
    ByteReader reader(log.value());
    while (!reader.exhausted()) {
      const uint64_t id = reader.Get<uint64_t>().value();
      const uint64_t checksum = reader.Get<uint64_t>().value();
      auto it = all.find(id);
      if (it == all.end() || it->second.user != user || it->second.expected != checksum) {
        ++violations;
      }
      seen[id] += 1;
    }
  }
  for (const auto& [id, request] : acked) {
    if (seen[id] != 1) {
      ++violations;
    }
  }
  for (const auto& [id, count] : seen) {
    if (count > 1 && acked.count(id) == 0) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace

RunResult RunKv(const Options& options, Trace* trace) {
  const double phase_s = options.tiny ? 0.25 : 4.0;
  const Catalog catalog = MakeCatalog(options.seed);
  Tally plain, traced;
  RunResult result;
  EpisodeClock episodes(options);
  for (int episode = 0; episodes.StartNext(); ++episode) {
    const bool traced_episode = EpisodeTraced(options, episode);
    Tally& tally = traced_episode ? traced : plain;
    Stopwatch setup_watch;
    ClusterConfig config;
    config.replication_factor = 2;
    FaasmCluster cluster(config);
    std::vector<std::string> catalog_keys;
    for (uint32_t i = 0; i < kCatalogKeys; ++i) {
      (void)cluster.kvs().Set(CatalogKey(i), catalog.values[i]);
      catalog_keys.push_back(CatalogKey(i));
    }
    PresizeReplicas(cluster, catalog_keys);
    KvProbe probe;
    (void)cluster.registry().RegisterNative(
        "kv_request", [&probe](InvocationContext& ctx) { return KvRequestFunction(ctx, &probe); });

    Rng rng(EpisodeSeed(options.seed, episode));
    std::map<uint64_t, Request> requests;  // by request id
    std::vector<uint64_t> order;           // arrival index -> request id
    auto arrive = [&](TimeNs due, std::vector<Arrival>* arrivals) {
      Request request = DrawRequest(catalog, requests.size() + 1, rng);
      arrivals->push_back({due, "kv_request", EncodeRequest(request)});
      order.push_back(request.id);
      requests[request.id] = std::move(request);
    };
    // Warm-up: the function goes warm on every host before timing starts.
    std::vector<Arrival> warmup;
    for (int i = 0; i < kWarmupRequests; ++i) {
      arrive(i * 2 * kMillisecond, &warmup);
    }
    GeneratorHealth warmup_health;
    std::vector<Outcome> warm_outcomes = RunOpenLoop(cluster, warmup, &warmup_health);
    tally.setup_s.Add(static_cast<double>(setup_watch.ElapsedNs()) / 1e9);
    {
      std::lock_guard<std::mutex> guard(probe.mutex);
      probe.prefetch_us = Summary();
      probe.append_us = Summary();
      probe.compute_us = Summary();
    }

    std::vector<Arrival> arrivals;
    double t = 0;
    while (true) {
      t += rng.NextExponential(1.0 / kRatePerS);
      if (t >= phase_s) {
        break;
      }
      arrive(static_cast<TimeNs>(t * 1e9), &arrivals);
    }
    const Counters before = ReadCounters(cluster);
    const TimeNs phase_start = cluster.clock().Now();
    Stopwatch wall;
    std::vector<Outcome> outcomes = RunOpenLoop(cluster, arrivals, &tally.generator);
    const double wall_s = static_cast<double>(wall.ElapsedNs()) / 1e9;
    tally.virtual_s += static_cast<double>(cluster.clock().Now() - phase_start) / 1e9;
    tally.counters += Delta(ReadCounters(cluster), before);

    std::map<uint64_t, Request> acked;
    auto collect = [&](const std::vector<Outcome>& outs, size_t first) {
      for (size_t i = 0; i < outs.size(); ++i) {
        const Request& request = requests[order[first + i]];
        uint64_t checksum = 0;
        if (outs[i].ok && outs[i].output.size() == sizeof(checksum)) {
          std::memcpy(&checksum, outs[i].output.data(), sizeof(checksum));
        }
        if (outs[i].ok && checksum == request.expected) {
          acked[request.id] = request;
        }
      }
    };
    collect(warm_outcomes, 0);
    const bool warmup_ok = acked.size() == warmup.size();
    collect(outcomes, warmup.size());
    const uint64_t log_violations = CheckLogs(cluster, acked, requests);
    if (log_violations > 0 || !warmup_ok) {
      std::fprintf(stderr, "kv: episode %d: %llu log violations, warm-up %s\n", episode,
                   static_cast<unsigned long long>(log_violations), warmup_ok ? "ok" : "FAILED");
      result.correct = false;
    }

    std::vector<double> latency_ms;
    std::map<uint64_t, TimeNs> awaited;
    std::vector<ClientCall> calls;
    std::map<uint64_t, std::vector<ExtraSpan>> extra;
    uint64_t failed = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& out = outcomes[i];
      const uint64_t request_id = order[warmup.size() + i];
      if (acked.count(request_id) == 0) {
        ++failed;
        continue;
      }
      latency_ms.push_back(static_cast<double>(out.done - out.due) / 1e6);
      awaited[out.call_id] = out.done;
      calls.push_back({out.call_id, HashBytes(arrivals[i].input), out.due, out.done});
      extra[out.call_id] = probe.spans[request_id];
    }
    tally.attempted += outcomes.size();
    tally.failed += failed;
    tally.work += static_cast<double>(outcomes.size() - failed);
    tally.prefetch_us.Merge(probe.prefetch_us);
    tally.append_us.Merge(probe.append_us);
    tally.compute_us.Merge(probe.compute_us);
    AddCallRecords(cluster, phase_start, awaited, &tally);
    tally.EndEpisode(latency_ms, wall_s, outcomes.size() - failed);
    if (traced_episode && trace != nullptr) {
      AddRequestSpans(cluster, episode, calls, {}, extra, trace);
    }
  }
  AddCommonMetrics(plain, options.traced ? &traced : nullptr, 99, &result);
  return result;
}

}  // namespace faasm::bench

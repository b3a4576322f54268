// Figure 10: function churn — cold-start creation latency vs offered
// creation rate for Docker containers, Faaslets and Proto-Faaslets.
//
// Faaslet/Proto service times are measured for real on this machine; Docker
// uses the calibrated constants. The latency-vs-rate curve comes from an
// open-loop M/D/c queue simulation with those service times (the paper's
// single-host experiment shape: flat latency until the creation-throughput
// knee, then unbounded queueing).
//
// HOST-CHURN MODE (--hosts-churn): the cluster-level churn story for the
// sharded tier. A FAASM cluster serves a stream of exact counter increments
// (global lock + pull + delta push per op) while hosts are added and
// removed mid-run; every membership change migrates the affected keys and
// flips the ShardMap epoch (kvs/migration.h). Reports migration traffic and
// the p50/p99/max op latency ACROSS the epoch flips — ops that race a
// migration stall on kWrongMaster redirects, which is exactly the tail this
// mode quantifies — plus a lost-update check (acked increments vs final
// counter values). --tier=central runs the ablation where membership
// changes never touch the tier.
//
// KILL MODE (--kill): the crash-failover story for the sharded tier. The
// same cluster serves a sustained MIXED load — lock-serialised counter
// increments plus byte-checking payload reads — while hosts are KILLED
// abruptly (FaasmCluster::KillHost: no drain, mail dropped, endpoints gone).
// With --replicas=N > 1 the replication substrate (kvs/replication.h)
// promotes every key a dead shard mastered from a live backup before the
// epoch flips, and the bench GATES on zero lost (or doubled) acked updates,
// zero bad reads and every shard ending with a live master.
//
// With --detect the oracle is taken out of the loop: hosts are crashed with
// NO notification (FaasmCluster::CrashHost) and the heartbeat failure
// detector (runtime/failure_detector.h) must notice, confirm and run the
// failover itself. The bench measures crash-to-confirmation latency per kill
// and additionally gates that every crash was confirmed within
// suspicion_timeout + one heartbeat interval.
//
//   fig10_churn [--tiny]                                 # single-host figure
//   fig10_churn --hosts-churn [--tier=sharded|central] [--tiny] [--json <path>]
//   fig10_churn --kill [--replicas=<n>] [--detect] [--tiny] [--json <path>]
#include <cstring>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/faaslet.h"
#include "runtime/cluster.h"
#include "state/ddo.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

// Minimal discrete-event M/D/c queue: Poisson arrivals, deterministic
// service, c parallel creation slots. Returns median sojourn (queue+service).
double SimulateCreationQueue(double rate_per_s, double service_s, int servers,
                             double duration_s) {
  Rng rng(99);
  std::priority_queue<double, std::vector<double>, std::greater<>> server_free;
  for (int i = 0; i < servers; ++i) {
    server_free.push(0.0);
  }
  Summary sojourn_ms;
  double t = 0;
  while (t < duration_s) {
    t += rng.NextExponential(1.0 / rate_per_s);
    const double free_at = server_free.top();
    server_free.pop();
    const double start = std::max(t, free_at);
    const double done = start + service_s;
    server_free.push(done);
    sojourn_ms.Add((done - t) * 1e3);
  }
  return sojourn_ms.Median();
}

struct BenchEnv {
  RealClock clock;
  InProcNetwork network;
  KvStore store;
  KvsServer server;
  KvsClient kvs;
  LocalTier tier;
  GlobalFileStore files;

  BenchEnv()
      : network(&clock, NoLatency()), server(&store, &network), kvs(&network, "bench-host"),
        tier(&kvs, &clock) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  FaasletEnv Env() {
    FaasletEnv env;
    env.clock = &clock;
    env.tier = &tier;
    env.files = &files;
    env.network = &network;
    env.host_endpoint = "bench-host";
    return env;
  }
};

double MeasureServiceSeconds(const std::function<Status()>& create, int iters) {
  Summary ns;
  for (int i = 0; i < iters; ++i) {
    Stopwatch watch;
    Status status = create();
    if (!status.ok()) {
      std::fprintf(stderr, "creation failed: %s\n", status.ToString().c_str());
      return 1.0;
    }
    ns.Add(static_cast<double>(watch.ElapsedNs()));
  }
  return ns.Median() / 1e9;
}

// --- Host-churn mode ----------------------------------------------------------

struct ChurnResult {
  bool tiny = false;
  StateTier tier = StateTier::kSharded;
  size_t ops = 0;
  size_t acked = 0;
  uint64_t lost_updates = 0;
  MigrationStats migration;
  uint64_t final_hosts = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double seconds = 0;  // virtual run time
};

std::string CounterKey(int i) { return "churn-counter-" + std::to_string(i); }

// Exact cross-host increment: global write lock, invalidate+pull, bump,
// delta push, unlock (the rebalance_test.cc protocol).
void RegisterIncrement(FaasmCluster& cluster) {
  (void)cluster.registry().RegisterNative("inc", [](InvocationContext& ctx) {
    ByteReader reader(ctx.Input());
    auto index = reader.Get<uint32_t>();
    if (!index.ok()) {
      return 1;
    }
    SharedArray<uint64_t> counter(&ctx.state(), CounterKey(index.value()));
    if (!counter.kv().LockGlobalWrite().ok()) {
      return 2;
    }
    counter.kv().InvalidateReplica();
    if (!counter.Attach().ok()) {
      (void)counter.kv().UnlockGlobalWrite();
      return 3;
    }
    uint64_t* value = counter.WritableElements(0, 1);
    if (value == nullptr) {
      (void)counter.kv().UnlockGlobalWrite();
      return 4;
    }
    *value += 1;
    counter.MarkDirtyElements(0, 1);
    const bool ok = counter.Push().ok() && counter.kv().UnlockGlobalWrite().ok();
    return ok ? 0 : 5;
  });
}

ChurnResult RunHostChurn(bool tiny, StateTier tier) {
  ChurnResult result;
  result.tiny = tiny;
  result.tier = tier;

  ClusterConfig config;
  config.hosts = 4;
  config.state_tier = tier;
  FaasmCluster cluster(config);

  const int counters = tiny ? 4 : 16;
  const int ops_per_round = tiny ? 24 : 160;
  for (int i = 0; i < counters; ++i) {
    (void)cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0));
  }
  // Bulk payload keys so migrations move real bytes, not just counters.
  const int payload_keys = tiny ? 32 : 256;
  const size_t payload_bytes = tiny ? 16 * 1024 : 64 * 1024;
  for (int i = 0; i < payload_keys; ++i) {
    (void)cluster.kvs().Set("payload-" + std::to_string(i), Bytes(payload_bytes, 7));
  }
  RegisterIncrement(cluster);

  std::vector<uint64_t> acked_per_counter(counters, 0);
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    // Membership schedule: grow, shrink an original host, grow, shrink the
    // newcomer — every round with a batch of increments in flight.
    const std::vector<std::pair<bool, std::string>> churn = {
        {true, ""}, {false, "host-1"}, {true, ""}, {false, "host-4"}};
    for (const auto& [add, name] : churn) {
      std::vector<std::pair<uint64_t, uint32_t>> batch;
      for (int i = 0; i < ops_per_round; ++i) {
        const uint32_t counter = static_cast<uint32_t>(i % counters);
        Bytes input;
        ByteWriter writer(input);
        writer.Put<uint32_t>(counter);
        auto id = frontend.Submit("inc", std::move(input));
        if (id.ok()) {
          batch.emplace_back(id.value(), counter);
        }
        result.ops += 1;
      }
      if (add) {
        auto added = cluster.AddHost();
        if (!added.ok()) {
          std::fprintf(stderr, "AddHost failed: %s\n", added.status().ToString().c_str());
        }
      } else {
        Status removed = cluster.RemoveHost(name);
        if (!removed.ok()) {
          std::fprintf(stderr, "RemoveHost failed: %s\n", removed.ToString().c_str());
        }
      }
      for (const auto& [id, counter] : batch) {
        auto code = frontend.Await(id);
        if (code.ok() && code.value() == 0) {
          result.acked += 1;
          acked_per_counter[counter] += 1;
        }
      }
    }
    result.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });

  // Correctness sweep: acked increments vs final counter values.
  for (int i = 0; i < counters; ++i) {
    uint64_t count = 0;
    auto value = cluster.kvs().Get(CounterKey(i));
    if (value.ok() && value.value().size() == sizeof(count)) {
      std::memcpy(&count, value.value().data(), sizeof(count));
    }
    result.lost_updates +=
        count > acked_per_counter[i] ? count - acked_per_counter[i]
                                     : acked_per_counter[i] - count;
  }

  // Per-op latency across the run, epoch flips included.
  Summary latency_ms;
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    latency_ms.Add(static_cast<double>(record.finished_at - record.submitted_at) / 1e6);
  }
  result.p50_ms = latency_ms.Median();
  result.p99_ms = latency_ms.Percentile(99.0);
  result.max_ms = latency_ms.Max();
  result.migration = cluster.migration_stats();
  result.final_hosts = cluster.host_count();
  return result;
}

void PrintChurn(const ChurnResult& r) {
  std::printf("%10s | %6zu %6zu %6llu | %8llu %10.1f %6llu | %8.2f %8.2f %8.2f\n",
              r.tier == StateTier::kSharded ? "sharded" : "central", r.ops, r.acked,
              static_cast<unsigned long long>(r.lost_updates),
              static_cast<unsigned long long>(r.migration.keys_moved),
              static_cast<double>(r.migration.bytes_moved) / 1e3,
              static_cast<unsigned long long>(r.migration.epoch_flips), r.p50_ms, r.p99_ms,
              r.max_ms);
}

bool WriteChurnJson(const std::string& path, const ChurnResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig10_churn\",\n  \"mode\": \"hosts-churn\",\n");
  std::fprintf(f, "  \"tiny\": %s,\n  \"tier\": \"%s\",\n", r.tiny ? "true" : "false",
               r.tier == StateTier::kSharded ? "sharded" : "central");
  std::fprintf(f, "  \"ops\": %zu,\n  \"acked\": %zu,\n  \"lost_updates\": %llu,\n", r.ops,
               r.acked, static_cast<unsigned long long>(r.lost_updates));
  std::fprintf(f,
               "  \"migration\": {\"keys_moved\": %llu, \"bytes_moved\": %llu, "
               "\"epoch_flips\": %llu},\n",
               static_cast<unsigned long long>(r.migration.keys_moved),
               static_cast<unsigned long long>(r.migration.bytes_moved),
               static_cast<unsigned long long>(r.migration.epoch_flips));
  std::fprintf(f, "  \"final_hosts\": %llu,\n  \"virtual_seconds\": %.4f,\n",
               static_cast<unsigned long long>(r.final_hosts), r.seconds);
  std::fprintf(f, "  \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f}\n}\n",
               r.p50_ms, r.p99_ms, r.max_ms);
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

int HostChurnMain(bool tiny, StateTier tier, const std::string& json_path) {
  const bool sharded = tier == StateTier::kSharded;
  if (sharded) {
    PrintHeader("Figure 10b: host churn on the sharded tier (add/remove under load)");
    std::printf("exact counter increments (global lock + delta push) while the membership\n"
                "changes; ops racing a migration stall on kWrongMaster redirects until the\n"
                "epoch flips — the p99/max columns price that stall.\n\n");
  } else {
    PrintHeader("Figure 10b ablation: host churn on the CENTRAL tier (no-op for state)");
    std::printf("the same increment load and membership schedule, but every key lives in\n"
                "the one central store: membership changes move no state and flip no\n"
                "epoch — the migration columns must read zero.\n\n");
  }
  std::printf("%10s | %6s %6s %6s | %8s %10s %6s | %8s %8s %8s\n", "tier", "ops", "acked",
              "lost", "keys", "moved(KB)", "flips", "p50(ms)", "p99(ms)", "max(ms)");
  const ChurnResult result = RunHostChurn(tiny, tier);
  PrintChurn(result);
  if (result.lost_updates != 0) {
    std::fprintf(stderr, "LOST UPDATES DETECTED: %llu\n",
                 static_cast<unsigned long long>(result.lost_updates));
  }
  if (sharded) {
    std::printf(
        "(migration streams each moving key master→master over the interconnect)\n");
  }
  if (!json_path.empty() && !WriteChurnJson(json_path, result)) {
    return 1;
  }
  return result.lost_updates == 0 ? 0 : 1;
}

// --- Kill (crash failover) mode -----------------------------------------------

struct KillResult {
  bool tiny = false;
  int replicas = 2;
  bool detect = false;
  size_t kills = 0;
  // --detect only: confirmed deaths, per-kill detection latency (crash ->
  // detector confirmation, failover excluded) and the gated bound
  // (suspicion_timeout + one heartbeat interval).
  size_t detected = 0;
  std::vector<double> detect_ms;
  double detect_bound_ms = 0;
  uint64_t heartbeats = 0;
  uint64_t hints = 0;
  uint64_t false_suspicions = 0;
  size_t ops = 0;
  size_t acked_increments = 0;
  size_t good_reads = 0;
  // Awaits that surfaced an error or a non-verification failure: the crash's
  // visible casualties (mailbox calls failed by FailAbandonedMail, reads of
  // keys lost at replicas=1). Never silent — just not silent data loss.
  size_t failed_ops = 0;
  // |final counter - acked increments| summed: catches losses AND doubles.
  uint64_t lost_acked = 0;
  uint64_t bad_reads = 0;  // reads that returned wrong bytes
  std::vector<double> recovery_ms;  // one per kill (KillHost duration)
  FailoverStats failover;
  uint64_t forwarded_ops = 0;
  uint64_t forward_rpcs = 0;
  uint64_t dropped_forwards = 0;
  bool all_shards_live = false;
  uint64_t final_epoch = 0;
  double seconds = 0;
};

std::string PayloadKey(int i) { return "payload-" + std::to_string(i); }

// Byte-checking payload read: fresh pull, then verify the fill byte. Exit
// codes: 0 good, 6 unreadable (lost key), 7 wrong bytes.
void RegisterPayloadCheck(FaasmCluster& cluster, size_t payload_bytes) {
  (void)cluster.registry().RegisterNative("readpay", [payload_bytes](InvocationContext& ctx) {
    ByteReader reader(ctx.Input());
    auto index = reader.Get<uint32_t>();
    if (!index.ok()) {
      return 1;
    }
    SharedArray<uint8_t> payload(&ctx.state(), PayloadKey(static_cast<int>(index.value())));
    payload.kv().InvalidateReplica();
    if (!payload.Attach().ok()) {
      return 6;
    }
    if (payload.size() != payload_bytes) {
      return 7;
    }
    for (size_t i = 0; i < payload_bytes; i += 1024) {
      if (payload[i] != 7) {
        return 7;
      }
    }
    return 0;
  });
}

KillResult RunKill(bool tiny, int replicas, bool detect) {
  KillResult result;
  result.tiny = tiny;
  result.replicas = replicas;
  result.detect = detect;

  ClusterConfig config;
  config.hosts = tiny ? 5 : 6;
  config.state_tier = StateTier::kSharded;
  config.replication_factor = replicas;
  config.failure_detection = detect;
  FaasmCluster cluster(config);
  result.detect_bound_ms = static_cast<double>(kSuspicionTimeoutNs + kHeartbeatIntervalNs) / 1e6;

  const int counters = tiny ? 4 : 8;
  const int ops_per_round = tiny ? 24 : 96;
  const int payload_keys = tiny ? 24 : 96;
  const size_t payload_bytes = tiny ? 16 * 1024 : 64 * 1024;
  for (int i = 0; i < counters; ++i) {
    (void)cluster.kvs().Set(CounterKey(i), Bytes(sizeof(uint64_t), 0));
  }
  for (int i = 0; i < payload_keys; ++i) {
    (void)cluster.kvs().Set(PayloadKey(i), Bytes(payload_bytes, 7));
  }
  RegisterIncrement(cluster);
  RegisterPayloadCheck(cluster, payload_bytes);

  std::vector<uint64_t> acked_per_counter(counters, 0);
  const std::vector<std::string> victims = {"host-1", "host-3", "host-0"};
  cluster.Run([&](Frontend& frontend) {
    const TimeNs start = cluster.clock().Now();
    for (const std::string& victim : victims) {
      // A batch of mixed ops in flight, then the kill lands in the middle of
      // it: some ops are already done, some are executing on the victim
      // (zombies — they finish through the failover bounce), some sit in its
      // mailbox (failed, surfaced at Await), and the rest race the epoch
      // flip.
      struct Pending {
        uint64_t id;
        bool is_inc;
        uint32_t index;
      };
      std::vector<Pending> batch;
      for (int i = 0; i < ops_per_round; ++i) {
        const bool is_inc = i % 3 != 2;  // 2/3 writes, 1/3 reads
        const uint32_t index =
            static_cast<uint32_t>(is_inc ? i % counters : i % payload_keys);
        Bytes input;
        ByteWriter writer(input);
        writer.Put<uint32_t>(index);
        auto id = frontend.Submit(is_inc ? "inc" : "readpay", std::move(input));
        if (id.ok()) {
          batch.push_back({id.value(), is_inc, index});
        }
        result.ops += 1;
      }
      if (detect) {
        // NO oracle: pull the plug and wait for the detector to notice and
        // self-heal. Detection latency = crash -> confirmation (deaths());
        // recovery duration is the cluster failover-accounting delta.
        const TimeNs killed_at = cluster.clock().Now();
        const TimeNs recovery_before = cluster.failover_stats().duration_ns;
        Status crashed = cluster.CrashHost(victim);
        if (crashed.ok()) {
          result.kills += 1;
          const size_t want = result.kills;
          const FailureDetector* detector = cluster.failure_detector();
          const bool confirmed =
              cluster.clock().WaitFor([&] { return detector->death_count() >= want; },
                                      100 * kMicrosecond, killed_at + kSecond);
          if (confirmed) {
            for (const DeathRecord& death : detector->deaths()) {
              if (death.host == victim) {
                result.detect_ms.push_back(
                    static_cast<double>(death.confirmed_at_ns - killed_at) / 1e6);
              }
            }
            result.recovery_ms.push_back(
                static_cast<double>(cluster.failover_stats().duration_ns - recovery_before) /
                1e6);
          } else {
            std::fprintf(stderr, "detector never confirmed %s\n", victim.c_str());
          }
        } else {
          std::fprintf(stderr, "CrashHost(%s) failed: %s\n", victim.c_str(),
                       crashed.ToString().c_str());
        }
      } else {
        auto killed = cluster.KillHost(victim);
        if (killed.ok()) {
          result.kills += 1;
          result.recovery_ms.push_back(static_cast<double>(killed.value().duration_ns) / 1e6);
        } else {
          std::fprintf(stderr, "KillHost(%s) failed: %s\n", victim.c_str(),
                       killed.status().ToString().c_str());
        }
      }
      for (const Pending& pending : batch) {
        auto code = frontend.Await(pending.id);
        if (!code.ok()) {
          result.failed_ops += 1;
          continue;
        }
        if (pending.is_inc) {
          if (code.value() == 0) {
            result.acked_increments += 1;
            acked_per_counter[pending.index] += 1;
          } else {
            result.failed_ops += 1;
          }
        } else if (code.value() == 0) {
          result.good_reads += 1;
        } else if (code.value() == 7) {
          result.bad_reads += 1;
        } else {
          result.failed_ops += 1;
        }
      }
    }
    result.seconds = static_cast<double>(cluster.clock().Now() - start) / 1e9;
  });

  // Acked-update sweep: every acked increment must be in the tier exactly
  // once (abs diff, so doubles fail the gate the same way losses do).
  for (int i = 0; i < counters; ++i) {
    uint64_t count = 0;
    auto value = cluster.kvs().Get(CounterKey(i));
    if (value.ok() && value.value().size() == sizeof(count)) {
      std::memcpy(&count, value.value().data(), sizeof(count));
    }
    result.lost_acked += count > acked_per_counter[i] ? count - acked_per_counter[i]
                                                      : acked_per_counter[i] - count;
  }

  // Liveness sweep: after three crashes every shard in the map must belong
  // to a host that is still alive — no key routed at a corpse.
  std::set<std::string> live_shards;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    live_shards.insert(ShardMap::EndpointForHost(cluster.host(i).name()));
  }
  const std::vector<std::string> shards = cluster.shard_map().shards();
  result.all_shards_live = shards.size() == live_shards.size();
  for (const std::string& shard : shards) {
    result.all_shards_live = result.all_shards_live && live_shards.count(shard) > 0;
  }

  if (cluster.failure_detector() != nullptr) {
    const FailureDetector* detector = cluster.failure_detector();
    result.detected = detector->death_count();
    result.heartbeats = detector->heartbeats_seen();
    result.hints = detector->hints();
    result.false_suspicions = detector->false_suspicions();
  }
  result.failover = cluster.failover_stats();
  if (cluster.replication() != nullptr) {
    const ReplicationStats& stats = cluster.replication()->stats();
    result.forwarded_ops = stats.forwarded_ops.value();
    result.forward_rpcs = stats.forward_rpcs.value();
    result.dropped_forwards = stats.dropped_forward_ops.value();
  }
  result.final_epoch = cluster.shard_map().epoch();
  return result;
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

double MaxOf(const std::vector<double>& values) {
  double max = 0;
  for (double v : values) {
    max = std::max(max, v);
  }
  return max;
}

bool WriteKillJson(const std::string& path, const KillResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig10_churn\",\n  \"mode\": \"kill\",\n");
  std::fprintf(f, "  \"tiny\": %s,\n  \"replicas\": %d,\n  \"detect\": %s,\n",
               r.tiny ? "true" : "false", r.replicas, r.detect ? "true" : "false");
  if (r.detect) {
    Summary detect_ms;
    for (double v : r.detect_ms) {
      detect_ms.Add(v);
    }
    std::fprintf(f,
                 "  \"detection\": {\"confirmed\": %zu, \"latency_ms\": {\"p50\": %.3f, "
                 "\"p99\": %.3f, \"max\": %.3f}, \"bound_ms\": %.3f,\n"
                 "    \"heartbeats\": %llu, \"hints\": %llu, \"false_suspicions\": %llu},\n",
                 r.detected, detect_ms.Median(), detect_ms.Percentile(99.0), detect_ms.Max(),
                 r.detect_bound_ms, static_cast<unsigned long long>(r.heartbeats),
                 static_cast<unsigned long long>(r.hints),
                 static_cast<unsigned long long>(r.false_suspicions));
  }
  std::fprintf(f, "  \"kills\": %zu,\n  \"ops\": %zu,\n  \"acked_increments\": %zu,\n",
               r.kills, r.ops, r.acked_increments);
  std::fprintf(f, "  \"good_reads\": %zu,\n  \"failed_ops\": %zu,\n", r.good_reads,
               r.failed_ops);
  std::fprintf(f, "  \"lost_acked_updates\": %llu,\n  \"bad_reads\": %llu,\n",
               static_cast<unsigned long long>(r.lost_acked),
               static_cast<unsigned long long>(r.bad_reads));
  std::fprintf(f, "  \"recovery_ms\": {\"mean\": %.3f, \"max\": %.3f},\n",
               MeanOf(r.recovery_ms), MaxOf(r.recovery_ms));
  std::fprintf(f, "  \"promoted_keys\": %llu,\n  \"lost_keys\": %llu,\n",
               static_cast<unsigned long long>(r.failover.promoted_keys),
               static_cast<unsigned long long>(r.failover.lost_keys));
  std::fprintf(f,
               "  \"replication\": {\"forwarded_ops\": %llu, \"forward_rpcs\": %llu, "
               "\"dropped_forwards\": %llu},\n",
               static_cast<unsigned long long>(r.forwarded_ops),
               static_cast<unsigned long long>(r.forward_rpcs),
               static_cast<unsigned long long>(r.dropped_forwards));
  std::fprintf(f, "  \"all_shards_live\": %s,\n  \"final_epoch\": %llu,\n",
               r.all_shards_live ? "true" : "false",
               static_cast<unsigned long long>(r.final_epoch));
  std::fprintf(f, "  \"virtual_seconds\": %.4f\n}\n", r.seconds);
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
  return true;
}

int KillMain(bool tiny, int replicas, bool detect, const std::string& json_path) {
  PrintHeader(detect
                  ? "Figure 10c: crash failover with HEARTBEAT DETECTION (no oracle)"
                  : "Figure 10c: crash failover — abrupt host kills under mixed load");
  std::printf("lock-serialised increments + byte-checking reads while hosts are killed\n"
              "with no drain (mail dropped, endpoints gone). replicas=%d:\n"
              "%s\n",
              replicas,
              replicas > 1 ? "an acked op is on every live backup, so the gate is ZERO lost"
                             " or doubled acked updates."
                           : "no replication — lost keys are counted, liveness still gated.");
  if (detect) {
    std::printf("detection: nobody tells the cluster — hosts heartbeat, the detector\n"
                "suspects silence, probes, confirms, and runs the failover itself. The\n"
                "gate adds: every crash confirmed, max detection latency within\n"
                "suspicion_timeout + one heartbeat interval.\n");
  }
  std::printf("\n");
  const KillResult r = RunKill(tiny, replicas, detect);
  std::printf("%6s %6s %6s %6s | %6s %6s | %10s %10s | %9s %9s\n", "kills", "ops", "acked",
              "failed", "lost", "badrd", "promoted", "lostkeys", "rec(ms)", "max(ms)");
  std::printf("%6zu %6zu %6zu %6zu | %6llu %6llu | %10llu %10llu | %9.2f %9.2f\n", r.kills,
              r.ops, r.acked_increments, r.failed_ops,
              static_cast<unsigned long long>(r.lost_acked),
              static_cast<unsigned long long>(r.bad_reads),
              static_cast<unsigned long long>(r.failover.promoted_keys),
              static_cast<unsigned long long>(r.failover.lost_keys), MeanOf(r.recovery_ms),
              MaxOf(r.recovery_ms));
  std::printf("replication: %llu ops over %llu forward RPCs, %llu dropped; epoch %llu; "
              "all shards live: %s\n",
              static_cast<unsigned long long>(r.forwarded_ops),
              static_cast<unsigned long long>(r.forward_rpcs),
              static_cast<unsigned long long>(r.dropped_forwards),
              static_cast<unsigned long long>(r.final_epoch),
              r.all_shards_live ? "yes" : "NO");
  if (detect) {
    std::printf("detection: %zu/%zu crashes confirmed, latency mean %.2f ms max %.2f ms "
                "(bound %.2f ms); %llu heartbeats, %llu hints, %llu false suspicions\n",
                r.detected, r.kills, MeanOf(r.detect_ms), MaxOf(r.detect_ms),
                r.detect_bound_ms, static_cast<unsigned long long>(r.heartbeats),
                static_cast<unsigned long long>(r.hints),
                static_cast<unsigned long long>(r.false_suspicions));
  }

  bool ok = r.kills == 3 && r.all_shards_live;
  if (replicas > 1) {
    ok = ok && r.lost_acked == 0 && r.bad_reads == 0 && r.failover.lost_keys == 0 &&
         r.failover.promoted_keys > 0;
  }
  if (detect) {
    ok = ok && r.detected == r.kills && r.detect_ms.size() == r.kills &&
         MaxOf(r.detect_ms) <= r.detect_bound_ms;
  }
  if (!ok) {
    std::fprintf(stderr, "FAILOVER GATE FAILED\n");
  }
  if (!json_path.empty() && !WriteKillJson(json_path, r)) {
    return 1;
  }
  return ok ? 0 : 1;
}

// --- Flags ---------------------------------------------------------------------

// The one table both the parser and the usage text are generated from: a
// flag that is not listed here does not parse, and vice versa.
struct FlagSpec {
  const char* form;
  const char* help;
};
constexpr FlagSpec kFlagSpecs[] = {
    {"--hosts-churn", "cluster mode: membership churn under increment load"},
    {"--kill", "cluster mode: crash failover, abrupt host kills under load"},
    {"--tier=sharded|central", "global-tier layout for --hosts-churn (default sharded)"},
    {"--replicas=<n>", "copies per shard for --kill (default 2)"},
    {"--detect", "for --kill: no oracle — heartbeat detection finds and recovers crashes"},
    {"--tiny", "smaller datasets and op counts (CI smoke)"},
    {"--json <path>", "write the cluster-mode result as JSON"},
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr, "usage: %s", argv0);
  for (const FlagSpec& flag : kFlagSpecs) {
    std::fprintf(stderr, " [%s]", flag.form);
  }
  std::fprintf(stderr, "\n");
  for (const FlagSpec& flag : kFlagSpecs) {
    std::fprintf(stderr, "  %-24s %s\n", flag.form, flag.help);
  }
}

}  // namespace
}  // namespace faasm

int main(int argc, char** argv) {
  using namespace faasm;
  bool tiny = false;
  bool hosts_churn = false;
  bool kill = false;
  bool detect = false;
  StateTier tier = StateTier::kSharded;
  int replicas = 2;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--hosts-churn") {
      hosts_churn = true;
    } else if (arg == "--kill") {
      kill = true;
    } else if (arg == "--detect") {
      detect = true;
    } else if (arg == "--tier=sharded") {
      tier = StateTier::kSharded;
    } else if (arg == "--tier=central") {
      tier = StateTier::kCentral;
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atoi(arg.c_str() + std::strlen("--replicas="));
      if (replicas < 1) {
        std::fprintf(stderr, "%s: bad value in '%s'\n", argv[0], arg.c_str());
        PrintUsage(argv[0]);
        return 2;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown or malformed flag '%s'\n", argv[0], arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (hosts_churn && kill) {
    std::fprintf(stderr, "%s: --hosts-churn and --kill are exclusive\n", argv[0]);
    PrintUsage(argv[0]);
    return 2;
  }
  if (detect && !kill) {
    std::fprintf(stderr, "%s: --detect requires --kill\n", argv[0]);
    PrintUsage(argv[0]);
    return 2;
  }
  if (kill) {
    return KillMain(tiny, replicas, detect, json_path);
  }
  if (hosts_churn) {
    return HostChurnMain(tiny, tier, json_path);
  }

  PrintHeader("Figure 10: creation latency vs churn rate (single host)");
  ContainerModel docker;
  PrintContainerCalibration(docker);

  BenchEnv env;
  wasm::ModuleBuilder b;
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
  f.I32Const(0);
  f.End();
  auto module = wasm::CompileModule(wasm::DecodeModule(b.Build()).value()).value();
  FunctionSpec spec;
  spec.name = "noop";
  spec.module = module;

  const double faaslet_service = MeasureServiceSeconds(
      [&] { return Faaslet::Create(spec, env.Env()).status(); }, 200);
  auto prototype = Faaslet::Create(spec, env.Env()).value();
  auto proto = ProtoFaaslet::CaptureFrom(*prototype).value();
  const double proto_service = MeasureServiceSeconds(
      [&] { return Faaslet::CreateFromProto(spec, env.Env(), proto).status(); }, 200);
  const double docker_service = docker.cold_start_ns / 1e9;

  std::printf("\nmeasured service times: faaslet %.2f ms, proto-faaslet %.3f ms; docker %.1f s"
              " (calibrated)\n",
              faaslet_service * 1e3, proto_service * 1e3, docker_service);
  std::printf("creation parallelism: docker %d (daemon), faaslets 4 (cores)\n\n",
              docker.max_concurrent_cold_starts);

  std::printf("%14s | %14s %14s %16s\n", "rate (1/s)", "docker (ms)", "faaslet (ms)",
              "proto-faaslet (ms)");
  for (double rate : {0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1000.0, 3000.0, 10000.0, 20000.0,
                      50000.0, 100000.0, 200000.0}) {
    const double docker_ms =
        rate <= 3.5 ? SimulateCreationQueue(rate, docker_service, docker.max_concurrent_cold_starts,
                                            200.0)
                    : -1;
    const double faaslet_ms =
        rate <= 4.0 / faaslet_service
            ? SimulateCreationQueue(rate, faaslet_service, 4, std::min(200.0, 20000.0 / rate))
            : -1;
    const double proto_ms =
        rate <= 4.0 / proto_service
            ? SimulateCreationQueue(rate, proto_service, 4, std::min(200.0, 20000.0 / rate))
            : -1;
    auto cell = [](double v) {
      static char buffer[4][32];
      static int slot = 0;
      char* out = buffer[slot++ % 4];
      if (v < 0) {
        std::snprintf(out, 32, "%14s", "saturated");
      } else {
        std::snprintf(out, 32, "%14.2f", v);
      }
      return out;
    };
    std::printf("%14.1f | %s %s %s\n", rate, cell(docker_ms), cell(faaslet_ms), cell(proto_ms));
  }
  std::printf("\nExpected shape (paper): Docker saturates at ~3 creations/s; Faaslets reach\n"
              "hundreds/s and Proto-Faaslets thousands/s before their knees.\n");
  return 0;
}

// Shared machinery of the platform benchmark: options, the per-run tally
// every workload fills, counter snapshots read from the system's public
// accessors, the open-loop generator, the forwarding InvocationContext used
// by traced runs, and the metric report.
//
// Every layer is measured from outside the system, in three ways: timing
// calls into public functions, reading CallRecord stamps, and reading public
// counters. Nothing under src/ is instrumented for the benchmark.
#ifndef FAASM_BENCH_FAASM_BENCH_PLATFORM_H_
#define FAASM_BENCH_FAASM_BENCH_PLATFORM_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/faasm_bench/trace.h"
#include "common/stats.h"
#include "core/invocation_context.h"
#include "runtime/cluster.h"

namespace faasm::bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Wall-time budget of the whole run, set-up included; episodes are added
  // while the next one is expected to fit.
  double seconds = 20;
  bool tiny = false;       // one small episode (smoke test)
  bool traced = false;     // traced run: per-layer metrics plus a trace file
};

// Where a number comes from. Virtual time is modelled by the simulator
// (network, CPU share, polling); wall time is really executed on the machine
// running the benchmark; counts and ratios are exact tallies.
enum class Source { kVirtual, kWall, kCount };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Source source = Source::kCount;
};

// End-to-end metric table: direction and regression bound (the share of
// the baseline median by which the metric may worsen). BENCHMARK.json lists
// the rows every workload reports; the serve-only rows are compared by
// bench_compare from the bounds each result file carries. The time bounds
// are wide because compute is charged to virtual time from a wall-clock
// stopwatch, so the host's speed, which drifts by a tenth over minutes on a
// shared 4-vCPU VM, moves every latency.
struct EndToEndSpec {
  const char* name;
  double bound;
  bool higher_is_better = false;
};
inline constexpr EndToEndSpec kEndToEnd[] = {
    {"setup_s", 0.25},
    {"p50_ms", 0.25},
    {"tail_ms", 0.25},
    {"throughput_per_s", 0.25, true},
    {"net_kb_per_op", 0.15},
    {"billable_mb_s_per_op", 0.25},
    {"peak_rss_mb", 0.2},
    {"hi.p50_ms", 0.25},
    {"hi.tail_ms", 0.25},
    {"cold_p50_ms", 0.25},
};
const EndToEndSpec* FindEndToEnd(const std::string& name);

// Percentile read off the linearly interpolated empirical CDF (the ogive):
// a run of k equal samples covers the CDF rise over the gap down to the next
// smaller sample. Without ties this is interpolation between order
// statistics; with ties (latencies landing on the 200 µs polling grid of
// Await and the dispatchers) it estimates between grid points instead of
// snapping to one, so the number moves when the mass near it moves.
double Percentile(std::vector<double> samples, double p);
double Percentile(const Summary& samples, double p);

// Cumulative counters read from public accessors of every host, shard,
// replica channel and the network.
struct Counters {
  uint64_t net_bytes = 0;
  uint64_t net_msgs = 0;
  uint64_t kvs_bytes = 0;   // traffic touching a kvs:<host> shard endpoint
  uint64_t rep_bytes = 0;   // traffic touching a rep:<host> replica endpoint
  uint64_t read_rpcs = 0;   // KvsServer::read_rpc_count, all shards
  uint64_t write_rpcs = 0;  // KvsServer::write_rpc_count
  uint64_t forward_rpcs = 0;      // ReplicationStats::forward_rpcs
  uint64_t forwarded_ops = 0;     // ReplicationStats::forwarded_ops
  uint64_t replica_serves = 0;    // KvsClient::replica_served_count
  uint64_t cache_hits = 0;        // ReadCache::hits
  uint64_t cold_starts = 0;
  std::vector<uint64_t> executed;  // per host: executed_call_count
  double gb_s = 0;                 // billable memory (GB·s, virtual)

  Counters& operator+=(const Counters& other);
};
Counters ReadCounters(FaasmCluster& cluster);
Counters Delta(const Counters& after, const Counters& before);

// Generator health: most requests outstanding at once, and how far behind
// its schedule the generator handed a request over (virtual time).
struct GeneratorHealth {
  size_t inflight_max = 0;
  TimeNs late_max_ns = 0;

  void Merge(const GeneratorHealth& other) {
    inflight_max = std::max(inflight_max, other.inflight_max);
    late_max_ns = std::max(late_max_ns, other.late_max_ns);
  }
};

// What a run accumulates over its episodes; AddCommonMetrics turns it into
// metrics.
struct Tally {
  Summary setup_s;          // wall, one sample per episode
  Summary latency_ms;       // the unit's latency (virtual)
  Summary hi_latency_ms;    // serve: warm requests of the hi phase
  Summary cold_latency_ms;  // serve: requests that cold-started
  uint64_t attempted = 0;   // units attempted (requests, epochs, jobs)
  uint64_t failed = 0;      // units failed or with a wrong output
  double work = 0;          // throughput numerator (units or examples)
  double virtual_s = 0;     // measured virtual time
  double wall_s = 0;        // measured wall time
  Counters counters;        // measured-phase deltas, summed
  GeneratorHealth generator;  // closed loops: the client's calls, never late
  uint64_t calls = 0;       // calls submitted in measured phases

  // Per-call stamps of the measured phases (virtual µs).
  Summary queue_us, exec_us, await_lag_us, cold_queue_us;
  // Timed calls into public functions (virtual µs; compute is the charged
  // wall time).
  Summary prefetch_us, append_us, chain_us, child_await_lag_us, compute_us;
  // One sample per episode, to compare untraced and traced episodes.
  Summary episode_wall_us_per_op, episode_p50_ms;

  // Closes one episode's measured phase: latency samples of its units and
  // its wall time go into the per-episode summaries too.
  void EndEpisode(const std::vector<double>& episode_latency_ms, double episode_wall_s,
                  uint64_t episode_units);
};

// Sizes the local-tier replica of each global-tier key on every host, in
// set-up. StateKeyValue::EnsureCapacity is not safe when two calls on one
// host allocate the same replica at once: both create a region and race on
// the handle, which crashes or corrupts a read (seen under ThreadSanitizer on
// kv's concurrent prefetches). Sizing first keeps every later call on the
// already-allocated path; the replicas still start with no page present.
void PresizeReplicas(FaasmCluster& cluster, const std::vector<std::string>& keys);

// Folds a measured phase's CallRecords (calls submitted at or after
// `since`) into the per-call summaries. `awaited` maps the client-awaited
// call ids to the virtual time their Await returned.
void AddCallRecords(FaasmCluster& cluster, TimeNs since,
                    const std::map<uint64_t, TimeNs>& awaited, Tally* tally);

// --- Open-loop generator -------------------------------------------------------

struct Arrival {
  TimeNs due = 0;  // virtual time the request is due, from the phase start
  std::string function;
  Bytes input;
};

struct Outcome {
  uint64_t call_id = 0;  // 0: Submit failed
  TimeNs due = 0;        // absolute virtual times
  TimeNs done = 0;       // Await returned
  bool ok = false;       // Await returned exit code 0
  Bytes output;
};

// Runs `arrivals` open loop from one generator activity: it sleeps until
// each request is due and hands it to a client activity that submits to the
// next host round-robin (as Frontend does) and awaits there. Latency is
// measured from the due time, so a stall delays every later request too.
std::vector<Outcome> RunOpenLoop(FaasmCluster& cluster, const std::vector<Arrival>& arrivals,
                                 GeneratorHealth* health);

// One unit the client drove: a request, or a closed-loop job/epoch call.
struct ClientCall {
  uint64_t call_id = 0;
  uint64_t input_hash = 0;
  TimeNs due = 0;
  TimeNs done = 0;  // Await returned
};

// Closed-loop client for the library entry points (RunSgdTraining, one matmul
// job): forwards to the Frontend and records each call it awaited.
class RecordingClient {
 public:
  RecordingClient(Frontend& frontend, SimClock& clock) : frontend_(frontend), clock_(clock) {}

  Result<uint64_t> Submit(const std::string& function, Bytes input) {
    ClientCall call{0, HashBytes(input), clock_.Now(), 0};
    FAASM_ASSIGN_OR_RETURN(call.call_id, frontend_.Submit(function, std::move(input)));
    pending_[call.call_id] = call;
    return call.call_id;
  }
  Result<int> Await(uint64_t call_id) {
    auto code = frontend_.Await(call_id);
    ClientCall call = pending_[call_id];
    pending_.erase(call_id);
    call.done = clock_.Now();
    calls.push_back(call);
    return code;
  }
  Result<Bytes> Output(uint64_t call_id) { return frontend_.Output(call_id); }

  std::vector<ClientCall> calls;  // in Await order

 private:
  Frontend& frontend_;
  SimClock& clock_;
  std::map<uint64_t, ClientCall> pending_;
};

// --- Traced runs: forwarding InvocationContext ----------------------------------

// Collects what the forwarding contexts of one episode saw. A function's
// own call id is not visible to it, so each execution frame is keyed by its
// input hash and matched to its CallRecord after the episode.
class CallProbe {
 public:
  struct Event {
    std::string name;  // runtime.chain, runtime.await, core.compute
    TimeNs start = 0;
    TimeNs end = 0;
    uint64_t child = 0;       // chained/awaited call id
    uint64_t child_hash = 0;  // chained call's input hash
  };
  struct Frame {
    uint64_t input_hash = 0;
    TimeNs enter = 0;
    std::vector<Event> events;
  };

  explicit CallProbe(FaasmCluster* cluster) : cluster_(cluster) {}

  // Wraps `fn` so each call runs against a context that times ChainCall,
  // AwaitCall and ChargeCompute.
  NativeFn Wrap(NativeFn fn);

  std::vector<Frame> TakeFrames();
  void DrainInto(Tally* tally);

 private:
  friend class ForwardingContext;
  void Commit(Frame frame, const std::vector<double>& chain_us,
              const std::vector<double>& child_lag_us, const std::vector<double>& compute_us);

  FaasmCluster* cluster_;
  std::mutex mutex_;
  std::vector<Frame> frames_;
  Summary chain_us_, child_await_lag_us_, compute_us_;
};

// --- Trace assembly -------------------------------------------------------------

// Adds one request span per client call, with its four contiguous children
// (client.submit, runtime.queue, runtime.exec, runtime.await_lag), and hangs
// probe frames (and their chained calls) under the exec span of the call
// they ran in. `extra` adds workload-specific children of a call's exec
// span, keyed by call id. Returns the request span indices by call id.
struct ExtraSpan {
  std::string name;
  TimeNs start = 0;
  TimeNs end = 0;
};
std::map<uint64_t, int> AddRequestSpans(FaasmCluster& cluster, int episode,
                                        const std::vector<ClientCall>& requests,
                                        const std::vector<CallProbe::Frame>& frames,
                                        const std::map<uint64_t, std::vector<ExtraSpan>>& extra,
                                        Trace* trace);

// --- Component phase --------------------------------------------------------------

// Times Faaslet::Create, CreateFromProto, Execute and Reset directly (wall
// time) on the serve workload's wasm MLP, outside any cluster. Clears `ok`
// when a call fails or an output disagrees with MlpReference.
std::vector<Metric> RunComponentPhase(uint64_t seed, int iterations, bool* ok);

// --- Report -------------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Metrics every workload reports. End-to-end numbers always come from the
// untraced episodes (`plain`); per-layer numbers come from the traced
// episodes when the run is traced (`traced` non-null), else from `plain`.
// `tail_percentile` is the workload's tail (99 or 90).
void AddCommonMetrics(const Tally& plain, const Tally* traced, double tail_percentile,
                      RunResult* result);

// Wall-clock episode pacing under the run's budget.
class EpisodeClock {
 public:
  explicit EpisodeClock(const Options& options);
  // True while another episode is expected to fit in the budget. A run has
  // at least one episode, a traced run at least one untraced and one traced.
  bool StartNext();

 private:
  Stopwatch watch_;
  double budget_s_;
  bool tiny_;
  int min_episodes_;
  int started_ = 0;
};

// Traced runs alternate untraced and traced episodes, so the trace overhead
// is measured within one run; the traced ones record spans.
inline bool EpisodeTraced(const Options& options, int episode) {
  return options.traced && episode % 2 == 1;
}

}  // namespace faasm::bench

#endif  // FAASM_BENCH_FAASM_BENCH_PLATFORM_H_

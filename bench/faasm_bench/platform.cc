#include "bench/faasm_bench/platform.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/faaslet.h"
#include "kvs/replication.h"
#include "workloads/inference.h"

namespace faasm::bench {

const EndToEndSpec* FindEndToEnd(const std::string& name) {
  for (const EndToEndSpec& spec : kEndToEnd) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double target = p / 100.0 * static_cast<double>(samples.size());
  double below = samples.front();  // next smaller distinct sample
  size_t i = 0;
  while (i < samples.size()) {
    size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) {
      ++j;
    }
    if (target <= static_cast<double>(j)) {
      if (i == 0) {
        return samples[i];
      }
      const double fraction =
          (target - static_cast<double>(i)) / static_cast<double>(j - i);
      return below + (samples[i] - below) * fraction;
    }
    below = samples[i];
    i = j;
  }
  return samples.back();
}

double Percentile(const Summary& samples, double p) {
  std::vector<double> values;
  values.reserve(samples.count());
  for (const auto& [value, fraction] : samples.Cdf()) {
    values.push_back(value);
  }
  return Percentile(std::move(values), p);
}

// --- Counters ----------------------------------------------------------------------

Counters& Counters::operator+=(const Counters& other) {
  net_bytes += other.net_bytes;
  net_msgs += other.net_msgs;
  kvs_bytes += other.kvs_bytes;
  rep_bytes += other.rep_bytes;
  read_rpcs += other.read_rpcs;
  write_rpcs += other.write_rpcs;
  forward_rpcs += other.forward_rpcs;
  forwarded_ops += other.forwarded_ops;
  replica_serves += other.replica_serves;
  cache_hits += other.cache_hits;
  cold_starts += other.cold_starts;
  executed.resize(std::max(executed.size(), other.executed.size()), 0);
  for (size_t i = 0; i < other.executed.size(); ++i) {
    executed[i] += other.executed[i];
  }
  gb_s += other.gb_s;
  return *this;
}

Counters ReadCounters(FaasmCluster& cluster) {
  Counters c;
  const InProcNetwork& network = cluster.network();
  uint64_t shard_bytes = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    FaasmInstance& host = cluster.host(i);
    // Every message has the host, its shard or its replica channel at one
    // end; a replication forward runs shard -> replica channel, so it shows
    // under both and is taken out of the shard share below.
    for (const std::string& endpoint :
         {host.name(), ShardMap::EndpointForHost(host.name()),
          ReplicaEndpointForHost(host.name())}) {
      const EndpointStats stats = network.StatsFor(endpoint);
      c.net_msgs += stats.tx_messages;
      if (endpoint.rfind("kvs:", 0) == 0) {
        shard_bytes += stats.tx_bytes + stats.rx_bytes;
      } else if (endpoint.rfind("rep:", 0) == 0) {
        c.rep_bytes += stats.tx_bytes + stats.rx_bytes;
      }
    }
    c.replica_serves += host.kvs().replica_served_count();
    c.cache_hits += host.kvs().read_cache().hits();
    if (host.shard_server() != nullptr) {
      c.read_rpcs += host.shard_server()->read_rpc_count();
      c.write_rpcs += host.shard_server()->write_rpc_count();
    }
    c.executed.push_back(host.executed_call_count());
  }
  c.kvs_bytes = shard_bytes - c.rep_bytes;
  c.net_bytes = cluster.network_bytes();
  if (const ReplicationManager* replication = cluster.replication(); replication != nullptr) {
    c.forward_rpcs = replication->stats().forward_rpcs.value();
    c.forwarded_ops = replication->stats().forwarded_ops.value();
  }
  c.cold_starts = cluster.cold_start_count();
  c.gb_s = cluster.billable_gb_seconds();
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  d.net_bytes -= before.net_bytes;
  d.net_msgs -= before.net_msgs;
  d.kvs_bytes -= before.kvs_bytes;
  d.rep_bytes -= before.rep_bytes;
  d.read_rpcs -= before.read_rpcs;
  d.write_rpcs -= before.write_rpcs;
  d.forward_rpcs -= before.forward_rpcs;
  d.forwarded_ops -= before.forwarded_ops;
  d.replica_serves -= before.replica_serves;
  d.cache_hits -= before.cache_hits;
  d.cold_starts -= before.cold_starts;
  for (size_t i = 0; i < std::min(d.executed.size(), before.executed.size()); ++i) {
    d.executed[i] -= before.executed[i];
  }
  d.gb_s -= before.gb_s;
  return d;
}

void PresizeReplicas(FaasmCluster& cluster, const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    const size_t size = cluster.kvs().Size(key).value();
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      (void)cluster.host(i).tier().Lookup(key)->EnsureCapacity(size);
    }
  }
}

void Tally::EndEpisode(const std::vector<double>& episode_latency_ms, double episode_wall_s,
                       uint64_t episode_units) {
  for (double ms : episode_latency_ms) {
    latency_ms.Add(ms);
  }
  wall_s += episode_wall_s;
  if (episode_units > 0) {
    episode_wall_us_per_op.Add(episode_wall_s * 1e6 / static_cast<double>(episode_units));
    episode_p50_ms.Add(Percentile(episode_latency_ms, 50));
  }
  std::printf("episode: %llu units, p50 %.4f ms, measured wall %.2f s\n",
              static_cast<unsigned long long>(episode_units), Percentile(episode_latency_ms, 50),
              episode_wall_s);
}

void AddCallRecords(FaasmCluster& cluster, TimeNs since,
                    const std::map<uint64_t, TimeNs>& awaited, Tally* tally) {
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    if (record.state != CallState::kDone || record.started_at == 0) {
      continue;
    }
    const double queue_us = static_cast<double>(record.started_at - record.submitted_at) / 1e3;
    // Cold starts of the set-up phase count too: they are what set-up pays.
    if (record.cold_start) {
      tally->cold_queue_us.Add(queue_us);
    }
    if (record.submitted_at < since) {
      continue;
    }
    tally->calls += 1;
    if (!record.cold_start) {
      tally->queue_us.Add(queue_us);
    }
    tally->exec_us.Add(static_cast<double>(record.finished_at - record.started_at) / 1e3);
    if (auto it = awaited.find(record.id); it != awaited.end()) {
      tally->await_lag_us.Add(static_cast<double>(it->second - record.finished_at) / 1e3);
    }
  }
}

// --- Open-loop generator ---------------------------------------------------------

std::vector<Outcome> RunOpenLoop(FaasmCluster& cluster, const std::vector<Arrival>& arrivals,
                                 GeneratorHealth* health) {
  std::vector<Outcome> outcomes(arrivals.size());
  std::atomic<size_t> outstanding{0};
  GeneratorHealth run;
  cluster.Run([&](Frontend&) {
    SimClock& clock = cluster.clock();
    const TimeNs start = clock.Now();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const TimeNs due = start + arrivals[i].due;
      clock.SleepUntil(due);
      run.late_max_ns = std::max(run.late_max_ns, clock.Now() - due);
      run.inflight_max = std::max(run.inflight_max, outstanding.fetch_add(1) + 1);
      FaasmInstance* host = &cluster.host(i % cluster.host_count());
      cluster.executor().Spawn([&cluster, &clock, &arrivals, &outcomes, &outstanding, host, i,
                                due] {
        Outcome& out = outcomes[i];
        out.due = due;
        auto id = host->Submit(arrivals[i].function, arrivals[i].input);
        if (id.ok()) {
          out.call_id = id.value();
          auto code = host->Await(id.value());
          out.ok = code.ok() && code.value() == 0;
          if (out.ok) {
            out.output = cluster.calls().Output(id.value()).value();
          }
        }
        out.done = clock.Now();
        outstanding.fetch_sub(1);
      });
    }
    clock.WaitFor([&] { return outstanding.load() == 0; }, kMillisecond);
  });
  health->Merge(run);
  return outcomes;
}

// --- Forwarding InvocationContext ------------------------------------------------

class ForwardingContext final : public InvocationContext {
 public:
  ForwardingContext(InvocationContext& inner, CallProbe* probe) : inner_(inner), probe_(probe) {
    frame_.input_hash = HashBytes(inner.Input());
    frame_.enter = inner.clock().Now();
  }

  const Bytes& Input() const override { return inner_.Input(); }
  void WriteOutput(Bytes output) override { inner_.WriteOutput(std::move(output)); }

  Result<uint64_t> ChainCall(const std::string& function, Bytes input) override {
    const uint64_t input_hash = HashBytes(input);
    const TimeNs start = inner_.clock().Now();
    auto id = inner_.ChainCall(function, std::move(input));
    const TimeNs end = inner_.clock().Now();
    chain_us_.push_back(static_cast<double>(end - start) / 1e3);
    frame_.events.push_back({"runtime.chain", start, end, id.ok() ? id.value() : 0, input_hash});
    return id;
  }

  Result<int> AwaitCall(uint64_t call_id) override {
    const TimeNs start = inner_.clock().Now();
    auto code = inner_.AwaitCall(call_id);
    const TimeNs end = inner_.clock().Now();
    frame_.events.push_back({"runtime.await", start, end, call_id, 0});
    if (auto record = probe_->cluster_->calls().Get(call_id); record.ok()) {
      child_lag_us_.push_back(static_cast<double>(end - record.value().finished_at) / 1e3);
    }
    return code;
  }

  Result<Bytes> GetCallOutput(uint64_t call_id) override { return inner_.GetCallOutput(call_id); }
  LocalTier& state() override { return inner_.state(); }
  Clock& clock() override { return inner_.clock(); }
  Rng& rng() override { return inner_.rng(); }

  void ChargeCompute(TimeNs ns) override {
    const TimeNs start = inner_.clock().Now();
    inner_.ChargeCompute(ns);
    frame_.events.push_back({"core.compute", start, inner_.clock().Now(), 0, 0});
    compute_ns_ += ns;
  }

  void Commit() {
    std::vector<double> compute_us;
    if (compute_ns_ > 0) {
      compute_us.push_back(static_cast<double>(compute_ns_) / 1e3);
    }
    probe_->Commit(std::move(frame_), chain_us_, child_lag_us_, compute_us);
  }

 private:
  InvocationContext& inner_;
  CallProbe* probe_;
  CallProbe::Frame frame_;
  std::vector<double> chain_us_;
  std::vector<double> child_lag_us_;
  TimeNs compute_ns_ = 0;
};

NativeFn CallProbe::Wrap(NativeFn fn) {
  return [this, fn = std::move(fn)](InvocationContext& ctx) {
    ForwardingContext forwarding(ctx, this);
    const int code = fn(forwarding);
    forwarding.Commit();
    return code;
  };
}

void CallProbe::Commit(Frame frame, const std::vector<double>& chain_us,
                       const std::vector<double>& child_lag_us,
                       const std::vector<double>& compute_us) {
  std::lock_guard<std::mutex> guard(mutex_);
  frames_.push_back(std::move(frame));
  for (double v : chain_us) {
    chain_us_.Add(v);
  }
  for (double v : child_lag_us) {
    child_await_lag_us_.Add(v);
  }
  for (double v : compute_us) {
    compute_us_.Add(v);
  }
}

std::vector<CallProbe::Frame> CallProbe::TakeFrames() {
  std::lock_guard<std::mutex> guard(mutex_);
  return std::move(frames_);
}

void CallProbe::DrainInto(Tally* tally) {
  std::lock_guard<std::mutex> guard(mutex_);
  tally->chain_us.Merge(chain_us_);
  tally->child_await_lag_us.Merge(child_await_lag_us_);
  tally->compute_us.Merge(compute_us_);
  chain_us_ = Summary();
  child_await_lag_us_ = Summary();
  compute_us_ = Summary();
}

// --- Trace assembly --------------------------------------------------------------

std::map<uint64_t, int> AddRequestSpans(FaasmCluster& cluster, int episode,
                                        const std::vector<ClientCall>& requests,
                                        const std::vector<CallProbe::Frame>& frames,
                                        const std::map<uint64_t, std::vector<ExtraSpan>>& extra,
                                        Trace* trace) {
  std::map<uint64_t, CallRecord> records;
  for (CallRecord& record : cluster.calls().FinishedRecords()) {
    records[record.id] = std::move(record);
  }
  // A frame ran in the call with the same input hash whose execution window
  // contains the frame's entry. Calls with equal inputs (the same job or
  // epoch repeated) never overlap in time, so the match is unique.
  std::multimap<uint64_t, uint64_t> calls_by_hash;
  for (const ClientCall& request : requests) {
    calls_by_hash.emplace(request.input_hash, request.call_id);
  }
  for (const CallProbe::Frame& frame : frames) {
    for (const CallProbe::Event& event : frame.events) {
      if (event.name == "runtime.chain") {
        calls_by_hash.emplace(event.child_hash, event.child);
      }
    }
  }
  std::map<uint64_t, const CallProbe::Frame*> frame_of;
  for (const CallProbe::Frame& frame : frames) {
    auto [begin, end] = calls_by_hash.equal_range(frame.input_hash);
    for (auto it = begin; it != end; ++it) {
      auto record = records.find(it->second);
      if (record != records.end() && record->second.started_at <= frame.enter &&
          frame.enter <= record->second.finished_at) {
        frame_of[it->second] = &frame;
        break;
      }
    }
  }

  std::function<void(uint64_t, int)> add_exec_children = [&](uint64_t id, int exec_span) {
    if (auto it = extra.find(id); it != extra.end()) {
      for (const ExtraSpan& span : it->second) {
        trace->Add(span.name, id, exec_span, episode, span.start, span.end);
      }
    }
    auto frame_it = frame_of.find(id);
    if (frame_it == frame_of.end()) {
      return;
    }
    for (const CallProbe::Event& event : frame_it->second->events) {
      trace->Add(event.name, id, exec_span, episode, event.start, event.end);
      auto child = records.find(event.child);
      if (event.name != "runtime.chain" || child == records.end()) {
        continue;
      }
      const CallRecord& rec = child->second;
      const int call = trace->Add("runtime.call", rec.id, exec_span, episode, rec.submitted_at,
                                  rec.finished_at);
      trace->Add("runtime.queue", rec.id, call, episode, rec.submitted_at, rec.started_at);
      const int child_exec =
          trace->Add("runtime.exec", rec.id, call, episode, rec.started_at, rec.finished_at);
      add_exec_children(rec.id, child_exec);
    }
  };

  std::map<uint64_t, int> request_spans;
  for (const ClientCall& request : requests) {
    auto it = records.find(request.call_id);
    if (it == records.end()) {
      continue;
    }
    const CallRecord& rec = it->second;
    const uint64_t id = rec.id;
    const int span = trace->Add("request", id, -1, episode, request.due, request.done);
    trace->Add("client.submit", id, span, episode, request.due, rec.submitted_at);
    trace->Add("runtime.queue", id, span, episode, rec.submitted_at, rec.started_at);
    const int exec = trace->Add("runtime.exec", id, span, episode, rec.started_at, rec.finished_at);
    trace->Add("runtime.await_lag", id, span, episode, rec.finished_at, request.done);
    add_exec_children(id, exec);
    request_spans[id] = span;
  }
  return request_spans;
}

// --- Component phase ---------------------------------------------------------------

std::vector<Metric> RunComponentPhase(uint64_t seed, int iterations, bool* ok) {
  RealClock& clock = RealClock::Instance();
  NetworkConfig no_latency;
  no_latency.charge_latency = false;
  InProcNetwork network(&clock, no_latency);
  KvStore store;
  KvsServer server(&store, &network);
  KvsClient kvs(&network, "component");
  LocalTier tier(&kvs, &clock);
  GlobalFileStore files;
  ShardedKvs view(&store);
  const MlpDims dims;
  SeedMlpWeights(view, dims, seed);

  FunctionSpec spec;
  spec.name = "infer";
  spec.module = BuildMlpWasmModule(dims).value();
  FaasletEnv env;
  env.clock = &clock;
  env.tier = &tier;
  env.files = &files;
  env.network = &network;
  env.host_endpoint = "component";

  Summary create_us, restore_us, exec_us, reset_us;
  std::unique_ptr<Faaslet> faaslet;
  for (int i = 0; i < iterations; ++i) {
    Stopwatch watch;
    auto created = Faaslet::Create(spec, env);
    create_us.Add(static_cast<double>(watch.ElapsedNs()) / 1e3);
    faaslet = std::move(created).value();
  }
  auto proto = ProtoFaaslet::CaptureFrom(*faaslet).value();
  for (int i = 0; i < iterations; ++i) {
    Stopwatch watch;
    auto restored = Faaslet::CreateFromProto(spec, env, proto);
    restore_us.Add(static_cast<double>(watch.ElapsedNs()) / 1e3);
    *ok = *ok && restored.ok();
  }
  uint64_t instructions = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::vector<float> image = SyntheticImage(dims, seed * 1000 + i);
    const uint64_t before = faaslet->instance()->instructions_retired();
    Stopwatch exec_watch;
    auto code = faaslet->Execute(EncodeImage(image));
    exec_us.Add(static_cast<double>(exec_watch.ElapsedNs()) / 1e3);
    instructions = faaslet->instance()->instructions_retired() - before;
    const Bytes output = faaslet->TakeOutput();
    uint32_t label = ~0u;
    if (output.size() == sizeof(label)) {
      std::memcpy(&label, output.data(), sizeof(label));
    }
    *ok = *ok && code.ok() && code.value() == 0 && label == MlpReference(view, dims, image);
    Stopwatch reset_watch;
    *ok = *ok && faaslet->Reset().ok();
    reset_us.Add(static_cast<double>(reset_watch.ElapsedNs()) / 1e3);
  }
  const double exec_p50 = Percentile(exec_us, 50);
  return {
      {"core.create_us.p50", Percentile(create_us, 50), "us", Source::kWall},
      {"core.proto_restore_us.p50", Percentile(restore_us, 50), "us", Source::kWall},
      {"wasm.exec_us.p50", exec_p50, "us", Source::kWall},
      {"wasm.instructions", static_cast<double>(instructions), "count", Source::kCount},
      {"wasm.mips", exec_p50 > 0 ? static_cast<double>(instructions) / exec_p50 : 0, "MIPS",
       Source::kWall},
      {"mem.reset_us.p50", Percentile(reset_us, 50), "us", Source::kWall},
      {"mem.snapshot_kb", static_cast<double>(proto->snapshot_bytes()) / 1024.0, "KB",
       Source::kCount},
      {"mem.footprint_kb", static_cast<double>(faaslet->FootprintBytes()) / 1024.0, "KB",
       Source::kCount},
  };
}

// --- Report ------------------------------------------------------------------------

namespace {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double PerOp(double total, uint64_t units) {
  return units == 0 ? 0 : total / static_cast<double>(units);
}

void AddLayerMetrics(const Tally& t, RunResult* result) {
  auto add = [&](const char* name, double value, const char* unit, Source source) {
    result->metrics.push_back({name, value, unit, source});
  };
  const uint64_t units = t.attempted - t.failed;
  const Counters& c = t.counters;
  add("runtime.queue_us.p50", Percentile(t.queue_us, 50), "us", Source::kVirtual);
  add("runtime.queue_us.p99", Percentile(t.queue_us, 99), "us", Source::kVirtual);
  add("runtime.exec_us.p50", Percentile(t.exec_us, 50), "us", Source::kVirtual);
  add("runtime.exec_us.p99", Percentile(t.exec_us, 99), "us", Source::kVirtual);
  add("runtime.await_lag_us.p50", Percentile(t.await_lag_us, 50), "us", Source::kVirtual);
  add("runtime.await_lag_us.p99", Percentile(t.await_lag_us, 99), "us", Source::kVirtual);
  add("runtime.calls_per_op", PerOp(static_cast<double>(t.calls), units), "count",
      Source::kCount);
  add("runtime.cold_starts_per_op", PerOp(static_cast<double>(c.cold_starts), units), "count",
      Source::kCount);
  double max_calls = 0;
  double sum_calls = 0;
  for (uint64_t executed : c.executed) {
    max_calls = std::max(max_calls, static_cast<double>(executed));
    sum_calls += static_cast<double>(executed);
  }
  add("runtime.host_skew",
      sum_calls > 0 ? max_calls / (sum_calls / static_cast<double>(c.executed.size())) : 0,
      "ratio", Source::kCount);
  add("runtime.gen_late_us.max", static_cast<double>(t.generator.late_max_ns) / 1e3, "us",
      Source::kVirtual);
  add("runtime.inflight.max", static_cast<double>(t.generator.inflight_max), "count",
      Source::kCount);
  add("core.cold_queue_us.p50", Percentile(t.cold_queue_us, 50), "us", Source::kVirtual);
  add("kvs.read_rpcs_per_op", PerOp(static_cast<double>(c.read_rpcs), units), "count",
      Source::kCount);
  add("kvs.write_rpcs_per_op", PerOp(static_cast<double>(c.write_rpcs), units), "count",
      Source::kCount);
  add("kvs.forward_rpcs_per_op", PerOp(static_cast<double>(c.forward_rpcs), units), "count",
      Source::kCount);
  add("kvs.forwarded_ops_per_op", PerOp(static_cast<double>(c.forwarded_ops), units), "count",
      Source::kCount);
  add("kvs.replica_serves_per_op", PerOp(static_cast<double>(c.replica_serves), units), "count",
      Source::kCount);
  const double reads = static_cast<double>(c.replica_serves + c.read_rpcs);
  add("kvs.replica_serve_ratio", reads > 0 ? static_cast<double>(c.replica_serves) / reads : 0,
      "ratio", Source::kCount);
  add("kvs.cache_hits_per_op", PerOp(static_cast<double>(c.cache_hits), units), "count",
      Source::kCount);
  add("net.msgs_per_op", PerOp(static_cast<double>(c.net_msgs), units), "count", Source::kCount);
  const double call_bytes = static_cast<double>(c.net_bytes - c.kvs_bytes - c.rep_bytes);
  add("net.kvs_kb_per_op", PerOp(static_cast<double>(c.kvs_bytes) / 1024.0, units), "KB",
      Source::kCount);
  add("net.rep_kb_per_op", PerOp(static_cast<double>(c.rep_bytes) / 1024.0, units), "KB",
      Source::kCount);
  add("net.call_kb_per_op", PerOp(call_bytes / 1024.0, units), "KB", Source::kCount);
  add("sim.wall_s", t.wall_s, "s", Source::kWall);
  add("sim.wall_us_per_op", PerOp(t.wall_s * 1e6, units), "us", Source::kWall);
  add("sim.virtual_s", t.virtual_s, "s", Source::kVirtual);
}

}  // namespace

void AddCommonMetrics(const Tally& plain, const Tally* traced, double tail_percentile,
                      RunResult* result) {
  auto add = [&](const std::string& name, double value, const char* unit, Source source) {
    result->metrics.push_back({name, value, unit, source});
  };
  Summary setup = plain.setup_s;
  if (traced != nullptr) {
    setup.Merge(traced->setup_s);
  }
  const uint64_t units = plain.attempted - plain.failed;
  add("setup_s", Percentile(setup, 50), "s", Source::kWall);
  add("p50_ms", Percentile(plain.latency_ms, 50), "ms", Source::kVirtual);
  add("tail_ms", Percentile(plain.latency_ms, tail_percentile), "ms", Source::kVirtual);
  add("tail_percentile", tail_percentile, "pct", Source::kCount);
  add("latency.samples", static_cast<double>(plain.latency_ms.count()), "count", Source::kCount);
  add("throughput_per_s", plain.virtual_s > 0 ? plain.work / plain.virtual_s : 0, "1/s",
      Source::kVirtual);
  add("net_kb_per_op", PerOp(static_cast<double>(plain.counters.net_bytes) / 1024.0, units), "KB",
      Source::kCount);
  add("billable_mb_s_per_op", PerOp(plain.counters.gb_s * 1024.0, units), "MB.s",
      Source::kVirtual);
  add("peak_rss_mb", PeakRssMb(), "MB", Source::kWall);
  add("failed_frac",
      plain.attempted == 0 ? 0
                           : static_cast<double>(plain.failed) / static_cast<double>(plain.attempted),
      "ratio", Source::kCount);
  result->attempted = plain.attempted + (traced != nullptr ? traced->attempted : 0);
  result->failed = plain.failed + (traced != nullptr ? traced->failed : 0);
  if (result->failed > 0) {
    result->correct = false;
  }

  const Tally& layers = traced != nullptr ? *traced : plain;
  AddLayerMetrics(layers, result);
  if (traced == nullptr) {
    return;
  }
  add("state.prefetch_us.p50", Percentile(layers.prefetch_us, 50), "us", Source::kVirtual);
  add("state.prefetch_us.p99", Percentile(layers.prefetch_us, 99), "us", Source::kVirtual);
  add("state.append_us.p50", Percentile(layers.append_us, 50), "us", Source::kVirtual);
  add("state.append_us.p99", Percentile(layers.append_us, 99), "us", Source::kVirtual);
  add("runtime.chain_us.p50", Percentile(layers.chain_us, 50), "us", Source::kVirtual);
  add("runtime.child_await_lag_us.p50", Percentile(layers.child_await_lag_us, 50), "us",
      Source::kVirtual);
  add("core.compute_us.p50", Percentile(layers.compute_us, 50), "us", Source::kWall);
  // Tracing records spans only in benchmark code, so virtual time should not
  // move; the wall-time difference is what recording costs the simulator.
  const double plain_wall = Percentile(plain.episode_wall_us_per_op, 50);
  const double traced_wall = Percentile(traced->episode_wall_us_per_op, 50);
  add("sim.trace_overhead_pct", plain_wall > 0 ? (traced_wall / plain_wall - 1) * 100 : 0, "%",
      Source::kWall);
  const double plain_p50 = Percentile(plain.episode_p50_ms, 50);
  const double traced_p50 = Percentile(traced->episode_p50_ms, 50);
  add("sim.trace_p50_shift_pct", plain_p50 > 0 ? (traced_p50 / plain_p50 - 1) * 100 : 0, "%",
      Source::kVirtual);
}

EpisodeClock::EpisodeClock(const Options& options)
    : budget_s_(options.seconds), tiny_(options.tiny), min_episodes_(options.traced ? 2 : 1) {}

bool EpisodeClock::StartNext() {
  // The previous episode's cluster is gone; hand its freed heap back to the
  // OS so every episode's peak RSS starts from the same floor instead of
  // from whatever the allocator's arenas happened to keep.
  malloc_trim(0);
  if (tiny_) {
    return started_++ < min_episodes_;
  }
  const double elapsed = static_cast<double>(watch_.ElapsedNs()) / 1e9;
  if (started_ >= min_episodes_ &&
      elapsed + elapsed / static_cast<double>(started_) > budget_s_) {
    return false;
  }
  ++started_;
  return true;
}

}  // namespace faasm::bench

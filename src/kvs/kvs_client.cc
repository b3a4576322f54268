#include "kvs/kvs_client.h"

#include <algorithm>
#include <functional>
#include <map>

#include "kvs/batch_codec.h"
#include "kvs/replication.h"
#include "net/framing.h"

namespace faasm {

// The wire codec (WriteStatus/ReadStatus, the batch sub-op dialects) lives
// in kvs/batch_codec.{h,cc}, shared with the replication forward channel.

// --- Server -------------------------------------------------------------------

KvsServer::KvsServer(KvStore* store, ReplicaShard* replica, InProcNetwork* network,
                     std::string endpoint)
    : store_(store), replica_(replica), network_(network), endpoint_(std::move(endpoint)) {
  network_->RegisterEndpoint(endpoint_, [this](const Bytes& request) { return Handle(request); });
}

KvsServer::~KvsServer() { network_->UnregisterEndpoint(endpoint_); }

namespace {

// A response that is only a status byte (request-level errors, installs).
Bytes StatusResponse(const Status& status) {
  Bytes response;
  ByteWriter writer(response);
  WriteStatus(writer, status);
  return response;
}

// The two helpers below are kept out of line: they hold temporaries that
// must not sit in Handle's frame while the store (and a replication
// forward) runs beneath it — see Handle.
[[gnu::noinline]] Bytes ErrorResponse(const char* message) {
  return StatusResponse(InvalidArgument(message));
}

// The framing-level Ok, then one framed result per op.
[[gnu::noinline]] Bytes BatchResponse(const std::vector<KvsBatchOp>& ops,
                                      const std::vector<KvsBatchResult>& results) {
  Bytes response = StatusResponse(OkStatus());
  ByteWriter writer(response);
  BeginFrameBatch(writer, static_cast<uint32_t>(ops.size()));
  for (size_t i = 0; i < ops.size(); ++i) {
    AppendFrameInPlace(response,
                       [&](ByteWriter& part) { WriteBatchResult(part, ops[i].op, results[i]); });
  }
  return response;
}

}  // namespace

Bytes KvsServer::HandleMigrateInstall(ByteReader& reader) {
  // The migration stream (a primary endpoint) or a catch-up / promotion
  // snapshot (a replica endpoint). Exempt from the ownership guard: it
  // installs a key BEFORE the epoch flips it to this shard.
  std::string key;
  KeyExport record;
  Status decoded = DecodeMigrateInstall(reader, key, record);
  if (decoded.ok() && replica_ != nullptr) {
    replica_->Install(key, record, /*only_if_newer=*/false, replica_->CurrentEpoch());
  } else if (decoded.ok()) {
    store_->InstallKey(key, record);
  }
  return StatusResponse(decoded);
}

std::vector<const KvsBatchOp*> KvsServer::AdmitBatch(const std::vector<ByteReader>& parts,
                                                     bool read_only,
                                                     std::vector<KvsBatchOp>& ops,
                                                     std::vector<KvsBatchResult>& results) {
  std::vector<const KvsBatchOp*> runnable;
  bool reads_data = parts.empty();
  for (size_t i = 0; i < parts.size(); ++i) {
    KvsBatchOp& op = ops[i];
    Status& status = results[i].status;
    status = DecodeOp(parts[i], /*replica_dialect=*/replica_ != nullptr, op);
    reads_data = reads_data || op.op != KvsOp::kSetMembers;
    if (!status.ok()) {
      continue;
    }
    if (read_only && !IsReadBatchOp(op.op)) {
      // A kGetBatch is read-only by contract: a mutating sub-op smuggled in
      // is rejected here, before it can touch the store.
      status = InvalidArgument("kvs: mutating op in read batch");
    } else {
      runnable.push_back(&op);
    }
  }
  // A kGetBatch is one read RPC unless it only asks existence/membership
  // questions.
  if (read_only && reads_data) {
    read_rpcs_.Increment();
  }
  return runnable;
}

std::vector<KvsBatchResult> KvsServer::Execute(const std::vector<const KvsBatchOp*>& ops) {
  return replica_ != nullptr ? replica_->ApplyForwarded(ops) : store_->ExecuteBatch(ops);
}

// Every simulated activity runs on its own thread, and a request's server
// half runs on the caller's stack (InProcNetwork::Call), so the frames live
// under the store call count toward every call's stack footprint. Handle
// therefore keeps its own frame small: admission (decoding), installs and
// response encoding run in their own functions.
Bytes KvsServer::Handle(const Bytes& request) {
  ByteReader reader(request);
  auto op_byte = reader.Get<uint8_t>();
  const KvsOp op = op_byte.ok() ? static_cast<KvsOp>(op_byte.value()) : KvsOp{};
  if (op == KvsOp::kMigrateInstall) {
    return HandleMigrateInstall(reader);
  }
  // A replica endpoint answers only the forward channel's kBatch.
  if (op != KvsOp::kBatch && (op != KvsOp::kGetBatch || replica_ != nullptr)) {
    return ErrorResponse(op_byte.ok() ? "unknown kvs op" : "malformed request");
  }
  // Every client request is a batch: no top-level key — each framed sub-op
  // carries its own, and the store checks ownership per op. A kBatch is one write
  // RPC (its sub-ops may mix, but only a group with a mutation ships as
  // kBatch); AdmitBatch counts a kGetBatch once its sub-ops are decoded.
  const bool read_only = op == KvsOp::kGetBatch;
  if (!read_only) {
    write_rpcs_.Increment();
  }
  auto parts = ReadFrameSpans(reader);
  if (!parts.ok()) {
    if (read_only) {
      read_rpcs_.Increment();
    }
    return ErrorResponse("malformed batch request");
  }
  // An op the admission checks settled keeps its slot and error; the rest
  // run through the endpoint's executor in one call.
  std::vector<KvsBatchOp> ops(parts.value().size());
  std::vector<KvsBatchResult> results(ops.size());
  std::vector<KvsBatchResult> executed =
      Execute(AdmitBatch(parts.value(), read_only, ops, results));
  for (size_t i = 0, next = 0; i < ops.size(); ++i) {
    if (results[i].status.ok()) {
      results[i] = std::move(executed[next++]);
    }
  }
  return BatchResponse(ops, results);
}

// --- Client -------------------------------------------------------------------

namespace {

// RunGroup's group key for this host's own shard (the master-local group).
const std::string kNoEndpoint;

// The sub-op of a unified read: a whole-value read is kGet, a ranged one
// kGetRange.
KvsBatchOp ReadOp(std::string key, const ReadOptions& options) {
  return {.op = options.whole_value() ? KvsOp::kGet : KvsOp::kGetRange,
          .key = std::move(key),
          .offset = options.offset,
          .len = options.len};
}

// Ops that rewrite a key's value or set drop its cached read before they are
// sent, so the cache can never mask a write already on its way. Lock ops do
// not; an acquired lock invalidates once it lands (Settle).
bool DropsCachedRead(KvsOp op) {
  return IsMutatingOp(op) && op != KvsOp::kLockRead && op != KvsOp::kLockWrite &&
         op != KvsOp::kUnlockRead && op != KvsOp::kUnlockWrite;
}

}  // namespace

KvsClient::KvsClient(InProcNetwork* network, std::string source, std::string server)
    : own_shards_(std::make_unique<ShardMap>(std::vector<std::string>{std::move(server)})),
      network_(network),
      source_(std::move(source)),
      shards_(own_shards_.get()),
      local_endpoint_(ShardMap::EndpointForHost(source_)),
      read_cache_(&network->clock(), shards_) {}

KvsClient::KvsClient(InProcNetwork* network, std::string source, const ShardMap* shards,
                     KvStore* local_store)
    : network_(network),
      source_(std::move(source)),
      shards_(shards),
      local_store_(local_store),
      local_endpoint_(ShardMap::EndpointForHost(source_)),
      read_cache_(&network->clock(), shards) {}

Status KvsClient::RedirectBudgetExhausted(const std::string& key, const std::string& endpoint,
                                          int attempts, const Status& last) {
  return DeadlineExceeded("kvs: retry budget exhausted for key '" + key + "' after " +
                          std::to_string(attempts) + " attempts (last endpoint: " +
                          (endpoint.empty() ? "<local>" : endpoint) +
                          ", last error: " + last.ToString() + ")");
}

KvsClient::Route KvsClient::RouteFor(const std::string& key) const {
  std::string master = shards_->MasterFor(key);
  if (local_store_ != nullptr && master == local_endpoint_) {
    // Local fast path: this host IS the key's master. Direct in-process
    // store call; no round trip, no accounted bytes.
    return Route{local_store_, std::move(master)};
  }
  return Route{nullptr, std::move(master)};
}

bool KvsClient::MasterLocal(const std::string& key) const {
  // Defined in terms of RouteFor so the scheduler's placement hint can never
  // diverge from the routing the ops actually take.
  return RouteFor(key).local != nullptr;
}

std::string KvsClient::MasterHostFor(const std::string& key) const {
  return ShardMap::HostForEndpoint(shards_->MasterFor(key));
}

bool KvsClient::TryReplicaRead(const KvsBatchOp& op, KvsBatchResult& served) {
  KvsBatchResult result = replica_->Read(op);
  if (result.status.ok() || result.status.code() == StatusCode::kNotFound) {
    // Served (a certified copy's NotFound is the truth — the master would
    // answer the same).
    replica_served_.Increment();
    served = std::move(result);
    return true;
  }
  if (result.status.code() == StatusCode::kUnavailable) {
    // Our own mirror is fenced: the cluster declared THIS host dead and a
    // zombie is still reading. Feed the detector (it resolves "rep:<host>")
    // and fall through — the master path's ownership checks handle the rest.
    if (suspicion_hook_ != nullptr) {
      suspicion_hook_(ReplicaEndpointForHost(ShardMap::HostForEndpoint(local_endpoint_)));
    }
  }
  // kFailedPrecondition (stale certification) and anything unexpected fall
  // through to the master.
  return false;
}

bool KvsClient::ReadShortcut(const KvsBatchOp& op, const Route& route,
                             const std::set<std::string>* batch_writes, KvsBatchResult& served) {
  // Master-local reads are already free, and caching them would only add
  // staleness; only value reads have cached or mirrored bytes to serve.
  if (route.local != nullptr || (op.op != KvsOp::kGet && op.op != KvsOp::kGetRange)) {
    return false;
  }
  if (auto hit = read_cache_.Lookup(op.key, op.offset, op.len, &served.length)) {
    served.value = std::move(*hit);
    return true;
  }
  // Tier two: a co-located replica. When this host holds a copy of the key
  // under the current epoch and the copy is certified for it, the backup
  // answers in-process — zero network bytes.
  if (replica_ == nullptr) {
    return false;
  }
  const std::vector<std::string> holders = shards_->HoldersFor(op.key);
  if (std::find(holders.begin(), holders.end(), local_endpoint_) == holders.end()) {
    return false;
  }
  // Read-your-writes inside a batch: a read of a key the batch itself writes
  // rides to the master group behind that write.
  if (batch_writes != nullptr && batch_writes->count(op.key) > 0) {
    return false;
  }
  if (!TryReplicaRead(op, served)) {
    return false;
  }
  if (served.status.ok() && op.op == KvsOp::kGet) {
    read_cache_.InsertFull(op.key, served.value);  // tier two refreshes tier one
  }
  return true;
}

KvsBatchResult KvsClient::RunOne(KvsBatchOp op) {
  std::vector<OpBatch::Pending> group(1);
  OpBatch::Pending& pending = group.front();
  pending.op = std::move(op);
  KvsBatchResult result;
  if (DropsCachedRead(pending.op.op)) {
    read_cache_.Invalidate(pending.op.key);
  } else if (ReadShortcut(pending.op, RouteFor(pending.op.key), nullptr, result)) {
    return result;
  }
  pending.complete = [&result](KvsBatchResult answer) { result = std::move(answer); };
  (void)RunGroup(std::move(group));
  return result;
}

Status KvsClient::Set(const std::string& key, const Bytes& value) {
  return RunOne({.op = KvsOp::kSet, .key = key, .bytes = value}).status;
}

Result<Bytes> KvsClient::Read(const std::string& key, const ReadOptions& options,
                              uint64_t* value_size) {
  KvsBatchResult result = RunOne(ReadOp(key, options));
  if (result.status.ok() && value_size != nullptr) {
    *value_size = result.length;
  }
  return Answer(std::move(result), &KvsBatchResult::value);
}

Result<uint64_t> KvsClient::Append(const std::string& key, const Bytes& bytes) {
  return Answer(RunOne({.op = KvsOp::kAppend, .key = key, .bytes = bytes}),
                &KvsBatchResult::length);
}

Status KvsClient::SetRanges(const std::string& key, std::vector<ValueRange> ranges) {
  return RunOne(
             {.op = KvsOp::kSetRanges, .key = key, .ranges = MergeValueRanges(std::move(ranges))})
      .status;
}

Result<bool> KvsClient::TryLockRead(const std::string& key) {
  return Answer(RunOne({.op = KvsOp::kLockRead, .key = key, .member = source_}),
                &KvsBatchResult::flag);
}

Result<bool> KvsClient::TryLockWrite(const std::string& key) {
  return Answer(RunOne({.op = KvsOp::kLockWrite, .key = key, .member = source_}),
                &KvsBatchResult::flag);
}

Status KvsClient::UnlockRead(const std::string& key) {
  return RunOne({.op = KvsOp::kUnlockRead, .key = key, .member = source_}).status;
}

Status KvsClient::UnlockWrite(const std::string& key) {
  return RunOne({.op = KvsOp::kUnlockWrite, .key = key, .member = source_}).status;
}

Result<bool> KvsClient::SetAdd(const std::string& key, const std::string& member) {
  return Answer(RunOne({.op = KvsOp::kSetAdd, .key = key, .member = member}),
                &KvsBatchResult::flag);
}

Result<std::vector<std::string>> KvsClient::SetMembers(const std::string& key) {
  return Answer(RunOne({.op = KvsOp::kSetMembers, .key = key}), &KvsBatchResult::members);
}

// --- Batched ops ----------------------------------------------------------------

OpBatch::Completion OpBatch::StatusAck(Ack done) {
  if (done == nullptr) {
    return nullptr;
  }
  return [done = std::move(done)](KvsBatchResult result) { done(result.status); };
}

void OpBatch::Push(KvsBatchOp op, Completion complete) {
  ops_.push_back(Pending{std::move(op), std::move(complete)});
}

void OpBatch::SetRanges(std::string key, std::vector<ValueRange> ranges, Ack done) {
  Push({.op = KvsOp::kSetRanges, .key = std::move(key), .ranges = MergeValueRanges(std::move(ranges))},
       StatusAck(std::move(done)));
}

void OpBatch::SetAdd(std::string key, std::string member, Ack done) {
  Push({.op = KvsOp::kSetAdd, .key = std::move(key), .member = std::move(member)},
       StatusAck(std::move(done)));
}

void OpBatch::SetRemove(std::string key, std::string member, Ack done) {
  Push({.op = KvsOp::kSetRemove, .key = std::move(key), .member = std::move(member)},
       StatusAck(std::move(done)));
}

void OpBatch::Read(std::string key, ReadOptions options, ReadAck done) {
  Completion complete = nullptr;
  if (done != nullptr) {
    complete = [done = std::move(done)](KvsBatchResult result) {
      if (result.status.ok()) {
        done(std::move(result.value));
      } else {
        done(result.status);
      }
    };
  }
  Push(ReadOp(std::move(key), options), std::move(complete));
}

Status BatchHandle::Wait(TimeNs deadline_ns) {
  if (shared_ == nullptr) {
    return OkStatus();
  }
  const TimeNs deadline = deadline_ns > 0 ? clock_->Now() + deadline_ns : kNoDeadline;
  // Parks until the last group's wake. Wait re-checks completion at the
  // deadline, so a batch that finished exactly then reports its real status.
  (void)clock_->Wait(shared_->done, [this] { return done(); }, deadline);
  std::lock_guard<std::mutex> guard(shared_->mutex);
  if (shared_->outstanding == 0) {
    return shared_->status;
  }
  return DeadlineExceeded("kvs batch wait: " + std::to_string(shared_->outstanding) +
                          " op group(s) still outstanding after " +
                          std::to_string(deadline_ns / kMillisecond) + "ms");
}

bool BatchHandle::done() const {
  if (shared_ == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> guard(shared_->mutex);
  return shared_->outstanding == 0;
}

void KvsClient::CompleteOp(OpBatch::Pending& pending, KvsBatchResult result) {
  if (pending.complete != nullptr) {
    OpBatch::Completion complete = std::move(pending.complete);
    pending.complete = nullptr;
    complete(std::move(result));
  }
}

std::vector<KvsBatchResult> KvsClient::IssueGroup(const std::string& endpoint,
                                                  const std::vector<OpBatch::Pending>& ops) {
  if (endpoint.empty()) {
    std::vector<const KvsBatchOp*> pointers;
    pointers.reserve(ops.size());
    for (const OpBatch::Pending& pending : ops) {
      pointers.push_back(&pending.op);
    }
    return local_store_->ExecuteBatch(pointers);
  }
  // A pure read group ships as kGetBatch — the wire-visible read-only twin
  // (the server rejects any mutating sub-op in one).
  const bool all_reads = std::all_of(ops.begin(), ops.end(), [](const OpBatch::Pending& pending) {
    return IsReadBatchOp(pending.op.op);
  });
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(all_reads ? KvsOp::kGetBatch : KvsOp::kBatch));
  BeginFrameBatch(writer, static_cast<uint32_t>(ops.size()));
  for (const OpBatch::Pending& pending : ops) {
    AppendFrame(writer, EncodeBatchOp(pending.op));
  }
  return ParseBatchResponse(network_->Call(source_, endpoint, request), ops);
}

std::vector<KvsBatchResult> KvsClient::ParseBatchResponse(const Result<Bytes>& response,
                                                          const std::vector<OpBatch::Pending>& ops) {
  std::vector<KvsBatchResult> results(ops.size());
  auto fail_all = [&](const Status& status) {
    for (KvsBatchResult& result : results) {
      result.status = status;
    }
    return results;
  };
  if (!response.ok()) {
    return fail_all(response.status());
  }
  ByteReader reader(response.value());
  Status framing = ReadStatus(reader);
  if (!framing.ok()) {
    return fail_all(framing);
  }
  auto result_parts = ReadFrameSpans(reader);
  if (!result_parts.ok() || result_parts.value().size() != ops.size()) {
    return fail_all(Internal("kvs: malformed batch response"));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    results[i] = DecodeBatchResult(ops[i].op.op, result_parts.value()[i]);
  }
  return results;
}

Status KvsClient::Settle(std::vector<OpBatch::Pending>& group, std::vector<KvsBatchResult> results,
                         const std::string& endpoint, int attempt,
                         std::vector<OpBatch::Pending>& retry) {
  Status first_error = OkStatus();
  const bool from_remote = !endpoint.empty();
  for (size_t i = 0; i < group.size(); ++i) {
    // kUnavailable bounces like kWrongMaster: the master crashed and its
    // endpoint vanished; the failover epoch flip reroutes the retry. The
    // bounce is also crash evidence — report it so the detector probes
    // the silent host instead of waiting out the heartbeat timeout.
    const bool unavailable = results[i].status.code() == StatusCode::kUnavailable;
    if (unavailable && from_remote && suspicion_hook_ != nullptr) {
      suspicion_hook_(endpoint);
    }
    const bool bounced = results[i].status.code() == StatusCode::kWrongMaster || unavailable;
    if (bounced && attempt < kMaxRedirectRetries) {
      retry.push_back(std::move(group[i]));  // retry just this op
      continue;
    }
    if (bounced) {
      // Budget ran dry while the op was still bouncing: surface the typed
      // deadline error so the ack can tell an extended outage from a
      // permanent one-shot failure. The op completes — a stranded op must
      // never leave its BatchHandle waiting forever.
      results[i].status =
          RedirectBudgetExhausted(group[i].op.key, endpoint, attempt, results[i].status);
    }
    if (!results[i].status.ok() && first_error.ok()) {
      first_error = results[i].status;
    }
    const KvsBatchOp& op = group[i].op;
    if (results[i].status.ok()) {
      // A whole-value read that crossed the network refreshes the cache
      // (partial values never populate it). An acquired lock drops the key's
      // cached read: the first read under the lock refetches the bytes the
      // lock serialises, not a leased copy.
      if (from_remote && read_cache_.enabled() && op.op == KvsOp::kGet) {
        read_cache_.InsertFull(op.key, results[i].value);
      } else if ((op.op == KvsOp::kLockRead || op.op == KvsOp::kLockWrite) && results[i].flag) {
        read_cache_.Invalidate(op.key);
      }
    }
    CompleteOp(group[i], std::move(results[i]));
  }
  return first_error;
}

Status KvsClient::RunGroup(std::vector<OpBatch::Pending> ops) {
  Status first_error = OkStatus();
  int attempt = 0;
  while (!ops.empty()) {
    // Regroup by the keys' CURRENT masters ("" = this host's own shard):
    // after a kWrongMaster bounce the epoch may have flipped, splitting the
    // survivors across new endpoints.
    std::map<std::string, std::vector<OpBatch::Pending>> groups;
    for (OpBatch::Pending& pending : ops) {
      Route route = RouteFor(pending.op.key);
      groups[route.local != nullptr ? kNoEndpoint : route.endpoint].push_back(std::move(pending));
    }
    ops.clear();
    for (auto& [endpoint, group] : groups) {
      Status status = Settle(group, IssueGroup(endpoint, group), endpoint, attempt, ops);
      first_error = first_error.ok() ? status : first_error;
    }
    if (!ops.empty()) {
      ++attempt;
      network_->clock().SleepFor(kRedirectBackoffNs);
    }
  }
  return first_error;
}

BatchHandle KvsClient::DispatchBatch(OpBatch&& batch) {
  BatchHandle handle;
  if (batch.ops_.empty()) {
    return handle;
  }

  // Initial grouping by current master. Each group becomes one activity;
  // the master-local group and single-group batches run inline (no thread
  // spawn for the degenerate cases). Mutating ops drop the key's cached
  // read here (before any RPC, so the cache can never mask an op already
  // accepted into a batch); cross-host reads consult the cache and ops it
  // serves complete immediately with zero network bytes.
  std::map<std::string, std::vector<OpBatch::Pending>> groups;
  // Keys this batch itself mutates: a later read of one in the SAME batch
  // must not be served by a replica — it would jump the batch's own write.
  std::set<std::string> mutated_in_batch;
  for (OpBatch::Pending& pending : batch.ops_) {
    Route route = RouteFor(pending.op.key);
    if (DropsCachedRead(pending.op.op)) {
      read_cache_.Invalidate(pending.op.key);
      if (replica_ != nullptr) {
        mutated_in_batch.insert(pending.op.key);
      }
    } else if (KvsBatchResult served; ReadShortcut(pending.op, route, &mutated_in_batch, served)) {
      CompleteOp(pending, std::move(served));
      continue;
    }
    const std::string& slot = route.local != nullptr ? local_endpoint_ : route.endpoint;
    groups[slot].push_back(std::move(pending));
  }
  batch.ops_.clear();
  if (groups.empty()) {
    return handle;  // every op was served from the cache
  }
  handle.clock_ = &network_->clock();
  handle.shared_ = std::make_shared<BatchHandle::Shared>();
  handle.shared_->outstanding = static_cast<int>(groups.size());

  size_t remote_groups = 0;
  for (const auto& [endpoint, group] : groups) {
    remote_groups += (local_store_ != nullptr && endpoint == local_endpoint_) ? 0 : 1;
  }
  for (auto& [endpoint, group] : groups) {
    auto run = [this, shared = handle.shared_, ops = std::move(group)]() mutable {
      Status status = RunGroup(std::move(ops));
      bool last = false;
      {
        std::lock_guard<std::mutex> guard(shared->mutex);
        if (!status.ok() && shared->status.ok()) {
          shared->status = status;
        }
        shared->outstanding -= 1;
        last = shared->outstanding == 0;
      }
      if (last) {
        network_->clock().Wake(shared->done);
      }
    };
    const bool is_local = local_store_ != nullptr && endpoint == local_endpoint_;
    // Pipelining: overlap round trips only when more than one group crosses
    // the network; everything else runs on the caller's activity.
    if (spawner_ != nullptr && !is_local && remote_groups > 1) {
      spawner_(std::move(run));
    } else {
      run();
    }
  }
  return handle;
}

}  // namespace faasm

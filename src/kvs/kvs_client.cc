#include "kvs/kvs_client.h"

#include <algorithm>
#include <functional>
#include <map>

#include "kvs/batch_codec.h"
#include "net/framing.h"

namespace faasm {

// The wire codec (WriteStatus/ReadStatus, the batch sub-op dialects) lives
// in kvs/batch_codec.{h,cc}, shared with the replication forward channel.

// --- Server -------------------------------------------------------------------

KvsServer::KvsServer(KvStore* store, InProcNetwork* network, std::string endpoint,
                     const ShardMap* map)
    : store_(store), network_(network), endpoint_(std::move(endpoint)), map_(map) {
  network_->RegisterEndpoint(endpoint_, [this](const Bytes& request) { return Handle(request); });
}

KvsServer::~KvsServer() { network_->UnregisterEndpoint(endpoint_); }

Bytes KvsServer::Handle(const Bytes& request) {
  Bytes response;
  ByteWriter writer(response);
  ByteReader reader(request);

  auto op_byte = reader.Get<uint8_t>();
  if (!op_byte.ok()) {
    WriteStatus(writer, InvalidArgument("malformed request"));
    return response;
  }
  const KvsOp op = static_cast<KvsOp>(op_byte.value());
  if (op == KvsOp::kGet || op == KvsOp::kGetRange || op == KvsOp::kSize ||
      op == KvsOp::kGetBatch) {
    read_rpcs_.Increment();
  }
  // Write-side twin of the read tally. kBatch counts as one write RPC (its
  // sub-ops may mix, but only a mutating batch ships as kBatch);
  // kMigrateInstall is excluded — stream traffic is accounted by the
  // migration/replication subsystems, not as client write load.
  if (IsMutatingOp(op) || op == KvsOp::kBatch) {
    write_rpcs_.Increment();
  }
  if (op == KvsOp::kBatch || op == KvsOp::kGetBatch) {
    // Batched request: no top-level key — each framed sub-op carries its
    // own, and ownership is checked per op.
    HandleBatch(reader, writer, /*read_only=*/op == KvsOp::kGetBatch);
    return response;
  }
  auto key = reader.GetString();
  if (!key.ok()) {
    WriteStatus(writer, InvalidArgument("malformed request"));
    return response;
  }

  // Epoch-aware ownership check: a request routed under a stale shard map
  // lands here although mastership moved — redirect the client instead of
  // serving (or worse, creating) a stranded copy. Migration installs are
  // exempt: they stream a key in BEFORE the epoch flips it to this shard.
  if (map_ != nullptr && static_cast<KvsOp>(op_byte.value()) != KvsOp::kMigrateInstall &&
      map_->MasterFor(key.value()) != endpoint_) {
    WriteStatus(writer, WrongMaster("kvs: '" + key.value() + "' is not mastered by " + endpoint_));
    return response;
  }

  switch (static_cast<KvsOp>(op_byte.value())) {
    case KvsOp::kGet: {
      auto value = store_->Get(key.value());
      WriteStatus(writer, value.status());
      if (value.ok()) {
        writer.PutBytes(value.value());
      }
      break;
    }
    case KvsOp::kSet: {
      auto value = reader.GetBytes();
      if (!value.ok()) {
        WriteStatus(writer, value.status());
        break;
      }
      WriteStatus(writer, store_->Set(key.value(), std::move(value).value()));
      break;
    }
    case KvsOp::kGetRange: {
      auto offset = reader.Get<uint64_t>();
      auto len = reader.Get<uint64_t>();
      if (!offset.ok() || !len.ok()) {
        WriteStatus(writer, InvalidArgument("malformed range"));
        break;
      }
      auto value = store_->GetRange(key.value(), offset.value(), len.value());
      WriteStatus(writer, value.status());
      if (value.ok()) {
        writer.PutBytes(value.value());
      }
      break;
    }
    case KvsOp::kSetRange: {
      auto offset = reader.Get<uint64_t>();
      auto value = reader.GetBytes();
      if (!offset.ok() || !value.ok()) {
        WriteStatus(writer, InvalidArgument("malformed range write"));
        break;
      }
      WriteStatus(writer, store_->SetRange(key.value(), offset.value(), value.value()));
      break;
    }
    case KvsOp::kSetRanges: {
      auto count = reader.Get<uint32_t>();
      if (!count.ok()) {
        WriteStatus(writer, count.status());
        break;
      }
      std::vector<ValueRange> ranges;
      // `count` is wire data; cap the reservation and let the per-range
      // parse loop reject truncated payloads instead of pre-allocating for
      // an attacker-chosen count.
      ranges.reserve(std::min<uint32_t>(count.value(), 1024));
      Status parse = OkStatus();
      for (uint32_t i = 0; i < count.value(); ++i) {
        auto offset = reader.Get<uint64_t>();
        auto bytes = reader.GetBytes();
        if (!offset.ok() || !bytes.ok()) {
          parse = InvalidArgument("malformed range-batch write");
          break;
        }
        ranges.push_back(ValueRange{offset.value(), std::move(bytes).value()});
      }
      WriteStatus(writer, parse.ok() ? store_->SetRanges(key.value(), ranges) : parse);
      break;
    }
    case KvsOp::kAppend: {
      auto value = reader.GetBytes();
      if (!value.ok()) {
        WriteStatus(writer, value.status());
        break;
      }
      auto new_len = store_->Append(key.value(), value.value());
      WriteStatus(writer, new_len.status());
      if (new_len.ok()) {
        writer.Put<uint64_t>(new_len.value());
      }
      break;
    }
    case KvsOp::kDelete:
      WriteStatus(writer, store_->Delete(key.value()));
      break;
    case KvsOp::kExists:
      WriteStatus(writer, OkStatus());
      writer.Put<uint8_t>(store_->Exists(key.value()) ? 1 : 0);
      break;
    case KvsOp::kSize: {
      auto size = store_->Size(key.value());
      WriteStatus(writer, size.status());
      if (size.ok()) {
        writer.Put<uint64_t>(size.value());
      }
      break;
    }
    case KvsOp::kLockRead:
    case KvsOp::kLockWrite: {
      auto owner = reader.GetString();
      if (!owner.ok()) {
        WriteStatus(writer, owner.status());
        break;
      }
      auto acquired = op_byte.value() == static_cast<uint8_t>(KvsOp::kLockRead)
                          ? store_->TryLockRead(key.value(), owner.value())
                          : store_->TryLockWrite(key.value(), owner.value());
      WriteStatus(writer, acquired.status());
      if (acquired.ok()) {
        writer.Put<uint8_t>(acquired.value() ? 1 : 0);
      }
      break;
    }
    case KvsOp::kUnlockRead:
    case KvsOp::kUnlockWrite: {
      auto owner = reader.GetString();
      if (!owner.ok()) {
        WriteStatus(writer, owner.status());
        break;
      }
      WriteStatus(writer, op_byte.value() == static_cast<uint8_t>(KvsOp::kUnlockRead)
                              ? store_->UnlockRead(key.value(), owner.value())
                              : store_->UnlockWrite(key.value(), owner.value()));
      break;
    }
    case KvsOp::kSetAdd:
    case KvsOp::kSetRemove: {
      auto member = reader.GetString();
      if (!member.ok()) {
        WriteStatus(writer, member.status());
        break;
      }
      auto changed = op_byte.value() == static_cast<uint8_t>(KvsOp::kSetAdd)
                         ? store_->SetAdd(key.value(), member.value())
                         : store_->SetRemove(key.value(), member.value());
      WriteStatus(writer, changed.status());
      if (changed.ok()) {
        writer.Put<uint8_t>(changed.value() ? 1 : 0);
      }
      break;
    }
    case KvsOp::kSetMembers: {
      auto members = store_->SetMembers(key.value());
      WriteStatus(writer, OkStatus());
      writer.Put<uint32_t>(static_cast<uint32_t>(members.size()));
      for (const std::string& member : members) {
        writer.PutString(member);
      }
      break;
    }
    case KvsOp::kMigrateInstall: {
      auto record_bytes = reader.GetBytes();
      if (!record_bytes.ok()) {
        WriteStatus(writer, record_bytes.status());
        break;
      }
      auto record = KeyExport::Deserialize(record_bytes.value());
      if (!record.ok()) {
        WriteStatus(writer, record.status());
        break;
      }
      store_->InstallKey(key.value(), record.value());
      WriteStatus(writer, OkStatus());
      break;
    }
    default:
      WriteStatus(writer, InvalidArgument("unknown kvs op"));
      break;
  }
  return response;
}

void KvsServer::HandleBatch(ByteReader& reader, ByteWriter& writer, bool read_only) {
  auto parts = ReadFrameBatch(reader);
  if (!parts.ok()) {
    WriteStatus(writer, InvalidArgument("malformed batch request"));
    return;
  }
  std::vector<KvsBatchOp> ops;
  ops.reserve(parts.value().size());
  std::vector<KvsBatchResult> results(parts.value().size());
  // Ops the per-op checks already settled keep their slot but are excluded
  // from execution; `to_run[i]` says whether results[i] comes from the store.
  std::vector<bool> to_run(parts.value().size(), false);
  std::vector<const KvsBatchOp*> runnable;
  for (size_t i = 0; i < parts.value().size(); ++i) {
    auto op = DecodeBatchOp(parts.value()[i]);
    if (!op.ok()) {
      ops.emplace_back();
      results[i].status = op.status();
      continue;
    }
    ops.push_back(std::move(op).value());
    // A kGetBatch is read-only by contract: a mutating sub-op smuggled in
    // is rejected here, before it can touch the store.
    if (read_only && !IsReadBatchOp(ops[i].op)) {
      results[i].status = InvalidArgument("kvs: mutating op in read batch");
      continue;
    }
    // Same epoch-aware ownership check as single ops, applied per sub-op so
    // a batch straddling a membership change bounces only the moved keys.
    if (map_ != nullptr && map_->MasterFor(ops[i].key) != endpoint_) {
      results[i].status =
          WrongMaster("kvs: '" + ops[i].key + "' is not mastered by " + endpoint_);
      continue;
    }
    to_run[i] = true;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (to_run[i]) {
      runnable.push_back(&ops[i]);
    }
  }
  std::vector<KvsBatchResult> executed = store_->ExecuteBatch(runnable);
  for (size_t i = 0, next = 0; i < ops.size(); ++i) {
    if (to_run[i]) {
      results[i] = std::move(executed[next++]);
    }
  }

  WriteStatus(writer, OkStatus());  // framing-level status; per-op below
  BeginFrameBatch(writer, static_cast<uint32_t>(results.size()));
  for (size_t i = 0; i < results.size(); ++i) {
    AppendFrame(writer, EncodeBatchResult(ops[i].op, results[i]));
  }
}

// --- Client -------------------------------------------------------------------

KvsClient::KvsClient(InProcNetwork* network, std::string source, std::string server)
    : network_(network),
      source_(std::move(source)),
      server_(std::move(server)),
      read_cache_(&network->clock(), nullptr) {}

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
  if (shards_ == nullptr) {
    return Route{nullptr, server_};
  }
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
  if (shards_ == nullptr) {
    return "";
  }
  return ShardMap::HostForEndpoint(shards_->MasterFor(key));
}

std::vector<std::string> KvsClient::HolderHostsFor(const std::string& key) const {
  std::vector<std::string> hosts;
  if (shards_ == nullptr) {
    return hosts;  // centralised mode: no host-colocated holders
  }
  for (const std::string& endpoint : shards_->HoldersFor(key)) {
    const std::string host = ShardMap::HostForEndpoint(endpoint);
    if (!host.empty()) {
      hosts.push_back(host);
    }
  }
  return hosts;
}

bool KvsClient::LocallyBacked(const std::string& master_endpoint) const {
  if (replica_cfg_.replica == nullptr || shards_ == nullptr || local_endpoint_.empty()) {
    return false;
  }
  std::lock_guard<std::mutex> guard(holder_mutex_);
  const uint64_t epoch = shards_->epoch();
  if (epoch != holder_epoch_) {
    // One recompute per flip. A flip racing between the epoch read and the
    // snapshot can memoise the newer set under the older id; the mismatch
    // only costs a spurious attempt or fall-through — ReplicaShard's
    // certified-epoch check is the authoritative validity gate.
    backed_masters_.clear();
    const ShardAssignment snapshot = shards_->Snapshot();
    for (const std::string& endpoint : snapshot.endpoints()) {
      if (endpoint == local_endpoint_) {
        continue;
      }
      for (const std::string& backup :
           BackupsFor(snapshot.endpoints(), endpoint, replica_cfg_.factor)) {
        if (backup == local_endpoint_) {
          backed_masters_.insert(endpoint);
          break;
        }
      }
    }
    holder_epoch_ = epoch;
  }
  return backed_masters_.count(master_endpoint) > 0;
}

bool KvsClient::ReplicaStalenessCovered(const ReadOptions& options) const {
  if (options.max_staleness == ReadOptions::kLeaseStaleness) {
    // The lease sentinel bounds CACHE staleness; it says nothing about
    // replication lag, so async mode treats it as strict — default reads
    // provably fall through to the master.
    return false;
  }
  return options.max_staleness >= replica_cfg_.async_lag_bound_ns;
}

bool KvsClient::HasPendingAmbientWrite(const std::string& key) const {
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  for (const OpBatch::Pending& pending : ambient_.ops_) {
    if (pending.op.key == key && IsMutatingOp(pending.op.op)) {
      return true;
    }
  }
  return false;
}

std::optional<Result<Bytes>> KvsClient::TryReplicaRead(const std::string& key,
                                                       const ReadOptions& options) {
  if (!replica_cfg_.sync) {
    // Async gate, both halves: the read must explicitly tolerate the
    // configured lag bound, AND the copy must provably have caught up —
    // every forwarded op on the key at or below the primary's KeySeq has
    // been folded in. Either failing means the master answers.
    if (!ReplicaStalenessCovered(options) || replica_cfg_.primary_seq == nullptr ||
        replica_cfg_.replica->FloorSeq(key) < replica_cfg_.primary_seq(key)) {
      return std::nullopt;
    }
  }
  Result<Bytes> result = replica_cfg_.replica->ReadValue(key, options.offset, options.len);
  if (result.ok() || result.status().code() == StatusCode::kNotFound) {
    // Served (a certified copy's NotFound is the truth — the master would
    // answer the same).
    replica_served_.Increment();
    return result;
  }
  if (result.status().code() == StatusCode::kUnavailable) {
    // Our own mirror is fenced: the cluster declared THIS host dead and a
    // zombie is still reading. Feed the detector (it resolves "rep:<host>")
    // and fall through — the master path's ownership checks handle the rest.
    if (suspicion_hook_ != nullptr) {
      suspicion_hook_(ReplicaEndpointForHost(ShardMap::HostForEndpoint(local_endpoint_)));
    }
  }
  // kFailedPrecondition (stale certification) and anything unexpected fall
  // through to the master.
  return std::nullopt;
}

Result<Bytes> KvsClient::Invoke(const std::string& server, KvsOp op,
                                const std::function<void(ByteWriter&)>& write_args) {
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(op));
  write_args(writer);
  return network_->Call(source_, server, request);
}
Status KvsClient::Set(const std::string& key, const Bytes& value) {
  read_cache_.Invalidate(key);
  return Routed(
      key, [&](KvStore& store) { return store.Set(key, value); },
      [&](const std::string& server) {
        auto response = Invoke(server, KvsOp::kSet, [&](ByteWriter& w) {
          w.PutString(key);
          w.PutBytes(value);
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Result<Bytes> KvsClient::Read(const std::string& key, const ReadOptions& options) {
  // Cache consult — only for reads that would cross the network (master-
  // local reads are already free, and caching them would only add
  // staleness).
  const bool cacheable = read_cache_.enabled() && !options.bypass_cache;
  if (cacheable && RouteFor(key).local == nullptr) {
    if (auto hit = read_cache_.Lookup(key, options.offset, options.len, options.max_staleness)) {
      return std::move(*hit);
    }
  }
  // Tier two: a co-located replica. When this host mirrors the key's shard
  // and the copy is certified for the live epoch (sync mode) or provably
  // within the read's staleness budget (async mode), the backup answers
  // in-process — zero network bytes.
  if (replica_cfg_.replica != nullptr && RouteFor(key).local == nullptr) {
    const std::string master = shards_ != nullptr ? shards_->MasterFor(key) : "";
    if (!master.empty() && LocallyBacked(master)) {
      // Read-your-writes: an ambient batch holding a pending write to this
      // key must land on the master before a replica may answer.
      if (HasPendingAmbientWrite(key)) {
        FlushBatch();
      }
      if (auto served = TryReplicaRead(key, options)) {
        if (cacheable && served->ok() && options.whole_value()) {
          read_cache_.InsertFull(key, served->value());  // tier two refreshes tier one
        }
        return std::move(*served);
      }
    }
  }
  // Whole-value reads travel as kGet, ranged ones as kGetRange; both are
  // one wire read either way.
  bool remote = false;
  auto result = Routed(
      key,
      [&](KvStore& store) -> Result<Bytes> {
        remote = false;
        return options.whole_value() ? store.Get(key)
                                     : store.GetRange(key, options.offset, options.len);
      },
      [&](const std::string& server) -> Result<Bytes> {
        remote = true;
        auto response =
            options.whole_value()
                ? Invoke(server, KvsOp::kGet, [&](ByteWriter& w) { w.PutString(key); })
                : Invoke(server, KvsOp::kGetRange, [&](ByteWriter& w) {
                    w.PutString(key);
                    w.Put<uint64_t>(options.offset);
                    w.Put<uint64_t>(options.len);
                  });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        FAASM_RETURN_IF_ERROR(ReadStatus(reader));
        return reader.GetBytes();
      });
  // Only whole values populate the cache (a lookup can then serve any
  // sub-range of them without ever inventing bytes it did not fetch).
  if (remote && cacheable && result.ok() && options.whole_value()) {
    read_cache_.InsertFull(key, result.value());
  }
  return result;
}

Status KvsClient::SetRange(const std::string& key, uint64_t offset, const Bytes& bytes) {
  read_cache_.Invalidate(key);
  return Routed(
      key, [&](KvStore& store) { return store.SetRange(key, offset, bytes); },
      [&](const std::string& server) {
        auto response = Invoke(server, KvsOp::kSetRange, [&](ByteWriter& w) {
          w.PutString(key);
          w.Put<uint64_t>(offset);
          w.PutBytes(bytes);
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Status KvsClient::SetRanges(const std::string& key, const std::vector<ValueRange>& ranges) {
  read_cache_.Invalidate(key);
  return Routed(
      key, [&](KvStore& store) { return store.SetRanges(key, ranges); },
      [&](const std::string& server) {
        auto response = Invoke(server, KvsOp::kSetRanges, [&](ByteWriter& w) {
          w.PutString(key);
          w.Put<uint32_t>(static_cast<uint32_t>(ranges.size()));
          for (const ValueRange& range : ranges) {
            w.Put<uint64_t>(range.offset);
            w.PutBytes(range.bytes);
          }
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Result<uint64_t> KvsClient::Append(const std::string& key, const Bytes& bytes) {
  read_cache_.Invalidate(key);
  return Routed(
      key,
      [&](KvStore& store) -> Result<uint64_t> {
        FAASM_ASSIGN_OR_RETURN(size_t new_len, store.Append(key, bytes));
        return static_cast<uint64_t>(new_len);
      },
      [&](const std::string& server) -> Result<uint64_t> {
        auto response = Invoke(server, KvsOp::kAppend, [&](ByteWriter& w) {
          w.PutString(key);
          w.PutBytes(bytes);
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        FAASM_RETURN_IF_ERROR(ReadStatus(reader));
        return reader.Get<uint64_t>();
      });
}

Status KvsClient::Delete(const std::string& key) {
  read_cache_.Invalidate(key);
  return Routed(
      key, [&](KvStore& store) { return store.Delete(key); },
      [&](const std::string& server) {
        auto response =
            Invoke(server, KvsOp::kDelete, [&](ByteWriter& w) { w.PutString(key); });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Result<bool> KvsClient::Exists(const std::string& key) {
  return Routed(
      key, [&](KvStore& store) -> Result<bool> { return store.Exists(key); },
      [&](const std::string& server) -> Result<bool> {
        auto response =
            Invoke(server, KvsOp::kExists, [&](ByteWriter& w) { w.PutString(key); });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        FAASM_RETURN_IF_ERROR(ReadStatus(reader));
        auto flag = reader.Get<uint8_t>();
        if (!flag.ok()) {
          return flag.status();
        }
        return flag.value() != 0;
      });
}

Result<uint64_t> KvsClient::Size(const std::string& key) {
  // A fresh cached value (or size-only entry) answers without a round trip;
  // a remote answer refreshes the size stamp so a following Pull's fetch
  // decision and its sizing agree.
  if (read_cache_.enabled() && RouteFor(key).local == nullptr) {
    if (auto hit = read_cache_.LookupSize(key, ReadOptions::kLeaseStaleness)) {
      return *hit;
    }
  }
  bool remote = false;
  auto sized = Routed(
      key,
      [&](KvStore& store) -> Result<uint64_t> {
        remote = false;
        FAASM_ASSIGN_OR_RETURN(size_t size, store.Size(key));
        return static_cast<uint64_t>(size);
      },
      [&](const std::string& server) -> Result<uint64_t> {
        remote = true;
        auto response = Invoke(server, KvsOp::kSize, [&](ByteWriter& w) { w.PutString(key); });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        FAASM_RETURN_IF_ERROR(ReadStatus(reader));
        return reader.Get<uint64_t>();
      });
  if (remote && read_cache_.enabled() && sized.ok()) {
    read_cache_.InsertSize(key, sized.value());
  }
  return sized;
}

Result<bool> KvsClient::TryLockRead(const std::string& key) {
  auto acquired = Routed(
      key, [&](KvStore& store) { return store.TryLockRead(key, source_); },
      [&](const std::string& server) { return BoolOp(server, KvsOp::kLockRead, key, source_); });
  if (acquired.ok() && acquired.value()) {
    // No stale read under a lock: the first read after acquisition must
    // refetch the bytes the lock serialises, not a leased copy.
    read_cache_.Invalidate(key);
  }
  return acquired;
}
Result<bool> KvsClient::TryLockWrite(const std::string& key) {
  auto acquired = Routed(
      key, [&](KvStore& store) { return store.TryLockWrite(key, source_); },
      [&](const std::string& server) { return BoolOp(server, KvsOp::kLockWrite, key, source_); });
  if (acquired.ok() && acquired.value()) {
    read_cache_.Invalidate(key);  // as TryLockRead
  }
  return acquired;
}

Status KvsClient::UnlockRead(const std::string& key) {
  return Routed(
      key, [&](KvStore& store) { return store.UnlockRead(key, source_); },
      [&](const std::string& server) {
        auto response = Invoke(server, KvsOp::kUnlockRead, [&](ByteWriter& w) {
          w.PutString(key);
          w.PutString(source_);
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Status KvsClient::UnlockWrite(const std::string& key) {
  return Routed(
      key, [&](KvStore& store) { return store.UnlockWrite(key, source_); },
      [&](const std::string& server) {
        auto response = Invoke(server, KvsOp::kUnlockWrite, [&](ByteWriter& w) {
          w.PutString(key);
          w.PutString(source_);
        });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        return ReadStatus(reader);
      });
}

Result<bool> KvsClient::BoolOp(const std::string& server, KvsOp op, const std::string& key,
                               const std::string& arg) {
  auto response = Invoke(server, op, [&](ByteWriter& w) {
    w.PutString(key);
    w.PutString(arg);
  });
  if (!response.ok()) {
    return response.status();
  }
  ByteReader reader(response.value());
  FAASM_RETURN_IF_ERROR(ReadStatus(reader));
  auto flag = reader.Get<uint8_t>();
  if (!flag.ok()) {
    return flag.status();
  }
  return flag.value() != 0;
}

Result<bool> KvsClient::SetAdd(const std::string& key, const std::string& member) {
  return Routed(
      key, [&](KvStore& store) { return store.SetAdd(key, member); },
      [&](const std::string& server) { return BoolOp(server, KvsOp::kSetAdd, key, member); });
}
Result<bool> KvsClient::SetRemove(const std::string& key, const std::string& member) {
  return Routed(
      key, [&](KvStore& store) { return store.SetRemove(key, member); },
      [&](const std::string& server) { return BoolOp(server, KvsOp::kSetRemove, key, member); });
}

// --- Batched ops ----------------------------------------------------------------

void OpBatch::Push(KvsBatchOp op, Ack done, ReadAck read_done) {
  Pending pending;
  pending.op = std::move(op);
  pending.done = std::move(done);
  pending.read_done = std::move(read_done);
  ops_.push_back(std::move(pending));
}

void OpBatch::Set(std::string key, Bytes value, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kSet;
  op.key = std::move(key);
  op.bytes = std::move(value);
  Push(std::move(op), std::move(done));
}

void OpBatch::SetRange(std::string key, uint64_t offset, Bytes bytes, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kSetRange;
  op.key = std::move(key);
  op.offset = offset;
  op.bytes = std::move(bytes);
  Push(std::move(op), std::move(done));
}

void OpBatch::SetRanges(std::string key, std::vector<ValueRange> ranges, Ack done) {
  // Coalesce with an immediately preceding SetRanges on the same key: two
  // pushes of one value in one batch ship as a single sub-op with merged
  // (adjacent/overlapping fused) runs; both acks fire with its status.
  if (!ops_.empty() && ops_.back().op.op == KvsOp::kSetRanges && ops_.back().op.key == key) {
    Pending& prev = ops_.back();
    prev.op.ranges.insert(prev.op.ranges.end(), std::make_move_iterator(ranges.begin()),
                          std::make_move_iterator(ranges.end()));
    prev.op.ranges = MergeValueRanges(std::move(prev.op.ranges));
    if (done != nullptr) {
      if (prev.done == nullptr) {
        prev.done = std::move(done);
      } else {
        prev.done = [first = std::move(prev.done),
                     second = std::move(done)](const Status& status) {
          first(status);
          second(status);
        };
      }
    }
    return;
  }
  KvsBatchOp op;
  op.op = KvsOp::kSetRanges;
  op.key = std::move(key);
  op.ranges = MergeValueRanges(std::move(ranges));
  Push(std::move(op), std::move(done));
}

void OpBatch::Append(std::string key, Bytes bytes, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kAppend;
  op.key = std::move(key);
  op.bytes = std::move(bytes);
  Push(std::move(op), std::move(done));
}

void OpBatch::Delete(std::string key, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kDelete;
  op.key = std::move(key);
  Push(std::move(op), std::move(done));
}

void OpBatch::SetAdd(std::string key, std::string member, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kSetAdd;
  op.key = std::move(key);
  op.member = std::move(member);
  Push(std::move(op), std::move(done));
}

void OpBatch::SetRemove(std::string key, std::string member, Ack done) {
  KvsBatchOp op;
  op.op = KvsOp::kSetRemove;
  op.key = std::move(key);
  op.member = std::move(member);
  Push(std::move(op), std::move(done));
}

void OpBatch::Read(std::string key, ReadOptions options, ReadAck done) {
  KvsBatchOp op;
  op.op = options.whole_value() ? KvsOp::kGet : KvsOp::kGetRange;
  op.key = std::move(key);
  op.offset = options.offset;
  op.len = options.len;
  Push(std::move(op), nullptr, std::move(done));
  ops_.back().read_options = options;
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
  if (pending.read_done != nullptr) {
    if (result.status.ok()) {
      pending.read_done(std::move(result.value));
    } else {
      pending.read_done(result.status);
    }
    pending.read_done = nullptr;
  }
  if (pending.done != nullptr) {
    pending.done(result.status);
    pending.done = nullptr;
  }
}

std::vector<KvsBatchResult> KvsClient::RemoteBatch(const std::string& endpoint,
                                                   const std::vector<OpBatch::Pending>& ops) {
  std::vector<Bytes> parts;
  parts.reserve(ops.size());
  bool all_reads = true;
  for (const OpBatch::Pending& pending : ops) {
    parts.push_back(EncodeBatchOp(pending.op));
    all_reads = all_reads && IsReadBatchOp(pending.op.op);
  }
  // A pure read group ships as kGetBatch — the wire-visible read-only twin
  // (the server rejects any mutating sub-op in one).
  auto response = Invoke(endpoint, all_reads ? KvsOp::kGetBatch : KvsOp::kBatch,
                         [&](ByteWriter& w) { WriteFrameBatch(w, parts); });
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
  auto result_parts = ReadFrameBatch(reader);
  if (!result_parts.ok() || result_parts.value().size() != ops.size()) {
    return fail_all(Internal("kvs: malformed batch response"));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    results[i] = DecodeBatchResult(ops[i].op.op, result_parts.value()[i]);
  }
  return results;
}

Status KvsClient::RunGroup(std::vector<OpBatch::Pending> ops) {
  Status first_error = OkStatus();
  int attempt = 0;
  while (!ops.empty()) {
    // Regroup by the keys' CURRENT masters: after a kWrongMaster bounce the
    // epoch may have flipped, splitting the survivors across new endpoints.
    std::map<std::string, std::vector<OpBatch::Pending>> groups;
    std::vector<OpBatch::Pending> local;
    for (OpBatch::Pending& pending : ops) {
      Route route = RouteFor(pending.op.key);
      if (route.local != nullptr) {
        local.push_back(std::move(pending));
      } else {
        groups[route.endpoint].push_back(std::move(pending));
      }
    }
    ops.clear();

    auto settle = [&](std::vector<OpBatch::Pending>& group,
                      std::vector<KvsBatchResult> results, const std::string& endpoint) {
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
        const bool bounced =
            results[i].status.code() == StatusCode::kWrongMaster || unavailable;
        if (bounced && shards_ != nullptr && attempt < kMaxRedirectRetries) {
          ops.push_back(std::move(group[i]));  // retry just this op
          continue;
        }
        if (bounced && shards_ != nullptr) {
          // Budget ran dry while the op was still bouncing: surface the
          // typed deadline error so the ack can tell an extended outage from
          // a permanent one-shot failure. The op completes — a stranded op
          // must never leave its BatchHandle waiting forever.
          results[i].status = RedirectBudgetExhausted(group[i].op.key, endpoint, attempt,
                                                      results[i].status);
        }
        if (!results[i].status.ok() && first_error.ok()) {
          first_error = results[i].status;
        }
        // A whole-value read that crossed the network refreshes the cache
        // (same rule as the single-op path: partial values never populate).
        if (from_remote && read_cache_.enabled() && results[i].status.ok() &&
            group[i].op.op == KvsOp::kGet && !group[i].read_options.bypass_cache) {
          read_cache_.InsertFull(group[i].op.key, results[i].value);
        }
        CompleteOp(group[i], std::move(results[i]));
      }
    };

    if (!local.empty()) {
      std::vector<const KvsBatchOp*> pointers;
      pointers.reserve(local.size());
      for (const OpBatch::Pending& pending : local) {
        pointers.push_back(&pending.op);
      }
      settle(local, local_store_->ExecuteBatch(pointers), /*endpoint=*/"");
    }
    for (auto& [endpoint, group] : groups) {
      settle(group, RemoteBatch(endpoint, group), endpoint);
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
    if (!IsReadBatchOp(pending.op.op)) {
      read_cache_.Invalidate(pending.op.key);
      if (replica_cfg_.replica != nullptr) {
        mutated_in_batch.insert(pending.op.key);
      }
    } else if (route.local == nullptr) {
      if (read_cache_.enabled() && !pending.read_options.bypass_cache) {
        if (auto hit = read_cache_.Lookup(pending.op.key, pending.read_options.offset,
                                          pending.read_options.len,
                                          pending.read_options.max_staleness)) {
          KvsBatchResult served;
          served.value = std::move(*hit);
          CompleteOp(pending, std::move(served));
          continue;
        }
      }
      // Tier two: a co-located replica serves the read in-process. Skipped
      // for keys this batch or the ambient batch mutates (their writes must
      // land first; those ops fall through to the master group instead —
      // cheaper than a flush barrier inside dispatch).
      if (replica_cfg_.replica != nullptr && mutated_in_batch.count(pending.op.key) == 0 &&
          LocallyBacked(route.endpoint) && !HasPendingAmbientWrite(pending.op.key)) {
        if (auto from_replica = TryReplicaRead(pending.op.key, pending.read_options)) {
          KvsBatchResult served;
          served.status = from_replica->status();
          if (from_replica->ok()) {
            served.value = std::move(*from_replica).value();
          }
          if (served.status.ok() && read_cache_.enabled() &&
              !pending.read_options.bypass_cache && pending.read_options.whole_value()) {
            read_cache_.InsertFull(pending.op.key, served.value);
          }
          CompleteOp(pending, std::move(served));
          continue;
        }
      }
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
  {
    // Register before any group runs: a concurrent FlushBatch barrier must
    // see (and wait out) this dispatch even though the ambient batch no
    // longer holds its ops.
    std::lock_guard<std::mutex> guard(ambient_mutex_);
    inflight_.push_back(handle.shared_);
  }

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
        {
          std::lock_guard<std::mutex> guard(ambient_mutex_);
          inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), shared),
                          inflight_.end());
        }
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

// --- Ambient state-op batching ---------------------------------------------------

namespace {
// Batch scopes are per ACTIVITY: a StateBatch opened by one Faaslet's call
// must not demote a concurrent call's scopeless Push from being its own
// barrier. Every call runs whole on one executor thread, so thread-local
// depth (keyed by client, in case several instances share a thread over its
// lifetime) is exactly per-call scoping.
int& ScopeDepthForThisThread(const void* client) {
  static thread_local std::map<const void*, int> depths;
  return depths[client];
}
}  // namespace

void KvsClient::EnqueueSetRanges(const std::string& key, std::vector<ValueRange> ranges,
                                 OpBatch::Ack done) {
  // Invalidate at ENQUEUE time: this host's own pending (not yet flushed)
  // write must never be masked by a leased read of the old bytes.
  read_cache_.Invalidate(key);
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  ambient_.SetRanges(key, std::move(ranges), std::move(done));
}

void KvsClient::BeginBatchScope() { ++ScopeDepthForThisThread(this); }

void KvsClient::EndBatchScope() {
  int& depth = ScopeDepthForThisThread(this);
  if (depth > 0) {
    --depth;
  }
}

bool KvsClient::InBatchScope() const { return ScopeDepthForThisThread(this) > 0; }

Status KvsClient::FlushBatch() {
  OpBatch taken;
  std::vector<std::shared_ptr<BatchHandle::Shared>> inflight;
  {
    std::lock_guard<std::mutex> guard(ambient_mutex_);
    taken = std::move(ambient_);
    ambient_ = OpBatch{};
    inflight = inflight_;  // dispatches other callers have in flight
  }
  if (taken.empty() && inflight.empty()) {
    return OkStatus();  // idle fast path (hot: every sync point calls this)
  }
  Status status = OkStatus();
  if (!taken.empty()) {
    status = DispatchBatch(std::move(taken)).Wait();
  }
  // Barrier completeness: an op enqueued before this call may have been
  // taken by a concurrent flush that is still dispatching. "FlushBatch
  // returned Ok" must mean EVERY previously enqueued op is durable, so wait
  // those out too (their first error joins the aggregate).
  for (const auto& shared : inflight) {
    BatchHandle other;
    other.shared_ = shared;
    other.clock_ = &network_->clock();
    Status theirs = other.Wait();
    if (status.ok() && !theirs.ok()) {
      status = theirs;
    }
  }
  return status;
}

size_t KvsClient::pending_batch_ops() const {
  std::lock_guard<std::mutex> guard(ambient_mutex_);
  return ambient_.size();
}

Result<std::vector<std::string>> KvsClient::SetMembers(const std::string& key) {
  return Routed(
      key,
      [&](KvStore& store) -> Result<std::vector<std::string>> { return store.SetMembers(key); },
      [&](const std::string& server) -> Result<std::vector<std::string>> {
        auto response =
            Invoke(server, KvsOp::kSetMembers, [&](ByteWriter& w) { w.PutString(key); });
        if (!response.ok()) {
          return response.status();
        }
        ByteReader reader(response.value());
        FAASM_RETURN_IF_ERROR(ReadStatus(reader));
        auto count = reader.Get<uint32_t>();
        if (!count.ok()) {
          return count.status();
        }
        std::vector<std::string> members;
        members.reserve(count.value());
        for (uint32_t i = 0; i < count.value(); ++i) {
          auto member = reader.GetString();
          if (!member.ok()) {
            return member.status();
          }
          members.push_back(std::move(member).value());
        }
        return members;
      });
}

}  // namespace faasm

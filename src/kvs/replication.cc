#include "kvs/replication.h"

#include <algorithm>
#include <utility>

#include "kvs/batch_codec.h"
#include "kvs/migration.h"
#include "net/framing.h"

namespace faasm {

std::string ReplicaEndpointForHost(const std::string& host) { return "rep:" + host; }

// --- ReplicaShard -------------------------------------------------------------

std::vector<KvsBatchResult> ReplicaShard::ApplyForwarded(
    const std::vector<const KvsBatchOp*>& ops) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<KvsBatchResult> results(ops.size());
  if (fenced_) {
    for (KvsBatchResult& result : results) {
      result.status = Unavailable("replica: fenced (host failed over)");
    }
    return results;
  }
  std::vector<const KvsBatchOp*> fresh;
  std::vector<size_t> fresh_index;
  fresh.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    KeyMeta& meta = meta_[ops[i]->key];
    if (ops[i]->seq <= meta.floor) {
      // Already folded into an installed snapshot, or an older write that
      // lost a same-key race: dropping it is what keeps replay idempotent.
      skipped_ops_.Increment();
      continue;  // results[i] defaults to Ok
    }
    // Raise the floor only: a forward keeps a certified copy exact but never
    // touches `synced` — certification belongs to the membership-serialised
    // install/anchor flows alone.
    meta.floor = ops[i]->seq;
    fresh.push_back(ops[i]);
    fresh_index.push_back(i);
  }
  std::vector<KvsBatchResult> applied = store_.ExecuteBatch(fresh);
  for (size_t j = 0; j < applied.size(); ++j) {
    results[fresh_index[j]] = std::move(applied[j]);
  }
  return results;
}

void ReplicaShard::Install(const std::string& key, const KeyExport& record, bool only_if_newer,
                           uint64_t epoch) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (fenced_) {
    return;
  }
  if (only_if_newer) {
    auto it = meta_.find(key);
    if (it != meta_.end() && it->second.floor > record.seq) {
      // A forward newer than this snapshot already applied. Deliberately NOT
      // certified for reads either: the copy now reflects forwards the
      // snapshot predates, and only the next anchor proves which epoch's
      // master they came from.
      return;
    }
  }
  meta_[key] = KeyMeta{record.seq, epoch, true};
  store_.InstallKey(key, record);
}

void ReplicaShard::AnchorFloor(const std::string& key, uint64_t seq, uint64_t epoch) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!fenced_) {
    meta_[key] = KeyMeta{seq, epoch, true};
  }
}

Result<Bytes> ReplicaShard::ReadValue(const std::string& key, uint64_t offset, uint64_t len) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (fenced_) {
    return Unavailable("replica: fenced (host failed over)");
  }
  auto it = meta_.find(key);
  if (it == meta_.end() || !it->second.synced || it->second.synced_epoch != CurrentEpoch()) {
    return FailedPrecondition("replica: copy not certified for the current epoch");
  }
  // Mirror the master read path exactly: {0, whole-value} is a Get, anything
  // else a ranged read. The replica store has no guard/filter/frozen state,
  // so the answer is the copy's truth — NotFound included.
  constexpr uint64_t kWholeValue = ~uint64_t{0};
  Result<Bytes> result = offset == 0 && len == kWholeValue ? store_.Get(key)
                                                           : store_.GetRange(key, offset, len);
  if (result.ok() || result.status().code() == StatusCode::kNotFound) {
    replica_reads_.Increment();
  }
  return result;
}

void ReplicaShard::Erase(const std::string& key) {
  std::lock_guard<std::mutex> guard(mutex_);
  meta_.erase(key);
  store_.EraseKey(key);
}

void ReplicaShard::Clear() {
  std::lock_guard<std::mutex> guard(mutex_);
  DropAllLocked();
}

void ReplicaShard::Fence() {
  std::lock_guard<std::mutex> guard(mutex_);
  fenced_ = true;
  // Drop the corpse's copies NOW, not at the eventual Clear: a second crash
  // racing this failover must find nothing here to promote from — and a
  // zombie read must find nothing certified to serve.
  DropAllLocked();
}

void ReplicaShard::DropAllLocked() {
  meta_.clear();
  for (const std::string& key : store_.Keys()) {
    store_.EraseKey(key);
  }
}

void ReplicaShard::Unfence() {
  std::lock_guard<std::mutex> guard(mutex_);
  fenced_ = false;
}

bool ReplicaShard::fenced() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return fenced_;
}

// --- ShardReplicator ----------------------------------------------------------

ShardReplicator::ShardReplicator(InProcNetwork* network, const ShardMap* map,
                                 std::string primary_endpoint, ReplicationStats* stats)
    : network_(network), map_(map), primary_endpoint_(std::move(primary_endpoint)), stats_(stats) {}

std::vector<std::string> ShardReplicator::BackupReplicaEndpoints() const {
  std::vector<std::string> replicas;
  for (const std::string& backup :
       BackupsFor(map_->Snapshot()->endpoints(), primary_endpoint_, map_->replication_factor())) {
    const std::string host = ShardMap::HostForEndpoint(backup);
    if (!host.empty()) {
      replicas.push_back(ReplicaEndpointForHost(host));
    }
  }
  return replicas;
}

void ShardReplicator::OnApplied(const std::vector<KvStore::ForwardedOp>& ops) {
  if (ops.empty()) {
    return;
  }
  std::vector<Bytes> parts;
  parts.reserve(ops.size());
  for (const KvStore::ForwardedOp& forwarded : ops) {
    parts.push_back(EncodeReplicaOp(*forwarded.op, forwarded.seq));
  }
  Bytes request;
  request.reserve(16);  // quiets a GCC 12 -Wstringop-overflow false positive
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(KvsOp::kBatch));
  WriteFrameBatch(writer, parts);
  for (const std::string& replica : BackupReplicaEndpoints()) {
    auto response = network_->Call(primary_endpoint_, replica, request);
    if (response.ok()) {
      stats_->forward_rpcs.Increment();
      stats_->forwarded_ops.Increment(ops.size());
    } else {
      // A dead or unreachable backup: the op stays applied and acked on the
      // primary; the backup converges at the next Reconcile (or is replaced
      // by failover). Never blocks the ack path beyond this one attempt.
      stats_->dropped_forward_ops.Increment(ops.size());
    }
  }
}

// --- ReplicationManager -------------------------------------------------------

ReplicationManager::ReplicationManager(InProcNetwork* network, ShardMap* map,
                                       const std::map<std::string, KvStore*>* primary_stores)
    : network_(network), map_(map), primary_stores_(primary_stores) {}

void ReplicationManager::AttachHost(const std::string& host, KvStore* primary) {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) {
    HostState state;
    state.replica = std::make_unique<ReplicaShard>(map_);
    state.server =
        std::make_unique<ReplicaServer>(state.replica.get(), network_, ReplicaEndpointForHost(host));
    state.replicator =
        std::make_unique<ShardReplicator>(network_, map_, ShardMap::EndpointForHost(host), &stats_);
    it = hosts_.emplace(host, std::move(state)).first;
  } else {
    // A re-added host name: its fresh primary starts a NEW sequence space,
    // so stale floors (and stale backup copies) must not filter its forwards
    // — and a crash fence from the name's previous life must not reject them.
    it->second.replica->Unfence();
    it->second.replica->Clear();
  }
  ShardReplicator* replicator = it->second.replicator.get();
  primary->SetUpdateHook(
      [replicator](const std::vector<KvStore::ForwardedOp>& ops) { replicator->OnApplied(ops); });
}

ReplicaShard* ReplicationManager::ReplicaForHost(const std::string& host) {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : it->second.replica.get();
}

const ReplicaShard* ReplicationManager::ReplicaForHost(const std::string& host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : it->second.replica.get();
}

void ReplicationManager::FenceHost(const std::string& host) {
  if (auto it = hosts_.find(host); it != hosts_.end()) {
    it->second.replica->Fence();
  }
}

KvStore* ReplicationManager::PrimaryStoreAt(const std::string& endpoint) const {
  auto it = primary_stores_->find(endpoint);
  return it == primary_stores_->end() ? nullptr : it->second;
}

void ReplicationManager::MirrorKey(const std::string& key) {
  const std::shared_ptr<const ShardAssignment> assignment = map_->Snapshot();
  const std::string master = assignment->MasterFor(key);
  KvStore* primary = PrimaryStoreAt(master);
  if (primary == nullptr) {
    return;
  }
  const KeyExport record = primary->ExportKey(key);
  for (const std::string& backup :
       BackupsFor(assignment->endpoints(), master, map_->replication_factor())) {
    ReplicaShard* replica = ReplicaForHost(ShardMap::HostForEndpoint(backup));
    if (replica == nullptr) {
      continue;
    }
    if (record.empty()) {
      replica->Erase(key);
    } else {
      // Certify at the SNAPSHOT's epoch, not the live one: if a membership
      // change slipped between Snapshot() and here, the stale stamp fails
      // the current-epoch check instead of certifying a copy whose master
      // may already have moved.
      replica->Install(key, record, /*only_if_newer=*/true, assignment->epoch());
    }
  }
}

void ReplicationManager::Reconcile() {
  const std::shared_ptr<const ShardAssignment> assignment = map_->Snapshot();

  // Catch-up: every primary streams what its backups are missing. Content
  // comparison (not seq comparison) decides what moves; matching copies only
  // re-anchor their floor, which is what carries the duplicate filter across
  // a primary change into the new primary's sequence space.
  for (const std::string& primary_endpoint : assignment->endpoints()) {
    KvStore* primary = PrimaryStoreAt(primary_endpoint);
    if (primary == nullptr) {
      continue;
    }
    const std::vector<std::string> backups =
        BackupsFor(assignment->endpoints(), primary_endpoint, map_->replication_factor());
    if (backups.empty()) {
      continue;
    }
    for (const std::string& key : primary->Keys()) {
      if (assignment->MasterFor(key) != primary_endpoint) {
        continue;  // residue of an unfinished handoff; not ours to replicate
      }
      primary->FreezeKey(key);
      const KeyExport record = primary->ExportKey(key);
      for (const std::string& backup_endpoint : backups) {
        const std::string backup_host = ShardMap::HostForEndpoint(backup_endpoint);
        ReplicaShard* replica = ReplicaForHost(backup_host);
        if (replica == nullptr) {
          continue;
        }
        const KeyExport have = replica->store()->ExportKey(key);
        if (have.SameContent(record)) {
          // Matching content re-certifies for replica reads at this epoch
          // (Reconcile runs under the membership lock, so the snapshot epoch
          // IS the live epoch — stamping it keeps the two flows uniform).
          replica->AnchorFloor(key, record.seq, assignment->epoch());
          continue;
        }
        auto streamed = StreamKey(network_, primary_endpoint,
                                  ReplicaEndpointForHost(backup_host), key, record);
        if (streamed.ok()) {
          stats_.catchup_keys.Increment();
          stats_.catchup_bytes.Increment(streamed.value());
        }
      }
      primary->UnfreezeKey(key);
    }
  }

  // GC: drop replica copies this assignment no longer expects the host to
  // hold (its primary died or moved, the backup set rotated, or the key was
  // deleted at its primary).
  for (auto& [host, state] : hosts_) {
    const std::string host_endpoint = ShardMap::EndpointForHost(host);
    for (const std::string& key : state.replica->store()->Keys()) {
      bool keep = false;
      const std::string master = assignment->MasterFor(key);
      if (!master.empty() && master != host_endpoint &&
          assignment->endpoints().count(host_endpoint) > 0) {
        const std::vector<std::string> backups =
            BackupsFor(assignment->endpoints(), master, map_->replication_factor());
        KvStore* primary = PrimaryStoreAt(master);
        keep = primary != nullptr && !primary->ExportKey(key).empty() &&
               std::find(backups.begin(), backups.end(), host_endpoint) != backups.end();
        // Hold any copy whose master is unreachable (crashed, failover
        // pending): it may be the LAST copy — a promotion deferred because
        // the post-failover master died too — and erasing it now would turn
        // a recoverable double crash into data loss. The master's own
        // failover re-homes the key and the next Reconcile GCs normally.
        keep = keep || !network_->HasEndpoint(master);
      }
      if (!keep) {
        state.replica->Erase(key);
        stats_.replica_gc_keys.Increment();
      }
    }
  }
}

FailoverStats ReplicationManager::Failover(const std::string& dead_endpoint) {
  FailoverStats result;
  const std::shared_ptr<const ShardAssignment> before = map_->Snapshot();
  const ShardAssignment after = before->Without(dead_endpoint);
  const std::string dead_host = ShardMap::HostForEndpoint(dead_endpoint);

  // Union of keys the surviving backups hold for the dead primary: the only
  // copies a crash leaves. (The dead store's memory is consulted below for
  // lost-key ACCOUNTING only — a real deployment has no such luxury.)
  const std::vector<std::string> backups =
      BackupsFor(before->endpoints(), dead_endpoint, map_->replication_factor());
  std::set<std::string> candidates;
  for (const std::string& backup : backups) {
    ReplicaShard* replica = ReplicaForHost(ShardMap::HostForEndpoint(backup));
    if (replica == nullptr) {
      continue;
    }
    for (std::string& key : replica->store()->Keys()) {
      if (before->MasterFor(key) == dead_endpoint) {
        candidates.insert(std::move(key));
      }
    }
  }
  // A double crash strands copies OUTSIDE the dead host's official backup
  // set: failing over crash #1 re-masters a key onto crash #2's (still
  // unconfirmed) shard, the install bounces, and the copy stays parked on
  // crash #1's backup — which is not in OUR backup list. Every replica shard
  // is scanned as a fallback so those copies are promoted now, when the map
  // finally says this host's keys must move.
  for (auto& [host, state] : hosts_) {
    for (std::string& key : state.replica->store()->Keys()) {
      if (before->MasterFor(key) == dead_endpoint) {
        candidates.insert(std::move(key));
      }
    }
  }

  // Promote: install each surviving copy into its post-failover master,
  // BEFORE the epoch flips (migration's install-before-flip guarantee).
  for (const std::string& key : candidates) {
    const std::string new_master = after.MasterFor(key);
    if (new_master.empty()) {
      result.lost_keys++;
      continue;
    }
    KeyExport record;
    std::string source_host;
    for (const std::string& backup : backups) {
      const std::string host = ShardMap::HostForEndpoint(backup);
      ReplicaShard* replica = ReplicaForHost(host);
      if (replica == nullptr) {
        continue;
      }
      record = replica->store()->ExportKey(key);
      if (!record.empty()) {
        source_host = host;
        break;
      }
    }
    if (record.empty()) {
      // Fallback for the widened candidates: the official backups hold
      // nothing, so take the copy from whichever replica parked it (a
      // deferred promotion from an earlier overlapping failover). Official
      // backups were preferred above because they are the actively
      // maintained copies.
      for (auto& [host, state] : hosts_) {
        record = state.replica->store()->ExportKey(key);
        if (!record.empty()) {
          source_host = host;
          break;
        }
      }
    }
    if (record.empty()) {
      result.lost_keys++;
      continue;
    }
    if (ShardMap::EndpointForHost(source_host) == new_master) {
      // The promoting backup IS the new master: the copy is already on the
      // right machine, so promotion is a local install, zero network bytes —
      // the replication twin of the co-located fast path.
      KvStore* primary = PrimaryStoreAt(new_master);
      if (primary != nullptr) {
        KvStore::HookPause pause;
        primary->InstallKey(key, record);
        result.promoted_keys++;
      } else {
        result.lost_keys++;
      }
      continue;
    }
    auto streamed =
        StreamKey(network_, ReplicaEndpointForHost(source_host), new_master, key, record);
    if (streamed.ok()) {
      result.promoted_keys++;
      result.bytes_streamed += streamed.value();
    } else if (!network_->HasEndpoint(new_master)) {
      // The post-failover master is unreachable: it crashed too and its own
      // recovery has not run yet. The copy is NOT lost — it stays on its
      // source replica (Reconcile's GC holds copies whose master is
      // unreachable), and that master's failover promotes it via the widened
      // candidate scan above.
      stats_.deferred_promotions.Increment();
    } else {
      result.lost_keys++;
    }
  }

  // Lost-key accounting + hygiene: footprints only the dead primary held.
  KvStore* dead_store = PrimaryStoreAt(dead_endpoint);
  if (dead_store != nullptr) {
    for (const std::string& key : dead_store->Keys()) {
      if (before->MasterFor(key) == dead_endpoint && candidates.count(key) == 0) {
        result.lost_keys++;
      }
      dead_store->EraseKey(key);
    }
  }

  map_->RemoveShard(dead_endpoint);  // FLIP: clients reroute from here on
  result.epoch = map_->epoch();

  // The dead host's replica shard serves nothing any more.
  if (auto it = hosts_.find(dead_host); it != hosts_.end()) {
    it->second.replica->Clear();
  }

  stats_.failovers.Increment();
  stats_.promoted_keys.Increment(result.promoted_keys);
  stats_.lost_keys.Increment(result.lost_keys);
  return result;
}

}  // namespace faasm

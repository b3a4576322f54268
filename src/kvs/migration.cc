#include "kvs/migration.h"

#include <set>

#include "common/log.h"
#include "kvs/batch_codec.h"

namespace faasm {

KvStore* ShardMigrator::StoreAt(const std::string& endpoint) const {
  auto it = stores_->find(endpoint);
  return it == stores_->end() ? nullptr : it->second;
}

Result<uint64_t> StreamKey(InProcNetwork* network, const std::string& from,
                           const std::string& to, const std::string& key,
                           const KeyExport& record) {
  const Bytes request = EncodeMigrateInstall(key, record);
  FAASM_ASSIGN_OR_RETURN(Bytes response, network->Call(from, to, request));
  ByteReader reader(response);
  FAASM_RETURN_IF_ERROR(ReadStatus(reader));
  return static_cast<uint64_t>(request.size());
}

Result<MigrationStats> ShardMigrator::Execute(const std::vector<std::string>& sources,
                                              const ShardAssignment& after,
                                              const std::function<void()>& flip) {
  MigrationStats stats;
  for (const std::string& source : sources) {
    if (StoreAt(source) == nullptr) {
      return Internal("migration: no store for source shard " + source);
    }
  }

  // FILTER: from here on, no op can create or mutate a key that is about to
  // change master on any source shard — including keys that do not exist
  // yet — so the listing below is complete by construction.
  for (const std::string& source : sources) {
    StoreAt(source)->SetMigrationFilter(
        [after, source](const std::string& key) { return after.MasterFor(key) != source; });
  }
  auto clear_filters = [&] {
    for (const std::string& source : sources) {
      StoreAt(source)->ClearMigrationFilter();
    }
  };

  // PLAN: the moving keys, off the now-stable source listings.
  const std::shared_ptr<const ShardAssignment> before = map_->Snapshot();
  std::set<std::string> keys;
  for (const std::string& source : sources) {
    for (std::string& key : StoreAt(source)->Keys()) {
      keys.insert(std::move(key));
    }
  }
  const std::vector<KeyMove> moves =
      DiffKeys(*before, after, std::vector<std::string>(keys.begin(), keys.end()));

  // FREEZE + STREAM. Each key is frozen before its export, so every write
  // either lands before the copy (and is carried) or bounces with
  // kWrongMaster until the flip re-routes it to the new master. Every
  // install lands BEFORE the flip: a write the new master accepts can never
  // race a stale install.
  for (size_t i = 0; i < moves.size(); ++i) {
    KvStore* source = StoreAt(moves[i].from);
    Status failure = source == nullptr
                         ? Internal("migration: no store for source shard " + moves[i].from)
                         : OkStatus();
    if (failure.ok()) {
      source->FreezeKey(moves[i].key);
      // A footprint that vanished between the plan and the freeze (e.g. a
      // lock released and its key deleted) has nothing to carry.
      const KeyExport record = source->ExportKey(moves[i].key);
      auto streamed = record.empty() ? Result<uint64_t>(uint64_t{0})
                                     : StreamKey(network_, moves[i].from, moves[i].to,
                                                 moves[i].key, record);
      if (streamed.ok()) {
        stats.keys_moved += 1;
        stats.bytes_moved += streamed.value();
        continue;
      }
      failure = streamed.status();
    }
    // Abandon the membership change: unfreeze the batch, drop the installs
    // already streamed (their destinations never became masters), clear the
    // filters. The old epoch keeps serving everything.
    for (size_t j = 0; j <= i && j < moves.size(); ++j) {
      if (KvStore* frozen_source = StoreAt(moves[j].from); frozen_source != nullptr) {
        frozen_source->UnfreezeKey(moves[j].key);
      }
      if (KvStore* destination = StoreAt(moves[j].to); destination != nullptr && j < i) {
        destination->EraseKey(moves[j].key);
      }
    }
    clear_filters();
    return failure;
  }

  // FLIP. From here on, fresh routes resolve to the new assignment, which
  // already holds every moving key. Nothing below can fail.
  flip();
  stats.epoch_flips += 1;

  // ERASE the moved keys from their sources and lift the filters. Straggler
  // ops that still reach a stale shard bounce on its live-map ownership
  // guard and retry against the new route.
  for (const KeyMove& move : moves) {
    StoreAt(move.from)->EraseKey(move.key);
  }
  clear_filters();
  return stats;
}

Result<MigrationStats> ShardMigrator::AddShard(const std::string& endpoint) {
  if (StoreAt(endpoint) == nullptr) {
    return FailedPrecondition("migration: store for " + endpoint + " not attached");
  }
  const std::shared_ptr<const ShardAssignment> before = map_->Snapshot();
  if (before->endpoints().count(endpoint) > 0) {
    return MigrationStats{};  // already a member: nothing to do
  }
  // Keys can move to the new shard from ANY current member.
  const std::vector<std::string> sources(before->endpoints().begin(), before->endpoints().end());
  return Execute(sources, before->With(endpoint), [&] { map_->AddShard(endpoint); });
}

Result<MigrationStats> ShardMigrator::RemoveShard(const std::string& endpoint) {
  const std::shared_ptr<const ShardAssignment> before = map_->Snapshot();
  if (before->endpoints().count(endpoint) == 0) {
    return NotFound("migration: " + endpoint + " is not a member");
  }
  if (before->endpoints().size() <= 1) {
    return FailedPrecondition("migration: cannot remove the last shard");
  }
  // Consistent hashing moves keys only FROM the removed shard.
  return Execute({endpoint}, before->Without(endpoint), [&] { map_->RemoveShard(endpoint); });
}

}  // namespace faasm

// Shard migration: the data-plane half of dynamic cluster membership — and
// the SHARED STREAM CORE of the replication substrate (kvs/replication.h).
//
// One mechanism moves key footprints between stores everywhere in this
// codebase: a frozen, consistent KeyExport snapshot (value bytes, lock
// ownership, set members) shipped as a kMigrateInstall RPC and installed
// before any routing change becomes visible. ShardMigrator built it for
// planned membership changes; the replication layer reuses the identical
// wire op and record for backup catch-up (Reconcile streams a lagging
// replica the same bytes a migration would) and for crash failover
// (promoting a backup copy into a new master IS a migration stream whose
// source happens to be a replica). Two guarantees are therefore inherited,
// not re-implemented, by every consumer of the stream:
//
//   - PRE-FLIP INSTALLS: data lands on its destination before the epoch
//     flip that routes clients at it, so a post-flip write can never be
//     clobbered by a stale install;
//   - FILTER-BEFORE-ENUMERATE: the migration filter goes up before any key
//     listing, bouncing creations of moving keys, so no key can be created
//     behind the plan and stranded (the enumeration race).
//
// When a host joins or leaves the sharded global tier (runtime/cluster.h
// AddHost/RemoveHost), ~1/N of the keyspace changes master. ShardMigrator
// performs the handoff so that no acknowledged update is lost and held
// distributed locks keep excluding:
//
//   1. FILTER  — every source store gets a migration filter built from the
//                PROSPECTIVE assignment: ops on any key that will change
//                master bounce with kWrongMaster from here on, including
//                keys that do not exist yet. This closes the enumeration
//                race — no moving key can be created behind the listing in
//                step 2, so nothing is ever stranded on a stale master.
//   2. PLAN    — list the keys actually present on the source shards and
//                DiffKeys them against the prospective assignment
//                (kvs/router.h): only moving keys are touched.
//   3. FREEZE  — each moving key is frozen on its source store; the check
//                runs under the store's shard mutex, so no write can land
//                between the export and the handoff.
//   4. STREAM  — the source shard streams each key's full footprint (value
//                bytes, lock ownership, set members) to the destination
//                server as a kMigrateInstall RPC over the cluster
//                interconnect: migration traffic is byte-accounted and
//                latency-charged like any other cross-host transfer. All
//                installs complete BEFORE the flip, so a post-flip write on
//                the new master can never be clobbered by a stale install.
//   5. FLIP    — the live ShardMap adds/removes the shard, bumping the
//                epoch. Every fresh route now resolves to the new master,
//                which already holds the data.
//   6. ERASE   — migrated keys are dropped from their source stores and the
//                filters come off. Straggler ops that still reach a stale
//                shard bounce on its live-map ownership guard
//                (KvStore::SetOwnershipGuard) and retry against the new
//                route.
//
// A failure before the flip rolls everything back (unfreeze, drop the
// half-streamed installs, clear the filters) and leaves the old epoch fully
// serving; after the flip nothing can fail — erase and filter-clear are
// local and infallible. The coordinator runs in the control plane (the
// cluster driver); only the key streams themselves touch the network.
#ifndef FAASM_KVS_MIGRATION_H_
#define FAASM_KVS_MIGRATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kvs/kvs_client.h"
#include "kvs/router.h"
#include "net/network.h"

namespace faasm {

// Cumulative migration accounting (the fig10 churn bench reports these).
struct MigrationStats {
  uint64_t epoch_flips = 0;   // membership changes applied
  uint64_t keys_moved = 0;    // keys handed to a new master
  uint64_t bytes_moved = 0;   // payload bytes streamed between shards

  MigrationStats& operator+=(const MigrationStats& other) {
    epoch_flips += other.epoch_flips;
    keys_moved += other.keys_moved;
    bytes_moved += other.bytes_moved;
    return *this;
  }
};

// The stream itself: ships `record` as `key`'s kMigrateInstall from `from`
// to `to` over the cluster interconnect, so the transfer is byte-accounted
// and latency-charged like any cross-host traffic, and answers the
// destination's install status. Shard migration, replication catch-up and
// failover promotion all stream through here. Returns the request size.
Result<uint64_t> StreamKey(InProcNetwork* network, const std::string& from,
                           const std::string& to, const std::string& key,
                           const KeyExport& record);

// Executes shard add/remove handoffs against a live ShardMap and its
// endpoint->store table. Not thread safe: one membership change at a time
// (the cluster serialises AddHost/RemoveHost through the driver).
class ShardMigrator {
 public:
  ShardMigrator(InProcNetwork* network, ShardMap* map,
                std::map<std::string, KvStore*>* stores)
      : network_(network), map_(map), stores_(stores) {}

  // Brings `endpoint` (already registered as a server, store already in the
  // table) into the assignment: migrates every key whose master becomes the
  // new shard, then flips the epoch.
  Result<MigrationStats> AddShard(const std::string& endpoint);

  // Takes `endpoint` out of the assignment: migrates every key it masters
  // to the survivors, then flips the epoch. Fails on the last shard (the
  // keys would have nowhere to go).
  Result<MigrationStats> RemoveShard(const std::string& endpoint);

 private:
  // Runs the filter→plan→freeze→stream→flip→erase sequence for one
  // membership change: `sources` are the endpoints keys can move away
  // from, `after` the prospective assignment, `flip` the map mutation.
  Result<MigrationStats> Execute(const std::vector<std::string>& sources,
                                 const ShardAssignment& after,
                                 const std::function<void()>& flip);

  KvStore* StoreAt(const std::string& endpoint) const;

  InProcNetwork* network_;
  ShardMap* map_;
  std::map<std::string, KvStore*>* stores_;
};

}  // namespace faasm

#endif  // FAASM_KVS_MIGRATION_H_

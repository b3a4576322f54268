// The global-tier routing layer: per-key mastership over host-colocated KVS
// shards (§4.3).
//
// Instead of one central KVS endpoint, every FAASM host runs a KvsServer
// over its own KvStore shard, registered on the endpoint "kvs:<host>"
// (ShardMap::EndpointForHost). A ShardMap assigns each state key a *master
// shard* by consistent hashing:
//
//   - the shard endpoints are placed on a 64-bit hash ring (kVirtualNodes
//     points each, so load spreads evenly), and a key is mastered by the
//     first shard clockwise from its hash;
//   - adding or removing a host therefore remaps only the ~1/N keys whose
//     ring arc changed — every other key keeps its master, so warm replicas
//     and locks stay put under cluster resizing;
//   - mastership is a pure function of (key, shard set): every host resolves
//     the same master with zero coordination traffic.
//
// MEMBERSHIP IS DYNAMIC: AddShard/RemoveShard may be called while the
// cluster serves traffic. Every membership change bumps the map's EPOCH, and
// keys whose master moved are handed over by the migration subsystem
// (kvs/migration.h): the source shard filters + streams each moving key to
// its new master, the epoch flips, and in-flight ops that raced the change
// get a kWrongMaster redirect from the stale shard and retry against the new
// epoch's route (kvs/kvs_client.h).
//
// ONE RING PER EPOCH. The ring exists in exactly one place: an immutable
// ShardAssignment. A ShardMap holds the current epoch's assignment and
// publishes a new one on every membership change; master lookups, holder
// resolution, migration snapshots and the client's replica-read check all
// read that one assignment. DiffKeys is a per-key comparison of two
// assignments' masters.
//
// KvsClient resolves the master per key through an injected ShardMap. Ops
// whose master is the calling host's own shard take the local fast path —
// direct in-process KvStore calls, no InProcNetwork round trip — so a
// replica co-located with its key's master syncs with ZERO network bytes
// (the paper's co-location win). All other ops are sent to the owning
// endpoint. Multi-key users (scheduler warm sets, the proto: snapshot
// cache, distributed locks) route each key independently.
//
// ShardedKvs is the direct, unaccounted cluster-wide view of the same
// shards (dataset seeding and test inspection): it routes through the same
// ShardMap but always calls the owning KvStore in process. A centralised
// tier is a one-shard map, here as in the client.
#ifndef FAASM_KVS_ROUTER_H_
#define FAASM_KVS_ROUTER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "kvs/kv_store.h"

namespace faasm {

// One epoch's key→master assignment: the consistent-hash ring over a fixed
// endpoint set, immutable once built. A ShardMap holds the live one; the
// constructor is the only place ring points are placed.
class ShardAssignment {
 public:
  ShardAssignment() = default;
  explicit ShardAssignment(const std::set<std::string>& endpoints, uint64_t epoch = 0);

  // Master shard endpoint for `key`; empty when there are no shards.
  std::string MasterFor(const std::string& key) const;

  // The assignment with `endpoint` added / removed (ring points are a pure
  // function of the endpoint set, so snapshots compose without the map).
  // Derived assignments are hypothetical — they carry no epoch (0).
  ShardAssignment With(const std::string& endpoint) const;
  ShardAssignment Without(const std::string& endpoint) const;

  const std::set<std::string>& endpoints() const { return endpoints_; }
  bool empty() const { return ring_.empty(); }
  // The map epoch this assignment was published at (replica-read validity
  // stamps installs with it so a copy installed from a stale snapshot can
  // never pass the current-epoch check).
  uint64_t epoch() const { return epoch_; }

 private:
  std::map<uint64_t, std::string> ring_;  // hash point -> endpoint
  std::set<std::string> endpoints_;
  uint64_t epoch_ = 0;
};

// The R-1 backup endpoints for `primary`: the next distinct endpoints
// clockwise from it in sorted order (wrapping), primary excluded. Pure
// function of the endpoint set, so every host computes the same backups
// with zero coordination — the same property mastership itself has. Works
// when `primary` is absent from the set (mid-failover lookups). Lives with
// the routing layer because holder resolution (master OR backup) is a
// routing question: the replication substrate (kvs/replication.h) places
// copies with it and the client/scheduler resolve read-serving hosts with it.
std::vector<std::string> BackupsFor(const std::set<std::string>& endpoints,
                                    const std::string& primary, int factor);

// One key whose master changes between two assignments.
struct KeyMove {
  std::string key;
  std::string from;  // master endpoint before
  std::string to;    // master endpoint after
};

// The keys (among `keys`, in input order) whose master differs between
// `before` and `after`, with their old and new masters.
std::vector<KeyMove> DiffKeys(const ShardAssignment& before, const ShardAssignment& after,
                              const std::vector<std::string>& keys);

// The live key -> master-shard-endpoint assignment: a lock around the
// current epoch's immutable ShardAssignment plus the replication factor.
// Thread safe; injectable into KvsClient so tests can pin mastership.
// Membership changes publish a new assignment at epoch()+1 so observers can
// tell assignments apart.
class ShardMap {
 public:
  // Ring points per shard. Enough that an 8-host cluster balances within a
  // few percent while keeping each epoch's ring build cheap.
  static constexpr int kVirtualNodes = 64;

  ShardMap() = default;
  explicit ShardMap(const std::vector<std::string>& endpoints);

  ShardMap(const ShardMap&) = delete;
  ShardMap& operator=(const ShardMap&) = delete;

  // Canonical endpoint name of the shard hosted by `host` ("kvs:<host>").
  static std::string EndpointForHost(const std::string& host);
  // Inverse of EndpointForHost; empty for endpoints that are not
  // host-colocated shards (e.g. the centralised "kvs" endpoint).
  static std::string HostForEndpoint(const std::string& endpoint);

  // Membership changes. Each effective change (a shard actually added or
  // removed) publishes the new endpoint set's assignment at the next epoch;
  // duplicate adds / missing removes are no-ops.
  void AddShard(const std::string& endpoint);
  void RemoveShard(const std::string& endpoint);

  // Master shard endpoint for `key`; empty when the map has no shards.
  std::string MasterFor(const std::string& key) const;
  // The live-map ownership guard of the store serving `endpoint`
  // (KvStore::SetOwnershipGuard): true while this map masters the key there.
  std::function<bool(const std::string&)> MastersAt(std::string endpoint) const;

  // The endpoints holding a copy of `key` under the current epoch: its
  // master first, then its replication_factor()-1 backups in BackupsFor
  // order. With factor 1 this is just {master}. The client's replica-read
  // membership check resolves serving hosts with this.
  std::vector<std::string> HoldersFor(const std::string& key) const;

  // The cluster's replication factor, used by HoldersFor. Set once at
  // cluster construction (default 1 = no backups).
  void set_replication_factor(int factor);
  int replication_factor() const;

  // Monotonic assignment version: starts at 0, +1 per effective membership
  // change. Routing is deterministic within an epoch.
  uint64_t epoch() const;

  // The current epoch's assignment (migration planning, replica placement).
  // Shares the published ring: it stays valid, unchanged, across later
  // membership changes.
  std::shared_ptr<const ShardAssignment> Snapshot() const;

  std::vector<std::string> shards() const;
  size_t shard_count() const;

 private:
  // Read-mostly: MasterFor sits on every KVS op's hot path, while the
  // assignment is only replaced at cluster (re)configuration — readers share
  // the lock. Every shared lock writes the lock word from whichever thread
  // routes, so it starts a cache line of its own: the cluster's neighbouring
  // members (the network pointer, the executor's spawn lock) must not share
  // it.
  alignas(64) mutable std::shared_mutex mutex_;
  std::shared_ptr<const ShardAssignment> current_ = std::make_shared<const ShardAssignment>();
  int replication_factor_ = 1;
};

// Direct in-process view over every shard of the global tier, routed by the
// same ShardMap the cluster uses. Bypasses the network on purpose: dataset
// seeding and test inspection are not experiment traffic. Routing follows
// the map's CURRENT epoch, so after a migration the view finds each key on
// its new master; a map must have a store attached for every shard.
class ShardedKvs {
 public:
  ShardedKvs() = default;
  // A view over one store: builds and owns the one-shard map ("kvs")
  // FaasmCluster's kCentral uses, with `single` attached to it.
  explicit ShardedKvs(KvStore* single);

  void Attach(const ShardMap* map) { map_ = map; }
  void AddStore(const std::string& endpoint, KvStore* store) { stores_[endpoint] = store; }

  // Observer of this view's successful writes, fired with the key after the
  // store call returns. The replication layer wires this to its in-process
  // mirror (ReplicationManager::MirrorKey) so seeded data has backups too.
  // Writes run under a KvStore::HookPause: the seeding thread is typically
  // not clock-registered, so the network forwarding hook must not fire for
  // these writes — the observer's in-process mirror replaces it.
  using MutationObserver = std::function<void(const std::string&)>;
  void SetMutationObserver(MutationObserver observer) { observer_ = std::move(observer); }

  // Owning store for `key`: its master's store (a missing one aborts).
  KvStore* StoreFor(const std::string& key) const;

  // --- KvStore API, routed per key --------------------------------------------
  // Set is the only write: seeding writes whole values, nothing else.
  Status Set(const std::string& key, Bytes value) {
    Status status = [&] {
      KvStore::HookPause pause;
      return StoreFor(key)->Set(key, std::move(value));
    }();
    if (status.ok() && observer_ != nullptr) {
      observer_(key);
    }
    return status;
  }
  Result<Bytes> Get(const std::string& key) const { return StoreFor(key)->Get(key); }
  bool Exists(const std::string& key) const { return StoreFor(key)->Exists(key); }
  Result<size_t> Size(const std::string& key) const { return StoreFor(key)->Size(key); }
  std::vector<std::string> SetMembers(const std::string& key) const {
    return StoreFor(key)->SetMembers(key);
  }

  // Keys over every shard.
  size_t key_count() const;

 private:
  std::unique_ptr<ShardMap> own_map_;  // the one-shard map, when built here
  const ShardMap* map_ = nullptr;
  std::map<std::string, KvStore*> stores_;  // endpoint -> shard
  MutationObserver observer_;
};

}  // namespace faasm

#endif  // FAASM_KVS_ROUTER_H_

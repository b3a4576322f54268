#include "kvs/router.h"

#include <algorithm>
#include <cstdlib>

#include "common/bytes.h"
#include "common/log.h"

namespace faasm {

namespace {
constexpr char kShardEndpointPrefix[] = "kvs:";

// Murmur3 finaliser: full-avalanche mix. The repo-wide FNV-1a leaves
// near-identical strings ("kvs:host-3#41" vs "#42") with near-identical
// hashes, which would cluster every vnode of a host into one tight ring arc
// and wreck the balance consistent hashing depends on; the finaliser
// scatters them uniformly.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashString(const std::string& s) {
  return Mix64(HashBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

// Ring point of virtual node `vnode` of `endpoint`.
uint64_t RingPoint(const std::string& endpoint, int vnode) {
  return HashString(endpoint + "#" + std::to_string(vnode));
}

void InsertEndpointPoints(std::map<uint64_t, std::string>& ring, const std::string& endpoint) {
  for (int vnode = 0; vnode < ShardMap::kVirtualNodes; ++vnode) {
    // Hash collisions between distinct endpoints are theoretically possible;
    // first-placed wins, which only shifts a sliver of keyspace.
    ring.emplace(RingPoint(endpoint, vnode), endpoint);
  }
}

// First ring entry clockwise from `h`, wrapping past the top. Requires a
// non-empty ring.
const std::string& RingOwnerOf(const std::map<uint64_t, std::string>& ring, uint64_t h) {
  auto it = ring.lower_bound(h);
  if (it == ring.end()) {
    it = ring.begin();
  }
  return it->second;
}
}  // namespace

// --- BackupsFor ---------------------------------------------------------------

std::vector<std::string> BackupsFor(const std::set<std::string>& endpoints,
                                    const std::string& primary, int factor) {
  std::vector<std::string> backups;
  if (factor <= 1 || endpoints.empty()) {
    return backups;
  }
  const std::vector<std::string> ordered(endpoints.begin(), endpoints.end());
  const size_t others = ordered.size() - (endpoints.count(primary) > 0 ? 1 : 0);
  const size_t want = std::min<size_t>(static_cast<size_t>(factor - 1), others);
  // First endpoint strictly after `primary` in sorted order, wrapping: the
  // clockwise walk that mirrors ring succession.
  size_t start = std::upper_bound(ordered.begin(), ordered.end(), primary) - ordered.begin();
  for (size_t step = 0; step < ordered.size() && backups.size() < want; ++step) {
    const std::string& candidate = ordered[(start + step) % ordered.size()];
    if (candidate != primary) {
      backups.push_back(candidate);
    }
  }
  return backups;
}

// --- ShardAssignment ----------------------------------------------------------

ShardAssignment::ShardAssignment(const std::set<std::string>& endpoints, uint64_t epoch)
    : endpoints_(endpoints), epoch_(epoch) {
  for (const std::string& endpoint : endpoints_) {
    InsertEndpointPoints(ring_, endpoint);
  }
}

std::string ShardAssignment::MasterFor(const std::string& key) const {
  if (ring_.empty()) {
    return "";
  }
  return RingOwnerOf(ring_, HashString(key));
}

const std::string& ShardAssignment::OwnerOf(uint64_t h) const { return RingOwnerOf(ring_, h); }

ShardAssignment ShardAssignment::With(const std::string& endpoint) const {
  std::set<std::string> endpoints = endpoints_;
  endpoints.insert(endpoint);
  return ShardAssignment(endpoints);
}

ShardAssignment ShardAssignment::Without(const std::string& endpoint) const {
  std::set<std::string> endpoints = endpoints_;
  endpoints.erase(endpoint);
  return ShardAssignment(endpoints);
}

std::vector<KeyMove> DiffKeys(const ShardAssignment& before, const ShardAssignment& after,
                              const std::vector<std::string>& keys) {
  std::vector<KeyMove> moves;
  if (before.ring_.empty() && after.ring_.empty()) {
    return moves;
  }
  if (before.ring_.empty() || after.ring_.empty()) {
    // Degenerate epochs (bootstrap / teardown): every key moves.
    for (const std::string& key : keys) {
      moves.push_back(KeyMove{key, before.MasterFor(key), after.MasterFor(key)});
    }
    return moves;
  }

  // Owner-change arc table. Between two consecutive points of the MERGED
  // boundary set, neither ring has a point, so both owners are constant over
  // the half-open arc (prev, point] — one lookup per merged point yields the
  // exact owner pair for every hash in its arc.
  std::vector<uint64_t> points;
  points.reserve(before.ring_.size() + after.ring_.size());
  for (const auto& [point, endpoint] : before.ring_) {
    points.push_back(point);
  }
  for (const auto& [point, endpoint] : after.ring_) {
    points.push_back(point);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  struct ArcOwners {
    const std::string* from;
    const std::string* to;
  };
  std::vector<ArcOwners> owners;
  owners.reserve(points.size());
  for (uint64_t point : points) {
    owners.push_back(ArcOwners{&before.OwnerOf(point), &after.OwnerOf(point)});
  }

  for (const std::string& key : keys) {
    const uint64_t h = HashString(key);
    // Arc lookup mirrors RingOwnerOf: first merged point >= h, wrapping.
    auto it = std::lower_bound(points.begin(), points.end(), h);
    const size_t arc = it == points.end() ? 0 : static_cast<size_t>(it - points.begin());
    const ArcOwners& arc_owners = owners[arc];
    if (*arc_owners.from != *arc_owners.to) {
      moves.push_back(KeyMove{key, *arc_owners.from, *arc_owners.to});
    }
  }
  return moves;
}

// --- ShardMap -----------------------------------------------------------------

ShardMap::ShardMap(const std::vector<std::string>& endpoints) {
  for (const std::string& endpoint : endpoints) {
    AddShard(endpoint);
  }
}

std::function<bool(const std::string&)> ShardMap::MastersAt(std::string endpoint) const {
  return [this, endpoint = std::move(endpoint)](const std::string& key) {
    return MasterFor(key) == endpoint;
  };
}

std::string ShardMap::EndpointForHost(const std::string& host) {
  return kShardEndpointPrefix + host;
}

std::string ShardMap::HostForEndpoint(const std::string& endpoint) {
  const size_t prefix_len = sizeof(kShardEndpointPrefix) - 1;
  if (endpoint.compare(0, prefix_len, kShardEndpointPrefix) != 0) {
    return "";
  }
  return endpoint.substr(prefix_len);
}

void ShardMap::AddShard(const std::string& endpoint) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  if (!endpoints_.insert(endpoint).second) {
    return;
  }
  InsertEndpointPoints(ring_, endpoint);
  ++epoch_;
}

void ShardMap::RemoveShard(const std::string& endpoint) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  if (endpoints_.erase(endpoint) == 0) {
    return;
  }
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == endpoint ? ring_.erase(it) : std::next(it);
  }
  ++epoch_;
}

std::string ShardMap::MasterFor(const std::string& key) const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  if (ring_.empty()) {
    return "";
  }
  return RingOwnerOf(ring_, HashString(key));
}

std::vector<std::string> ShardMap::HoldersFor(const std::string& key) const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  std::vector<std::string> holders;
  if (ring_.empty()) {
    return holders;
  }
  const std::string master = RingOwnerOf(ring_, HashString(key));
  holders.push_back(master);
  for (std::string& backup : BackupsFor(endpoints_, master, replication_factor_)) {
    holders.push_back(std::move(backup));
  }
  return holders;
}

void ShardMap::set_replication_factor(int factor) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  replication_factor_ = factor < 1 ? 1 : factor;
}

int ShardMap::replication_factor() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return replication_factor_;
}

uint64_t ShardMap::epoch() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return epoch_;
}

ShardAssignment ShardMap::Snapshot() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return ShardAssignment(endpoints_, epoch_);
}

std::vector<std::string> ShardMap::shards() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return std::vector<std::string>(endpoints_.begin(), endpoints_.end());
}

size_t ShardMap::shard_count() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return endpoints_.size();
}

// --- ShardedKvs ---------------------------------------------------------------

KvStore* ShardedKvs::StoreFor(const std::string& key) const {
  if (map_ != nullptr && !stores_.empty()) {
    const std::string master = map_->MasterFor(key);
    auto it = stores_.find(master);
    if (it != stores_.end()) {
      return it->second;
    }
    if (single_ == nullptr) {
      // Misconfiguration (a shard was added to the map with no attached
      // store): every caller dereferences the result, so fail loudly here
      // rather than segfault downstream.
      LOG_ERROR << "sharded kvs: no store attached for '" << master << "' (master of '" << key
                << "'); map and stores are out of sync";
      std::abort();
    }
    LOG_ERROR << "sharded kvs: no store attached for master of '" << key
              << "'; falling back to the single store";
  }
  return single_;
}

size_t ShardedKvs::key_count() const {
  if (stores_.empty()) {
    return single_ != nullptr ? single_->key_count() : 0;
  }
  size_t count = 0;
  for (const auto& [endpoint, store] : stores_) {
    count += store->key_count();
  }
  return count;
}

size_t ShardedKvs::total_bytes() const {
  if (stores_.empty()) {
    return single_ != nullptr ? single_->total_bytes() : 0;
  }
  size_t bytes = 0;
  for (const auto& [endpoint, store] : stores_) {
    bytes += store->total_bytes();
  }
  return bytes;
}

}  // namespace faasm

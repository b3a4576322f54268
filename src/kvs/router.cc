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

}  // namespace

// --- BackupsFor ---------------------------------------------------------------

std::vector<std::string> BackupsFor(const std::set<std::string>& endpoints,
                                    const std::string& primary, int factor) {
  std::vector<std::string> backups;
  if (factor <= 1 || endpoints.empty()) {
    return backups;
  }
  const size_t others = endpoints.size() - endpoints.count(primary);
  const size_t want = std::min<size_t>(static_cast<size_t>(factor - 1), others);
  // Walk clockwise from the first endpoint strictly after `primary` in
  // sorted order, wrapping: the walk that mirrors ring succession. It ends
  // within one lap, since `want` never exceeds the non-primary endpoints.
  for (auto it = endpoints.upper_bound(primary); backups.size() < want; ++it) {
    if (it == endpoints.end()) {
      it = endpoints.begin();
    }
    if (*it != primary) {
      backups.push_back(*it);
    }
  }
  return backups;
}

// --- ShardAssignment ----------------------------------------------------------

ShardAssignment::ShardAssignment(const std::set<std::string>& endpoints, uint64_t epoch)
    : endpoints_(endpoints), epoch_(epoch) {
  for (const std::string& endpoint : endpoints_) {
    for (int vnode = 0; vnode < ShardMap::kVirtualNodes; ++vnode) {
      // Hash collisions between distinct endpoints are theoretically
      // possible; first-placed wins, which only shifts a sliver of keyspace.
      ring_.emplace(HashString(endpoint + "#" + std::to_string(vnode)), endpoint);
    }
  }
}

std::string ShardAssignment::MasterFor(const std::string& key) const {
  if (ring_.empty()) {
    return "";
  }
  // First ring point clockwise from the key's hash, wrapping past the top.
  auto it = ring_.lower_bound(HashString(key));
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

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
  for (const std::string& key : keys) {
    std::string from = before.MasterFor(key);
    std::string to = after.MasterFor(key);
    if (from != to) {
      moves.push_back(KeyMove{key, std::move(from), std::move(to)});
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
  std::set<std::string> endpoints = current_->endpoints();
  if (endpoints.insert(endpoint).second) {
    current_ = std::make_shared<const ShardAssignment>(endpoints, current_->epoch() + 1);
  }
}

void ShardMap::RemoveShard(const std::string& endpoint) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  std::set<std::string> endpoints = current_->endpoints();
  if (endpoints.erase(endpoint) > 0) {
    current_ = std::make_shared<const ShardAssignment>(endpoints, current_->epoch() + 1);
  }
}

std::string ShardMap::MasterFor(const std::string& key) const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return current_->MasterFor(key);
}

std::vector<std::string> ShardMap::HoldersFor(const std::string& key) const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  std::vector<std::string> holders;
  if (current_->empty()) {
    return holders;
  }
  holders.push_back(current_->MasterFor(key));
  for (std::string& backup :
       BackupsFor(current_->endpoints(), holders.front(), replication_factor_)) {
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
  return current_->epoch();
}

std::shared_ptr<const ShardAssignment> ShardMap::Snapshot() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return current_;
}

std::vector<std::string> ShardMap::shards() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return std::vector<std::string>(current_->endpoints().begin(), current_->endpoints().end());
}

size_t ShardMap::shard_count() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return current_->endpoints().size();
}

// --- ShardedKvs ---------------------------------------------------------------

KvStore* ShardedKvs::StoreFor(const std::string& key) const {
  if (map_ == nullptr) {
    return single_;
  }
  const std::string master = map_->MasterFor(key);
  auto it = stores_.find(master);
  if (it == stores_.end()) {
    // Misconfiguration (a shard was added to the map with no attached
    // store): every caller dereferences the result, so fail loudly here
    // rather than segfault downstream.
    LOG_ERROR << "sharded kvs: no store attached for '" << master << "' (master of '" << key
              << "'); map and stores are out of sync";
    std::abort();
  }
  return it->second;
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

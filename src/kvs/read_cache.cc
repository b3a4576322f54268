#include "kvs/read_cache.h"

namespace faasm {

ReadCache::Entry* ReadCache::LiveEntryLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return nullptr;
  }
  if (it->second.epoch != CurrentEpoch()) {
    // Installed under an older membership epoch: mastership (and possibly
    // the value, through its new master) may have changed since.
    cached_bytes_ -= it->second.value.size();
    entries_.erase(it);
    invalidations_.Increment();
    return nullptr;
  }
  return &it->second;
}

bool ReadCache::FreshLocked(TimeNs stamp) const { return clock_->Now() - stamp <= lease_; }

std::optional<Bytes> ReadCache::Lookup(const std::string& key, uint64_t offset, uint64_t len,
                                       uint64_t* value_size) {
  if (!enabled()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  Entry* entry = LiveEntryLocked(key);
  if (entry == nullptr || !FreshLocked(entry->value_at) || offset > entry->value.size()) {
    // An out-of-range offset also misses: the master, not the cache, owns
    // the OutOfRange/NotFound error surface.
    misses_.Increment();
    return std::nullopt;
  }
  hits_.Increment();
  const Bytes& value = entry->value;
  if (value_size != nullptr) {
    *value_size = value.size();
  }
  const size_t end = len >= value.size() - offset ? value.size() : offset + len;
  return Bytes(value.begin() + offset, value.begin() + end);
}

void ReadCache::InsertFull(const std::string& key, Bytes value) {
  if (!enabled() || value.size() > kMaxCachedBytes) {
    return;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  EvictForLocked(value.size());
  Entry& entry = entries_[key];
  cached_bytes_ -= entry.value.size();
  entry.epoch = CurrentEpoch();
  cached_bytes_ += value.size();
  entry.value = std::move(value);
  entry.value_at = clock_->Now();
}

void ReadCache::EvictForLocked(size_t incoming_bytes) {
  while (!entries_.empty() && cached_bytes_ + incoming_bytes > kMaxCachedBytes) {
    auto stalest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.value_at < stalest->second.value_at) {
        stalest = it;
      }
    }
    cached_bytes_ -= stalest->second.value.size();
    entries_.erase(stalest);
  }
}

void ReadCache::Invalidate(const std::string& key) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    cached_bytes_ -= it->second.value.size();
    entries_.erase(it);
    invalidations_.Increment();
  }
}

}  // namespace faasm

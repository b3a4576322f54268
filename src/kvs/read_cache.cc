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

std::optional<Bytes> ReadCache::Lookup(const std::string& key, uint64_t offset, uint64_t len) {
  if (!enabled()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  Entry* entry = LiveEntryLocked(key);
  if (entry == nullptr || !entry->has_value || !FreshLocked(entry->value_at) ||
      offset > entry->value.size()) {
    // An out-of-range offset also misses: the master, not the cache, owns
    // the OutOfRange/NotFound error surface.
    misses_.Increment();
    return std::nullopt;
  }
  hits_.Increment();
  const Bytes& value = entry->value;
  const size_t end = len >= value.size() - offset ? value.size() : offset + len;
  return Bytes(value.begin() + offset, value.begin() + end);
}

std::optional<uint64_t> ReadCache::LookupSize(const std::string& key) {
  if (!enabled()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  Entry* entry = LiveEntryLocked(key);
  if (entry != nullptr && entry->has_size && FreshLocked(entry->size_at)) {
    hits_.Increment();
    return entry->size;
  }
  if (entry != nullptr && entry->has_value && FreshLocked(entry->value_at)) {
    hits_.Increment();
    return entry->value.size();
  }
  misses_.Increment();
  return std::nullopt;
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
  entry.has_value = true;
  cached_bytes_ += value.size();
  entry.value = std::move(value);
  entry.value_at = clock_->Now();
  entry.has_size = true;
  entry.size = entry.value.size();
  entry.size_at = entry.value_at;
}

void ReadCache::InsertSize(const std::string& key, uint64_t size) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  Entry& entry = entries_[key];
  const uint64_t epoch = CurrentEpoch();
  if (entry.epoch != epoch) {
    // Refreshing a stale-epoch entry's size does not revalidate its value.
    cached_bytes_ -= entry.value.size();
    entry = Entry{};
    entry.epoch = epoch;
  }
  entry.has_size = true;
  entry.size = size;
  entry.size_at = clock_->Now();
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

void ReadCache::Clear() {
  std::lock_guard<std::mutex> guard(mutex_);
  entries_.clear();
  cached_bytes_ = 0;
}

}  // namespace faasm

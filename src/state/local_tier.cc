#include "state/local_tier.h"

namespace faasm {

std::shared_ptr<StateKeyValue> LocalTier::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = values_.find(key);
  if (it != values_.end()) {
    return it->second;
  }
  auto value = std::make_shared<StateKeyValue>(key, kvs_, clock_);
  values_[key] = value;
  return value;
}

size_t LocalTier::resident_bytes() const {
  std::lock_guard<std::mutex> guard(mutex_);
  size_t bytes = 0;
  for (const auto& [key, value] : values_) {
    if (value->allocated()) {
      bytes += value->size();
    }
  }
  return bytes;
}

size_t LocalTier::key_count() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return values_.size();
}

Status LocalTier::Prefetch(const std::vector<std::string>& keys) {
  if (keys.empty()) {
    return OkStatus();
  }
  // Whole-value reads for every key, grouped per master endpoint into
  // kGetBatch RPCs; each ack installs into the replica as it lands.
  auto first_error = std::make_shared<std::mutex>();
  auto status = std::make_shared<Status>(OkStatus());
  OpBatch batch;
  for (const std::string& key : keys) {
    std::shared_ptr<StateKeyValue> replica = Lookup(key);
    batch.Read(key, [replica, first_error, status](const Result<Bytes>& value) {
      Status installed = value.ok() ? replica->InstallPulled(value.value()) : value.status();
      if (!installed.ok()) {
        std::lock_guard<std::mutex> guard(*first_error);
        if (status->ok()) {
          *status = installed;
        }
      }
    });
  }
  FAASM_RETURN_IF_ERROR(kvs_->ExecuteBatchNow(std::move(batch)));
  std::lock_guard<std::mutex> guard(*first_error);
  return *status;
}

Status LocalTier::Push(const std::vector<std::string>& keys) {
  Status first_error = OkStatus();
  OpBatch batch;
  for (const std::string& key : keys) {
    std::shared_ptr<StateKeyValue> replica = Lookup(key);
    Result<std::vector<ValueRange>> ranges = replica->TakePushRanges();
    if (!ranges.ok()) {
      // Keep going: the keys already taken must still ship, or their dirty
      // marks would be lost.
      first_error = first_error.ok() ? ranges.status() : first_error;
      continue;
    }
    if (ranges.value().empty()) {
      continue;
    }
    std::vector<DirtyRun> runs = StateKeyValue::RunsOf(ranges.value());
    batch.SetRanges(key, std::move(ranges).value(),
                    [replica, runs = std::move(runs)](const Status& status) {
                      replica->SettlePush(runs, status);
                    });
  }
  const Status pushed = kvs_->ExecuteBatchNow(std::move(batch));
  return first_error.ok() ? pushed : first_error;
}

void LocalTier::Clear() {
  std::lock_guard<std::mutex> guard(mutex_);
  values_.clear();
}

}  // namespace faasm

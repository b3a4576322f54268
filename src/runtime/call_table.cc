#include "runtime/call_table.h"

namespace faasm {

uint64_t CallTable::Create(const std::string& function, Bytes input) {
  const uint64_t id = next_id_.fetch_add(1);
  const TimeNs now = clock_->Now();
  std::lock_guard<std::mutex> guard(mutex_);
  CallRecord& record = calls_[id].record;
  record.id = id;
  record.function = function;
  record.input = std::move(input);
  record.submitted_at = now;
  return id;
}

Result<Bytes> CallTable::TakeInput(uint64_t id) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  return std::move(it->second.record.input);
}

Status CallTable::MarkRunning(uint64_t id, const std::string& host, bool cold_start) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  CallRecord& record = it->second.record;
  record.state = CallState::kRunning;
  record.executed_on = host;
  record.cold_start = cold_start;
  record.started_at = clock_->Now();
  return OkStatus();
}

Status CallTable::Complete(uint64_t id, int return_code, Bytes output) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  CallRecord& record = it->second.record;
  record.state = CallState::kDone;
  record.return_code = return_code;
  record.output = std::move(output);
  FinishLocked(it->second);
  return OkStatus();
}

Status CallTable::Fail(uint64_t id, const std::string& error) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  CallRecord& record = it->second.record;
  record.state = CallState::kFailed;
  record.error = error;
  record.return_code = -1;
  FinishLocked(it->second);
  return OkStatus();
}

void CallTable::FinishLocked(Entry& entry) {
  entry.record.finished_at = clock_->Now();
  // Lock order is this mutex, then the clock's (as for Now()); the waiter's
  // predicate takes this mutex only outside the clock's.
  clock_->Wake(entry.finished);
}

bool CallTable::IsFinished(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  return it != calls_.end() && (it->second.record.state == CallState::kDone ||
                                it->second.record.state == CallState::kFailed);
}

bool CallTable::WaitFinished(uint64_t id) {
  WakeChannel* finished = nullptr;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = calls_.find(id);
    if (it == calls_.end()) {
      return false;
    }
    finished = &it->second.finished;
  }
  return clock_->Wait(*finished, [this, id] { return IsFinished(id); });
}

Result<CallRecord> CallTable::Get(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  return it->second.record;
}

Result<Bytes> CallTable::Output(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = calls_.find(id);
  if (it == calls_.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  if (it->second.record.state != CallState::kDone) {
    return FailedPrecondition("call #" + std::to_string(id) + " not complete");
  }
  return it->second.record.output;
}

std::vector<CallRecord> CallTable::FinishedRecords() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<CallRecord> out;
  for (const auto& [id, entry] : calls_) {
    if (entry.record.state == CallState::kDone || entry.record.state == CallState::kFailed) {
      out.push_back(entry.record);
    }
  }
  return out;
}

size_t CallTable::cold_start_count() const {
  std::lock_guard<std::mutex> guard(mutex_);
  size_t count = 0;
  for (const auto& [id, entry] : calls_) {
    count += entry.record.cold_start ? 1 : 0;
  }
  return count;
}

}  // namespace faasm

#include "runtime/call_table.h"

namespace faasm {

Bytes EncodeCallMessage(uint64_t id, const std::string& function, const Bytes& input) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint64_t>(id);
  writer.PutString(function);
  writer.PutBytes(input);
  return out;
}

Result<CallMessage> DecodeCallMessage(const Bytes& bytes) {
  CallMessage call;
  ByteReader reader(bytes);
  FAASM_ASSIGN_OR_RETURN(call.id, reader.Get<uint64_t>());
  FAASM_ASSIGN_OR_RETURN(call.function, reader.GetString());
  FAASM_ASSIGN_OR_RETURN(call.input, reader.GetBytes());
  return call;
}

namespace {

// The entry of call `id` in `calls`, or NotFound. Requires the table's mutex.
template <typename Calls>
auto FindCall(Calls& calls, uint64_t id) -> Result<decltype(&calls.begin()->second)> {
  auto it = calls.find(id);
  if (it == calls.end()) {
    return NotFound("no call #" + std::to_string(id));
  }
  return &it->second;
}

}  // namespace

uint64_t CallTable::Create(const std::string& function) {
  const uint64_t id = next_id_.fetch_add(1);
  const TimeNs now = clock_->Now();
  std::lock_guard<std::mutex> guard(mutex_);
  CallRecord& record = calls_[id].record;
  record.id = id;
  record.function = function;
  record.submitted_at = now;
  return id;
}

Status CallTable::MarkRunning(uint64_t id, const std::string& host, bool cold_start) {
  std::lock_guard<std::mutex> guard(mutex_);
  FAASM_ASSIGN_OR_RETURN(Entry* entry, FindCall(calls_, id));
  CallRecord& record = entry->record;
  record.state = CallState::kRunning;
  record.executed_on = host;
  record.cold_start = cold_start;
  record.started_at = clock_->Now();
  return OkStatus();
}

Status CallTable::Complete(uint64_t id, int return_code, Bytes output) {
  std::lock_guard<std::mutex> guard(mutex_);
  FAASM_ASSIGN_OR_RETURN(Entry* entry, FindCall(calls_, id));
  CallRecord& record = entry->record;
  record.state = CallState::kDone;
  record.return_code = return_code;
  record.output = std::move(output);
  FinishLocked(*entry);
  return OkStatus();
}

Status CallTable::Fail(uint64_t id, const std::string& error) {
  std::lock_guard<std::mutex> guard(mutex_);
  FAASM_ASSIGN_OR_RETURN(Entry* entry, FindCall(calls_, id));
  CallRecord& record = entry->record;
  record.state = CallState::kFailed;
  record.error = error;
  record.return_code = -1;
  FinishLocked(*entry);
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

Result<int> CallTable::Await(uint64_t id) {
  (void)WaitFinished(id);
  FAASM_ASSIGN_OR_RETURN(CallRecord record, Get(id));
  if (record.state == CallState::kFailed) {
    return Internal("call #" + std::to_string(id) + " failed: " + record.error);
  }
  return record.return_code;
}

Result<CallRecord> CallTable::Get(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  FAASM_ASSIGN_OR_RETURN(const Entry* entry, FindCall(calls_, id));
  return entry->record;
}

Result<Bytes> CallTable::Output(uint64_t id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  FAASM_ASSIGN_OR_RETURN(const Entry* entry, FindCall(calls_, id));
  if (entry->record.state != CallState::kDone) {
    return FailedPrecondition("call #" + std::to_string(id) + " not complete");
  }
  return entry->record.output;
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

}  // namespace faasm

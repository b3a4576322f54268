#include "state/state_key_value.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace faasm {

StateKeyValue::StateKeyValue(std::string key, KvsClient* kvs, Clock* clock)
    : key_(std::move(key)), kvs_(kvs), clock_(clock), local_lock_(clock) {}

Status StateKeyValue::EnsureCapacity(size_t size) {
  if (!allocated()) {
    // First sizing is single-winner: calls on this host that first touch
    // the key at once (concurrent prefetches) must all land on one region,
    // never on a loser's region freed under their readers.
    std::lock_guard<std::mutex> guard(sizing_mutex_);
    if (!allocated_.load(std::memory_order_relaxed)) {
      FAASM_ASSIGN_OR_RETURN(region_, SharedRegion::Create("state:" + key_, size));
      size_.store(size);
      {
        std::lock_guard<std::mutex> pages_guard(pages_mutex_);
        page_present_.assign((size + kStatePageBytes - 1) / kStatePageBytes, false);
      }
      allocated_.store(true, std::memory_order_release);  // publishes region_
      return OkStatus();
    }
  }
  if (size > region_->mapped_size()) {
    return ResourceExhausted("state value '" + key_ + "' exceeds replica capacity");
  }
  size_t current = size_.load();
  while (current < size && !size_.compare_exchange_weak(current, size)) {
  }
  return OkStatus();
}

uint8_t* StateKeyValue::data() { return allocated() ? region_->host_view() : nullptr; }

std::shared_ptr<SharedRegion> StateKeyValue::region() {
  return allocated() ? region_ : nullptr;
}

uint8_t* StateKeyValue::WritableData(size_t offset, size_t len) {
  if (!allocated()) {
    return nullptr;
  }
  const size_t size = size_.load();
  if (offset + len > size || offset + len < offset) {
    return nullptr;
  }
  // Write-allocate the partially covered boundary pages: a delta push ships
  // whole pages, so a dirty page the replica never pulled would push local
  // zeros over live bytes in the global tier. Filling the page first makes
  // the later page-granular push a faithful read-modify-write. (A missing
  // global value has nothing to clobber; that pull failure is ignored.)
  if (len > 0) {
    auto fill_if_partial = [this, size](size_t page_start, size_t covered_from,
                                        size_t covered_to) {
      const size_t page_end = std::min(page_start + kStatePageBytes, size);
      if (covered_from <= page_start && covered_to >= page_end) {
        return;  // fully covered: the caller overwrites every byte
      }
      {
        std::lock_guard<std::mutex> guard(pages_mutex_);
        const size_t page = page_start / kStatePageBytes;
        if (page >= page_present_.size() || page_present_[page]) {
          return;
        }
      }
      (void)PullChunk(page_start, page_end - page_start);
    };
    const size_t first_page_start = (offset / kStatePageBytes) * kStatePageBytes;
    const size_t last_page_start = ((offset + len - 1) / kStatePageBytes) * kStatePageBytes;
    fill_if_partial(first_page_start, offset, offset + len);
    if (last_page_start != first_page_start) {
      fill_if_partial(last_page_start, offset, offset + len);
    }
  }
  MarkDirty(offset, len);
  return region_->host_view() + offset;
}

void StateKeyValue::MarkDirty(size_t offset, size_t len) {
  if (allocated()) {
    region_->dirty().MarkDirty(offset, len);
  }
}

Status StateKeyValue::FetchRange(size_t offset, size_t len) {
  // Whole-value fetches go out as whole-value reads so the per-host read
  // cache (when enabled) can serve and be refreshed by them; partial fetches
  // stay ranged and never populate the cache.
  ReadOptions options;
  options.offset = offset;
  if (offset != 0 || len < size_.load()) {
    options.len = len;
  }
  FAASM_ASSIGN_OR_RETURN(Bytes chunk, kvs_->Read(key_, options));
  if (chunk.size() > len) {
    chunk.resize(len);  // whole-value read of a value grown since sizing
  }
  if (offset + chunk.size() > region_->mapped_size()) {
    return Internal("state fetch larger than replica");
  }
  LockWrite();
  std::memcpy(region_->host_view() + offset, chunk.data(), chunk.size());
  UnlockWrite();
  return OkStatus();
}

Status StateKeyValue::Pull() {
  // Sync point: a pull must observe this host's own earlier (possibly still
  // batched) pushes, so the pending batch flushes first.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  if (pulled_fresh_.exchange(false)) {
    return OkStatus();  // a Prefetch installed the value since the last invalidation
  }
  FAASM_ASSIGN_OR_RETURN(uint64_t global_size, kvs_->Size(key_));
  FAASM_RETURN_IF_ERROR(EnsureCapacity(global_size));
  return PullChunk(0, global_size);
}

Status StateKeyValue::InstallPulled(const Bytes& value) {
  FAASM_RETURN_IF_ERROR(EnsureCapacity(value.size()));
  LockWrite();
  std::memcpy(region_->host_view(), value.data(), value.size());
  UnlockWrite();
  {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    std::fill(page_present_.begin(), page_present_.end(), false);
    MarkPushedRangePresentLocked(0, value.size());
  }
  pulled_fresh_.store(true, std::memory_order_release);
  return OkStatus();
}

Status StateKeyValue::PullChunk(size_t offset, size_t len) {
  // Sync point, as in Pull(). FlushBatch is a cheap no-op when idle, so the
  // hot chunked-pull path pays only an uncontended lock when nothing is
  // pending.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  if (!allocated()) {
    // Chunked access without prior sizing: allocate at the global size.
    FAASM_ASSIGN_OR_RETURN(uint64_t global_size, kvs_->Size(key_));
    FAASM_RETURN_IF_ERROR(EnsureCapacity(global_size));
  }
  if (len == 0) {
    return OkStatus();
  }
  const size_t size = size_.load();
  if (offset + len > size) {
    return OutOfRange("pull chunk past end of state value '" + key_ + "'");
  }
  const size_t first_page = offset / kStatePageBytes;
  const size_t last_page = (offset + len - 1) / kStatePageBytes;

  // Coalesce runs of missing pages into single ranged fetches.
  size_t run_start = SIZE_MAX;
  for (size_t page = first_page; page <= last_page + 1; ++page) {
    bool missing = false;
    if (page <= last_page) {
      std::lock_guard<std::mutex> guard(pages_mutex_);
      missing = !page_present_[page];
    }
    if (missing && run_start == SIZE_MAX) {
      run_start = page;
    } else if (!missing && run_start != SIZE_MAX) {
      const size_t byte_start = run_start * kStatePageBytes;
      const size_t byte_end = std::min(size, page * kStatePageBytes);
      FAASM_RETURN_IF_ERROR(FetchRange(byte_start, byte_end - byte_start));
      {
        std::lock_guard<std::mutex> guard(pages_mutex_);
        for (size_t p = run_start; p < page; ++p) {
          page_present_[p] = true;
        }
      }
      run_start = SIZE_MAX;
    }
  }
  return OkStatus();
}

Status StateKeyValue::Push() {
  if (!allocated()) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  const size_t size = size_.load();
  if (!region_->dirty().ever_marked()) {
    // No writer has ever reported through the write API: the tracker is
    // blind, so the only safe push is the whole value.
    return PushChunk(0, size);
  }
  std::vector<DirtyRun> runs = region_->dirty().CollectAndClearDirtyRuns();
  // The tracker covers the whole mapped region; clip runs to the value.
  std::vector<ValueRange> ranges;
  ranges.reserve(runs.size());
  LockRead();
  for (DirtyRun& run : runs) {
    if (run.offset >= size) {
      run.len = 0;
      continue;
    }
    run.len = std::min(run.len, size - run.offset);
    const uint8_t* from = region_->host_view() + run.offset;
    ranges.push_back(ValueRange{run.offset, Bytes(from, from + run.len)});
  }
  UnlockRead();
  // Adjacent/overlapping runs fuse into maximal wire ranges (runs clipped at
  // the value tail, or re-marked after a failed push, can touch).
  ranges = MergeValueRanges(std::move(ranges));
  if (ranges.empty()) {
    return OkStatus();  // nothing dirtied since the last push
  }
  return PushRanges(std::move(ranges));
}

Status StateKeyValue::PushRanges(std::vector<ValueRange> ranges) {
  // Enqueue into the client's ambient batch. The ack fires exactly once with
  // the op's final status (after any kWrongMaster redirects) and settles the
  // replica bookkeeping; it may run on another activity's flush, so it only
  // touches thread-safe members. The shared_ptr keeps the region alive even
  // if this replica is dropped before a late flush.
  auto ack = std::make_shared<PushAck>();
  std::shared_ptr<SharedRegion> region = region_;
  std::vector<DirtyRun> runs;  // offsets/lengths only, for the bookkeeping
  runs.reserve(ranges.size());
  for (const ValueRange& range : ranges) {
    runs.push_back(DirtyRun{range.offset, range.bytes.size()});
  }
  kvs_->EnqueueSetRanges(
      key_, std::move(ranges),
      [this, region, clock = clock_, runs = std::move(runs), ack](const Status& status) {
        if (status.ok()) {
          std::lock_guard<std::mutex> guard(pages_mutex_);
          for (const DirtyRun& run : runs) {
            MarkPushedRangePresentLocked(run.offset, run.len);
          }
        } else if (region->dirty().ever_marked()) {
          // The global tier never saw the runs; put them back for the next
          // push. A never-marked tracker is left alone: the next Push()
          // falls back to the whole value anyway, and marking it would
          // switch that fallback off for every later untracked write.
          for (const DirtyRun& run : runs) {
            region->dirty().MarkDirty(run.offset, run.len);
          }
        }
        ack->status = status;
        ack->done.store(true, std::memory_order_release);
        clock->Wake(ack->wake);
      });

  if (kvs_->InBatchScope()) {
    // Deferred: the op is acked at the scope's flush barrier (or any other
    // sync-point flush). "Accepted", not yet durable.
    return OkStatus();
  }
  // No scope open: every push is its own barrier — flush now and report THIS
  // op's status (a concurrent flush may have taken the op; wait for its ack
  // rather than trusting the aggregate).
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  (void)clock_->Wait(ack->wake, [&ack] { return ack->done.load(std::memory_order_acquire); });
  return ack->status;
}

Status StateKeyValue::PushFull() {
  if (!allocated()) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  // The full value supersedes any pending delta.
  region_->dirty().ClearDirty();
  return PushChunk(0, size_.load());
}

Status StateKeyValue::PushChunk(size_t offset, size_t len) {
  if (!allocated()) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  if (offset + len > size_.load()) {
    return OutOfRange("push chunk past end of state value '" + key_ + "'");
  }
  LockRead();
  const uint8_t* from = region_->host_view() + offset;
  std::vector<ValueRange> ranges{ValueRange{offset, Bytes(from, from + len)}};
  UnlockRead();
  return PushRanges(std::move(ranges));
}

void StateKeyValue::MarkPushedRangePresentLocked(size_t offset, size_t len) {
  if (len == 0) {
    return;
  }
  // Only pages the push covered END TO END are now guaranteed in sync with
  // the global tier. A boundary page covered partially may still hold bytes
  // the replica never pulled; marking it present would make a later
  // PullChunk skip the fetch and read local zeros (the partial-page bug).
  const size_t end = offset + len;
  const size_t size = size_.load();
  const size_t first_full = (offset + kStatePageBytes - 1) / kStatePageBytes;
  for (size_t p = first_full; p < page_present_.size(); ++p) {
    const size_t page_end = std::min((p + 1) * kStatePageBytes, size);
    if (page_end > end) {
      break;
    }
    page_present_[p] = true;
  }
}

Status StateKeyValue::Append(const Bytes& bytes) {
  auto result = kvs_->Append(key_ + ":log", bytes);
  return result.status();
}

Result<Bytes> StateKeyValue::ReadAppended() { return kvs_->Read(key_ + ":log"); }

Status StateKeyValue::LockGlobalRead() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point
  while (true) {
    FAASM_ASSIGN_OR_RETURN(bool acquired, kvs_->TryLockRead(key_));
    if (acquired) {
      RefreshForLock();
      return OkStatus();
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
}

Status StateKeyValue::LockGlobalWrite() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point
  while (true) {
    FAASM_ASSIGN_OR_RETURN(bool acquired, kvs_->TryLockWrite(key_));
    if (acquired) {
      RefreshForLock();
      return OkStatus();
    }
    clock_->SleepFor(100 * kMicrosecond);
  }
}

void StateKeyValue::RefreshForLock() {
  // Under a freshly acquired global lock the replica must re-pull anything it
  // cached before the lock (the lock holder it waited on may have pushed).
  // Clean pages lose their present bit; pages overlapping unpushed local
  // writes stay, or the refetch would read global bytes over them.
  pulled_fresh_.store(false, std::memory_order_release);
  if (!allocated()) {
    return;
  }
  std::vector<DirtyRun> dirty = region_->dirty().CollectDirtyRuns();
  const size_t size = size_.load();
  std::lock_guard<std::mutex> guard(pages_mutex_);
  std::fill(page_present_.begin(), page_present_.end(), false);
  for (const DirtyRun& run : dirty) {
    if (run.len == 0 || run.offset >= size) {
      continue;
    }
    const size_t first = run.offset / kStatePageBytes;
    const size_t last = (run.offset + run.len - 1) / kStatePageBytes;
    for (size_t p = first; p <= last && p < page_present_.size(); ++p) {
      page_present_[p] = true;
    }
  }
}

Status StateKeyValue::UnlockGlobalRead() {
  // Sync point: updates made under the lock must be durable before the lock
  // is released, or the next acquirer could read stale global bytes.
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());
  return kvs_->UnlockRead(key_);
}
Status StateKeyValue::UnlockGlobalWrite() {
  FAASM_RETURN_IF_ERROR(kvs_->FlushBatch());  // sync point (see UnlockGlobalRead)
  return kvs_->UnlockWrite(key_);
}

void StateKeyValue::InvalidateReplica() {
  pulled_fresh_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> guard(pages_mutex_);
  std::fill(page_present_.begin(), page_present_.end(), false);
}

size_t StateKeyValue::resident_pages() const {
  std::lock_guard<std::mutex> guard(pages_mutex_);
  size_t count = 0;
  for (bool present : page_present_) {
    count += present ? 1 : 0;
  }
  return count;
}

}  // namespace faasm

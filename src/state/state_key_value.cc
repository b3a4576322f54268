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

Status StateKeyValue::FetchRange(size_t offset, size_t len, bool local_lock_held) {
  // Whole-value fetches go out as whole-value reads so the per-host read
  // cache (when enabled) can serve and be refreshed by them; partial fetches
  // stay ranged and never populate the cache.
  ReadOptions options;
  options.offset = offset;
  const size_t size = size_.load();
  if (offset != 0 || len < size) {
    options.len = len;
  }
  FAASM_ASSIGN_OR_RETURN(Bytes chunk, kvs_->Read(key_, options));
  chunk.resize(std::min(chunk.size(), len));  // whole-value read of a value grown since sizing
  return InstallWindow(chunk, offset, size, local_lock_held);
}

Status StateKeyValue::InstallWindow(const Bytes& window, size_t offset, uint64_t value_size,
                                    bool local_lock_held) {
  const size_t old_size = size_.load();
  FAASM_RETURN_IF_ERROR(EnsureCapacity(value_size));
  if (local_lock_held) {
    return FailedPrecondition("state value '" + key_ +
                              "' must be fetched, but the caller holds its local lock");
  }
  const size_t end = offset + window.size();
  LockWrite();
  {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    for (size_t page = offset / kStatePageBytes; page * kStatePageBytes < end; ++page) {
      const size_t page_start = page * kStatePageBytes;
      const size_t page_end = std::min(page_start + kStatePageBytes, end);
      // A present page keeps its bytes (they may be unpushed local writes);
      // only what a growth added past the old size comes from the master.
      const size_t from = page_present_[page] ? std::max(page_start, old_size) : page_start;
      if (from < page_end) {
        std::memcpy(region_->host_view() + from, window.data() + (from - offset), page_end - from);
      }
      page_present_[page] = true;
    }
  }
  UnlockWrite();
  return OkStatus();
}

Status StateKeyValue::Pull(bool local_lock_held) {
  // A fully present replica is served locally: present pages are never
  // refetched, so a master round trip could only detect growth inside the
  // tail page. Under a freshly acquired global lock it reads anyway, until
  // one Pull() that started under that lock succeeds.
  const uint64_t epoch = lock_epoch_.load();
  // page_present_ is sized once, before allocated_ publishes the region.
  if (allocated() && sized_epoch_.load() == epoch && resident_pages() == page_present_.size()) {
    return OkStatus();
  }
  // One whole-value read: its bytes size the replica and fill every page
  // that is not present.
  FAASM_ASSIGN_OR_RETURN(Bytes value, kvs_->Read(key_));
  FAASM_RETURN_IF_ERROR(InstallWindow(value, 0, value.size(), local_lock_held));
  sized_epoch_.store(epoch);
  return OkStatus();
}

Status StateKeyValue::InstallPulled(const Bytes& value) {
  InvalidateReplica();
  return InstallWindow(value, 0, value.size(), /*local_lock_held=*/false);
}

Status StateKeyValue::PullChunk(size_t offset, size_t len, bool local_lock_held) {
  if (!allocated()) {
    // Chunked access without prior sizing: one ranged read of the chunk's
    // pages, whose answer carries the length the replica is allocated at.
    // The window runs over whole pages (the store clamps it at the value's
    // end), so every page it touches arrives complete.
    const size_t start = offset / kStatePageBytes * kStatePageBytes;
    const size_t pages = (offset - start + len + kStatePageBytes - 1) / kStatePageBytes;
    uint64_t value_size = 0;
    FAASM_ASSIGN_OR_RETURN(
        Bytes window,
        kvs_->Read(key_, {.offset = start, .len = pages * kStatePageBytes}, &value_size));
    FAASM_RETURN_IF_ERROR(InstallWindow(window, start, value_size, local_lock_held));
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
      FAASM_RETURN_IF_ERROR(FetchRange(byte_start, byte_end - byte_start, local_lock_held));
      run_start = SIZE_MAX;
    }
  }
  return OkStatus();
}

Status StateKeyValue::Push() {
  FAASM_ASSIGN_OR_RETURN(std::vector<ValueRange> ranges, TakePushRanges());
  if (ranges.empty()) {
    return OkStatus();  // nothing dirtied since the last push
  }
  return PushRanges(std::move(ranges));
}

Result<std::vector<ValueRange>> StateKeyValue::TakePushRanges() {
  if (!allocated()) {
    return FailedPrecondition("push before any local write to '" + key_ + "'");
  }
  const size_t size = size_.load();
  // No writer has ever reported through the write API: the tracker is
  // blind, so the only safe push is the whole value.
  std::vector<DirtyRun> runs = region_->dirty().ever_marked()
                                   ? region_->dirty().CollectAndClearDirtyRuns()
                                   : std::vector<DirtyRun>{DirtyRun{0, size}};
  // The tracker covers the whole mapped region; clip runs to the value.
  std::vector<ValueRange> ranges;
  ranges.reserve(runs.size());
  LockRead();
  for (const DirtyRun& run : runs) {
    if (run.offset >= size) {
      continue;
    }
    const uint8_t* from = region_->host_view() + run.offset;
    const size_t len = std::min(run.len, size - run.offset);
    ranges.push_back(ValueRange{run.offset, Bytes(from, from + len)});
  }
  UnlockRead();
  // Adjacent/overlapping runs fuse into maximal wire ranges (runs clipped at
  // the value tail, or re-marked after a failed push, can touch).
  return MergeValueRanges(std::move(ranges));
}

Status StateKeyValue::PushRanges(std::vector<ValueRange> ranges) {
  const std::vector<DirtyRun> runs = RunsOf(ranges);
  const Status status = kvs_->SetRanges(key_, std::move(ranges));
  SettlePush(runs, status);
  return status;
}

std::vector<DirtyRun> StateKeyValue::RunsOf(const std::vector<ValueRange>& ranges) {
  std::vector<DirtyRun> runs;
  runs.reserve(ranges.size());
  for (const ValueRange& range : ranges) {
    runs.push_back(DirtyRun{range.offset, range.bytes.size()});
  }
  return runs;
}

void StateKeyValue::SettlePush(const std::vector<DirtyRun>& runs, const Status& status) {
  if (status.ok()) {
    std::lock_guard<std::mutex> guard(pages_mutex_);
    for (const DirtyRun& run : runs) {
      MarkPushedRangePresentLocked(run.offset, run.len);
    }
  } else if (region_->dirty().ever_marked()) {
    // The global tier never saw the runs; put them back for the next push.
    // A never-marked tracker is left alone: the next Push() falls back to
    // the whole value anyway, and marking it would switch that fallback off
    // for every later untracked write.
    for (const DirtyRun& run : runs) {
      region_->dirty().MarkDirty(run.offset, run.len);
    }
  }
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
  // writes stay, or the refetch would read global bytes over them. Pull()
  // reads the master again even when every page is dirty, so a value the
  // previous holder resized is seen too.
  lock_epoch_.fetch_add(1);
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

Status StateKeyValue::UnlockGlobalRead() { return kvs_->UnlockRead(key_); }
Status StateKeyValue::UnlockGlobalWrite() { return kvs_->UnlockWrite(key_); }

void StateKeyValue::InvalidateReplica() {
  std::lock_guard<std::mutex> guard(pages_mutex_);
  std::fill(page_present_.begin(), page_present_.end(), false);
}

size_t StateKeyValue::resident_pages() const {
  std::lock_guard<std::mutex> guard(pages_mutex_);
  return std::count(page_present_.begin(), page_present_.end(), true);
}

}  // namespace faasm

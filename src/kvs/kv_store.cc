#include "kvs/kv_store.h"

#include <algorithm>

namespace faasm {

namespace {
// Upper bound on a single value's extent. Offsets come straight off the wire
// in the range ops; without a bound an overflowing (or merely huge) offset
// would corrupt memory or force an absurd resize.
constexpr size_t kMaxValueBytes = size_t{1} << 34;  // 16 GiB

bool RangeIsSane(size_t offset, size_t len) {
  return offset <= kMaxValueBytes && len <= kMaxValueBytes - offset;
}

// Counts a mutation as in flight from store entry until the update hook
// returned, which is the window the failover quiesce barrier waits out.
struct MutationScope {
  explicit MutationScope(std::atomic<int>& inflight) : inflight_(inflight) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  ~MutationScope() { inflight_.fetch_sub(1, std::memory_order_relaxed); }
  std::atomic<int>& inflight_;
};
}  // namespace

int& KvStore::HookPause::Depth() {
  static thread_local int depth = 0;
  return depth;
}

Bytes KeyExport::Serialize() const {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint8_t>(has_value ? 1 : 0);
  writer.PutBytes(value);
  writer.Put<int32_t>(lock_readers);
  writer.PutString(lock_writer);
  writer.Put<uint32_t>(static_cast<uint32_t>(set_members.size()));
  for (const std::string& member : set_members) {
    writer.PutString(member);
  }
  writer.Put<uint64_t>(seq);
  return out;
}

Result<KeyExport> KeyExport::Deserialize(const Bytes& bytes) {
  KeyExport record;
  ByteReader reader(bytes);
  FAASM_ASSIGN_OR_RETURN(uint8_t has_value, reader.Get<uint8_t>());
  record.has_value = has_value != 0;
  FAASM_ASSIGN_OR_RETURN(record.value, reader.GetBytes());
  FAASM_ASSIGN_OR_RETURN(record.lock_readers, reader.Get<int32_t>());
  FAASM_ASSIGN_OR_RETURN(record.lock_writer, reader.GetString());
  FAASM_ASSIGN_OR_RETURN(uint32_t member_count, reader.Get<uint32_t>());
  record.set_members.reserve(std::min<uint32_t>(member_count, 1024));
  for (uint32_t i = 0; i < member_count; ++i) {
    FAASM_ASSIGN_OR_RETURN(std::string member, reader.GetString());
    record.set_members.push_back(std::move(member));
  }
  FAASM_ASSIGN_OR_RETURN(record.seq, reader.Get<uint64_t>());
  return record;
}

bool KeyExport::SameContent(const KeyExport& other) const {
  return has_value == other.has_value && value == other.value &&
         lock_readers == other.lock_readers && lock_writer == other.lock_writer &&
         set_members == other.set_members;
}

std::vector<ValueRange> MergeValueRanges(std::vector<ValueRange> ranges) {
  // Drop empty ranges up front; they carry no bytes and would only split
  // otherwise-mergeable neighbours.
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [](const ValueRange& r) { return r.bytes.empty(); }),
               ranges.end());
  if (ranges.size() <= 1) {
    return ranges;
  }

  // Compute the merged extents: the union of the input intervals, with
  // adjacent ([a,b) + [b,c)) and overlapping intervals fused.
  struct Extent {
    uint64_t start;
    uint64_t end;
  };
  std::vector<Extent> extents;
  extents.reserve(ranges.size());
  for (const ValueRange& range : ranges) {
    extents.push_back(Extent{range.offset, range.offset + range.bytes.size()});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.start < b.start; });
  std::vector<Extent> merged;
  merged.push_back(extents[0]);
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, extents[i].end);
    } else {
      merged.push_back(extents[i]);
    }
  }
  if (merged.size() == ranges.size()) {
    // Nothing adjacent or overlapping; only the documented sort remains.
    std::sort(ranges.begin(), ranges.end(),
              [](const ValueRange& a, const ValueRange& b) { return a.offset < b.offset; });
    return ranges;
  }

  // Materialise each merged extent, then replay the inputs IN ORIGINAL
  // ORDER so a later (newer) write wins wherever ranges overlapped —
  // exactly what applying them sequentially through SetRanges would do.
  // Every byte of a merged extent is covered by at least one input, so no
  // filler bytes are invented.
  std::vector<ValueRange> out;
  out.reserve(merged.size());
  for (const Extent& extent : merged) {
    out.push_back(ValueRange{extent.start, Bytes(extent.end - extent.start)});
  }
  for (const ValueRange& range : ranges) {
    const auto it = std::upper_bound(
        merged.begin(), merged.end(), range.offset,
        [](uint64_t offset, const Extent& e) { return offset < e.start; });
    const size_t slot = static_cast<size_t>(it - merged.begin()) - 1;
    std::copy(range.bytes.begin(), range.bytes.end(),
              out[slot].bytes.begin() + (range.offset - merged[slot].start));
  }
  return out;
}

bool KvStore::ShouldForward(const KvsBatchOp& op, const KvsBatchResult& result) {
  if (!result.status.ok() || !IsMutatingOp(op.op)) {
    return false;
  }
  // A lock try that did not acquire is a successful op that changed nothing.
  if ((op.op == KvsOp::kLockRead || op.op == KvsOp::kLockWrite) && !result.flag) {
    return false;
  }
  return true;
}

// --- The single-key front-ends: one-op batches ------------------------------------

KvsBatchResult KvStore::RunOne(const KvsBatchOp& op) {
  return std::move(ExecuteBatch(std::vector<const KvsBatchOp*>{&op})[0]);
}

Status KvStore::Set(const std::string& key, Bytes value) {
  return RunOne({.op = KvsOp::kSet, .key = key, .bytes = std::move(value)}).status;
}

Result<Bytes> KvStore::Get(const std::string& key) {
  return Answer(RunOne({.op = KvsOp::kGet, .key = key}), &KvsBatchResult::value);
}

Result<size_t> KvStore::Size(const std::string& key) {
  return Answer(RunOne({.op = KvsOp::kSize, .key = key}), &KvsBatchResult::length);
}

Status KvStore::Delete(const std::string& key) {
  return RunOne({.op = KvsOp::kDelete, .key = key}).status;
}

Result<Bytes> KvStore::GetRange(const std::string& key, size_t offset, size_t len) {
  return Answer(RunOne({.op = KvsOp::kGetRange, .key = key, .offset = offset, .len = len}),
                &KvsBatchResult::value);
}

Status KvStore::SetRanges(const std::string& key, const std::vector<ValueRange>& ranges) {
  return RunOne({.op = KvsOp::kSetRanges, .key = key, .ranges = ranges}).status;
}

Result<size_t> KvStore::Append(const std::string& key, const Bytes& bytes) {
  return Answer(RunOne({.op = KvsOp::kAppend, .key = key, .bytes = bytes}),
                &KvsBatchResult::length);
}

Result<bool> KvStore::TryLockRead(const std::string& key, const std::string& owner) {
  return Answer(RunOne({.op = KvsOp::kLockRead, .key = key, .member = owner}),
                &KvsBatchResult::flag);
}

Result<bool> KvStore::TryLockWrite(const std::string& key, const std::string& owner) {
  return Answer(RunOne({.op = KvsOp::kLockWrite, .key = key, .member = owner}),
                &KvsBatchResult::flag);
}

Status KvStore::UnlockRead(const std::string& key, const std::string& owner) {
  return RunOne({.op = KvsOp::kUnlockRead, .key = key, .member = owner}).status;
}

Status KvStore::UnlockWrite(const std::string& key, const std::string& owner) {
  return RunOne({.op = KvsOp::kUnlockWrite, .key = key, .member = owner}).status;
}

Result<bool> KvStore::SetAdd(const std::string& key, const std::string& member) {
  return Answer(RunOne({.op = KvsOp::kSetAdd, .key = key, .member = member}),
                &KvsBatchResult::flag);
}

Result<bool> KvStore::SetRemove(const std::string& key, const std::string& member) {
  return Answer(RunOne({.op = KvsOp::kSetRemove, .key = key, .member = member}),
                &KvsBatchResult::flag);
}

// --- Batched execution ----------------------------------------------------------

void KvStore::ApplyLocked(Shard& shard, const KvsBatchOp& op, KvsBatchResult& result) {
  const std::string& key = op.key;
  auto value = shard.values.find(key);
  const bool found = value != shard.values.end();
  switch (op.op) {
    case KvsOp::kGet:
    case KvsOp::kGetRange: {
      if (!found) {
        result.status = NotFound("kvs: no such key: " + key);
      } else if (op.op == KvsOp::kGet) {
        result.value = value->second;
      } else if (op.offset > value->second.size()) {
        result.status = OutOfRange("kvs: range start past end of value");
      } else {
        // `len` may be the whole-value sentinel (UINT64_MAX): clamp without
        // computing offset + len, which would wrap.
        const Bytes& bytes = value->second;
        const size_t end = op.len >= bytes.size() - op.offset ? bytes.size() : op.offset + op.len;
        result.value.assign(bytes.begin() + op.offset, bytes.begin() + end);
      }
      break;
    }
    case KvsOp::kSet:
      if (found) {
        value->second = Bytes(op.bytes);  // a fresh buffer: no stale capacity kept
      } else {
        shard.values.emplace(key, op.bytes);
      }
      break;
    case KvsOp::kSetRanges: {
      size_t needed = found ? value->second.size() : 0;
      for (const ValueRange& range : op.ranges) {
        if (!RangeIsSane(range.offset, range.bytes.size())) {
          result.status = InvalidArgument("kvs: range write exceeds maximum value size");
          return;
        }
        needed = std::max(needed, range.offset + range.bytes.size());
      }
      Bytes& target = found ? value->second : shard.values[key];
      if (target.size() < needed) {
        target.resize(needed);
      }
      for (const ValueRange& range : op.ranges) {
        std::copy(range.bytes.begin(), range.bytes.end(), target.begin() + range.offset);
      }
      break;
    }
    case KvsOp::kAppend: {
      Bytes& target = found ? value->second : shard.values[key];
      target.insert(target.end(), op.bytes.begin(), op.bytes.end());
      result.length = target.size();
      break;
    }
    case KvsOp::kDelete:
      if (!found) {
        result.status = NotFound("kvs: no such key: " + key);
      } else {
        shard.values.erase(value);
      }
      break;
    case KvsOp::kExists:
      result.flag = found;
      break;
    case KvsOp::kSize:
      if (!found) {
        result.status = NotFound("kvs: no such key: " + key);
      } else {
        result.length = value->second.size();
      }
      break;
    case KvsOp::kSetAdd:
      result.flag = shard.sets[key].insert(op.member).second;
      break;
    case KvsOp::kSetRemove:
      if (auto it = shard.sets.find(key); it != shard.sets.end()) {
        result.flag = it->second.erase(op.member) > 0;
      }
      break;
    case KvsOp::kSetMembers:
      if (auto it = shard.sets.find(key); it != shard.sets.end()) {
        result.members.assign(it->second.begin(), it->second.end());
      }
      break;
    // Lock ops, with the owner in `member`.
    case KvsOp::kLockRead: {
      LockState& lock = shard.locks[key];
      result.flag = lock.writer.empty();
      if (result.flag) {
        ++lock.readers;
      }
      break;
    }
    case KvsOp::kLockWrite: {
      LockState& lock = shard.locks[key];
      result.flag = lock.writer.empty() && lock.readers == 0;
      if (result.flag) {
        lock.writer = op.member;
      }
      break;
    }
    case KvsOp::kUnlockRead: {
      LockState& lock = shard.locks[key];
      if (lock.readers <= 0) {
        result.status = FailedPrecondition("kvs: read-unlock without lock: " + key);
        break;
      }
      --lock.readers;
      break;
    }
    case KvsOp::kUnlockWrite: {
      LockState& lock = shard.locks[key];
      if (lock.writer != op.member) {
        result.status = FailedPrecondition("kvs: write-unlock by non-owner: " + key);
        break;
      }
      lock.writer.clear();
      break;
    }
    default:
      result.status = InvalidArgument("kvs: op not batchable");
      break;
  }
}

std::vector<KvsBatchResult> KvStore::ExecuteBatch(const std::vector<const KvsBatchOp*>& ops) {
  MutationScope scope(inflight_);
  const bool forwarding = ForwardingActive();
  std::vector<KvsBatchResult> results(ops.size());
  // Per-op apply sequences, captured under each group's shard mutex
  // (0 = not forwarded). The hook fires ONCE for the whole batch, after
  // every mutex is released, so one forward RPC can carry the batch.
  std::vector<uint64_t> seqs;
  if (forwarding) {
    seqs.assign(ops.size(), 0);
  }
  // Visit the ops grouped by internal shard: sorting (shard, index) keys
  // keeps request order within each shard (ops on the same key always
  // share a shard, so their relative order survives the grouping).
  std::vector<uint64_t> order(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    order[i] = uint64_t{ShardIndexFor(ops[i]->key)} << 32 | i;
  }
  std::sort(order.begin(), order.end());
  for (size_t pos = 0; pos < order.size();) {
    // One mutex acquisition per touched shard: the whole group executes
    // against a single consistent view of the freeze set, migration filter
    // and ownership guard.
    const uint64_t s = order[pos] >> 32;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (; pos < order.size() && order[pos] >> 32 == s; ++pos) {
      const size_t i = order[pos] & 0xffffffffu;
      const KvsBatchOp& op = *ops[i];
      results[i].status = CheckServableLocked(shard, op.key);
      if (!results[i].status.ok()) {
        continue;
      }
      ApplyLocked(shard, op, results[i]);
      if (forwarding && ShouldForward(op, results[i])) {
        // Captured under the shard mutex: for any key, seq order == apply
        // order, which is what lets a backup drop duplicates by floor.
        seqs[i] = mutation_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      }
    }
  }
  if (forwarding) {
    std::vector<ForwardedOp> applied;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (seqs[i] != 0) {
        applied.push_back(ForwardedOp{ops[i], seqs[i]});
      }
    }
    if (!applied.empty()) {
      // Outside every mutex: the hook crosses the network (replication acks
      // after the backups applied) and must never hold a shard lock.
      hook_(applied);
    }
  }
  return results;
}

std::vector<KvsBatchResult> KvStore::ExecuteBatch(const std::vector<KvsBatchOp>& ops) {
  std::vector<const KvsBatchOp*> pointers;
  pointers.reserve(ops.size());
  for (const KvsBatchOp& op : ops) {
    pointers.push_back(&op);
  }
  return ExecuteBatch(pointers);
}

bool KvStore::Exists(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  return shard.values.count(key) > 0;
}

std::vector<std::string> KvStore::SetMembers(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.sets.find(key);
  if (it == shard.sets.end()) {
    return {};
  }
  return std::vector<std::string>(it->second.begin(), it->second.end());
}

std::vector<std::string> KvStore::Keys() const {
  std::set<std::string> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (const auto& [key, value] : shard.values) {
      keys.insert(key);
    }
    for (const auto& [key, lock] : shard.locks) {
      if (lock.readers > 0 || !lock.writer.empty()) {
        keys.insert(key);
      }
    }
    for (const auto& [key, members] : shard.sets) {
      if (!members.empty()) {
        keys.insert(key);
      }
    }
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

void KvStore::FreezeKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.insert(key);
}

void KvStore::UnfreezeKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.erase(key);
}

bool KvStore::IsFrozen(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  return shard.frozen.count(key) > 0;
}

void KvStore::SetMigrationFilter(std::function<bool(const std::string&)> filter) {
  KeyPredicate shared =
      filter ? std::make_shared<const std::function<bool(const std::string&)>>(std::move(filter))
             : nullptr;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.filter = shared;
  }
}

void KvStore::SetOwnershipGuard(std::function<bool(const std::string&)> owns) {
  KeyPredicate shared =
      owns ? std::make_shared<const std::function<bool(const std::string&)>>(std::move(owns))
           : nullptr;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.owns = shared;
  }
}

KeyExport KvStore::ExportKey(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  KeyExport record;
  // Floor for the installing backup's duplicate filter: any op on this key
  // with seq <= the snapshot's is already folded in (the key's own shard
  // mutex is held, so no smaller-seq op on it can still be mid-apply).
  record.seq = mutation_seq_.load(std::memory_order_relaxed);
  if (auto it = shard.values.find(key); it != shard.values.end()) {
    record.has_value = true;
    record.value = it->second;
  }
  if (auto it = shard.locks.find(key); it != shard.locks.end()) {
    record.lock_readers = it->second.readers;
    record.lock_writer = it->second.writer;
  }
  if (auto it = shard.sets.find(key); it != shard.sets.end()) {
    record.set_members.assign(it->second.begin(), it->second.end());
  }
  return record;
}

void KvStore::InstallKey(const std::string& key, const KeyExport& record) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.frozen.erase(key);  // the key is moving (back) in
  if (record.has_value) {
    shard.values[key] = record.value;
  } else {
    shard.values.erase(key);
  }
  if (record.lock_readers > 0 || !record.lock_writer.empty()) {
    shard.locks[key] = LockState{record.lock_readers, record.lock_writer};
  } else {
    shard.locks.erase(key);
  }
  if (!record.set_members.empty()) {
    shard.sets[key] =
        std::set<std::string>(record.set_members.begin(), record.set_members.end());
  } else {
    shard.sets.erase(key);
  }
}

void KvStore::EraseKey(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mutex);
  shard.values.erase(key);
  shard.locks.erase(key);
  shard.sets.erase(key);
  // The ownership guard — not a per-key marker — keeps stragglers off the
  // moved key, and keeps working if mastership later returns here.
  shard.frozen.erase(key);
}

size_t KvStore::key_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    count += shard.values.size();
  }
  return count;
}

size_t KvStore::total_bytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (const auto& [key, value] : shard.values) {
      bytes += value.size();
    }
  }
  return bytes;
}

}  // namespace faasm

// Distributed data objects (§4.1): typed, high-level wrappers over the state
// API. These are the C++ analogues of the paper's Python DDOs in Listing 1 —
// SharedArray ~ a plain shared vector, AsyncArray ~ VectorAsync (batched
// push), ReadOnlyMatrix ~ MatrixReadOnly (chunked column pulls),
// SparseMatrixCsc ~ SparseMatrixReadOnly, AppendLog ~ an eventually
// consistent event list.
#ifndef FAASM_STATE_DDO_H_
#define FAASM_STATE_DDO_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "state/local_tier.h"

namespace faasm {

// Fixed-length array of trivially-copyable T shared through the two-tier
// state architecture. Element access is a direct pointer into the local
// replica: no serialisation, no copies.
template <typename T>
class SharedArray {
 public:
  SharedArray(LocalTier* tier, const std::string& key)
      : kv_(tier->Lookup(key)) {}

  // Creates/attaches the replica for n elements (idempotent).
  Status Init(size_t n) {
    FAASM_RETURN_IF_ERROR(kv_->EnsureCapacity(n * sizeof(T)));
    return OkStatus();
  }

  // Attaches at the size currently in the global tier and pulls the content.
  Status Attach() { return kv_->Pull(); }

  size_t size() const { return kv_->size() / sizeof(T); }

  T* data() { return reinterpret_cast<T*>(kv_->data()); }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return reinterpret_cast<const T*>(kv_->data())[i]; }

  // --- Tracked writes ----------------------------------------------------------
  // Pointer to elements [first, first+count) with their pages marked dirty,
  // so Push() ships them as a delta. Writers going through data() instead
  // must call MarkDirtyElements for the delta push to see the write.
  T* WritableElements(size_t first, size_t count) {
    return reinterpret_cast<T*>(kv_->WritableData(first * sizeof(T), count * sizeof(T)));
  }
  void MarkDirtyElements(size_t first, size_t count) {
    kv_->MarkDirty(first * sizeof(T), count * sizeof(T));
  }

  Status Push() { return kv_->Push(); }
  Status PushFull() { return kv_->PushFull(); }
  Status Pull() { return kv_->Pull(); }
  Status PullElements(size_t first, size_t count) {
    return kv_->PullChunk(first * sizeof(T), count * sizeof(T));
  }

  void LockRead() { kv_->LockRead(); }
  void UnlockRead() { kv_->UnlockRead(); }
  void LockWrite() { kv_->LockWrite(); }
  void UnlockWrite() { kv_->UnlockWrite(); }

  StateKeyValue& kv() { return *kv_; }

 private:
  std::shared_ptr<StateKeyValue> kv_;
};

// SharedArray with batched global-tier synchronisation: writes stay local
// until every `push_interval` calls to MaybePush (or an explicit Push). This
// is VectorAsync from Listing 1 — it trades inter-tier consistency for a
// large reduction in network traffic, which SGD tolerates.
//
// The bytes are shared in place at once (every Faaslet on the host sees a
// write as soon as it lands — HOGWILD), but the DIRTY MARKS stay private to
// this array until it pushes: MarkDirtyElements sets a bit in the array's
// own page mask (a plain store; no atomic, no cache line shared with other
// writers). Push(), the pushing call of MaybePush() and the destructor
// publish the mask into the replica's tracker, one StateKeyValue::MarkDirty
// per run of marked pages, and the first two then run the replica's push.
// So a push ships the same pages as if every write had marked the tracker,
// and no mark is lost; but until this array pushes or is destroyed, a push
// of the same replica by another writer does not ship its writes.
//
// One AsyncArray per writer activity: the mask and the update counter are
// not synchronised. Writers sharing a replica each hold their own array.
template <typename T>
class AsyncArray {
 public:
  AsyncArray(LocalTier* tier, const std::string& key, int push_interval = 16)
      : array_(tier, key), push_interval_(push_interval) {}
  ~AsyncArray() { PublishMarks(); }

  AsyncArray(const AsyncArray&) = delete;
  AsyncArray& operator=(const AsyncArray&) = delete;

  Status Init(size_t n) {
    FAASM_RETURN_IF_ERROR(array_.Init(n));
    SizeMask();
    return OkStatus();
  }
  Status Attach() {
    FAASM_RETURN_IF_ERROR(array_.Pull());
    SizeMask();
    return OkStatus();
  }
  size_t size() const { return array_.size(); }
  T* data() { return array_.data(); }
  T& operator[](size_t i) { return array_[i]; }

  // Records a write to elements [first, first+count) in the private mask.
  // Before Init/Attach sized the mask (or past its end) the mark goes to
  // the replica's tracker directly.
  void MarkDirtyElements(size_t first, size_t count) {
    const size_t begin = first * sizeof(T) / kPageBytes;
    const size_t end = ((first + count) * sizeof(T) + kPageBytes - 1) / kPageBytes;
    if (count == 0 || end > mask_pages_) {
      array_.MarkDirtyElements(first, count);
      return;
    }
    for (size_t page = begin; page < end; ++page) {
      mask_[page / 64] |= uint64_t{1} << (page % 64);
    }
  }

  // When false, every push ships the whole value regardless of dirty
  // tracking (the pre-delta behaviour; the ablation baseline).
  void set_delta_push(bool delta) { delta_push_ = delta; }

  // Counts an update; pushes to the global tier every push_interval calls.
  Status MaybePush() {
    if (++updates_ < push_interval_) {
      return OkStatus();
    }
    updates_ = 0;
    return Push();
  }

  Status Push() {
    PublishMarks();
    return delta_push_ ? array_.Push() : array_.PushFull();
  }
  Status Pull() { return array_.Pull(); }

 private:
  static constexpr size_t kPageBytes = StateKeyValue::kStatePageBytes;

  void SizeMask() {
    mask_pages_ = (array_.kv().size() + kPageBytes - 1) / kPageBytes;
    mask_.resize((mask_pages_ + 63) / 64);
  }

  // Hands the private marks to the replica's tracker, one MarkDirty per run
  // of marked pages, and clears them.
  void PublishMarks() {
    size_t run_begin = 0;
    for (size_t page = 0; page <= mask_pages_; ++page) {
      if (page < mask_pages_ && (mask_[page / 64] >> (page % 64) & 1) != 0) {
        continue;
      }
      if (run_begin < page) {
        array_.kv().MarkDirty(run_begin * kPageBytes, (page - run_begin) * kPageBytes);
      }
      run_begin = page + 1;
    }
    std::fill(mask_.begin(), mask_.end(), 0);
  }

  SharedArray<T> array_;
  int push_interval_;
  bool delta_push_ = true;
  int updates_ = 0;
  // One bit per state page of the value; sized by Init/Attach.
  std::vector<uint64_t> mask_;
  size_t mask_pages_ = 0;
};

// Dense column-major read-only matrix; PullColumns replicates only the
// columns a function touches (state chunks, Fig. 4: C1/C2).
template <typename T>
class ReadOnlyMatrix {
 public:
  ReadOnlyMatrix(LocalTier* tier, const std::string& key, size_t rows, size_t cols)
      : kv_(tier->Lookup(key)), rows_(rows), cols_(cols) {}

  Status Init() { return kv_->EnsureCapacity(rows_ * cols_ * sizeof(T)); }

  // Ensures columns [c0, c1) are resident in the local tier.
  Status PullColumns(size_t c0, size_t c1) {
    return kv_->PullChunk(c0 * rows_ * sizeof(T), (c1 - c0) * rows_ * sizeof(T));
  }

  const T& At(size_t r, size_t c) const {
    return reinterpret_cast<const T*>(kv_->data())[c * rows_ + r];
  }

 private:
  std::shared_ptr<StateKeyValue> kv_;
  size_t rows_;
  size_t cols_;
};

// Compressed-sparse-column matrix split across three state keys (values, row
// indices, column pointers). Column pointers are small and pulled eagerly;
// values/indices are pulled per column range, mirroring the paper's
// SparseMatrixReadOnly which replicates only required column subsets.
class SparseMatrixCsc {
 public:
  SparseMatrixCsc(LocalTier* tier, const std::string& key)
      : values_(tier->Lookup(key + ":vals")),
        row_idx_(tier->Lookup(key + ":rows")),
        col_ptr_(tier->Lookup(key + ":cols")) {}

  // Attaches to an existing matrix in the global tier. Only the (small)
  // column-pointer array transfers; values/indices replicas are sized lazily
  // on the first PullColumns.
  Status Attach() { return col_ptr_->Pull(); }

  size_t num_cols() const { return col_ptr_->size() / sizeof(uint64_t) - 1; }

  const uint64_t* col_ptr() const {
    return reinterpret_cast<const uint64_t*>(col_ptr_->data());
  }

  // Pulls values and row indices for columns [c0, c1).
  Status PullColumns(size_t c0, size_t c1) {
    const uint64_t* cp = col_ptr();
    const uint64_t first = cp[c0];
    const uint64_t last = cp[c1];
    FAASM_RETURN_IF_ERROR(values_->PullChunk(first * sizeof(double), (last - first) * sizeof(double)));
    FAASM_RETURN_IF_ERROR(row_idx_->PullChunk(first * sizeof(uint32_t), (last - first) * sizeof(uint32_t)));
    return OkStatus();
  }

  const double* values() const { return reinterpret_cast<const double*>(values_->data()); }
  const uint32_t* row_indices() const {
    return reinterpret_cast<const uint32_t*>(row_idx_->data());
  }

 private:
  std::shared_ptr<StateKeyValue> values_;
  std::shared_ptr<StateKeyValue> row_idx_;
  std::shared_ptr<StateKeyValue> col_ptr_;
};

// Append-only record log in the global tier (e.g. per-epoch losses).
template <typename T>
class AppendLog {
 public:
  AppendLog(LocalTier* tier, const std::string& key) : kv_(tier->Lookup(key)) {}

  Status Append(const T& record) {
    Bytes bytes(sizeof(T));
    std::memcpy(bytes.data(), &record, sizeof(T));
    return kv_->Append(bytes);
  }

  Result<std::vector<T>> ReadAll() {
    auto bytes = kv_->ReadAppended();
    if (!bytes.ok()) {
      if (bytes.status().code() == StatusCode::kNotFound) {
        return std::vector<T>{};
      }
      return bytes.status();
    }
    std::vector<T> records(bytes.value().size() / sizeof(T));
    std::memcpy(records.data(), bytes.value().data(), records.size() * sizeof(T));
    return records;
  }

 private:
  std::shared_ptr<StateKeyValue> kv_;
};

}  // namespace faasm

#endif  // FAASM_STATE_DDO_H_

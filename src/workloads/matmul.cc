#include "workloads/matmul.h"

#include <cstring>

#include "common/rng.h"
#include "state/ddo.h"

namespace faasm {

size_t SeedMatmulInputs(ShardedKvs& kvs, const MatmulConfig& config) {
  Rng rng(config.seed);
  const size_t n = config.n;
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  for (auto& v : a) {
    v = rng.NextDouble() - 0.5;
  }
  for (auto& v : b) {
    v = rng.NextDouble() - 0.5;
  }
  const auto* pa = reinterpret_cast<const uint8_t*>(a.data());
  const auto* pb = reinterpret_cast<const uint8_t*>(b.data());
  kvs.Set(kMatmulAKey, Bytes(pa, pa + n * n * sizeof(double)));
  kvs.Set(kMatmulBKey, Bytes(pb, pb + n * n * sizeof(double)));
  return 2 * n * n * sizeof(double);
}

Bytes EncodeMatmulDivideInput(uint32_t n, uint32_t size, uint32_t a_row, uint32_t a_col,
                              uint32_t b_row, uint32_t b_col, uint32_t levels_left,
                              const std::string& out_key) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint32_t>(n);
  writer.Put<uint32_t>(size);
  writer.Put<uint32_t>(a_row);
  writer.Put<uint32_t>(a_col);
  writer.Put<uint32_t>(b_row);
  writer.Put<uint32_t>(b_col);
  writer.Put<uint32_t>(levels_left);
  writer.PutString(out_key);
  return out;
}

namespace {

struct DivideInput {
  uint32_t n, size, a_row, a_col, b_row, b_col, levels_left;
  std::string out_key;
};

Result<DivideInput> DecodeDivideInput(const Bytes& bytes) {
  DivideInput in;
  ByteReader reader(bytes);
  FAASM_ASSIGN_OR_RETURN(in.n, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.size, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.a_row, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.a_col, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.b_row, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.b_col, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.levels_left, reader.Get<uint32_t>());
  FAASM_ASSIGN_OR_RETURN(in.out_key, reader.GetString());
  return in;
}

// Pulls a size x size block of an n x n row-major matrix (row-segment
// chunks), reading through the local tier replica.
Status PullBlock(StateKeyValue& kv, uint32_t n, uint32_t row0, uint32_t col0, uint32_t size) {
  for (uint32_t r = 0; r < size; ++r) {
    const size_t offset = (static_cast<size_t>(row0 + r) * n + col0) * sizeof(double);
    FAASM_RETURN_IF_ERROR(kv.PullChunk(offset, size * sizeof(double)));
  }
  return OkStatus();
}

// Starts on a cache line so the ikj inner loop below always sits at the same
// offset within its 64-byte line. Left to the linker, the loop's placement
// moved with the size of unrelated code: on a 4-core Xeon VM the loop
// straddling two lines cost the matmul benchmark ~10% of its p50.
[[gnu::aligned(64)]] int LeafMultiply(InvocationContext& ctx, const DivideInput& in) {
  auto a_kv = ctx.state().Lookup(kMatmulAKey);
  auto b_kv = ctx.state().Lookup(kMatmulBKey);
  if (!PullBlock(*a_kv, in.n, in.a_row, in.a_col, in.size).ok() ||
      !PullBlock(*b_kv, in.n, in.b_row, in.b_col, in.size).ok()) {
    return 4;
  }
  auto out_kv = ctx.state().Lookup(in.out_key);
  if (!out_kv->EnsureCapacity(static_cast<size_t>(in.size) * in.size * sizeof(double)).ok()) {
    return 5;
  }

  const auto* a = reinterpret_cast<const double*>(a_kv->data());
  const auto* b = reinterpret_cast<const double*>(b_kv->data());
  auto* out = reinterpret_cast<double*>(
      out_kv->WritableData(0, static_cast<size_t>(in.size) * in.size * sizeof(double)));
  if (out == nullptr) {
    return 5;
  }

  CpuStopwatch compute;
  // ikj loop order for locality over the row-major operands.
  for (uint32_t i = 0; i < in.size; ++i) {
    double* out_row = out + static_cast<size_t>(i) * in.size;
    std::memset(out_row, 0, in.size * sizeof(double));
    const double* a_row = a + (static_cast<size_t>(in.a_row + i) * in.n + in.a_col);
    for (uint32_t k = 0; k < in.size; ++k) {
      const double aik = a_row[k];
      const double* b_row = b + (static_cast<size_t>(in.b_row + k) * in.n + in.b_col);
      for (uint32_t j = 0; j < in.size; ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
  ctx.ChargeCompute(compute.ElapsedNs());

  // Re-mark after the writes so a concurrent push cannot have cleared the
  // WritableData mark while the tile was still being filled.
  out_kv->MarkDirty(0, static_cast<size_t>(in.size) * in.size * sizeof(double));
  return out_kv->Push().ok() ? 0 : 6;
}

}  // namespace

int MatmulDivideFunction(InvocationContext& ctx) {
  auto input = DecodeDivideInput(ctx.Input());
  if (!input.ok()) {
    return 2;
  }
  const DivideInput& in = input.value();
  if (in.size % 2 != 0 && in.levels_left > 0) {
    return 3;
  }
  if (in.levels_left == 0) {
    return LeafMultiply(ctx, in);
  }

  // Internal node: chain the 8 quadrant-term products (Listing-1 pattern),
  // then one merge function (64 mult + 9 merge per two-level multiply).
  const uint32_t half = in.size / 2;
  std::vector<uint64_t> child_calls;
  std::vector<std::string> child_keys;
  for (uint32_t i = 0; i < 2; ++i) {
    for (uint32_t j = 0; j < 2; ++j) {
      for (uint32_t t = 0; t < 2; ++t) {
        const std::string child_key = in.out_key + "." + std::to_string(i) +
                                      std::to_string(j) + std::to_string(t);
        child_keys.push_back(child_key);
        Bytes child_input = EncodeMatmulDivideInput(
            in.n, half, in.a_row + i * half, in.a_col + t * half, in.b_row + t * half,
            in.b_col + j * half, in.levels_left - 1, child_key);
        auto id = ctx.ChainCall("mm_div", std::move(child_input));
        if (!id.ok()) {
          return 7;
        }
        child_calls.push_back(id.value());
      }
    }
  }
  for (uint64_t id : child_calls) {
    auto code = ctx.AwaitCall(id);
    if (!code.ok() || code.value() != 0) {
      return 8;
    }
  }

  Bytes merge_input;
  ByteWriter writer(merge_input);
  writer.Put<uint32_t>(in.size);
  writer.PutString(in.out_key);
  for (const std::string& key : child_keys) {
    writer.PutString(key);
  }
  auto merge_id = ctx.ChainCall("mm_merge", std::move(merge_input));
  if (!merge_id.ok()) {
    return 9;
  }
  auto merge_code = ctx.AwaitCall(merge_id.value());
  if (!merge_code.ok() || merge_code.value() != 0) {
    return 10;
  }
  return 0;
}

int MatmulMergeFunction(InvocationContext& ctx) {
  ByteReader reader(ctx.Input());
  auto size = reader.Get<uint32_t>();
  auto out_key = reader.GetString();
  if (!size.ok() || !out_key.ok()) {
    return 2;
  }
  std::vector<std::string> child_keys;
  for (int k = 0; k < 8; ++k) {
    auto key = reader.GetString();
    if (!key.ok()) {
      return 2;
    }
    child_keys.push_back(std::move(key).value());
  }

  const uint32_t half = size.value() / 2;
  const size_t child_bytes = static_cast<size_t>(half) * half * sizeof(double);

  auto out_kv = ctx.state().Lookup(out_key.value());
  if (!out_kv->EnsureCapacity(static_cast<size_t>(size.value()) * size.value() * sizeof(double))
           .ok()) {
    return 5;
  }
  auto* out = reinterpret_cast<double*>(out_kv->WritableData(
      0, static_cast<size_t>(size.value()) * size.value() * sizeof(double)));
  if (out == nullptr) {
    return 5;
  }

  // CPU time: the chunk pulls below wait in virtual time, which the network
  // model already charges.
  CpuStopwatch compute;
  int child_index = 0;
  for (uint32_t i = 0; i < 2; ++i) {
    for (uint32_t j = 0; j < 2; ++j) {
      auto t0 = ctx.state().Lookup(child_keys[child_index]);
      auto t1 = ctx.state().Lookup(child_keys[child_index + 1]);
      child_index += 2;
      if (!t0->PullChunk(0, child_bytes).ok() || !t1->PullChunk(0, child_bytes).ok()) {
        return 4;
      }
      const auto* p0 = reinterpret_cast<const double*>(t0->data());
      const auto* p1 = reinterpret_cast<const double*>(t1->data());
      for (uint32_t r = 0; r < half; ++r) {
        double* out_row = out + (static_cast<size_t>(i) * half + r) * size.value() +
                          static_cast<size_t>(j) * half;
        const double* row0 = p0 + static_cast<size_t>(r) * half;
        const double* row1 = p1 + static_cast<size_t>(r) * half;
        for (uint32_t c = 0; c < half; ++c) {
          out_row[c] = row0[c] + row1[c];
        }
      }
    }
  }
  ctx.ChargeCompute(compute.ElapsedNs());

  out_kv->MarkDirty(0, static_cast<size_t>(size.value()) * size.value() * sizeof(double));
  return out_kv->Push().ok() ? 0 : 6;
}

Status RegisterMatmulFunctions(FunctionRegistry& registry) {
  FAASM_RETURN_IF_ERROR(registry.RegisterNative("mm_div", MatmulDivideFunction));
  return registry.RegisterNative("mm_merge", MatmulMergeFunction);
}

std::vector<double> ReferenceMatmul(const std::vector<double>& a, const std::vector<double>& b,
                                    uint32_t n) {
  std::vector<double> c(static_cast<size_t>(n) * n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < n; ++k) {
      const double aik = a[static_cast<size_t>(i) * n + k];
      for (uint32_t j = 0; j < n; ++j) {
        c[static_cast<size_t>(i) * n + j] += aik * b[static_cast<size_t>(k) * n + j];
      }
    }
  }
  return c;
}

}  // namespace faasm

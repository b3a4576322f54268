#include "workloads/inference.h"

#include <cstring>

#include "common/rng.h"
#include "core/guest_api.h"
#include "state/ddo.h"
#include "wasm/decoder.h"

namespace faasm {

namespace {

// Guest memory layout of the wasm inference module (private region).
constexpr uint32_t kKeyBase = 16;       // key strings
constexpr uint32_t kInputOff = 1024;    // input image (f32)
constexpr uint32_t kH1Off = 8192;       // hidden 1 activations
constexpr uint32_t kH2Off = 12288;      // hidden 2 activations
constexpr uint32_t kLogitsOff = 16384;  // output activations
constexpr uint32_t kResultOff = 20480;  // argmax result (u32)

const char* const kWeightKeys[6] = {"mlp:w1", "mlp:b1", "mlp:w2", "mlp:b2", "mlp:w3", "mlp:b3"};

size_t WeightBytes(const MlpDims& d, int index) {
  switch (index) {
    case 0: return size_t{d.input} * d.hidden1 * 4;
    case 1: return size_t{d.hidden1} * 4;
    case 2: return size_t{d.hidden1} * d.hidden2 * 4;
    case 3: return size_t{d.hidden2} * 4;
    case 4: return size_t{d.hidden2} * d.output * 4;
    default: return size_t{d.output} * 4;
  }
}

std::vector<float> RandomWeights(size_t count, Rng& rng) {
  std::vector<float> weights(count);
  for (auto& w : weights) {
    w = static_cast<float>(rng.NextGaussian() * 0.2);
  }
  return weights;
}

void DenseLayer(const float* in, uint32_t n_in, const float* weights, const float* bias,
                uint32_t n_out, bool relu, float* out) {
  for (uint32_t j = 0; j < n_out; ++j) {
    float acc = bias[j];
    for (uint32_t i = 0; i < n_in; ++i) {
      acc += in[i] * weights[static_cast<size_t>(i) * n_out + j];
    }
    out[j] = relu && acc < 0 ? 0 : acc;
  }
}

}  // namespace

size_t SeedMlpWeights(ShardedKvs& kvs, const MlpDims& dims, uint64_t seed) {
  Rng rng(seed);
  size_t total = 0;
  for (int k = 0; k < 6; ++k) {
    const size_t bytes = WeightBytes(dims, k);
    std::vector<float> weights = RandomWeights(bytes / 4, rng);
    const auto* p = reinterpret_cast<const uint8_t*>(weights.data());
    kvs.Set(kWeightKeys[k], Bytes(p, p + bytes));
    total += bytes;
  }
  return total;
}

std::vector<float> SyntheticImage(const MlpDims& dims, uint64_t index) {
  Rng rng(index * 0x9E3779B97F4A7C15ull + 1);
  std::vector<float> image(dims.input);
  for (auto& pixel : image) {
    pixel = static_cast<float>(rng.NextDouble());
  }
  return image;
}

Bytes EncodeImage(const std::vector<float>& image) {
  const auto* p = reinterpret_cast<const uint8_t*>(image.data());
  return Bytes(p, p + image.size() * 4);
}

// --- Wasm implementation ---------------------------------------------------------

Result<std::shared_ptr<const wasm::CompiledModule>> BuildMlpWasmModule(const MlpDims& dims) {
  using wasm::BlockType;
  using wasm::Op;
  using wasm::ValType;

  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 64);

  // Key strings in guest data.
  uint32_t key_offsets[6];
  uint32_t key_lens[6];
  for (int k = 0; k < 6; ++k) {
    key_offsets[k] = kKeyBase + 16 * k;
    key_lens[k] = static_cast<uint32_t>(std::strlen(kWeightKeys[k]));
    b.AddData(key_offsets[k], BytesFromString(kWeightKeys[k]));
  }

  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  // Locals: 6 weight offsets + loop indices + accumulators.
  uint32_t w_local[6];
  for (int k = 0; k < 6; ++k) {
    w_local[k] = f.AddLocal(ValType::kI32);
  }
  const uint32_t i = f.AddLocal(ValType::kI32);
  const uint32_t j = f.AddLocal(ValType::kI32);
  const uint32_t acc = f.AddLocal(ValType::kF32);
  const uint32_t best = f.AddLocal(ValType::kI32);
  const uint32_t best_val = f.AddLocal(ValType::kF32);
  const uint32_t n_in_local = f.AddLocal(ValType::kI32);

  // Map + pull each weight tensor from two-tier state.
  for (int k = 0; k < 6; ++k) {
    f.I32Const(static_cast<int32_t>(key_offsets[k]));
    f.I32Const(static_cast<int32_t>(key_lens[k]));
    f.I32Const(static_cast<int32_t>(WeightBytes(dims, k)));
    f.Call(api.get_state);
    f.LocalSet(w_local[k]);
    f.I32Const(static_cast<int32_t>(key_offsets[k]));
    f.I32Const(static_cast<int32_t>(key_lens[k]));
    f.Call(api.pull_state);
  }

  // Read the request image into the input buffer.
  f.I32Const(static_cast<int32_t>(kInputOff));
  f.I32Const(static_cast<int32_t>(dims.input * 4));
  f.Call(api.read_input);
  f.Drop();

  // Emits one dense layer: out[j] = act(bias[j] + sum_i in[i] * w[i*n_out+j]).
  auto emit_layer = [&](uint32_t in_off, uint32_t n_in, uint32_t weights, uint32_t bias,
                        uint32_t out_off, uint32_t n_out, bool relu) {
    f.ForConstLimit(j, 0, static_cast<int32_t>(n_out), [&] {
      // acc = bias[j]
      f.LocalGet(j);
      f.I32Const(4);
      f.Emit(Op::kI32Mul);
      f.LocalGet(bias);
      f.Emit(Op::kI32Add);
      f.Load(Op::kF32Load);
      f.LocalSet(acc);
      // inner product
      f.I32Const(static_cast<int32_t>(n_in));
      f.LocalSet(n_in_local);
      f.ForLocalLimit(i, 0, n_in_local, [&] {
        // in[i]
        f.LocalGet(i);
        f.I32Const(4);
        f.Emit(Op::kI32Mul);
        f.Load(Op::kF32Load, in_off);
        // w[(i*n_out + j)*4]
        f.LocalGet(i);
        f.I32Const(static_cast<int32_t>(n_out));
        f.Emit(Op::kI32Mul);
        f.LocalGet(j);
        f.Emit(Op::kI32Add);
        f.I32Const(4);
        f.Emit(Op::kI32Mul);
        f.LocalGet(weights);
        f.Emit(Op::kI32Add);
        f.Load(Op::kF32Load);
        f.Emit(Op::kF32Mul);
        f.LocalGet(acc);
        f.Emit(Op::kF32Add);
        f.LocalSet(acc);
      });
      if (relu) {
        f.LocalGet(acc);
        f.F32Const(0.0f);
        f.Emit(Op::kF32Max);
        f.LocalSet(acc);
      }
      // out[j] = acc
      f.LocalGet(j);
      f.I32Const(4);
      f.Emit(Op::kI32Mul);
      f.LocalGet(acc);
      f.Store(Op::kF32Store, out_off);
    });
  };

  emit_layer(kInputOff, dims.input, w_local[0], w_local[1], kH1Off, dims.hidden1, true);
  emit_layer(kH1Off, dims.hidden1, w_local[2], w_local[3], kH2Off, dims.hidden2, true);
  emit_layer(kH2Off, dims.hidden2, w_local[4], w_local[5], kLogitsOff, dims.output, false);

  // Argmax over the logits.
  f.I32Const(0);
  f.LocalSet(best);
  f.I32Const(0);
  f.Load(Op::kF32Load, kLogitsOff);
  f.LocalSet(best_val);
  f.ForConstLimit(j, 1, static_cast<int32_t>(dims.output), [&] {
    f.LocalGet(j);
    f.I32Const(4);
    f.Emit(Op::kI32Mul);
    f.Load(Op::kF32Load, kLogitsOff);
    f.LocalGet(best_val);
    f.Emit(Op::kF32Gt);
    f.If();
    f.LocalGet(j);
    f.I32Const(4);
    f.Emit(Op::kI32Mul);
    f.Load(Op::kF32Load, kLogitsOff);
    f.LocalSet(best_val);
    f.LocalGet(j);
    f.LocalSet(best);
    f.End();
  });

  // Publish the class id as the call output.
  f.I32Const(static_cast<int32_t>(kResultOff));
  f.LocalGet(best);
  f.Store(Op::kI32Store);
  f.I32Const(static_cast<int32_t>(kResultOff));
  f.I32Const(4);
  f.Call(api.write_output);

  f.I32Const(0);  // exit code
  f.End();

  // Full upload pipeline: encode -> decode -> validate/compile.
  FAASM_ASSIGN_OR_RETURN(wasm::Module module, wasm::DecodeModule(b.Build()));
  return wasm::CompileModule(std::move(module));
}

// --- Native twin --------------------------------------------------------------------

int MlpInferNative(InvocationContext& ctx) {
  const MlpDims dims;
  SharedArray<float> tensors[6] = {
      {&ctx.state(), kWeightKeys[0]}, {&ctx.state(), kWeightKeys[1]},
      {&ctx.state(), kWeightKeys[2]}, {&ctx.state(), kWeightKeys[3]},
      {&ctx.state(), kWeightKeys[4]}, {&ctx.state(), kWeightKeys[5]},
  };
  for (auto& tensor : tensors) {
    if (!tensor.Attach().ok()) {
      return 3;
    }
  }
  if (ctx.Input().size() < size_t{dims.input} * 4) {
    return 2;
  }
  const auto* image = reinterpret_cast<const float*>(ctx.Input().data());

  CpuStopwatch compute;
  std::vector<float> h1(dims.hidden1);
  std::vector<float> h2(dims.hidden2);
  std::vector<float> logits(dims.output);
  DenseLayer(image, dims.input, tensors[0].data(), tensors[1].data(), dims.hidden1, true,
             h1.data());
  DenseLayer(h1.data(), dims.hidden1, tensors[2].data(), tensors[3].data(), dims.hidden2, true,
             h2.data());
  DenseLayer(h2.data(), dims.hidden2, tensors[4].data(), tensors[5].data(), dims.output, false,
             logits.data());
  uint32_t best = 0;
  for (uint32_t j = 1; j < dims.output; ++j) {
    if (logits[j] > logits[best]) {
      best = j;
    }
  }
  ctx.ChargeCompute(compute.ElapsedNs());

  Bytes out(4);
  std::memcpy(out.data(), &best, 4);
  ctx.WriteOutput(std::move(out));
  return 0;
}

uint32_t MlpReference(const ShardedKvs& kvs, const MlpDims& dims, const std::vector<float>& image) {
  std::vector<float> tensors[6];
  for (int k = 0; k < 6; ++k) {
    auto bytes = kvs.Get(kWeightKeys[k]);
    tensors[k].resize(bytes.value().size() / 4);
    std::memcpy(tensors[k].data(), bytes.value().data(), bytes.value().size());
  }
  std::vector<float> h1(dims.hidden1);
  std::vector<float> h2(dims.hidden2);
  std::vector<float> logits(dims.output);
  DenseLayer(image.data(), dims.input, tensors[0].data(), tensors[1].data(), dims.hidden1, true,
             h1.data());
  DenseLayer(h1.data(), dims.hidden1, tensors[2].data(), tensors[3].data(), dims.hidden2, true,
             h2.data());
  DenseLayer(h2.data(), dims.hidden2, tensors[4].data(), tensors[5].data(), dims.output, false,
             logits.data());
  uint32_t best = 0;
  for (uint32_t j = 1; j < dims.output; ++j) {
    if (logits[j] > logits[best]) {
      best = j;
    }
  }
  return best;
}

Status RegisterMlpWasm(FunctionRegistry& registry, const std::string& name, const MlpDims& dims) {
  FAASM_ASSIGN_OR_RETURN(auto module, BuildMlpWasmModule(dims));
  return registry.RegisterWasm(name, std::move(module));
}

Status RegisterMlpNative(FunctionRegistry& registry, const std::string& name) {
  return registry.RegisterNative(name, MlpInferNative);
}

}  // namespace faasm

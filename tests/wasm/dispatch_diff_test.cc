// Differential test for the guest execution tiers: randomly generated small
// modules run under every combination of
//   dispatch  (switch | threaded)
// × bounds    (checked | guard-page)
// × compile   (fused superinstructions | unfused)
// and must produce identical results, identical trap kinds, and identical
// instructions_retired counts. Retired counts are the strongest check: a
// fused superinstruction must retire exactly the number of wire instructions
// it replaced (compiled.h InstrRetireWeight), and the per-segment fuel
// accounting must flush at the same program points in every tier.
//
// Module generation composes stack-disciplined statement templates (the
// builder's structured helpers keep every module valid by construction) that
// deliberately hit the fusion patterns: local.get pairs feeding binops,
// compare+br_if loop exits, canonical `i += c` loop increments, and the
// serve MLP's f32 multiply-accumulate over constant-stride indexed loads
// (masked in bounds, unmasked and trapping, and index products that wrap
// mod 2^32).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mem/linear_memory.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/instance.h"

namespace faasm::wasm {
namespace {

struct RunConfig {
  GuestDispatch dispatch;
  GuestBounds bounds;
  bool fused;
  std::string Name() const {
    std::string n = dispatch == GuestDispatch::kThreaded ? "threaded" : "switch";
    n += bounds == GuestBounds::kGuardPage ? "/guard" : "/checked";
    n += fused ? "/fused" : "/unfused";
    return n;
  }
};

std::vector<RunConfig> AllConfigs() {
  std::vector<RunConfig> configs;
  for (auto dispatch : {GuestDispatch::kSwitch, GuestDispatch::kThreaded}) {
    for (auto bounds : {GuestBounds::kChecked, GuestBounds::kGuardPage}) {
      for (bool fused : {true, false}) {
        configs.push_back({dispatch, bounds, fused});
      }
    }
  }
  return configs;
}

// Memory layout: statements store i32s into [16, 4112); the f32
// multiply-accumulate reads only [kFloatBase, kFloatBase + 2048), which the
// module's data segment fills with finite floats and no store reaches.
constexpr uint32_t kFloatBase = 8192;

// Locals a random body works over: `ints` feed every statement and the
// checksum; the rest belong to the f32 multiply-accumulate and indexed-load
// statements, so those can set up in-bounds indices without disturbing a
// loop counter.
struct BodyLocals {
  std::vector<uint32_t> ints;
  uint32_t facc = 0;  // f32 accumulator
  uint32_t row = 0;   // i32 scratch: row index
  uint32_t col = 0;   // i32 scratch: column index
  uint32_t base = 0;  // i32 scratch: base pointer
};

// Emits a random load whose result is an i32: an i32 load (the indexed-load
// superinstructions redispatch to it) or an f32.load (inlined there) whose
// bits are reinterpreted, so no float arithmetic touches a possible NaN.
void EmitRandomLoad(FunctionBuilder& f, Rng& rng, uint32_t offset) {
  static const Op kLoads[] = {Op::kI32Load, Op::kI32Load16S, Op::kI32Load8U, Op::kF32Load};
  const Op op = kLoads[rng.NextBelow(4)];
  f.Load(op, offset);
  if (op == Op::kF32Load) {
    f.Emit(Op::kI32ReinterpretF32);
  }
}

// Index scales for the unmasked loads: plain strides, a negative one, and
// multipliers whose products wrap mod 2^32 (0x40000000 * 4k == 0).
int32_t RandomScale(Rng& rng) {
  static const int32_t kScales[] = {4, 8, -4, 0x10001, 0x40000000, 0x7FFFFFFF};
  return kScales[rng.NextBelow(6)];
}

// Emits a random function body into `f`: a handful of statements over four
// i32 locals, one f32 accumulator and one page of memory, ending by returning
// a checksum of the locals and two memory words. Some statement mixes divide
// or access memory unmasked, so a subset of generated programs traps —
// deliberately: trap kind and retired-at-trap must also agree across tiers.
void EmitRandomBody(FunctionBuilder& f, Rng& rng, uint32_t param, const BodyLocals& l) {
  const std::vector<uint32_t>& locals = l.ints;
  const uint32_t n_statements = 3 + static_cast<uint32_t>(rng.NextBelow(6));
  for (uint32_t s = 0; s < n_statements; ++s) {
    const uint32_t a = locals[rng.NextBelow(locals.size())];
    const uint32_t b = locals[rng.NextBelow(locals.size())];
    const uint32_t c = locals[rng.NextBelow(locals.size())];
    switch (rng.NextBelow(11)) {
      case 0: {  // l[a] = l[b] <binop> l[c]  — the GetGetOp fusion shape
        static const Op kBinops[] = {Op::kI32Add, Op::kI32Sub, Op::kI32Mul,
                                     Op::kI32And, Op::kI32Or,  Op::kI32Xor};
        f.LocalGet(b);
        f.LocalGet(c);
        f.Emit(kBinops[rng.NextBelow(6)]);
        f.LocalSet(a);
        break;
      }
      case 1:  // l[a] = l[b] + const  — the GetConstOp fusion shape
        f.LocalGet(b);
        f.I32Const(static_cast<int32_t>(rng.NextBelow(1000)) - 500);
        f.Emit(Op::kI32Add);
        f.LocalSet(a);
        break;
      case 2:  // masked in-bounds store: mem[l[b] & 0xFFF8] = l[c]
        f.LocalGet(b);
        f.I32Const(0xFF8);
        f.Emit(Op::kI32And);
        f.LocalGet(c);
        f.Store(Op::kI32Store, 16);
        break;
      case 3:  // masked in-bounds load — the GetMem/const-fold shapes
        f.LocalGet(b);
        f.I32Const(0xFF8);
        f.Emit(Op::kI32And);
        f.Load(Op::kI32Load, 8);
        f.LocalSet(a);
        break;
      case 4: {  // counted loop with accumulate — LoopGeSLC + IncLocal shapes
        // Distinct roles: the body must not touch the loop counter.
        const size_t base = rng.NextBelow(locals.size());
        const uint32_t i_local = locals[base];
        const uint32_t acc = locals[(base + 1) % locals.size()];
        f.ForConstLimit(i_local, 0, 5 + static_cast<int32_t>(rng.NextBelow(12)),
                        [&] {
                          f.LocalGet(acc);
                          f.LocalGet(i_local);
                          f.Emit(Op::kI32Add);
                          f.LocalSet(acc);
                        });
        break;
      }
      case 5: {  // loop with a local limit — the LoopGeSLL shape
        // Distinct roles: the body must modify neither counter nor limit, or
        // the loop need not terminate.
        const size_t base = rng.NextBelow(locals.size());
        const uint32_t i_local = locals[base];
        const uint32_t limit = locals[(base + 1) % locals.size()];
        const uint32_t acc = locals[(base + 2) % locals.size()];
        f.LocalGet(param);
        f.I32Const(15);
        f.Emit(Op::kI32And);
        f.LocalSet(limit);
        f.ForLocalLimit(i_local, 0, limit, [&] {
          f.LocalGet(acc);
          f.I32Const(3);
          f.Emit(Op::kI32Add);
          f.LocalSet(acc);
        });
        break;
      }
      case 6:  // possibly-trapping division (divide-by-zero when l[c] == 0)
        f.LocalGet(b);
        f.LocalGet(c);
        f.Emit(Op::kI32DivS);
        f.LocalSet(a);
        break;
      case 7: {  // f32 multiply-accumulate over masked constant-stride loads
        // The serve MLP inner product: for row in [0, k): acc +=
        // in[row] * w[(row*n + col)*4 + base] — GetScaleLoad,
        // GetConstRowMajor, ScaleAddLoad and F32MulGetAddSet. Summing k
        // mixed-sign, mixed-magnitude products makes a contracted fma round
        // differently. Both arrays sit in the float region, which no store
        // reaches, so no NaN (whose payload C++ leaves unspecified) does.
        const int32_t n = 1 + static_cast<int32_t>(rng.NextBelow(8));
        f.LocalGet(c);
        f.I32Const(0x7);
        f.Emit(Op::kI32And);
        f.LocalSet(l.col);
        f.I32Const(static_cast<int32_t>(kFloatBase + 1024 + 4 * rng.NextBelow(64)));
        f.LocalSet(l.base);
        f.ForConstLimit(l.row, 0, 4 + static_cast<int32_t>(rng.NextBelow(13)), [&] {
          f.LocalGet(l.row);  // in[row]
          f.I32Const(4);
          f.Emit(Op::kI32Mul);
          f.Load(Op::kF32Load, kFloatBase + 4 * static_cast<uint32_t>(rng.NextBelow(32)));
          f.LocalGet(l.row);  // w[row*n + col]
          f.I32Const(n);
          f.Emit(Op::kI32Mul);
          f.LocalGet(l.col);
          f.Emit(Op::kI32Add);
          f.I32Const(4);
          f.Emit(Op::kI32Mul);
          f.LocalGet(l.base);
          f.Emit(Op::kI32Add);
          f.Load(Op::kF32Load);
          f.Emit(Op::kF32Mul);
          f.LocalGet(l.facc);
          f.Emit(Op::kF32Add);
          f.LocalSet(l.facc);
        });
        break;
      }
      case 8:  // unmasked scaled load: traps OOB or wraps mod 2^32 — GetScaleLoad
        f.LocalGet(b);
        f.I32Const(RandomScale(rng));
        f.Emit(Op::kI32Mul);
        EmitRandomLoad(f, rng, 4 * static_cast<uint32_t>(rng.NextBelow(4)));
        f.LocalSet(a);
        break;
      case 9: {  // scaled index plus base: traps OOB or wraps — ScaleAddLoad
        // base is l[c] or a negative pointer that only wraps back into the
        // page for large enough indices.
        f.LocalGet(b);
        f.I32Const(rng.NextBelow(2) == 0 ? 0xFFC : -1);
        f.Emit(Op::kI32And);
        f.I32Const(RandomScale(rng));
        f.Emit(Op::kI32Mul);
        if (rng.NextBelow(2) == 0) {
          f.LocalGet(c);
        } else {
          f.I32Const(-4096);
          f.LocalSet(l.base);
          f.LocalGet(l.base);
        }
        f.Emit(Op::kI32Add);
        EmitRandomLoad(f, rng, 0);
        f.LocalSet(a);
        break;
      }
      default:  // unmasked access: traps OOB when the local grew past a page
        f.LocalGet(b);
        f.Load(Op::kI32Load8U, 0);
        f.LocalSet(a);
        break;
    }
  }
  // Checksum: xor of all locals, the accumulator's bits, and two fixed
  // memory words.
  f.LocalGet(param);
  for (uint32_t local : locals) {
    f.LocalGet(local);
    f.Emit(Op::kI32Xor);
  }
  f.LocalGet(l.facc);
  f.Emit(Op::kI32ReinterpretF32);
  f.Emit(Op::kI32Xor);
  f.I32Const(16);
  f.Load(Op::kI32Load, 0);
  f.Emit(Op::kI32Xor);
  f.I32Const(0);
  f.Load(Op::kI32Load, 24);
  f.Emit(Op::kI32Xor);
}

Bytes RandomModule(Rng& rng) {
  ModuleBuilder b;
  b.AddMemory(1, 1);
  // Random first 4 KB, so the indexed loads read nonzero data, and finite
  // floats of mixed sign and magnitude in the float region.
  Bytes data(4096);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.NextBelow(256));
  }
  b.AddData(0, std::move(data));
  std::vector<float> floats(512);
  for (float& v : floats) {
    v = static_cast<float>(std::ldexp(rng.NextDouble() * 2 - 1,
                                      static_cast<int>(rng.NextBelow(40)) - 20));
  }
  const auto* float_bytes = reinterpret_cast<const uint8_t*>(floats.data());
  b.AddData(kFloatBase, Bytes(float_bytes, float_bytes + floats.size() * 4));
  auto& f = b.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  BodyLocals l;
  for (int i = 0; i < 4; ++i) {
    l.ints.push_back(f.AddLocal(ValType::kI32));
  }
  l.facc = f.AddLocal(ValType::kF32);
  l.row = f.AddLocal(ValType::kI32);
  l.col = f.AddLocal(ValType::kI32);
  l.base = f.AddLocal(ValType::kI32);
  // Seed the locals from the parameter so runs differ per input.
  f.LocalGet(0);
  f.LocalSet(l.ints[0]);
  f.LocalGet(0);
  f.I32Const(7);
  f.Emit(Op::kI32Mul);
  f.LocalSet(l.ints[1]);
  f.I32Const(3);
  f.LocalSet(l.ints[2]);
  f.F32Const(0.1f);
  f.LocalSet(l.facc);
  EmitRandomBody(f, rng, 0, l);
  return b.Build();
}

// Preprocessed opcodes of `module_bytes` compiled with fusion on.
std::set<uint16_t> FusedOps(const Bytes& module_bytes) {
  std::set<uint16_t> ops;
  auto decoded = DecodeModule(module_bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto compiled = CompileModule(std::move(decoded).value());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (const CompiledFunction& fn : compiled.value()->functions) {
    for (const Instr& ins : fn.code) {
      ops.insert(ins.op);
    }
  }
  return ops;
}

struct Observation {
  bool ok = false;
  int32_t result = 0;
  std::string error;
  uint64_t retired = 0;
};

Observation RunOne(const Bytes& module_bytes, const RunConfig& config,
                   int32_t arg, uint64_t fuel) {
  Observation obs;
  auto decoded = DecodeModule(module_bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  CompileOptions copts;
  copts.fuse_superinstructions = config.fused;
  auto compiled = CompileModule(std::move(decoded).value(), copts);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  InstanceOptions options;
  options.bounds = config.bounds;
  options.dispatch = config.dispatch;
  auto instance = Instance::Create(compiled.value(), nullptr, nullptr, options);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  auto& inst = *instance.value();
  inst.set_fuel_limit(fuel);
  auto out = inst.CallExport("f", {MakeI32(arg)});
  obs.ok = out.ok();
  if (out.ok()) {
    obs.result = out.value()[0].i32;
  } else {
    obs.error = out.status().message();
  }
  obs.retired = inst.instructions_retired();
  return obs;
}

void ExpectAgreement(const Bytes& module_bytes, int32_t arg, uint64_t fuel,
                     const std::string& context) {
  const auto configs = AllConfigs();
  const Observation base = RunOne(module_bytes, configs[0], arg, fuel);
  for (size_t i = 1; i < configs.size(); ++i) {
    const Observation obs = RunOne(module_bytes, configs[i], arg, fuel);
    const std::string label =
        context + ": " + configs[0].Name() + " vs " + configs[i].Name();
    EXPECT_EQ(base.ok, obs.ok) << label << " (" << base.error << " vs "
                               << obs.error << ")";
    if (base.ok && obs.ok) {
      EXPECT_EQ(base.result, obs.result) << label;
    } else {
      EXPECT_EQ(base.error, obs.error) << label;
    }
    EXPECT_EQ(base.retired, obs.retired) << label;
  }
}

TEST(DispatchDiffTest, RandomModulesAgreeAcrossAllTiers) {
  Rng rng(0xfaa51e7);
  std::set<uint16_t> seen;
  for (int m = 0; m < 40; ++m) {
    const Bytes module_bytes = RandomModule(rng);
    const std::set<uint16_t> ops = FusedOps(module_bytes);
    seen.insert(ops.begin(), ops.end());
    for (int32_t arg : {0, 1, 7, 255, 4095, -1}) {
      std::ostringstream context;
      context << "module " << m << " arg " << arg;
      ExpectAgreement(module_bytes, arg, /*fuel=*/0, context.str());
    }
  }
  // The generator must actually reach the f32 MAC / constant-stride fusions,
  // or the agreement above says nothing about them.
  for (IOp op : {IOp::kFuseGetScaleLoad, IOp::kFuseGetConstRowMajor, IOp::kFuseScaleAddLoad,
                 IOp::kFuseF32MulGetAddSet}) {
    EXPECT_EQ(seen.count(static_cast<uint16_t>(op)), 1u)
        << "opcode 0x" << std::hex << static_cast<uint16_t>(op) << " never generated";
  }
}

TEST(DispatchDiffTest, FuelExhaustionAgreesAcrossAllTiers) {
  // Per-segment fuel accounting must trip at the same instruction budget in
  // every tier: fused ops charge their full pre-fusion weight, so a fuel
  // limit that exhausts mid-loop yields the same kFuelExhausted trap and the
  // same retired count everywhere.
  Rng rng(0xdecade);
  for (int m = 0; m < 10; ++m) {
    const Bytes module_bytes = RandomModule(rng);
    for (uint64_t fuel : {5, 25, 100, 1000}) {
      std::ostringstream context;
      context << "module " << m << " fuel " << fuel;
      ExpectAgreement(module_bytes, /*arg=*/1234, fuel, context.str());
    }
  }
}

TEST(DispatchDiffTest, RetiredCountsAreExactOnAStraightLineProgram) {
  // Hand-counted ground truth: f() = 2 + 3 executes exactly four wire
  // instructions (two consts, one add, the implicit end/return). Every tier
  // — including fused, where const+const+add does not fuse but the count
  // logic still runs through the prefix-sum path — must report exactly 4.
  ModuleBuilder b;
  auto& f = b.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  f.I32Const(2);
  f.I32Const(3);
  f.Emit(Op::kI32Add);
  const Bytes bytes = b.Build();
  for (const auto& config : AllConfigs()) {
    const Observation obs = RunOne(bytes, config, 0, 0);
    EXPECT_TRUE(obs.ok) << config.Name() << ": " << obs.error;
    EXPECT_EQ(obs.result, 5) << config.Name();
    EXPECT_EQ(obs.retired, 4u) << config.Name();
  }
}

TEST(DispatchDiffTest, FusedLoopRetiresPreFusionCount) {
  // A canonical counted loop hits LoopGeSLC/IncLocal fusion; the fused run
  // must retire exactly as many instructions as the unfused run.
  ModuleBuilder b;
  auto& f = b.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  const uint32_t i = f.AddLocal(ValType::kI32);
  const uint32_t acc = f.AddLocal(ValType::kI32);
  f.ForConstLimit(i, 0, 100, [&] {
    f.LocalGet(acc);
    f.LocalGet(i);
    f.Emit(Op::kI32Add);
    f.LocalSet(acc);
  });
  f.LocalGet(acc);
  const Bytes bytes = b.Build();
  RunConfig fused{GuestDispatch::kThreaded, GuestBounds::kChecked, true};
  RunConfig unfused{GuestDispatch::kSwitch, GuestBounds::kChecked, false};
  const Observation a = RunOne(bytes, fused, 0, 0);
  const Observation c = RunOne(bytes, unfused, 0, 0);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(a.result, 4950);
  EXPECT_EQ(c.result, 4950);
  EXPECT_EQ(a.retired, c.retired);
  EXPECT_GT(a.retired, 500u);  // the loop actually ran
}

}  // namespace
}  // namespace faasm::wasm

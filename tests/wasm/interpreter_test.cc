// End-to-end interpreter tests: build -> encode -> decode -> compile ->
// instantiate -> call, i.e. exactly the path an uploaded function takes.
#include <gtest/gtest.h>

#include <cstring>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/instance.h"

namespace faasm::wasm {
namespace {

std::shared_ptr<const CompiledModule> MustCompile(ModuleBuilder& b) {
  auto decoded = DecodeModule(b.Build());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto compiled = CompileModule(std::move(decoded).value());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.value();
}

std::unique_ptr<Instance> MustInstantiate(ModuleBuilder& b, ImportResolver* resolver = nullptr) {
  auto instance = Instance::Create(MustCompile(b), resolver);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

uint32_t CallI32(Instance& instance, const std::string& name, std::vector<Value> args) {
  auto out = instance.CallExport(name, std::move(args));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().size(), 1u);
  return out.value()[0].i32;
}

TEST(InterpreterTest, AddTwoNumbers) {
  ModuleBuilder b;
  auto& f = b.AddFunction("add", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  f.LocalGet(1);
  f.Emit(Op::kI32Add);
  f.End();
  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "add", {MakeI32(2), MakeI32(40)}), 42u);
  EXPECT_EQ(CallI32(*instance, "add", {MakeI32(0xFFFFFFFF), MakeI32(1)}), 0u);  // wraps
}

TEST(InterpreterTest, LocalsAreZeroInitialised) {
  ModuleBuilder b;
  auto& f = b.AddFunction("zero", {}, {ValType::kI64});
  uint32_t local = f.AddLocal(ValType::kI64);
  f.LocalGet(local);
  f.End();
  auto instance = MustInstantiate(b);
  auto out = instance->CallExport("zero", {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].i64, 0u);
}

TEST(InterpreterTest, RecursiveFibonacci) {
  ModuleBuilder b;
  auto& f = b.AddFunction("fib", {ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  f.I32Const(2);
  f.Emit(Op::kI32LtS);
  f.If(BlockType::Of(ValType::kI32));
  f.LocalGet(0);
  f.Else();
  f.LocalGet(0);
  f.I32Const(1);
  f.Emit(Op::kI32Sub);
  f.Call(f.index());
  f.LocalGet(0);
  f.I32Const(2);
  f.Emit(Op::kI32Sub);
  f.Call(f.index());
  f.Emit(Op::kI32Add);
  f.End();
  f.End();
  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "fib", {MakeI32(10)}), 55u);
  EXPECT_EQ(CallI32(*instance, "fib", {MakeI32(20)}), 6765u);
}

TEST(InterpreterTest, IterativeFactorialWithLoop) {
  ModuleBuilder b;
  auto& f = b.AddFunction("fact", {ValType::kI32}, {ValType::kI64});
  uint32_t acc = f.AddLocal(ValType::kI64);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I64Const(1);
  f.LocalSet(acc);
  f.ForLocalLimit(i, 1, 0 /*limit = param 0*/, [&] {
    f.LocalGet(acc);
    f.LocalGet(i);
    f.Emit(Op::kI64ExtendI32S);
    f.Emit(Op::kI64Mul);
    f.LocalSet(acc);
  });
  // multiply by n itself (loop ran i in [1, n))
  f.LocalGet(acc);
  f.LocalGet(0);
  f.Emit(Op::kI64ExtendI32S);
  f.Emit(Op::kI64Mul);
  f.End();
  auto instance = MustInstantiate(b);
  auto out = instance->CallExport("fact", {MakeI32(10)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value()[0].i64, 3628800u);
}

TEST(InterpreterTest, HostImportCalled) {
  ModuleBuilder b;
  uint32_t host = b.ImportFunction("env", "triple", {ValType::kI32}, {ValType::kI32});
  auto& f = b.AddFunction("run", {ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  f.Call(host);
  f.I32Const(1);
  f.Emit(Op::kI32Add);
  f.End();

  MapImportResolver resolver;
  int call_count = 0;
  resolver.Register("env", "triple",
                    [&call_count](Instance&, const Value* args, size_t n, Value* results) {
                      EXPECT_EQ(n, 1u);
                      results[0] = MakeI32(args[0].i32 * 3);
                      ++call_count;
                      return OkStatus();
                    });
  auto instance = MustInstantiate(b, &resolver);
  EXPECT_EQ(CallI32(*instance, "run", {MakeI32(5)}), 16u);
  EXPECT_EQ(call_count, 1);
}

TEST(InterpreterTest, UnresolvedImportFailsInstantiation) {
  ModuleBuilder b;
  b.ImportFunction("env", "missing", {}, {});
  auto& f = b.AddFunction("run", {}, {});
  f.End();
  MapImportResolver resolver;
  auto instance = Instance::Create(MustCompile(b), &resolver);
  EXPECT_FALSE(instance.ok());
}

TEST(InterpreterTest, HostErrorBecomesTrap) {
  ModuleBuilder b;
  uint32_t host = b.ImportFunction("env", "fail", {}, {});
  auto& f = b.AddFunction("run", {}, {});
  f.Call(host);
  f.End();
  MapImportResolver resolver;
  resolver.Register("env", "fail", [](Instance&, const Value*, size_t, Value*) {
    return Internal("boom");
  });
  auto instance = MustInstantiate(b, &resolver);
  auto out = instance->CallExport("run", {});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(IsTrap(out.status()));
}

TEST(InterpreterTest, GlobalsReadWrite) {
  ModuleBuilder b;
  uint32_t g = b.AddGlobal(ValType::kI32, true, MakeI32(100));
  auto& bump = b.AddFunction("bump", {}, {ValType::kI32});
  bump.GlobalGet(g);
  bump.I32Const(1);
  bump.Emit(Op::kI32Add);
  bump.GlobalSet(g);
  bump.GlobalGet(g);
  bump.End();
  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "bump", {}), 101u);
  EXPECT_EQ(CallI32(*instance, "bump", {}), 102u);
  EXPECT_EQ(instance->globals()[0].i32, 102u);
}

TEST(InterpreterTest, CallIndirectDispatch) {
  ModuleBuilder b;
  auto& f1 = b.AddFunction("", {ValType::kI32}, {ValType::kI32});
  f1.LocalGet(0);
  f1.I32Const(10);
  f1.Emit(Op::kI32Add);
  f1.End();
  auto& f2 = b.AddFunction("", {ValType::kI32}, {ValType::kI32});
  f2.LocalGet(0);
  f2.I32Const(100);
  f2.Emit(Op::kI32Mul);
  f2.End();
  b.AddTable(2);
  b.AddElementSegment(0, {f1.index(), f2.index()});

  uint32_t type = b.AddType({ValType::kI32}, {ValType::kI32});
  auto& dispatch = b.AddFunction("dispatch", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  dispatch.LocalGet(1);  // argument
  dispatch.LocalGet(0);  // table slot
  dispatch.CallIndirect(type);
  dispatch.End();

  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "dispatch", {MakeI32(0), MakeI32(5)}), 15u);
  EXPECT_EQ(CallI32(*instance, "dispatch", {MakeI32(1), MakeI32(5)}), 500u);
}

TEST(InterpreterTest, CallIndirectTraps) {
  ModuleBuilder b;
  auto& f1 = b.AddFunction("", {}, {});  // () -> ()
  f1.End();
  b.AddTable(4);
  b.AddElementSegment(0, {f1.index()});

  uint32_t wrong_type = b.AddType({}, {ValType::kI32});
  auto& bad_sig = b.AddFunction("bad_sig", {}, {ValType::kI32});
  bad_sig.I32Const(0);
  bad_sig.CallIndirect(wrong_type);
  bad_sig.End();

  uint32_t void_type = b.AddType({}, {});
  auto& null_slot = b.AddFunction("null_slot", {}, {});
  null_slot.I32Const(2);  // in table but never initialised
  null_slot.CallIndirect(void_type);
  null_slot.End();

  auto& oob_slot = b.AddFunction("oob_slot", {}, {});
  oob_slot.I32Const(99);
  oob_slot.CallIndirect(void_type);
  oob_slot.End();

  auto instance = MustInstantiate(b);
  auto r1 = instance->CallExport("bad_sig", {});
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("type mismatch"), std::string::npos);
  auto r2 = instance->CallExport("null_slot", {});
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("uninitialized"), std::string::npos);
  auto r3 = instance->CallExport("oob_slot", {});
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("undefined"), std::string::npos);
}

TEST(InterpreterTest, DeepRecursionTrapsNotCrashes) {
  ModuleBuilder b;
  auto& f = b.AddFunction("inf", {}, {});
  f.Call(f.index());
  f.End();
  auto instance = MustInstantiate(b);
  auto out = instance->CallExport("inf", {});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("call stack exhausted"), std::string::npos);
}

TEST(InterpreterTest, FuelLimitStopsInfiniteLoop) {
  ModuleBuilder b;
  auto& f = b.AddFunction("spin", {}, {});
  f.Loop();
  f.Br(0);
  f.End();
  f.End();
  auto instance = MustInstantiate(b);
  instance->set_fuel_limit(10000);
  auto out = instance->CallExport("spin", {});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("fuel"), std::string::npos);
  EXPECT_GT(instance->instructions_retired(), 0u);
}

TEST(InterpreterTest, UnreachableTraps) {
  ModuleBuilder b;
  auto& f = b.AddFunction("die", {}, {});
  f.Unreachable();
  f.End();
  auto instance = MustInstantiate(b);
  auto out = instance->CallExport("die", {});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(IsTrap(out.status()));
}

TEST(InterpreterTest, StartFunctionRuns) {
  ModuleBuilder b;
  uint32_t g = b.AddGlobal(ValType::kI32, true, MakeI32(0));
  auto& init = b.AddFunction("", {}, {});
  init.I32Const(77);
  init.GlobalSet(g);
  init.End();
  b.SetStart(init.index());
  auto& get = b.AddFunction("get", {}, {ValType::kI32});
  get.GlobalGet(g);
  get.End();
  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "get", {}), 77u);
}

TEST(InterpreterTest, DataSegmentsApplied) {
  ModuleBuilder b;
  b.AddMemory(1, 1);
  b.AddData(64, Bytes{0xAA, 0xBB, 0xCC});
  auto& load = b.AddFunction("load", {ValType::kI32}, {ValType::kI32});
  load.LocalGet(0);
  load.Load(Op::kI32Load8U);
  load.End();
  auto instance = MustInstantiate(b);
  EXPECT_EQ(CallI32(*instance, "load", {MakeI32(64)}), 0xAAu);
  EXPECT_EQ(CallI32(*instance, "load", {MakeI32(66)}), 0xCCu);
  EXPECT_EQ(CallI32(*instance, "load", {MakeI32(67)}), 0u);
}

TEST(InterpreterTest, WrongArgumentCountRejected) {
  ModuleBuilder b;
  auto& f = b.AddFunction("one", {ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  f.End();
  auto instance = MustInstantiate(b);
  EXPECT_FALSE(instance->CallExport("one", {}).ok());
  EXPECT_FALSE(instance->CallExport("one", {MakeI32(1), MakeI32(2)}).ok());
  EXPECT_FALSE(instance->CallExport("nope", {}).ok());
}

TEST(InterpreterTest, ExternalMemoryShared) {
  auto memory = LinearMemory::Create(1, 16);
  ASSERT_TRUE(memory.ok());
  ModuleBuilder b;
  b.AddMemory(1, 16);
  auto& store = b.AddFunction("store", {ValType::kI32, ValType::kI32}, {});
  store.LocalGet(0);
  store.LocalGet(1);
  store.Store(Op::kI32Store);
  store.End();
  auto instance = Instance::Create(MustCompile(b), nullptr, memory.value().get());
  ASSERT_TRUE(instance.ok());
  auto out = instance.value()->CallExport("store", {MakeI32(8), MakeI32(0x1234)});
  ASSERT_TRUE(out.ok());
  uint32_t v = 0;
  ASSERT_TRUE(memory.value()->InBounds(8, 4));
  std::memcpy(&v, memory.value()->base() + 8, 4);
  EXPECT_EQ(v, 0x1234u);
}

}  // namespace
}  // namespace faasm::wasm

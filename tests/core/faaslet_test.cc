// Faaslet tests: isolation, host interface (Table 2), shared state mapping,
// Proto-Faaslet snapshot/restore, vnet and filesystem behaviour.
#include "core/faaslet.h"

#include <gtest/gtest.h>

#include "core/guest_api.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

using wasm::Op;
using wasm::ValType;

class FaasletTest : public ::testing::Test {
 protected:
  FaasletTest()
      : network_(&clock_, NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &clock_) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  FaasletEnv Env() {
    FaasletEnv env;
    env.clock = &clock_;
    env.tier = &tier_;
    env.files = &files_;
    env.network = &network_;
    env.host_endpoint = "host-0";
    return env;
  }

  std::shared_ptr<const wasm::CompiledModule> Compile(wasm::ModuleBuilder& b) {
    auto decoded = wasm::DecodeModule(b.Build());
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto compiled = wasm::CompileModule(std::move(decoded).value());
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.value();
  }

  // The bytes of `name`'s Proto-Faaslet: a wasm function whose init sets two
  // globals and writes into two host pages of its memory.
  Bytes SerializedProto(const std::string& name, int32_t seed) {
    wasm::ModuleBuilder b;
    b.AddMemory(1, 4);
    const uint32_t g0 = b.AddGlobal(ValType::kI32, true, wasm::MakeI32(0));
    const uint32_t g1 = b.AddGlobal(ValType::kI64, true, wasm::MakeI64(0));
    auto& init = b.AddFunction("init", {}, {});
    init.I32Const(seed);
    init.GlobalSet(g0);
    init.I64Const(seed * 3);
    init.GlobalSet(g1);
    for (const int32_t at : {100, 3 * 4096 + 8}) {
      init.I32Const(at);
      init.I32Const(seed + at);
      init.Store(Op::kI32Store);
    }
    init.End();
    auto& f = b.AddFunction("main", {}, {ValType::kI32});
    f.GlobalGet(g0);
    f.End();
    FunctionSpec spec;
    spec.name = name;
    spec.module = Compile(b);
    spec.wasm_init_export = "init";
    auto faaslet = Faaslet::Create(spec, Env());
    EXPECT_TRUE(faaslet.ok()) << faaslet.status().ToString();
    return faaslet.ok() ? faaslet.value()->proto()->Serialize() : Bytes{};
  }

  RealClock clock_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
  GlobalFileStore files_;
};

TEST_F(FaasletTest, NativeFunctionEchoes) {
  FunctionSpec spec;
  spec.name = "echo";
  spec.native = [](InvocationContext& ctx) {
    Bytes out = ctx.Input();
    out.push_back(0xFF);
    ctx.WriteOutput(std::move(out));
    return 0;
  };
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok()) << faaslet.status().ToString();
  auto code = faaslet.value()->Execute(Bytes{1, 2});
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 0);
  EXPECT_EQ(faaslet.value()->TakeOutput(), (Bytes{1, 2, 0xFF}));
}

TEST_F(FaasletTest, WasmEchoThroughHostInterface) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  const uint32_t len = f.AddLocal(ValType::kI32);
  // len = read_input(buf=64, 1024); write_output(64, len); return 7;
  f.I32Const(64);
  f.I32Const(1024);
  f.Call(api.read_input);
  f.LocalSet(len);
  f.I32Const(64);
  f.LocalGet(len);
  f.Call(api.write_output);
  f.I32Const(7);
  f.End();

  FunctionSpec spec;
  spec.name = "wasm_echo";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok()) << faaslet.status().ToString();
  auto code = faaslet.value()->Execute(Bytes{9, 8, 7});
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_EQ(code.value(), 7);
  EXPECT_EQ(faaslet.value()->TakeOutput(), (Bytes{9, 8, 7}));
}

TEST_F(FaasletTest, GuestOutOfBoundsPointerTraps) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 1);
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  // write_output with a pointer outside linear memory must trap, not read
  // host memory.
  f.I32Const(0x7FFFFFF0);
  f.I32Const(64);
  f.Call(api.write_output);
  f.I32Const(0);
  f.End();

  FunctionSpec spec;
  spec.name = "oob";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  auto code = faaslet.value()->Execute({});
  ASSERT_FALSE(code.ok());
  EXPECT_TRUE(wasm::IsTrap(code.status()));
}

TEST_F(FaasletTest, TwoFaasletsShareStateZeroCopy) {
  store_.Set("shared", Bytes(4096, 0x00));

  auto build = [&] {
    wasm::ModuleBuilder b;
    GuestApi api = GuestApi::ImportAll(b);
    b.AddMemory(1, 16);
    auto [key_off, key_len] = GuestString(b, 16, "shared");
    // main: p = get_state("shared", 4096); pull; p[input[0]] += 1; return p[input[0]]
    auto& f = b.AddFunction("main", {}, {ValType::kI32});
    const uint32_t p = f.AddLocal(ValType::kI32);
    const uint32_t idx = f.AddLocal(ValType::kI32);
    f.I32Const(static_cast<int32_t>(key_off));
    f.I32Const(static_cast<int32_t>(key_len));
    f.I32Const(4096);
    f.Call(api.get_state);
    f.LocalSet(p);
    f.I32Const(static_cast<int32_t>(key_off));
    f.I32Const(static_cast<int32_t>(key_len));
    f.Call(api.pull_state);
    // idx = first input byte
    f.I32Const(8);
    f.I32Const(1);
    f.Call(api.read_input);
    f.Drop();
    f.I32Const(8);
    f.Load(Op::kI32Load8U);
    f.LocalSet(idx);
    // p[idx] += 1
    f.LocalGet(p);
    f.LocalGet(idx);
    f.Emit(Op::kI32Add);
    f.LocalGet(p);
    f.LocalGet(idx);
    f.Emit(Op::kI32Add);
    f.Load(Op::kI32Load8U);
    f.I32Const(1);
    f.Emit(Op::kI32Add);
    f.Store(Op::kI32Store8);
    // return p[idx]
    f.LocalGet(p);
    f.LocalGet(idx);
    f.Emit(Op::kI32Add);
    f.Load(Op::kI32Load8U);
    f.End();
    return Compile(b);
  };

  FunctionSpec spec;
  spec.name = "bump";
  spec.module = build();
  auto faaslet_a = Faaslet::Create(spec, Env());
  auto faaslet_b = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet_a.ok());
  ASSERT_TRUE(faaslet_b.ok());

  // A increments slot 5 twice, B once — all through the same physical bytes.
  EXPECT_EQ(faaslet_a.value()->Execute(Bytes{5}).value(), 1);
  EXPECT_EQ(faaslet_a.value()->Execute(Bytes{5}).value(), 2);
  EXPECT_EQ(faaslet_b.value()->Execute(Bytes{5}).value(), 3);
  // Host-side view agrees.
  EXPECT_EQ(tier_.Lookup("shared")->data()[5], 3);
}

TEST_F(FaasletTest, ResetClearsPrivateMemoryBetweenTenants) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 4);
  // main: old = mem[100]; mem[100] = input[0]; return old
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  const uint32_t old = f.AddLocal(ValType::kI32);
  f.I32Const(100);
  f.Load(Op::kI32Load8U);
  f.LocalSet(old);
  f.I32Const(8);
  f.I32Const(1);
  f.Call(api.read_input);
  f.Drop();
  f.I32Const(100);
  f.I32Const(8);
  f.Load(Op::kI32Load8U);
  f.Store(Op::kI32Store8);
  f.LocalGet(old);
  f.End();

  FunctionSpec spec;
  spec.name = "leak_probe";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  // Tenant 1 writes a secret.
  EXPECT_EQ(faaslet.value()->Execute(Bytes{0x77}).value(), 0);
  // Without a reset the secret would leak to the next call.
  EXPECT_EQ(faaslet.value()->Execute(Bytes{0x01}).value(), 0x77);
  // After reset, guaranteed clean (§5.2).
  ASSERT_TRUE(faaslet.value()->Reset().ok());
  EXPECT_EQ(faaslet.value()->Execute(Bytes{0x02}).value(), 0);
}

TEST_F(FaasletTest, RepeatedDirtyResetsStayClean) {
  // Warm resets restore only dirtied pages; leaks would show up as stale
  // bytes surviving a reset. Write to two pages far apart, reset, re-probe —
  // repeatedly, so every reset after the first exercises the delta path.
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  (void)api;
  b.AddMemory(1, 4);
  // main: old = mem[100] + mem[60000]; mem[100] = 5; mem[60000] = 7; return old
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  f.I32Const(100);
  f.Load(Op::kI32Load8U);
  f.I32Const(60000);
  f.Load(Op::kI32Load8U);
  f.Emit(Op::kI32Add);
  f.I32Const(100);
  f.I32Const(5);
  f.Store(Op::kI32Store8);
  f.I32Const(60000);
  f.I32Const(7);
  f.Store(Op::kI32Store8);
  f.End();

  FunctionSpec spec;
  spec.name = "dirty_probe";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(faaslet.value()->Execute({}).value(), 0) << "round " << round;
    ASSERT_TRUE(faaslet.value()->Reset().ok());
  }
  // Without a reset the writes persist — the probe really writes.
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 0);
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 12);
}

TEST_F(FaasletTest, DirtyResetZeroesPagesGrownBySbrk) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 8);
  // main: sbrk(one page); old = mem[70000]; mem[70000] = 9; return old
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  const uint32_t old = f.AddLocal(ValType::kI32);
  f.I32Const(65536);
  f.Call(api.sbrk);
  f.Drop();
  f.I32Const(70000);
  f.Load(Op::kI32Load8U);
  f.LocalSet(old);
  f.I32Const(70000);
  f.I32Const(9);
  f.Store(Op::kI32Store8);
  f.LocalGet(old);
  f.End();

  FunctionSpec spec;
  spec.name = "grow_probe";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 0);
  ASSERT_TRUE(faaslet.value()->Reset().ok());
  // The grown page lies past the creation snapshot; the dirty reset must
  // zero it, not leave the previous call's 9 behind.
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 0);
}

TEST_F(FaasletTest, GuestStoresIntoMappedStateFeedDeltaPush) {
  const size_t state_size = 4 * StateKeyValue::kStatePageBytes;
  store_.Set("shards", Bytes(state_size, 0x00));

  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 16);
  auto [key_off, key_len] = GuestString(b, 16, "shards");
  // main: p = get_state("shards", 4 pages); pull; p[2*page] = 42; return 0
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  const uint32_t p = f.AddLocal(ValType::kI32);
  f.I32Const(static_cast<int32_t>(key_off));
  f.I32Const(static_cast<int32_t>(key_len));
  f.I32Const(static_cast<int32_t>(state_size));
  f.Call(api.get_state);
  f.LocalSet(p);
  f.I32Const(static_cast<int32_t>(key_off));
  f.I32Const(static_cast<int32_t>(key_len));
  f.Call(api.pull_state);
  f.LocalGet(p);
  f.I32Const(static_cast<int32_t>(2 * StateKeyValue::kStatePageBytes));
  f.Emit(Op::kI32Add);
  f.I32Const(42);
  f.Store(Op::kI32Store8);
  f.I32Const(0);
  f.End();

  FunctionSpec spec;
  spec.name = "state_writer";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 0);

  // The raw store through the mapped region was forwarded to the replica's
  // dirty tracker: a host-side delta push ships just the touched page.
  auto kv = tier_.Lookup("shards");
  network_.ResetStats();
  ASSERT_TRUE(kv->Push().ok());
  EXPECT_LT(network_.total_bytes(), 2 * StateKeyValue::kStatePageBytes);
  EXPECT_GT(network_.total_bytes(), 0u);
  EXPECT_EQ(store_.Get("shards").value()[2 * StateKeyValue::kStatePageBytes], 42);
}

TEST_F(FaasletTest, ResetUnmapsSharedState) {
  FunctionSpec spec;
  spec.name = "mapper";
  spec.native = [](InvocationContext&) { return 0; };
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  auto offset = faaslet.value()->MapStateIntoGuest("key1", 4096);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(faaslet.value()->memory().shared_mappings().size(), 1u);
  ASSERT_TRUE(faaslet.value()->Reset().ok());
  EXPECT_TRUE(faaslet.value()->memory().shared_mappings().empty());
  // Remapping after reset works and the replica is the same object.
  auto offset2 = faaslet.value()->MapStateIntoGuest("key1", 4096);
  ASSERT_TRUE(offset2.ok());
}

TEST_F(FaasletTest, ProtoFaasletCrossHostRestore) {
  // "Host 1": create, run init-like work, snapshot, serialise.
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  (void)api;
  b.AddMemory(1, 4);
  uint32_t g = b.AddGlobal(ValType::kI32, true, wasm::MakeI32(0));
  auto& init = b.AddFunction("init", {}, {});
  init.I32Const(1234);
  init.GlobalSet(g);
  init.I32Const(200);
  init.I32Const(99);
  init.Store(Op::kI32Store);
  init.End();
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  f.GlobalGet(g);
  f.I32Const(200);
  f.Load(Op::kI32Load);
  f.Emit(Op::kI32Add);
  f.End();

  FunctionSpec spec;
  spec.name = "proto_fn";
  spec.module = Compile(b);
  spec.wasm_init_export = "init";

  auto original = Faaslet::Create(spec, Env());
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  auto proto = ProtoFaaslet::CaptureFrom(*original.value());
  ASSERT_TRUE(proto.ok());
  Bytes wire = proto.value()->Serialize();

  // "Host 2": deserialise and restore into a fresh Faaslet without running
  // the init code.
  auto remote_proto = ProtoFaaslet::Deserialize(wire);
  ASSERT_TRUE(remote_proto.ok());
  FunctionSpec bare = spec;
  bare.wasm_init_export.clear();  // init must not be needed
  auto restored = Faaslet::CreateFromProto(bare, Env(), remote_proto.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto out = restored.value()->Execute({});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), 1234 + 99);
}

TEST_F(FaasletTest, ProtoFaasletDecoderSurvivesTruncationBitFlipsAndSplices) {
  const Bytes a = SerializedProto("fn_a", 11);
  const Bytes b = SerializedProto("fn_b", 12);
  // Two pages with data: the image is those pages plus small headers.
  EXPECT_LT(a.size(), 2 * 4096 + 128u);

  // A mutant either fails to decode or decodes to a proto that serialises
  // back to a proto, and restores (or refuses to) into a Faaslet of its name.
  wasm::ModuleBuilder mb;
  mb.AddMemory(1, 4);
  mb.AddGlobal(ValType::kI32, true, wasm::MakeI32(0));
  mb.AddGlobal(ValType::kI64, true, wasm::MakeI64(0));
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  f.I32Const(0);
  f.End();
  FunctionSpec spec;
  spec.module = Compile(mb);
  auto check = [&](const Bytes& bytes) {
    auto proto = ProtoFaaslet::Deserialize(bytes);
    if (!proto.ok()) {
      return;
    }
    EXPECT_TRUE(ProtoFaaslet::Deserialize(proto.value()->Serialize()).ok());
    spec.name = proto.value()->function();
    (void)Faaslet::CreateFromProto(spec, Env(), proto.value());
  };
  ASSERT_TRUE(ProtoFaaslet::Deserialize(a).ok());
  for (size_t len = 0; len < a.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    EXPECT_FALSE(ProtoFaaslet::Deserialize(Bytes(a.begin(), a.begin() + len)).ok());
  }
  Bytes trailing = a;
  trailing.push_back(0);
  EXPECT_FALSE(ProtoFaaslet::Deserialize(trailing).ok());
  // Every bit of the name, globals and image headers, and a stride through
  // the page bytes.
  for (size_t bit = 0; bit < a.size() * 8; bit += bit < 80 * 8 ? 1 : 53) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    Bytes mutant = a;
    mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(mutant);
  }
  for (size_t cut = 0; cut <= std::min(a.size(), b.size()); cut += 5) {
    SCOPED_TRACE("splice at " + std::to_string(cut));
    Bytes ab(a.begin(), a.begin() + cut);
    ab.insert(ab.end(), b.begin() + cut, b.end());
    check(ab);
  }
}

TEST_F(FaasletTest, SimulatedInitCapturedBySnapshot) {
  FunctionSpec spec;
  spec.name = "slow_init";
  spec.native = [](InvocationContext&) { return 0; };
  spec.simulated_init_ns = 0;  // keep the test fast; semantics tested via flag
  bool init_ran = false;
  spec.native_init = [&init_ran](InvocationContext&) {
    init_ran = true;
    return OkStatus();
  };
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  EXPECT_TRUE(init_ran);

  // Proto-based creation skips initialisation entirely.
  init_ran = false;
  auto proto = ProtoFaaslet::CaptureFrom(*faaslet.value());
  ASSERT_TRUE(proto.ok());
  auto fast = Faaslet::CreateFromProto(spec, Env(), proto.value());
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(init_ran);
}

TEST_F(FaasletTest, FilesystemFromGuest) {
  files_.Put("/model/params", Bytes{0xAB, 0xCD});

  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 4);
  auto [path_off, path_len] = GuestString(b, 16, "/model/params");
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  const uint32_t fd = f.AddLocal(ValType::kI32);
  f.I32Const(static_cast<int32_t>(path_off));
  f.I32Const(static_cast<int32_t>(path_len));
  f.I32Const(VirtualFilesystem::kOpenRead);
  f.Call(api.open);
  f.LocalSet(fd);
  f.LocalGet(fd);
  f.I32Const(256);  // buffer
  f.I32Const(16);
  f.Call(api.read);
  f.Drop();
  f.LocalGet(fd);
  f.Call(api.close);
  f.Drop();
  f.I32Const(256);
  f.Load(Op::kI32Load8U);
  f.End();

  FunctionSpec spec;
  spec.name = "reader";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 0xAB);
}

TEST_F(FaasletTest, SocketsReachNetworkEndpoints) {
  network_.RegisterEndpoint("datastore", [](const Bytes& request) {
    Bytes response = request;
    for (auto& byte : response) {
      byte ^= 0xFF;
    }
    return response;
  });

  FunctionSpec spec;
  spec.name = "netfn";
  spec.native = [](InvocationContext&) { return 0; };
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  Faaslet& f = *faaslet.value();

  const int fd = f.SocketOpen();
  ASSERT_TRUE(f.SocketConnect(fd, "datastore").ok());
  const Bytes request{0x0F, 0xF0};
  ASSERT_TRUE(f.SocketSend(fd, request.data(), request.size()).ok());
  uint8_t response[2];
  auto n = f.SocketRecv(fd, response, 2);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 2u);
  EXPECT_EQ(response[0], 0xF0);
  EXPECT_EQ(response[1], 0x0F);
  ASSERT_TRUE(f.SocketClose(fd).ok());
  EXPECT_FALSE(f.SocketSend(fd, request.data(), 1).ok());
}

TEST_F(FaasletTest, DynamicLoading) {
  // A library module exporting double(x) = x * 2.
  wasm::ModuleBuilder lib;
  auto& dbl = lib.AddFunction("double", {ValType::kI32}, {ValType::kI32});
  dbl.LocalGet(0);
  dbl.I32Const(2);
  dbl.Emit(Op::kI32Mul);
  dbl.End();
  files_.Put("/lib/libdouble.wasm", lib.Build());

  FunctionSpec spec;
  spec.name = "loader";
  spec.native = [](InvocationContext&) { return 0; };
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  Faaslet& f = *faaslet.value();

  auto handle = f.DlOpen("/lib/libdouble.wasm");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto symbol = f.DlSym(handle.value(), "double");
  ASSERT_TRUE(symbol.ok());
  EXPECT_EQ(f.DynCall(symbol.value(), 21).value(), 42);
  EXPECT_EQ(f.DlSym(handle.value(), "nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(f.DlClose(handle.value()).ok());
  EXPECT_FALSE(f.DynCall(symbol.value(), 1).ok());
}

TEST_F(FaasletTest, GetTimeAndRandomFromGuest) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  // getrandom(64, 8); return first byte ^ (gettime() != 0 is not asserted)
  f.I32Const(64);
  f.I32Const(8);
  f.Call(api.getrandom);
  f.Drop();
  f.Call(api.gettime);
  f.Drop();
  f.I32Const(64);
  f.Load(Op::kI32Load8U);
  f.End();

  FunctionSpec spec;
  spec.name = "entropy";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  auto out = faaslet.value()->Execute({});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST_F(FaasletTest, SbrkGrowsWithinLimit) {
  wasm::ModuleBuilder b;
  GuestApi api = GuestApi::ImportAll(b);
  b.AddMemory(1, 8);  // module allows more than the function's limit below
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  f.I32Const(100000);  // ~2 pages
  f.Call(api.sbrk);
  f.End();

  FunctionSpec spec;
  spec.name = "grower";
  spec.module = Compile(b);
  spec.max_memory_pages = 5;
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  EXPECT_EQ(faaslet.value()->Execute({}).value(), 65536);  // old end
  EXPECT_EQ(faaslet.value()->memory().size_pages(), 3u);

  // Growing past the function limit traps.
  auto again = faaslet.value()->Execute({});
  ASSERT_TRUE(again.ok());
  auto third = faaslet.value()->Execute({});
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(wasm::IsTrap(third.status()));
}

TEST_F(FaasletTest, FootprintIsHundredsOfKilobytes) {
  wasm::ModuleBuilder b;
  b.AddMemory(1, 4);
  auto& f = b.AddFunction("main", {}, {ValType::kI32});
  f.I32Const(0);
  f.End();
  FunctionSpec spec;
  spec.name = "noop";
  spec.module = Compile(b);
  auto faaslet = Faaslet::Create(spec, Env());
  ASSERT_TRUE(faaslet.ok());
  // Table 3 target regime: well under a megabyte.
  EXPECT_LT(faaslet.value()->FootprintBytes(), 512u * 1024);
  EXPECT_GT(faaslet.value()->FootprintBytes(), 32u * 1024);
}

}  // namespace
}  // namespace faasm

// The call, file, socket and dynamic-linking imports of the host interface
// (Table 2) that no driver runs: input_size, chain_call, await_call,
// get_call_output, write, dup, seek, stat_size, the five socket imports and
// the four dl* imports. Each case generates a guest whose main makes the
// import call (behind the calls it needs first, such as an open) and returns
// the import's result as its exit code. With valid pointers the call
// reaches the runtime hooks, the virtual filesystem, the network or the
// loaded module. With a hostile pointer (past the memory end, straddling it,
// or a length that wraps the 32-bit address space) the call traps before
// anything reaches the host.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/faaslet.h"
#include "core/guest_api.h"
#include "sim/sim_clock.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

using wasm::Op;
using wasm::ValType;
using GuestBody = std::function<void(wasm::FunctionBuilder&, const GuestApi&)>;

// Guest memory: one page that cannot grow, holding the strings below and a
// scratch buffer at kBufAt.
constexpr uint32_t kMemoryEnd = kWasmPageBytes;
constexpr uint32_t kNameAt = 16;   // "callee"
constexpr uint32_t kBytesAt = 32;  // kBytes
constexpr uint32_t kDataAt = 48;   // "/data.txt"
constexpr uint32_t kOutAt = 64;    // "/out.txt"
constexpr uint32_t kHostAt = 80;   // "echo"
constexpr uint32_t kLibAt = 96;    // "/lib.wasm"
constexpr uint32_t kSymAt = 112;   // "twice"
constexpr uint32_t kBufAt = 256;
const Bytes kBytes = {1, 2, 3, 4, 5, 6, 7, 8};
const Bytes kFileBytes = BytesFromString("hello world");
const Bytes kCallOutput = BytesFromString("out!");
constexpr uint64_t kCallId = 42;
constexpr int kAwaitedCode = 7;

// Hostile (pointer, length) pairs for a buffer the host reads.
const std::vector<std::pair<uint32_t, uint32_t>> kHostileInputs = {
    {kMemoryEnd, 1},        // starts past the end
    {kMemoryEnd - 1, 2},    // straddles the end
    {kNameAt, 0xFFFFFFFFu}, // length wraps the address space
    {0xFFFFFFFFu, 2},       // pointer + length wraps to 1
};

// Pushes `args` as i32 constants and calls `import`.
void Emit(wasm::FunctionBuilder& f, const GuestApi& api, uint32_t GuestApi::*import,
          const std::vector<uint32_t>& args) {
  for (uint32_t arg : args) {
    f.I32Const(static_cast<int32_t>(arg));
  }
  f.Call(api.*import);
}

// A guest that makes one import call and exits with its result.
GuestBody OneCall(uint32_t GuestApi::*import, std::vector<uint32_t> args) {
  return [import, args](wasm::FunctionBuilder& f, const GuestApi& api) {
    Emit(f, api, import, args);
  };
}

// The i32 result of open(path) on the stack.
void EmitOpen(wasm::FunctionBuilder& f, const GuestApi& api, uint32_t path_at, uint32_t path_len,
              int flags) {
  Emit(f, api, &GuestApi::open, {path_at, path_len, static_cast<uint32_t>(flags)});
}

class HostImportsTest : public ::testing::Test {
 protected:
  HostImportsTest()
      : network_(&executor_.clock(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &executor_.clock()) {
    files_.Put("/data.txt", kFileBytes);
    // A library exporting twice(x) = 2x.
    wasm::ModuleBuilder lib;
    auto& twice = lib.AddFunction("twice", {ValType::kI32}, {ValType::kI32});
    twice.LocalGet(0);
    twice.I32Const(2);
    twice.Emit(Op::kI32Mul);
    twice.End();
    files_.Put("/lib.wasm", lib.Build());
    // Answers each request with its bytes reversed.
    network_.RegisterEndpoint("echo", [](const Bytes& request) {
      return Bytes(request.rbegin(), request.rend());
    });
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  // Runs a guest whose main is `body` (which leaves the exit code on the
  // stack) on `input`, in an activity of its own. The Faaslet stays in
  // faaslet_ for inspection.
  Result<int> Run(const GuestBody& body, const Bytes& input = {}) {
    wasm::ModuleBuilder b;
    const GuestApi api = GuestApi::ImportAll(b);
    b.AddMemory(1, 1);
    b.AddData(kNameAt, BytesFromString("callee"));
    b.AddData(kBytesAt, kBytes);
    b.AddData(kDataAt, BytesFromString("/data.txt"));
    b.AddData(kOutAt, BytesFromString("/out.txt"));
    b.AddData(kHostAt, BytesFromString("echo"));
    b.AddData(kLibAt, BytesFromString("/lib.wasm"));
    b.AddData(kSymAt, BytesFromString("twice"));
    auto& f = b.AddFunction("main", {}, {ValType::kI32});
    body(f, api);
    f.End();
    auto decoded = wasm::DecodeModule(b.Build());
    FAASM_RETURN_IF_ERROR(decoded.status());
    FunctionSpec spec;
    spec.name = "guest";
    FAASM_ASSIGN_OR_RETURN(spec.module, wasm::CompileModule(std::move(decoded).value()));
    FaasletEnv env;
    env.clock = &executor_.clock();
    env.tier = &tier_;
    env.files = &files_;
    env.network = &network_;
    env.host_endpoint = "host-0";
    env.chain = [this](const std::string& name, Bytes input) -> Result<uint64_t> {
      chained_.emplace_back(name, std::move(input));
      return kCallId;
    };
    env.await = [](uint64_t id) -> Result<int> {
      if (id != kCallId) {
        return NotFound("no such call");
      }
      return kAwaitedCode;
    };
    env.get_output = [](uint64_t id) -> Result<Bytes> {
      if (id != kCallId) {
        return NotFound("no such call");
      }
      return kCallOutput;
    };
    Result<int> code = Internal("guest never ran");
    executor_.Spawn([&] {
      auto faaslet = Faaslet::Create(spec, env);
      if (!faaslet.ok()) {
        code = faaslet.status();
        return;
      }
      faaslet_ = std::move(faaslet).value();
      code = faaslet_->Execute(input);
    });
    executor_.JoinAll();
    return code;
  }

  int Runs(const GuestBody& body, const Bytes& input = {}) {
    Result<int> code = Run(body, input);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    return code.ok() ? code.value() : -1;
  }

  void ExpectTraps(const GuestBody& body) {
    Result<int> code = Run(body);
    ASSERT_FALSE(code.ok());
    EXPECT_TRUE(wasm::IsTrap(code.status())) << code.status().ToString();
  }

  // `len` guest bytes from `at` in the last Faaslet's memory.
  Bytes GuestBytes(uint32_t at, size_t len) {
    const uint8_t* base = faaslet_->memory().base() + at;
    return Bytes(base, base + len);
  }

  SimExecutor executor_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
  GlobalFileStore files_;
  std::vector<std::pair<std::string, Bytes>> chained_;
  std::unique_ptr<Faaslet> faaslet_;
};

TEST_F(HostImportsTest, CallImports) {
  // input_size: the call's input length.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) { f.Call(api.input_size); }, Bytes(5, 1)), 5);

  // chain_call hands the name and input to the runtime and answers its id.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              Emit(f, api, &GuestApi::chain_call, {kNameAt, 6, kBytesAt, 8});
              f.Emit(Op::kI32WrapI64);
            }),
            static_cast<int>(kCallId));
  ASSERT_EQ(chained_.size(), 1u);
  EXPECT_EQ(chained_[0].first, "callee");
  EXPECT_EQ(chained_[0].second, kBytes);

  // await_call answers the awaited call's exit code; an unknown id traps.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              f.I64Const(kCallId);
              f.Call(api.await_call);
            }),
            kAwaitedCode);
  ExpectTraps([](auto& f, const GuestApi& api) {
    f.I64Const(kCallId + 1);
    f.Call(api.await_call);
  });

  // get_call_output copies the output into the guest, clipped to the buffer.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              f.I64Const(kCallId);
              f.I32Const(kBufAt);
              f.I32Const(64);
              f.Call(api.get_call_output);
            }),
            4);
  EXPECT_EQ(GuestBytes(kBufAt, 4), kCallOutput);
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              f.I64Const(kCallId);
              f.I32Const(kBufAt);
              f.I32Const(2);
              f.Call(api.get_call_output);
            }),
            2);
}

TEST_F(HostImportsTest, CallImportsTrapOnHostileBuffers) {
  for (const auto& [ptr, len] : kHostileInputs) {
    SCOPED_TRACE(std::to_string(ptr) + ", " + std::to_string(len));
    const uint32_t p = ptr;
    const uint32_t n = len;
    ExpectTraps([&](auto& f, const GuestApi& api) {
      Emit(f, api, &GuestApi::chain_call, {p, n, kBytesAt, 8});
      f.Emit(Op::kI32WrapI64);
    });
    ExpectTraps([&](auto& f, const GuestApi& api) {
      Emit(f, api, &GuestApi::chain_call, {kNameAt, 6, p, n});
      f.Emit(Op::kI32WrapI64);
    });
  }
  EXPECT_TRUE(chained_.empty()) << "a hostile chain reached the runtime";
  // get_call_output writes min(output, buffer) bytes: a buffer that cannot
  // take them traps.
  for (const auto& [ptr, len] :
       std::vector<std::pair<uint32_t, uint32_t>>{{kMemoryEnd, 4}, {kMemoryEnd - 1, 4},
                                                  {0xFFFFFFFFu, 4}}) {
    const uint32_t p = ptr;
    const uint32_t n = len;
    ExpectTraps([&](auto& f, const GuestApi& api) {
      f.I64Const(kCallId);
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.get_call_output);
    });
  }
}

TEST_F(HostImportsTest, FileImports) {
  // write: bytes land in the Faaslet's overlay, never in the global store.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              EmitOpen(f, api, kOutAt, 8,
                       VirtualFilesystem::kOpenWrite | VirtualFilesystem::kOpenCreate);
              f.I32Const(kBytesAt);
              f.I32Const(8);
              f.Call(api.write);
            }),
            8);
  EXPECT_EQ(faaslet_->vfs().StatPath("/out.txt").value().size, 8u);
  EXPECT_FALSE(files_.Get("/out.txt").ok());
  // write to an fd that is not open traps.
  ExpectTraps(OneCall(&GuestApi::write, {99, kBytesAt, 8}));

  // dup: a second fd on the same file; -1 for an fd that is not open.
  const int fd_pair = Runs([](auto& f, const GuestApi& api) {
    const uint32_t fd = f.AddLocal(ValType::kI32);
    EmitOpen(f, api, kDataAt, 9, VirtualFilesystem::kOpenRead);
    f.LocalSet(fd);
    f.LocalGet(fd);
    f.Call(api.dup);
    f.LocalGet(fd);
    f.Emit(Op::kI32Sub);  // dup(fd) - fd
  });
  EXPECT_NE(fd_pair, 0);
  EXPECT_EQ(Runs(OneCall(&GuestApi::dup, {99})), -1);

  // seek moves the cursor: a read after seek(6) sees "world".
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              const uint32_t fd = f.AddLocal(ValType::kI32);
              EmitOpen(f, api, kDataAt, 9, VirtualFilesystem::kOpenRead);
              f.LocalSet(fd);
              f.LocalGet(fd);
              f.I32Const(6);
              f.Call(api.seek);
              f.Drop();
              f.LocalGet(fd);
              f.I32Const(kBufAt);
              f.I32Const(64);
              f.Call(api.read);
            }),
            5);
  EXPECT_EQ(GuestBytes(kBufAt, 5), BytesFromString("world"));
  EXPECT_EQ(Runs(OneCall(&GuestApi::seek, {99, 0})), -1);

  // stat_size: the file's size; -1 for a missing path.
  EXPECT_EQ(Runs(OneCall(&GuestApi::stat_size, {kDataAt, 9})),
            static_cast<int>(kFileBytes.size()));
  EXPECT_EQ(Runs(OneCall(&GuestApi::stat_size, {kOutAt, 8})),
            -1);
}

TEST_F(HostImportsTest, FileImportsTrapOnHostileBuffers) {
  for (const auto& [ptr, len] : kHostileInputs) {
    SCOPED_TRACE(std::to_string(ptr) + ", " + std::to_string(len));
    const uint32_t p = ptr;
    const uint32_t n = len;
    ExpectTraps([&](auto& f, const GuestApi& api) { Emit(f, api, &GuestApi::stat_size, {p, n}); });
    ExpectTraps([&](auto& f, const GuestApi& api) {
      const uint32_t fd = f.AddLocal(ValType::kI32);
      EmitOpen(f, api, kOutAt, 8, VirtualFilesystem::kOpenWrite | VirtualFilesystem::kOpenCreate);
      f.LocalSet(fd);
      f.LocalGet(fd);
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.write);
    });
    // The trap left nothing written.
    EXPECT_EQ(faaslet_->vfs().StatPath("/out.txt").value().size, 0u);
  }
}

TEST_F(HostImportsTest, SocketImports) {
  // socket, connect, send, recv, socket_close in one call: the request
  // crosses the shaped interface and the echo's answer lands in the guest.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              const uint32_t fd = f.AddLocal(ValType::kI32);
              const uint32_t got = f.AddLocal(ValType::kI32);
              f.Call(api.socket);
              f.LocalSet(fd);
              f.LocalGet(fd);
              f.I32Const(kHostAt);
              f.I32Const(4);
              f.Call(api.connect);
              f.Drop();
              f.LocalGet(fd);
              f.I32Const(kBytesAt);
              f.I32Const(8);
              f.Call(api.send);
              f.Drop();
              f.LocalGet(fd);
              f.I32Const(kBufAt);
              f.I32Const(64);
              f.Call(api.recv);
              f.LocalSet(got);
              f.LocalGet(fd);
              f.Call(api.socket_close);
              f.LocalGet(got);
              f.Emit(Op::kI32Add);  // socket_close answers 0
            }),
            8);
  EXPECT_EQ(GuestBytes(kBufAt, 8), Bytes(kBytes.rbegin(), kBytes.rend()));
  EXPECT_GE(network_.StatsFor("host-0").tx_messages, 1u);

  // connect and socket_close answer -1 for an fd that is not open; send and
  // recv on one trap.
  EXPECT_EQ(Runs(OneCall(&GuestApi::connect, {99, kHostAt, 4})),
            -1);
  EXPECT_EQ(Runs(OneCall(&GuestApi::socket_close, {99})),
            -1);
  ExpectTraps(OneCall(&GuestApi::send, {99, kBytesAt, 8}));
  ExpectTraps(OneCall(&GuestApi::recv, {99, kBufAt, 8}));
}

TEST_F(HostImportsTest, SocketImportsTrapOnHostileBuffers) {
  // Opens and connects a socket into local `fd`.
  auto connected = [](wasm::FunctionBuilder& f, const GuestApi& api, uint32_t fd) {
    f.Call(api.socket);
    f.LocalSet(fd);
    f.LocalGet(fd);
    f.I32Const(kHostAt);
    f.I32Const(4);
    f.Call(api.connect);
    f.Drop();
  };
  for (const auto& [ptr, len] : kHostileInputs) {
    SCOPED_TRACE(std::to_string(ptr) + ", " + std::to_string(len));
    const uint32_t p = ptr;
    const uint32_t n = len;
    ExpectTraps([&](auto& f, const GuestApi& api) {
      f.Call(api.socket);
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.connect);
    });
    ExpectTraps([&](auto& f, const GuestApi& api) {
      const uint32_t fd = f.AddLocal(ValType::kI32);
      connected(f, api, fd);
      f.LocalGet(fd);
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.send);
    });
    // recv's buffer is checked before anything is sent or staged.
    network_.ResetStats();
    ExpectTraps([&](auto& f, const GuestApi& api) {
      const uint32_t fd = f.AddLocal(ValType::kI32);
      connected(f, api, fd);
      f.LocalGet(fd);
      f.I32Const(kBytesAt);
      f.I32Const(8);
      f.Call(api.send);
      f.Drop();
      f.LocalGet(fd);
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.recv);
    });
    EXPECT_EQ(network_.StatsFor("host-0").tx_messages, 0u);
  }
}

TEST_F(HostImportsTest, DynamicLinkingImports) {
  // dlopen, dlsym, dyn_call, dlclose in one call: twice(21) from the
  // library, plus dlclose's 0.
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              const uint32_t handle = f.AddLocal(ValType::kI32);
              const uint32_t out = f.AddLocal(ValType::kI32);
              Emit(f, api, &GuestApi::dlopen, {kLibAt, 9});
              f.LocalSet(handle);
              f.LocalGet(handle);
              f.I32Const(kSymAt);
              f.I32Const(5);
              f.Call(api.dlsym);
              f.I32Const(21);
              f.Call(api.dyn_call);
              f.LocalSet(out);
              f.LocalGet(handle);
              f.Call(api.dlclose);
              f.LocalGet(out);
              f.Emit(Op::kI32Add);
            }),
            42);
  // A missing library, a missing symbol and a bad handle answer -1; a call
  // through a symbol id never handed out traps.
  EXPECT_EQ(Runs(OneCall(&GuestApi::dlopen, {kDataAt, 4})),
            -1);
  EXPECT_EQ(Runs([](auto& f, const GuestApi& api) {
              Emit(f, api, &GuestApi::dlopen, {kLibAt, 9});
              f.I32Const(kNameAt);
              f.I32Const(6);
              f.Call(api.dlsym);
            }),
            -1);
  EXPECT_EQ(Runs(OneCall(&GuestApi::dlclose, {7})), -1);
  ExpectTraps(OneCall(&GuestApi::dyn_call, {7, 1}));
}

TEST_F(HostImportsTest, DynamicLinkingImportsTrapOnHostileBuffers) {
  for (const auto& [ptr, len] : kHostileInputs) {
    SCOPED_TRACE(std::to_string(ptr) + ", " + std::to_string(len));
    const uint32_t p = ptr;
    const uint32_t n = len;
    ExpectTraps([&](auto& f, const GuestApi& api) { Emit(f, api, &GuestApi::dlopen, {p, n}); });
    ExpectTraps([&](auto& f, const GuestApi& api) {
      Emit(f, api, &GuestApi::dlopen, {kLibAt, 9});
      f.I32Const(static_cast<int32_t>(p));
      f.I32Const(static_cast<int32_t>(n));
      f.Call(api.dlsym);
    });
  }
}

}  // namespace
}  // namespace faasm

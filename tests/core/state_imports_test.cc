// The state and lock imports of the host interface (Table 2): set_state,
// push_state, push_state_offset, pull_state_offset, append_state and the
// eight lock imports. Each case generates a guest whose main makes exactly
// one import call. With valid pointers the call reaches the two-tier state
// (the local replica, the global tier, the local and global locks). With a
// hostile pointer (past the memory end, straddling it, or a length that
// wraps the 32-bit address space) or a state range past the value, the call
// traps before it touches either tier or any lock.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/faaslet.h"
#include "core/guest_api.h"
#include "sim/sim_clock.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

using Import = uint32_t GuestApi::*;

// Guest memory: one page that cannot grow, the key at kKeyAt and kData at
// kDataAt.
constexpr uint32_t kMemoryEnd = kWasmPageBytes;
constexpr uint32_t kKeyAt = 16;
constexpr uint32_t kDataAt = 64;
const std::string kKey = "k";
const Bytes kData = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr uint32_t kKeyLen = 1;
constexpr uint32_t kDataLen = 8;

// Hostile (pointer, length) pairs for a guest buffer.
const std::vector<std::pair<uint32_t, uint32_t>> kHostileBuffers = {
    {kMemoryEnd, 1},           // starts past the end
    {kMemoryEnd - 1, 2},       // straddles the end
    {kKeyAt, 0xFFFFFFFFu},     // length wraps the address space
    {0xFFFFFFFFu, 2},          // pointer + length wraps to 1
};

class StateImportsTest : public ::testing::Test {
 protected:
  StateImportsTest()
      : network_(&executor_.clock(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &executor_.clock()) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  // Runs a guest whose main calls `import` with `args` and returns 0. Call
  // from a simulated activity.
  Result<int> Call(Import import, const std::vector<uint32_t>& args) {
    wasm::ModuleBuilder b;
    const GuestApi api = GuestApi::ImportAll(b);
    b.AddMemory(1, 1);
    b.AddData(kKeyAt, BytesFromString(kKey));
    b.AddData(kDataAt, kData);
    auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
    for (uint32_t arg : args) {
      f.I32Const(static_cast<int32_t>(arg));
    }
    f.Call(api.*import);
    f.I32Const(0);
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
    FAASM_ASSIGN_OR_RETURN(std::unique_ptr<Faaslet> faaslet, Faaslet::Create(spec, env));
    return faaslet->Execute({});
  }

  // Call() in an activity of its own, waited out.
  Result<int> Run(Import import, const std::vector<uint32_t>& args) {
    Result<int> code = Internal("guest never ran");
    executor_.Spawn([&] { code = Call(import, args); });
    executor_.JoinAll();
    return code;
  }

  void ExpectRuns(Import import, const std::vector<uint32_t>& args) {
    Result<int> code = Run(import, args);
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    EXPECT_EQ(code.value(), 0);
  }

  // Checks that the key's local lock excludes a host writer until `unlock`
  // (an import taking no more than the key) runs in a second guest.
  void ExpectLocalLockHeldUntil(Import unlock) {
    TimeNs writer_in_at = -1;
    TimeNs unlocked_at = -1;
    std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
    executor_.Spawn([&] {
      kv->LockWrite();
      writer_in_at = executor_.clock().Now();
      kv->UnlockWrite();
    });
    executor_.Spawn([&] {
      executor_.clock().SleepFor(kMillisecond);
      unlocked_at = executor_.clock().Now();
      EXPECT_TRUE(Call(unlock, {kKeyAt, kKeyLen}).ok());
    });
    executor_.JoinAll();
    EXPECT_GE(writer_in_at, unlocked_at);
  }

  // The global tier's whole footprint (values, locks, set members), one
  // key per entry.
  std::map<std::string, KeyExport> GlobalContent() {
    std::map<std::string, KeyExport> content;
    for (const std::string& key : store_.Keys()) {
      content[key] = store_.ExportKey(key);
    }
    return content;
  }

  bool GlobalContentIs(const std::map<std::string, KeyExport>& expected) {
    const std::map<std::string, KeyExport> now = GlobalContent();
    if (now.size() != expected.size()) {
      return false;
    }
    for (const auto& [key, record] : expected) {
      auto it = now.find(key);
      if (it == now.end() || !it->second.SameContent(record)) {
        return false;
      }
    }
    return true;
  }

  // The local replica's bytes ({} while unallocated).
  Bytes LocalBytes() {
    std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
    return kv->allocated() ? Bytes(kv->data(), kv->data() + kv->size()) : Bytes{};
  }

  SimExecutor executor_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
  GlobalFileStore files_;
};

TEST_F(StateImportsTest, ValidPointersReachTheStateTiers) {
  ASSERT_TRUE(store_.Set(kKey, Bytes(kDataLen, 0)).ok());

  // set_state writes the local replica only.
  ExpectRuns(&GuestApi::set_state, {kKeyAt, kKeyLen, kDataAt, kDataLen});
  EXPECT_EQ(LocalBytes(), kData);
  EXPECT_EQ(store_.Get(kKey).value(), Bytes(kDataLen, 0));

  // push_state_offset ships the chunk, push_state the rest.
  ExpectRuns(&GuestApi::push_state_offset, {kKeyAt, kKeyLen, 0, 4});
  EXPECT_EQ(store_.Get(kKey).value(), (Bytes{1, 2, 3, 4, 0, 0, 0, 0}));
  ExpectRuns(&GuestApi::push_state, {kKeyAt, kKeyLen});
  EXPECT_EQ(store_.Get(kKey).value(), kData);

  // pull_state_offset fetches a chunk of a value the replica never held.
  tier_.Lookup(kKey)->InvalidateReplica();
  ASSERT_TRUE(store_.Set(kKey, Bytes(kDataLen, 9)).ok());
  ExpectRuns(&GuestApi::pull_state_offset, {kKeyAt, kKeyLen, 2, 4});
  EXPECT_EQ(LocalBytes(), Bytes(kDataLen, 9));

  // append_state appends to the key's log in the global tier.
  ExpectRuns(&GuestApi::append_state, {kKeyAt, kKeyLen, kDataAt, 3});
  ExpectRuns(&GuestApi::append_state, {kKeyAt, kKeyLen, kDataAt + 7, 1});
  EXPECT_EQ(store_.Get(kKey + ":log").value(), (Bytes{1, 2, 3, 8}));

  // The global locks, held in the global tier by this host between a guest
  // that locks and a guest that unlocks.
  ExpectRuns(&GuestApi::lock_state_global_write, {kKeyAt, kKeyLen});
  EXPECT_FALSE(store_.TryLockRead(kKey, "other").value());
  ExpectRuns(&GuestApi::unlock_state_global_write, {kKeyAt, kKeyLen});
  ExpectRuns(&GuestApi::lock_state_global_read, {kKeyAt, kKeyLen});
  EXPECT_FALSE(store_.TryLockWrite(kKey, "other").value());
  EXPECT_TRUE(store_.TryLockRead(kKey, "other").value());
  ASSERT_TRUE(store_.UnlockRead(kKey, "other").ok());
  ExpectRuns(&GuestApi::unlock_state_global_read, {kKeyAt, kKeyLen});
  EXPECT_TRUE(store_.TryLockWrite(kKey, "other").value());
  ASSERT_TRUE(store_.UnlockWrite(kKey, "other").ok());

  // The local locks exclude a host writer until the unlocking guest runs.
  ExpectRuns(&GuestApi::lock_state_write, {kKeyAt, kKeyLen});
  ExpectLocalLockHeldUntil(&GuestApi::unlock_state_write);
  ExpectRuns(&GuestApi::lock_state_read, {kKeyAt, kKeyLen});
  ExpectLocalLockHeldUntil(&GuestApi::unlock_state_read);
}

TEST_F(StateImportsTest, HostilePointersTrapBeforeTouchingState) {
  ASSERT_TRUE(store_.Set(kKey, kData).ok());
  ExpectRuns(&GuestApi::pull_state_offset, {kKeyAt, kKeyLen, 0, kDataLen});
  ASSERT_EQ(LocalBytes(), kData);

  // Every import with each hostile key buffer; the imports that read guest
  // data with each hostile data buffer behind a valid key; the chunk
  // imports with state ranges past the value.
  struct Case {
    const char* name;
    Import import;
    std::vector<uint32_t> args;
  };
  const std::vector<std::pair<const char*, Import>> key_only = {
      {"push_state", &GuestApi::push_state},
      {"lock_state_read", &GuestApi::lock_state_read},
      {"unlock_state_read", &GuestApi::unlock_state_read},
      {"lock_state_write", &GuestApi::lock_state_write},
      {"unlock_state_write", &GuestApi::unlock_state_write},
      {"lock_state_global_read", &GuestApi::lock_state_global_read},
      {"unlock_state_global_read", &GuestApi::unlock_state_global_read},
      {"lock_state_global_write", &GuestApi::lock_state_global_write},
      {"unlock_state_global_write", &GuestApi::unlock_state_global_write},
  };
  const std::vector<std::pair<const char*, Import>> key_and_data = {
      {"set_state", &GuestApi::set_state},
      {"append_state", &GuestApi::append_state},
  };
  const std::vector<std::pair<const char*, Import>> key_and_range = {
      {"push_state_offset", &GuestApi::push_state_offset},
      {"pull_state_offset", &GuestApi::pull_state_offset},
  };
  std::vector<Case> cases;
  for (const auto& [ptr, len] : kHostileBuffers) {
    for (const auto& [name, import] : key_only) {
      cases.push_back({name, import, {ptr, len}});
    }
    for (const auto& [name, import] : key_and_data) {
      cases.push_back({name, import, {ptr, len, kDataAt, kDataLen}});
      cases.push_back({name, import, {kKeyAt, kKeyLen, ptr, len}});
    }
    for (const auto& [name, import] : key_and_range) {
      cases.push_back({name, import, {ptr, len, 0, kDataLen}});
    }
  }
  for (const auto& [name, import] : key_and_range) {
    cases.push_back({name, import, {kKeyAt, kKeyLen, kDataLen, 1}});
    cases.push_back({name, import, {kKeyAt, kKeyLen, 0xFFFFFFFFu, 2}});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " (" + std::to_string(c.args[0]) + ", " +
                 std::to_string(c.args[1]) + ", ...)");
    const auto global_before = GlobalContent();
    Result<int> code = Run(c.import, c.args);
    ASSERT_FALSE(code.ok());
    EXPECT_TRUE(wasm::IsTrap(code.status())) << code.status().ToString();
    EXPECT_TRUE(GlobalContentIs(global_before)) << "the global tier changed";
    EXPECT_EQ(LocalBytes(), kData);
  }
  // No local lock leaked: a host writer gets straight in (a leaked lock
  // would keep it polling until the test's timeout).
  std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
  const TimeNs start = executor_.clock().Now();
  TimeNs writer_in_at = -1;
  executor_.Spawn([&] {
    kv->LockWrite();
    writer_in_at = executor_.clock().Now();
    kv->UnlockWrite();
  });
  executor_.JoinAll();
  EXPECT_EQ(writer_in_at, start);
}

}  // namespace
}  // namespace faasm

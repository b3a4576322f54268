// The state and lock imports of the host interface (Table 2): set_state,
// push_state, push_state_offset, pull_state_offset, append_state and the
// eight lock imports. Each case generates a guest whose main makes one
// import call (or a short sequence of them). With valid pointers the call
// reaches the two-tier state (the local replica, the global tier, the local
// and global locks). With a hostile pointer (past the memory end, straddling
// it, or a length that wraps the 32-bit address space) or a state range past
// the value, the call traps before it touches either tier or any lock.
//
// The runtime's own keys (proto:<fn> images and warm:<fn> sets) are out of
// a guest's reach: every import that names one traps with kPermissionDenied
// before it touches either tier.
//
// The local locks belong to the call that took them: an unlock the call does
// not hold traps, an import that would wait on the call's own lock traps
// instead of polling forever, and whatever the call still holds when it
// returns or traps is released.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include <functional>

#include "core/faaslet.h"
#include "core/guest_api.h"
#include "sim/sim_clock.h"
#include "wasm/decoder.h"

namespace faasm {
namespace {

using Import = uint32_t GuestApi::*;
// Emits the body of a generated guest's main, which must leave its i32 exit
// code on the stack.
using GuestBody = std::function<void(wasm::FunctionBuilder&, const GuestApi&)>;

// How long await_call parks the guest: the window in which a local lock the
// call took must keep a host writer out.
constexpr TimeNs kAwaitNs = kMillisecond;
// How long a host locker waits before it decides a lock leaked and releases
// it itself, so that a leak fails a test instead of hanging it.
constexpr TimeNs kRescueAfterNs = 10 * kMillisecond;

// Pushes `args` as i32 constants and calls `import`.
void Emit(wasm::FunctionBuilder& f, const GuestApi& api, Import import,
          const std::vector<uint32_t>& args) {
  for (uint32_t arg : args) {
    f.I32Const(static_cast<int32_t>(arg));
  }
  f.Call(api.*import);
}

// True for a trap raised by an import that refused with `code`.
bool IsTrapWith(const Status& status, const std::string& code) {
  return wasm::IsTrap(status) && status.ToString().find("(" + code) != std::string::npos;
}

bool IsPreconditionTrap(const Status& status) {
  return IsTrapWith(status, "FAILED_PRECONDITION");
}

// Guest memory: one page that cannot grow, the key at kKeyAt and kData at
// kDataAt.
constexpr uint32_t kMemoryEnd = kWasmPageBytes;
constexpr uint32_t kKeyAt = 16;
constexpr uint32_t kDataAt = 64;
const std::string kKey = "k";
const Bytes kData = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr uint32_t kKeyLen = 1;
constexpr uint32_t kDataLen = 8;
// Keys the runtime reserves, at kReservedAt[i].
const std::vector<std::string> kReservedKeys = {"proto:victim", "warm:victim"};
const std::vector<uint32_t> kReservedAt = {128, 160};

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
    return CallGuest([&](wasm::FunctionBuilder& f, const GuestApi& api) {
      Emit(f, api, import, args);
      f.I32Const(0);
    });
  }

  // Runs a guest whose main is `body`. Its await_call parks for kAwaitNs.
  // Call from a simulated activity.
  Result<int> CallGuest(const GuestBody& body) {
    wasm::ModuleBuilder b;
    const GuestApi api = GuestApi::ImportAll(b);
    b.AddMemory(1, 1);
    b.AddData(kKeyAt, BytesFromString(kKey));
    b.AddData(kDataAt, kData);
    for (size_t i = 0; i < kReservedKeys.size(); ++i) {
      b.AddData(kReservedAt[i], BytesFromString(kReservedKeys[i]));
    }
    auto& f = b.AddFunction("main", {}, {wasm::ValType::kI32});
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
    env.await = [this](uint64_t) -> Result<int> {
      executor_.clock().SleepFor(kAwaitNs);
      return 0;
    };
    FAASM_ASSIGN_OR_RETURN(std::unique_ptr<Faaslet> faaslet, Faaslet::Create(spec, env));
    return faaslet->Execute({});
  }

  // CallGuest() in an activity of its own, waited out. A guest still
  // running after kRescueAfterNs (one waiting on a local lock forever) is
  // released by unlocking the key's local lock on its behalf, and the run
  // counts as rescued.
  Result<int> RunGuest(const GuestBody& body, bool* rescued = nullptr) {
    Result<int> code = Internal("guest never ran");
    bool done = false;
    bool rescue = false;
    std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
    executor_.Spawn([&] {
      code = CallGuest(body);
      done = true;
    });
    executor_.Spawn([&] {
      executor_.clock().SleepFor(kRescueAfterNs);
      if (!done) {
        rescue = true;
        kv->UnlockWrite();
        kv->UnlockRead();
      }
    });
    executor_.JoinAll();
    if (rescued != nullptr) {
      *rescued = rescue;
    }
    return code;
  }

  // How long a host writer (or reader) that asks for the key's local lock
  // now waits for it, up to kRescueAfterNs; at that point the lock counts as
  // leaked and is released on the holder's behalf so the wait ends.
  TimeNs HostLockWait(bool write) {
    std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
    const TimeNs start = executor_.clock().Now();
    TimeNs in_at = -1;
    executor_.Spawn([&] {
      write ? kv->LockWrite() : kv->LockRead();
      in_at = executor_.clock().Now();
      write ? kv->UnlockWrite() : kv->UnlockRead();
    });
    executor_.Spawn([&] {
      executor_.clock().SleepFor(kRescueAfterNs);
      if (in_at < 0) {
        kv->UnlockWrite();
        kv->UnlockRead();
      }
    });
    executor_.JoinAll();
    return in_at - start;
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

  // Checks that the key's local lock, taken by `lock` in a guest that then
  // parks in await_call and releases it with `unlock`, excludes a host writer
  // for the whole park.
  void ExpectLocalLockHeldAcrossTheCall(Import lock, Import unlock) {
    TimeNs writer_in_at = -1;
    TimeNs unlocked_at = -1;
    std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
    executor_.Spawn([&] {
      Result<int> code = CallGuest([&](wasm::FunctionBuilder& f, const GuestApi& api) {
        Emit(f, api, lock, {kKeyAt, kKeyLen});
        f.I64Const(0);
        f.Call(api.await_call);
        f.Drop();
        Emit(f, api, unlock, {kKeyAt, kKeyLen});
        f.I32Const(0);
      });
      unlocked_at = executor_.clock().Now();
      EXPECT_TRUE(code.ok()) << code.status().ToString();
    });
    executor_.Spawn([&] {
      executor_.clock().SleepFor(1);  // the guest locks first
      kv->LockWrite();
      writer_in_at = executor_.clock().Now();
      kv->UnlockWrite();
    });
    executor_.JoinAll();
    EXPECT_GE(unlocked_at, kAwaitNs);
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

  // The local locks exclude a host writer while the locking call runs.
  ExpectLocalLockHeldAcrossTheCall(&GuestApi::lock_state_write, &GuestApi::unlock_state_write);
  ExpectLocalLockHeldAcrossTheCall(&GuestApi::lock_state_read, &GuestApi::unlock_state_read);
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
  // No local lock leaked: a host writer gets straight in.
  EXPECT_EQ(HostLockWait(/*write=*/true), 0);
}

TEST_F(StateImportsTest, ImportsNamingARuntimeKeyTrapBeforeTouchingState) {
  // A published proto and a warm set, as a cold start and the scheduler
  // would find them.
  ASSERT_TRUE(store_.Set("proto:victim", Bytes(64, 0x5A)).ok());
  ASSERT_TRUE(store_.SetAdd("warm:victim", "host-1").ok());
  (void)tier_.Lookup(kKey);  // RunGuest's rescue handle
  const size_t replicas_before = tier_.key_count();

  struct Case {
    const char* name;
    Import import;
    std::vector<uint32_t> rest;  // the arguments after the key
  };
  const std::vector<Case> cases = {
      {"get_state", &GuestApi::get_state, {kDataLen}},
      {"set_state", &GuestApi::set_state, {kDataAt, kDataLen}},
      {"pull_state", &GuestApi::pull_state, {}},
      {"push_state", &GuestApi::push_state, {}},
      {"pull_state_offset", &GuestApi::pull_state_offset, {0, kDataLen}},
      {"push_state_offset", &GuestApi::push_state_offset, {0, kDataLen}},
      {"append_state", &GuestApi::append_state, {kDataAt, kDataLen}},
      {"lock_state_read", &GuestApi::lock_state_read, {}},
      {"unlock_state_read", &GuestApi::unlock_state_read, {}},
      {"lock_state_write", &GuestApi::lock_state_write, {}},
      {"unlock_state_write", &GuestApi::unlock_state_write, {}},
      {"lock_state_global_read", &GuestApi::lock_state_global_read, {}},
      {"unlock_state_global_read", &GuestApi::unlock_state_global_read, {}},
      {"lock_state_global_write", &GuestApi::lock_state_global_write, {}},
      {"unlock_state_global_write", &GuestApi::unlock_state_global_write, {}},
  };
  for (size_t k = 0; k < kReservedKeys.size(); ++k) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " on " + kReservedKeys[k]);
      std::vector<uint32_t> args = {kReservedAt[k],
                                    static_cast<uint32_t>(kReservedKeys[k].size())};
      args.insert(args.end(), c.rest.begin(), c.rest.end());
      const auto global_before = GlobalContent();
      Result<int> code = RunGuest([&](wasm::FunctionBuilder& f, const GuestApi& api) {
        Emit(f, api, c.import, args);
        if (c.import == &GuestApi::get_state) {
          f.Drop();  // the guest offset it would return
        }
        f.I32Const(0);
      });
      EXPECT_TRUE(IsTrapWith(code.status(), "PERMISSION_DENIED")) << code.status().ToString();
      EXPECT_TRUE(GlobalContentIs(global_before)) << "the global tier changed";
      EXPECT_EQ(tier_.key_count(), replicas_before) << "a replica was created";
    }
  }
  // Planting a proto (set_state, then push_state) is refused at the first
  // call, so the published image is what it was.
  Result<int> planted = RunGuest([&](wasm::FunctionBuilder& f, const GuestApi& api) {
    Emit(f, api, &GuestApi::set_state, {kReservedAt[0], 12, kDataAt, kDataLen});
    Emit(f, api, &GuestApi::push_state, {kReservedAt[0], 12});
    f.I32Const(0);
  });
  EXPECT_TRUE(IsTrapWith(planted.status(), "PERMISSION_DENIED")) << planted.status().ToString();
  EXPECT_EQ(store_.Get("proto:victim").value(), Bytes(64, 0x5A));
}

TEST_F(StateImportsTest, UnlocksTheCallDoesNotHoldTrapAndLeaveTheLockAsItWas) {
  ASSERT_TRUE(store_.Set(kKey, kData).ok());
  std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);
  ASSERT_TRUE(kv->Pull().ok());

  // A host reader holds the local lock. A guest's read-unlock is not its to
  // make: it traps, and a writer still waits for the reader.
  for (const Import unlock : {&GuestApi::unlock_state_read, &GuestApi::unlock_state_write}) {
    for (const bool host_writes : {false, true}) {
      SCOPED_TRACE(std::string(unlock == &GuestApi::unlock_state_read ? "read" : "write") +
                   "-unlock against a host " + (host_writes ? "writer" : "reader"));
      TimeNs other_in_at = -1;
      executor_.Spawn([&] {
        host_writes ? kv->LockWrite() : kv->LockRead();
        executor_.clock().SleepFor(kMillisecond);
        host_writes ? kv->UnlockWrite() : kv->UnlockRead();
      });
      executor_.Spawn([&] {
        executor_.clock().SleepFor(1);  // the host holder is in
        Result<int> code = Call(unlock, {kKeyAt, kKeyLen});
        EXPECT_FALSE(code.ok());
        EXPECT_TRUE(IsPreconditionTrap(code.status())) << code.status().ToString();
        // A writer after a host reader, a reader after a host writer: both
        // must still wait for the holder.
        host_writes ? kv->LockRead() : kv->LockWrite();
        other_in_at = executor_.clock().Now();
        host_writes ? kv->UnlockRead() : kv->UnlockWrite();
      });
      executor_.JoinAll();
      EXPECT_GE(other_in_at, kMillisecond);
    }
  }

  // On a free lock, unlocks the call does not hold trap and leave no debt:
  // a reader still keeps a writer out afterwards.
  for (const Import unlock : {&GuestApi::unlock_state_read, &GuestApi::unlock_state_write}) {
    Result<int> code = Run(unlock, {kKeyAt, kKeyLen});
    EXPECT_TRUE(IsPreconditionTrap(code.status())) << code.status().ToString();
  }
  TimeNs writer_in_at = -1;
  executor_.Spawn([&] {
    kv->LockRead();
    executor_.clock().SleepFor(kMillisecond);
    kv->UnlockRead();
  });
  executor_.Spawn([&] {
    executor_.clock().SleepFor(1);
    kv->LockWrite();
    writer_in_at = executor_.clock().Now();
    kv->UnlockWrite();
  });
  executor_.JoinAll();
  EXPECT_GE(writer_in_at, kMillisecond);

  // Nor can a guest release a lock another call of its own took earlier:
  // that call's locks went with its return.
  ExpectRuns(&GuestApi::lock_state_read, {kKeyAt, kKeyLen});
  EXPECT_TRUE(IsPreconditionTrap(Run(&GuestApi::unlock_state_read, {kKeyAt, kKeyLen}).status()));
}

TEST_F(StateImportsTest, LocalLocksHeldWhenTheCallReturnsOrTrapsAreReleased) {
  ASSERT_TRUE(store_.Set(kKey, kData).ok());
  ASSERT_TRUE(tier_.Lookup(kKey)->Pull().ok());

  // Returns holding the write lock.
  bool rescued = false;
  Result<int> code = RunGuest(
      [](wasm::FunctionBuilder& f, const GuestApi& api) {
        Emit(f, api, &GuestApi::lock_state_write, {kKeyAt, kKeyLen});
        f.I32Const(0);
      },
      &rescued);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_FALSE(rescued);
  EXPECT_EQ(HostLockWait(/*write=*/true), 0);

  // Traps holding the read lock twice.
  code = RunGuest([](wasm::FunctionBuilder& f, const GuestApi& api) {
    Emit(f, api, &GuestApi::lock_state_read, {kKeyAt, kKeyLen});
    Emit(f, api, &GuestApi::lock_state_read, {kKeyAt, kKeyLen});
    f.Unreachable();
  });
  EXPECT_TRUE(wasm::IsTrap(code.status())) << code.status().ToString();
  EXPECT_EQ(HostLockWait(/*write=*/true), 0);

  // Traps in an import holding the write lock.
  code = RunGuest([](wasm::FunctionBuilder& f, const GuestApi& api) {
    Emit(f, api, &GuestApi::lock_state_write, {kKeyAt, kKeyLen});
    Emit(f, api, &GuestApi::set_state, {kKeyAt, kKeyLen, kMemoryEnd, 1});
    f.I32Const(0);
  });
  EXPECT_TRUE(wasm::IsTrap(code.status())) << code.status().ToString();
  EXPECT_EQ(HostLockWait(/*write=*/false), 0);
  EXPECT_EQ(LocalBytes(), kData);
}

TEST_F(StateImportsTest, ImportsThatWouldWaitOnTheCallsOwnLocalLockTrap) {
  ASSERT_TRUE(store_.Set(kKey, kData).ok());
  std::shared_ptr<StateKeyValue> kv = tier_.Lookup(kKey);

  struct Case {
    const char* name;
    Import lock;
    Import then;
    std::vector<uint32_t> args;
    bool fetches;  // the replica is dropped first, so a pull must fetch
  };
  const std::vector<uint32_t> key = {kKeyAt, kKeyLen};
  const std::vector<uint32_t> set = {kKeyAt, kKeyLen, kDataAt, kDataLen};
  const std::vector<uint32_t> chunk = {kKeyAt, kKeyLen, 0, kDataLen};
  const std::vector<Case> traps = {
      {"write, set_state", &GuestApi::lock_state_write, &GuestApi::set_state, set, false},
      {"read, set_state", &GuestApi::lock_state_read, &GuestApi::set_state, set, false},
      {"write, pull_state", &GuestApi::lock_state_write, &GuestApi::pull_state, key, true},
      {"read, pull_state", &GuestApi::lock_state_read, &GuestApi::pull_state, key, true},
      {"write, pull_state_offset", &GuestApi::lock_state_write, &GuestApi::pull_state_offset,
       chunk, true},
      {"read, pull_state_offset", &GuestApi::lock_state_read, &GuestApi::pull_state_offset, chunk,
       true},
      {"write, push_state", &GuestApi::lock_state_write, &GuestApi::push_state, key, false},
      {"write, push_state_offset", &GuestApi::lock_state_write, &GuestApi::push_state_offset,
       chunk, false},
      {"write, lock_state_write", &GuestApi::lock_state_write, &GuestApi::lock_state_write, key,
       false},
      {"write, lock_state_read", &GuestApi::lock_state_write, &GuestApi::lock_state_read, key,
       false},
      {"read, lock_state_write", &GuestApi::lock_state_read, &GuestApi::lock_state_write, key,
       false},
  };
  for (const Case& c : traps) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(kv->Pull().ok());
    if (c.fetches) {
      kv->InvalidateReplica();
    }
    const auto global_before = GlobalContent();
    bool rescued = false;
    Result<int> code = RunGuest(
        [&](wasm::FunctionBuilder& f, const GuestApi& api) {
          Emit(f, api, c.lock, key);
          Emit(f, api, c.then, c.args);
          f.I32Const(0);
        },
        &rescued);
    EXPECT_FALSE(rescued) << "the import waited on the call's own lock";
    EXPECT_TRUE(IsPreconditionTrap(code.status())) << code.status().ToString();
    EXPECT_TRUE(GlobalContentIs(global_before)) << "the global tier changed";
    EXPECT_EQ(HostLockWait(/*write=*/true), 0);
  }

  // What needs no wait on the call's own lock still runs: a warm pull under
  // the write lock, a push under a read lock, and a second read lock.
  ASSERT_TRUE(kv->Pull().ok());
  const std::vector<Case> runs = {
      {"write, warm pull_state", &GuestApi::lock_state_write, &GuestApi::pull_state, key, false},
      {"read, push_state", &GuestApi::lock_state_read, &GuestApi::push_state, key, false},
      {"read, lock_state_read", &GuestApi::lock_state_read, &GuestApi::lock_state_read, key,
       false},
  };
  for (const Case& c : runs) {
    SCOPED_TRACE(c.name);
    bool rescued = false;
    Result<int> code = RunGuest(
        [&](wasm::FunctionBuilder& f, const GuestApi& api) {
          Emit(f, api, c.lock, key);
          Emit(f, api, c.then, c.args);
          f.I32Const(0);
        },
        &rescued);
    EXPECT_FALSE(rescued);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    EXPECT_EQ(HostLockWait(/*write=*/true), 0);
  }
}

}  // namespace
}  // namespace faasm

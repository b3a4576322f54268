// Unit tests for the runtime's bookkeeping components: call lifecycle and
// the call message, billable-memory accounting, function registry
// semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/call_table.h"
#include "runtime/memory_accountant.h"
#include "runtime/registry.h"
#include "sim/sim_clock.h"

namespace faasm {
namespace {

TEST(CallTableTest, LifecycleTimestamps) {
  SimExecutor executor;
  CallTable table(&executor.clock());
  uint64_t id = 0;
  executor.Spawn([&] {
    id = table.Create("fn");
    EXPECT_FALSE(table.IsFinished(id));
    executor.clock().SleepFor(5 * kMillisecond);
    ASSERT_TRUE(table.MarkRunning(id, "host-0", true).ok());
    executor.clock().SleepFor(10 * kMillisecond);
    ASSERT_TRUE(table.Complete(id, 0, Bytes{9}).ok());
  });
  executor.JoinAll();

  auto record = table.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, CallState::kDone);
  EXPECT_TRUE(record.value().cold_start);
  EXPECT_EQ(record.value().executed_on, "host-0");
  EXPECT_EQ(record.value().started_at - record.value().submitted_at, 5 * kMillisecond);
  EXPECT_EQ(record.value().finished_at - record.value().started_at, 10 * kMillisecond);
  EXPECT_EQ(table.Output(id).value(), (Bytes{9}));
}

TEST(CallMessageTest, RoundTrips) {
  auto call = DecodeCallMessage(EncodeCallMessage(7, "fn", Bytes{1, 2, 3}));
  ASSERT_TRUE(call.ok()) << call.status().ToString();
  EXPECT_EQ(call.value().id, 7u);
  EXPECT_EQ(call.value().function, "fn");
  EXPECT_EQ(call.value().input, (Bytes{1, 2, 3}));
}

TEST(CallMessageTest, MutatedMessagesDecodeToAnErrorOrACallNeverACrash) {
  // The message arrives off the network: every truncation must be a typed
  // error, and every single-bit flip an error or a well-formed call (a
  // flipped length prefix must not allocate what the bytes cannot back;
  // the ASan/UBSan lane runs this).
  const Bytes message = EncodeCallMessage(42, "infer", Bytes{9, 8, 7, 6});
  for (size_t cut = 0; cut < message.size(); ++cut) {
    EXPECT_FALSE(DecodeCallMessage(Bytes(message.begin(), message.begin() + cut)).ok()) << cut;
  }
  for (size_t i = 0; i < message.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = message;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      auto call = DecodeCallMessage(flipped);
      if (call.ok()) {
        EXPECT_LE(call.value().function.size() + call.value().input.size(), message.size());
      }
    }
  }
}

TEST(CallTableTest, FailureRecorded) {
  SimExecutor executor;
  CallTable table(&executor.clock());
  const uint64_t id = table.Create("fn");
  ASSERT_TRUE(table.Fail(id, "exploded").ok());
  EXPECT_TRUE(table.IsFinished(id));
  auto record = table.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, CallState::kFailed);
  EXPECT_EQ(record.value().error, "exploded");
  // Output of a failed call is a precondition error, not garbage.
  EXPECT_EQ(table.Output(id).status().code(), StatusCode::kFailedPrecondition);
}

TEST(CallTableTest, UnknownIdsRejected) {
  SimExecutor executor;
  CallTable table(&executor.clock());
  EXPECT_FALSE(table.MarkRunning(42, "h", false).ok());
  EXPECT_FALSE(table.Complete(42, 0, {}).ok());
  EXPECT_FALSE(table.Fail(42, "x").ok());
  EXPECT_FALSE(table.Get(42).ok());
  EXPECT_FALSE(table.IsFinished(42));
}

TEST(CallTableTest, FinishedRecordsAndColdCounts) {
  SimExecutor executor;
  CallTable table(&executor.clock());
  const uint64_t a = table.Create("fn");
  const uint64_t b = table.Create("fn");
  const uint64_t c = table.Create("fn");
  (void)table.MarkRunning(a, "h", true);
  (void)table.Complete(a, 0, {});
  (void)table.MarkRunning(b, "h", false);
  (void)table.Fail(b, "x");
  (void)c;  // still pending
  const std::vector<CallRecord> finished = table.FinishedRecords();
  EXPECT_EQ(finished.size(), 2u);
  EXPECT_EQ(std::count_if(finished.begin(), finished.end(),
                          [](const CallRecord& record) { return record.cold_start; }),
            1);
}

TEST(MemoryAccountantTest, CapacityEnforced) {
  SimExecutor executor;
  MemoryAccountant accountant(&executor.clock(), 1000);
  EXPECT_TRUE(accountant.Allocate(600).ok());
  EXPECT_TRUE(accountant.Allocate(400).ok());
  EXPECT_EQ(accountant.Allocate(1).code(), StatusCode::kResourceExhausted);
  accountant.Release(500);
  EXPECT_TRUE(accountant.Allocate(100).ok());
  EXPECT_EQ(accountant.current_bytes(), 600u);
  EXPECT_EQ(accountant.peak_bytes(), 1000u);
}

TEST(MemoryAccountantTest, GbSecondsIntegratesOverVirtualTime) {
  SimExecutor executor;
  MemoryAccountant accountant(&executor.clock(), size_t{4} * 1024 * 1024 * 1024);
  executor.Spawn([&] {
    ASSERT_TRUE(accountant.Allocate(size_t{2} * 1024 * 1024 * 1024).ok());  // 2 GB
    executor.clock().SleepFor(3 * kSecond);
    accountant.Release(size_t{2} * 1024 * 1024 * 1024);
    executor.clock().SleepFor(10 * kSecond);  // idle time contributes nothing
  });
  executor.JoinAll();
  EXPECT_NEAR(accountant.GbSeconds(), 6.0, 0.01);  // 2 GB x 3 s
}

TEST(MemoryAccountantTest, ReleaseClampsAtZero) {
  SimExecutor executor;
  MemoryAccountant accountant(&executor.clock(), 1000);
  ASSERT_TRUE(accountant.Allocate(100).ok());
  accountant.Release(500);  // over-release must not underflow
  EXPECT_EQ(accountant.current_bytes(), 0u);
}

TEST(RegistryTest, DuplicateNamesRejected) {
  FunctionRegistry registry;
  FunctionOptions first;
  first.state_affinity_key = "first";
  FunctionOptions second;
  second.state_affinity_key = "second";
  ASSERT_TRUE(registry.RegisterNative("fn", [](InvocationContext&) { return 0; }, first).ok());
  EXPECT_EQ(registry.RegisterNative("fn", [](InvocationContext&) { return 1; }, second).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.StateAffinityKey("fn"), "first");  // the first registration stands
}

TEST(RegistryTest, LookupReturnsSpecCopy) {
  FunctionRegistry registry;
  FunctionOptions options;
  options.max_memory_pages = 77;
  options.simulated_init_ns = 5 * kMillisecond;
  ASSERT_TRUE(
      registry.RegisterNative("fn", [](InvocationContext&) { return 0; }, options).ok());
  auto spec = registry.Lookup("fn");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().max_memory_pages, 77u);
  EXPECT_EQ(spec.value().simulated_init_ns, 5 * kMillisecond);
  EXPECT_FALSE(registry.Lookup("other").ok());
  EXPECT_TRUE(registry.Contains("fn"));
  EXPECT_FALSE(registry.Contains("other"));
}

}  // namespace
}  // namespace faasm

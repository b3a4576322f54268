// Robustness of the batch-request handler both KVS endpoints share. Valid
// requests — kBatch, kGetBatch and kMigrateInstall to a KvsServer, and the
// replica-dialect kBatch and kMigrateInstall to a ReplicaServer — are
// truncated at every byte and have every bit flipped, then sent through
// InProcNetwork::Call. Each mutant must get a decodable response without
// crashing (the ASan/UBSan lane runs this): a known status byte and, for an
// Ok batch answer, exactly one framed result per request sub-op. A mutant
// whose framing fails to decode must leave the store unchanged.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "kvs/batch_codec.h"
#include "kvs/kvs_client.h"
#include "kvs/replication.h"
#include "net/framing.h"

namespace faasm {
namespace {

// A mutated range write can name any extent up to the store's value bound
// (KvStore::kMaxValueBytes), which the store would allocate. To keep the
// test's memory small,
// the stores own only the keys the requests name (any other key a mutant
// decodes bounces with kWrongMaster) and the range writes' own key is
// frozen (a flipped offset bounces too). Bounced ops still take the whole
// decode, admit, execute and answer path.
const char kRangeKey[] = "range";
bool NamedKey(const std::string& key) {
  for (const char* named : {"a", "b", "log", "lock", "warm:f", kRangeKey}) {
    if (key == named) {
      return true;
    }
  }
  return false;
}

// One sub-op of every kind, on keys seeded below.
std::vector<KvsBatchOp> EveryOpKind() {
  return {
      {.op = KvsOp::kGet, .key = "a"},
      {.op = KvsOp::kSet, .key = "b", .bytes = Bytes{1, 2, 3}},
      {.op = KvsOp::kGetRange, .key = "a", .offset = 1, .len = 2},
      {.op = KvsOp::kSetRanges, .key = kRangeKey, .ranges = {ValueRange{4, Bytes{9, 9}}}},
      {.op = KvsOp::kAppend, .key = "log", .bytes = Bytes{5}},
      {.op = KvsOp::kLockRead, .key = "lock", .member = "host-1"},
      {.op = KvsOp::kUnlockRead, .key = "lock", .member = "host-1"},
      {.op = KvsOp::kLockWrite, .key = "lock", .member = "host-2"},
      {.op = KvsOp::kUnlockWrite, .key = "lock", .member = "host-2"},
      {.op = KvsOp::kSetAdd, .key = "warm:f", .member = "host-3"},
      {.op = KvsOp::kSetRemove, .key = "warm:f", .member = "host-4"},
      {.op = KvsOp::kSetMembers, .key = "warm:f"},
      {.op = KvsOp::kSetRanges,
       .key = kRangeKey,
       .ranges = {ValueRange{2, Bytes{7, 8}}, ValueRange{9, Bytes{1}}}},
  };
}

// `ops` framed as a `type` request; `seq` > 0 selects the replica dialect
// (op i carries seq + i).
Bytes BatchRequest(KvsOp type, const std::vector<KvsBatchOp>& ops, uint64_t seq = 0) {
  std::vector<Bytes> parts;
  for (size_t i = 0; i < ops.size(); ++i) {
    parts.push_back(seq == 0 ? EncodeBatchOp(ops[i]) : EncodeReplicaOp(ops[i], seq + i));
  }
  Bytes request;
  ByteWriter writer(request);
  writer.Put<uint8_t>(static_cast<uint8_t>(type));
  WriteFrameBatch(writer, parts);
  return request;
}

Bytes InstallRequest() {
  KeyExport record;
  record.has_value = true;
  record.value = Bytes{4, 5, 6};
  record.lock_readers = 1;
  record.set_members = {"host-1", "host-2"};
  record.seq = 3;
  return EncodeMigrateInstall("moved", record);
}

// A store's full content, key by key.
std::map<std::string, KeyExport> Snapshot(KvStore& store) {
  std::map<std::string, KeyExport> content;
  for (const std::string& key : store.Keys()) {
    content[key] = store.ExportKey(key);
  }
  return content;
}

bool SameContent(const std::map<std::string, KeyExport>& a,
                 const std::map<std::string, KeyExport>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, record] : a) {
    auto it = b.find(key);
    if (it == b.end() || !it->second.SameContent(record)) {
      return false;
    }
  }
  return true;
}

bool KnownCode(uint8_t code) { return code <= static_cast<uint8_t>(StatusCode::kDeadlineExceeded); }

// Checks that `response` decodes as the answer to `request`: a known status
// byte, then — for an Ok answer to a framed batch — one framed result per
// request sub-op, each opening with a known status byte, and nothing more.
// Returns whether the framing-level status was Ok.
bool ExpectDecodable(const Bytes& request, const Bytes& response) {
  EXPECT_FALSE(response.empty());
  if (response.empty() || !KnownCode(response[0])) {
    ADD_FAILURE() << "undecodable status byte";
    return false;
  }
  if (response[0] != static_cast<uint8_t>(StatusCode::kOk)) {
    EXPECT_EQ(response.size(), 1u);  // request-level errors carry no payload
    return false;
  }
  const auto type = static_cast<KvsOp>(request[0]);
  if (type == KvsOp::kMigrateInstall) {
    EXPECT_EQ(response.size(), 1u);
    return true;
  }
  ByteReader request_reader(request);
  EXPECT_TRUE(request_reader.Get<uint8_t>().ok());
  auto request_parts = ReadFrameSpans(request_reader);
  EXPECT_TRUE(request_parts.ok()) << "Ok answer to an undecodable frame";
  ByteReader reader(response);
  EXPECT_TRUE(reader.Get<uint8_t>().ok());
  auto results = ReadFrameSpans(reader);
  if (!results.ok() || !request_parts.ok()) {
    ADD_FAILURE() << "undecodable result frame";
    return true;
  }
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(results.value().size(), request_parts.value().size());
  for (ByteReader part : results.value()) {
    auto code = part.Get<uint8_t>();
    EXPECT_TRUE(code.ok() && KnownCode(code.value()));
  }
  return true;
}

class KvsServerMutationTest : public ::testing::Test {
 protected:
  KvsServerMutationTest()
      : network_(&clock_, NoLatency()),
        server_(&store_, &network_, "kvs:host-0"),
        replica_server_(&replica_, &network_, "rep:host-0") {
    for (KvStore* store : {&store_, replica_.store()}) {
      EXPECT_TRUE(store->Set("a", Bytes{1, 2, 3, 4}).ok());
      EXPECT_TRUE(store->Set(kRangeKey, Bytes{0}).ok());
      EXPECT_TRUE(store->SetAdd("warm:f", "host-4").ok());
      store->FreezeKey(kRangeKey);
      store->SetOwnershipGuard(NamedKey);
    }
  }

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  // Sends every truncation and single-bit flip of `request` to `endpoint`,
  // whose store is `store`.
  void MutateEverywhere(const Bytes& request, const std::string& endpoint, KvStore& store) {
    auto send = [&](const Bytes& mutant) {
      if (mutant.empty()) {
        return;  // nothing to route; the empty request is covered below
      }
      const auto before = Snapshot(store);
      auto response = network_.Call("client", endpoint, mutant);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (!ExpectDecodable(mutant, response.value())) {
        EXPECT_TRUE(SameContent(before, Snapshot(store))) << "a rejected request changed the store";
      }
    };
    auto empty = network_.Call("client", endpoint, Bytes{});
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value(), Bytes{static_cast<uint8_t>(StatusCode::kInvalidArgument)});
    for (size_t cut = 1; cut < request.size(); ++cut) {
      send(Bytes(request.begin(), request.begin() + cut));
    }
    for (size_t i = 0; i < request.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = request;
        flipped[i] ^= static_cast<uint8_t>(1u << bit);
        send(flipped);
      }
    }
  }

  RealClock clock_;
  InProcNetwork network_;
  KvStore store_;
  const ShardMap map_;  // epoch 0
  ReplicaShard replica_{&map_};
  KvsServer server_;
  ReplicaServer replica_server_;
};

TEST_F(KvsServerMutationTest, ValidRequestsAnswerOnePerOpResult) {
  // The unmutated requests first: every one answers Ok with aligned results.
  std::vector<KvsBatchOp> reads;
  for (const KvsBatchOp& op : EveryOpKind()) {
    if (IsReadBatchOp(op.op)) {
      reads.push_back(op);
    }
  }
  const std::vector<std::pair<std::string, Bytes>> requests = {
      {"kvs:host-0", BatchRequest(KvsOp::kBatch, EveryOpKind())},
      {"kvs:host-0", BatchRequest(KvsOp::kGetBatch, reads)},
      {"kvs:host-0", InstallRequest()},
      {"rep:host-0", BatchRequest(KvsOp::kBatch, EveryOpKind(), /*seq=*/100)},
      {"rep:host-0", InstallRequest()},
  };
  for (const auto& [endpoint, request] : requests) {
    auto response = network_.Call("client", endpoint, request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(ExpectDecodable(request, response.value())) << endpoint;
  }
  // The replica endpoint serves only the forward channel: no kGetBatch.
  auto refused = network_.Call("client", "rep:host-0", BatchRequest(KvsOp::kGetBatch, reads));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused.value(), Bytes{static_cast<uint8_t>(StatusCode::kInvalidArgument)});
}

TEST_F(KvsServerMutationTest, RetiredOpCodesAreRefusedWhileTheirNeighboursAnswer) {
  // Codes 4 (the one-range write), 6 (delete) and 7 (exists) are retired. A
  // sub-op carrying one answers kInvalidArgument in both primary request
  // types and in the replica dialect, and the ops framed around it run.
  auto results = [&](const std::string& endpoint, KvsOp type, const std::vector<KvsBatchOp>& ops,
                     uint64_t seq) {
    std::vector<KvsBatchResult> out;
    auto response = network_.Call("client", endpoint, BatchRequest(type, ops, seq));
    EXPECT_TRUE(response.ok());
    if (!response.ok()) {
      return out;
    }
    ByteReader reader(response.value());
    EXPECT_TRUE(ReadStatus(reader).ok());
    auto parts = ReadFrameSpans(reader);
    EXPECT_TRUE(parts.ok());
    for (size_t i = 0; parts.ok() && i < parts.value().size() && i < ops.size(); ++i) {
      out.push_back(DecodeBatchResult(ops[i].op, parts.value()[i]));
    }
    return out;
  };
  for (const uint8_t code : {4, 6, 7, 8}) {
    SCOPED_TRACE(static_cast<int>(code));
    // The last neighbour is a zero-length ranged read: it answers the
    // value's length and no bytes.
    const std::vector<KvsBatchOp> reads = {{.op = KvsOp::kGet, .key = "a"},
                                           {.op = KvsOp{code}, .key = "a"},
                                           {.op = KvsOp::kGetRange, .key = "a", .len = 0}};
    for (const KvsOp type : {KvsOp::kBatch, KvsOp::kGetBatch}) {
      const std::vector<KvsBatchResult> answered = results("kvs:host-0", type, reads, 0);
      ASSERT_EQ(answered.size(), 3u);
      EXPECT_EQ(answered[0].value, (Bytes{1, 2, 3, 4}));
      EXPECT_EQ(answered[1].status.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(answered[2].value.empty());
      EXPECT_EQ(answered[2].length, 4u);
    }
    // The forward channel: a retired code between two forwarded writes.
    const std::vector<KvsBatchOp> writes = {{.op = KvsOp::kSet, .key = "b", .bytes = Bytes{code}},
                                            {.op = KvsOp{code}, .key = "a"},
                                            {.op = KvsOp::kAppend, .key = "log", .bytes = {code}}};
    const std::vector<KvsBatchResult> forwarded =
        results("rep:host-0", KvsOp::kBatch, writes, /*seq=*/10 * code);
    ASSERT_EQ(forwarded.size(), 3u);
    EXPECT_TRUE(forwarded[0].status.ok());
    EXPECT_EQ(forwarded[1].status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(forwarded[2].status.ok());
    EXPECT_EQ(replica_.store()->Get("b").value(), Bytes{code});
    EXPECT_TRUE(replica_.store()->Exists("a"));
  }
}

TEST_F(KvsServerMutationTest, MutatedPrimaryRequestsNeverCrash) {
  std::vector<KvsBatchOp> reads;
  for (const KvsBatchOp& op : EveryOpKind()) {
    if (IsReadBatchOp(op.op)) {
      reads.push_back(op);
    }
  }
  MutateEverywhere(BatchRequest(KvsOp::kBatch, EveryOpKind()), "kvs:host-0", store_);
  MutateEverywhere(BatchRequest(KvsOp::kGetBatch, reads), "kvs:host-0", store_);
  MutateEverywhere(InstallRequest(), "kvs:host-0", store_);
}

TEST_F(KvsServerMutationTest, MutatedReplicaRequestsNeverCrash) {
  MutateEverywhere(BatchRequest(KvsOp::kBatch, EveryOpKind(), /*seq=*/100), "rep:host-0",
                   *replica_.store());
  MutateEverywhere(InstallRequest(), "rep:host-0", *replica_.store());
}

TEST(KvsServerBoundTest, RangeWritePastTheValueBoundAnswersAnErrorAndAllocatesNothing) {
  // The same over-bound range write as kv_store_test's, off the wire: the
  // server answers the sub-op kInvalidArgument and the store is untouched.
  RealClock clock;
  NetworkConfig config;
  config.charge_latency = false;
  InProcNetwork network(&clock, config);
  KvStore store;
  KvsServer server(&store, &network);
  ASSERT_TRUE(store.Set("k", Bytes{1, 2, 3}).ok());
  const size_t bytes_before = store.total_bytes();

  const KvsBatchOp over = {
      .op = KvsOp::kSetRanges,
      .key = "k",
      .ranges = {ValueRange{0, Bytes{7}}, ValueRange{KvStore::kMaxValueBytes, Bytes{1}}}};
  auto response = network.Call("client", "kvs", BatchRequest(KvsOp::kBatch, {over}));
  ASSERT_TRUE(response.ok());
  ByteReader reader(response.value());
  ASSERT_TRUE(ReadStatus(reader).ok());
  auto parts = ReadFrameSpans(reader);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 1u);
  EXPECT_EQ(DecodeBatchResult(KvsOp::kSetRanges, parts.value()[0]).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Get("k").value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.total_bytes(), bytes_before);
}

}  // namespace
}  // namespace faasm

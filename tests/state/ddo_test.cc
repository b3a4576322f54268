// DDO tests: typed views over the two-tier state (Listing 1 analogues).
// Everything runs in virtual time: state calls run inside SimExecutor
// activities.
#include "state/ddo.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "sim/sim_clock.h"

namespace faasm {
namespace {

constexpr size_t kPage = StateKeyValue::kStatePageBytes;
constexpr size_t kDoublesPerPage = kPage / sizeof(double);

// One host whose state tier reaches the key's master over the network.
class DdoTest : public ::testing::Test {
 protected:
  DdoTest()
      : network_(&executor_.clock(), NoLatency()),
        server_(&store_, &network_),
        kvs_(&network_, "host-0"),
        tier_(&kvs_, &executor_.clock()) {}

  static NetworkConfig NoLatency() {
    NetworkConfig config;
    config.charge_latency = false;
    return config;
  }

  void SeedDoubles(const std::string& key, size_t n, double fill) {
    std::vector<double> seed(n, fill);
    const auto* p = reinterpret_cast<const uint8_t*>(seed.data());
    store_.Set(key, Bytes(p, p + n * sizeof(double)));
  }

  double GlobalDouble(const std::string& key, size_t i) {
    double value = 0;
    std::memcpy(&value, store_.Get(key).value().data() + i * sizeof(double), sizeof(double));
    return value;
  }

  // Runs `body` as one simulated activity and waits for it (and everything
  // it spawned) to finish.
  void Run(std::function<void()> body) {
    executor_.Spawn(std::move(body));
    executor_.JoinAll();
  }

  SimExecutor executor_;
  InProcNetwork network_;
  KvStore store_;
  KvsServer server_;
  KvsClient kvs_;
  LocalTier tier_;
};

TEST_F(DdoTest, SharedArrayInitPushPull) {
  Run([&] {
    SharedArray<double> array(&tier_, "vec");
    ASSERT_TRUE(array.Init(100).ok());
    for (size_t i = 0; i < 100; ++i) {
      array[i] = static_cast<double>(i);
    }
    ASSERT_TRUE(array.Push().ok());
    EXPECT_EQ(store_.Size("vec").value(), 800u);

    // A second view (another function on the same host) sees the same memory.
    SharedArray<double> view(&tier_, "vec");
    ASSERT_TRUE(view.Init(100).ok());
    EXPECT_EQ(view[42], 42.0);
    view[42] = -1.0;
    EXPECT_EQ(array[42], -1.0);  // zero-copy sharing
  });
}

TEST_F(DdoTest, SharedArrayAttachFromGlobal) {
  SeedDoubles("vec", 50, 3.25);
  Run([&] {
    SharedArray<double> array(&tier_, "vec");
    ASSERT_TRUE(array.Attach().ok());
    EXPECT_EQ(array.size(), 50u);
    EXPECT_EQ(array[49], 3.25);
  });
}

TEST_F(DdoTest, AsyncArrayBatchesPushes) {
  Run([&] {
    AsyncArray<double> array(&tier_, "weights", /*push_interval=*/4);
    ASSERT_TRUE(array.Init(10).ok());
    network_.ResetStats();
    for (int update = 0; update < 3; ++update) {
      array[0] += 1.0;
      ASSERT_TRUE(array.MaybePush().ok());
    }
    EXPECT_EQ(network_.total_bytes(), 0u);  // below interval: fully local
    array[0] += 1.0;
    ASSERT_TRUE(array.MaybePush().ok());  // 4th update triggers the push
    EXPECT_GT(network_.total_bytes(), 10 * sizeof(double));
    EXPECT_EQ(store_.Size("weights").value(), 10 * sizeof(double));
  });
}

TEST_F(DdoTest, AsyncArrayPushShipsExactlyItsMarkedPages) {
  SeedDoubles("weights", 16 * kDoublesPerPage, 0.0);
  Run([&] {
    // The envelope of a one-range push of this key: a SharedArray marks one
    // page straight into the tracker and pushes it.
    SharedArray<double> twin(&tier_, "weights");
    ASSERT_TRUE(twin.Attach().ok());
    twin[0] = 1.0;
    twin.MarkDirtyElements(0, 1);
    network_.ResetStats();
    ASSERT_TRUE(twin.Push().ok());
    ASSERT_GT(network_.total_bytes(), kPage);
    const uint64_t envelope = network_.total_bytes() - kPage;

    // Many marks over pages 2..4 stay local below the push interval, then
    // ship as those three pages in one range.
    AsyncArray<double> array(&tier_, "weights", /*push_interval=*/1000);
    ASSERT_TRUE(array.Attach().ok());
    network_.ResetStats();
    for (size_t i = 2 * kDoublesPerPage; i < 5 * kDoublesPerPage; i += 37) {
      array[i] += 2.0;
      array.MarkDirtyElements(i, 1);
      ASSERT_TRUE(array.MaybePush().ok());
    }
    EXPECT_EQ(network_.total_bytes(), 0u);
    ASSERT_TRUE(array.Push().ok());
    EXPECT_EQ(network_.total_bytes(), 3 * kPage + envelope);
    EXPECT_EQ(GlobalDouble("weights", 2 * kDoublesPerPage), 2.0);
    EXPECT_EQ(GlobalDouble("weights", 2 * kDoublesPerPage + 37 * 30), 2.0);
  });
}

TEST_F(DdoTest, AsyncArrayDestroyedWithoutPushLeavesItsMarksForTheNextPush) {
  SeedDoubles("weights", 8 * kDoublesPerPage, 0.0);
  Run([&] {
    {
      AsyncArray<double> array(&tier_, "weights");
      ASSERT_TRUE(array.Attach().ok());
      array[3 * kDoublesPerPage + 7] = 4.0;
      array.MarkDirtyElements(3 * kDoublesPerPage + 7, 1);
    }
    auto kv = tier_.Lookup("weights");
    EXPECT_EQ(kv->region()->dirty().CollectDirtyRuns(),
              (std::vector<DirtyRun>{DirtyRun{3 * kPage, kPage}}));
    network_.ResetStats();
    ASSERT_TRUE(kv->Push().ok());
    EXPECT_LT(network_.total_bytes(), 2 * kPage);  // the one page, not the value
    EXPECT_EQ(GlobalDouble("weights", 3 * kDoublesPerPage + 7), 4.0);
  });
}

TEST_F(DdoTest, TwoAsyncArraysOnOneReplicaEachPushTheirOwnMarks) {
  SeedDoubles("weights", 8 * kDoublesPerPage, 0.0);
  AsyncArray<double> a(&tier_, "weights");
  AsyncArray<double> b(&tier_, "weights");
  Run([&] {
    ASSERT_TRUE(a.Attach().ok());
    ASSERT_TRUE(b.Attach().ok());
  });

  // Two writer activities: B pushes between A's write and A's push.
  uint64_t b_push_bytes = 0;
  {
    SimClock::Hold hold(executor_.clock());
    executor_.Spawn([&] {
      a[1 * kDoublesPerPage] = 1.5;
      a.MarkDirtyElements(1 * kDoublesPerPage, 1);
      executor_.clock().SleepFor(2 * kMillisecond);
      EXPECT_TRUE(a.Push().ok());
    });
    executor_.Spawn([&] {
      executor_.clock().SleepFor(kMillisecond);
      b[5 * kDoublesPerPage] = 2.5;
      b.MarkDirtyElements(5 * kDoublesPerPage, 1);
      network_.ResetStats();
      EXPECT_TRUE(b.Push().ok());
      b_push_bytes = network_.total_bytes();
      // A's mark is still private to A: B's push shipped B's page only.
      EXPECT_EQ(GlobalDouble("weights", 1 * kDoublesPerPage), 0.0);
    });
  }
  executor_.JoinAll();

  EXPECT_LT(b_push_bytes, 2 * kPage);
  EXPECT_EQ(GlobalDouble("weights", 5 * kDoublesPerPage), 2.5);
  EXPECT_EQ(GlobalDouble("weights", 1 * kDoublesPerPage), 1.5);  // A's write landed at A's push
}

TEST_F(DdoTest, AsyncArrayFullPushShipsTheWholeValue) {
  SeedDoubles("weights", 8 * kDoublesPerPage, 0.0);
  Run([&] {
    AsyncArray<double> array(&tier_, "weights");
    array.set_delta_push(false);
    ASSERT_TRUE(array.Attach().ok());
    array[0] = 1.0;
    array.MarkDirtyElements(0, 1);
    array[6 * kDoublesPerPage] = 6.0;  // unmarked: a full push ships it anyway
    network_.ResetStats();
    ASSERT_TRUE(array.Push().ok());
    EXPECT_GT(network_.total_bytes(), 8 * kPage);
    EXPECT_EQ(GlobalDouble("weights", 0), 1.0);
    EXPECT_EQ(GlobalDouble("weights", 6 * kDoublesPerPage), 6.0);
    // The full push superseded the marks: nothing is left to push.
    network_.ResetStats();
    ASSERT_TRUE(tier_.Lookup("weights")->Push().ok());
    EXPECT_EQ(network_.total_bytes(), 0u);
  });
}

TEST_F(DdoTest, ReadOnlyMatrixPullsColumnRanges) {
  const size_t rows = 64;
  const size_t cols = 512;
  std::vector<double> m(rows * cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      m[c * rows + r] = static_cast<double>(c * 1000 + r);
    }
  }
  const auto* p = reinterpret_cast<const uint8_t*>(m.data());
  store_.Set("matrix", Bytes(p, p + m.size() * sizeof(double)));

  Run([&] {
    ReadOnlyMatrix<double> matrix(&tier_, "matrix", rows, cols);
    ASSERT_TRUE(matrix.Init().ok());
    network_.ResetStats();
    ASSERT_TRUE(matrix.PullColumns(100, 110).ok());
    EXPECT_EQ(matrix.At(5, 105), 105005.0);
    // Only ~10 columns of 512 transferred (+ small protocol envelope).
    EXPECT_LT(network_.total_bytes(), 16 * rows * sizeof(double) + 512);
  });
}

TEST_F(DdoTest, SparseMatrixPullsColumnSlices) {
  // 3 columns: col0 = {(0, 1.0)}, col1 = {(1, 2.0), (2, 3.0)}, col2 = {}.
  std::vector<double> vals = {1.0, 2.0, 3.0};
  std::vector<uint32_t> rows = {0, 1, 2};
  std::vector<uint64_t> cols = {0, 1, 3, 3};
  auto put = [this](const std::string& key, const void* data, size_t bytes) {
    const auto* p = static_cast<const uint8_t*>(data);
    store_.Set(key, Bytes(p, p + bytes));
  };
  put("sm:vals", vals.data(), vals.size() * sizeof(double));
  put("sm:rows", rows.data(), rows.size() * sizeof(uint32_t));
  put("sm:cols", cols.data(), cols.size() * sizeof(uint64_t));

  Run([&] {
    SparseMatrixCsc matrix(&tier_, "sm");
    ASSERT_TRUE(matrix.Attach().ok());
    EXPECT_EQ(matrix.num_cols(), 3u);
    ASSERT_TRUE(matrix.PullColumns(1, 2).ok());
    EXPECT_EQ(matrix.col_ptr()[1], 1u);
    EXPECT_EQ(matrix.values()[1], 2.0);
    EXPECT_EQ(matrix.values()[2], 3.0);
    EXPECT_EQ(matrix.row_indices()[2], 2u);
  });
}

TEST_F(DdoTest, AppendLogRoundTrip) {
  Run([&] {
    AppendLog<double> log(&tier_, "losses");
    EXPECT_TRUE(log.ReadAll().value().empty());
    ASSERT_TRUE(log.Append(0.5).ok());
    ASSERT_TRUE(log.Append(0.25).ok());
    auto records = log.ReadAll();
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(records.value(), (std::vector<double>{0.5, 0.25}));
  });
}

}  // namespace
}  // namespace faasm

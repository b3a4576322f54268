// Workload correctness: SGD convergence on both platforms, distributed
// matmul vs single-node reference, MLP wasm == native == reference.
#include <gtest/gtest.h>

#include "baseline/knative.h"
#include "runtime/cluster.h"
#include "workloads/inference.h"
#include "workloads/matmul.h"
#include "workloads/sgd.h"

namespace faasm {
namespace {

ClusterConfig SmallCluster(int hosts) {
  ClusterConfig config;
  config.hosts = hosts;
  config.host.cores = 2;
  return config;
}

SgdConfig TinySgd() {
  SgdConfig config;
  config.n_examples = 512;
  config.n_features = 128;
  config.nnz_per_example = 8;
  config.n_workers = 4;
  config.n_epochs = 2;
  return config;
}

TEST(SgdWorkloadTest, ConvergesOnFaasm) {
  FaasmCluster cluster(SmallCluster(2));
  const SgdConfig config = TinySgd();
  SeedSgdDataset(cluster.kvs(), config);
  ASSERT_TRUE(RegisterSgdFunctions(cluster.registry()).ok());

  double loss = -1;
  cluster.Run([&](Frontend& frontend) {
    auto result = RunSgdTraining(frontend, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    loss = result.value();
  });
  // Labels have ~0.01 noise variance; untrained loss is >> 1.
  EXPECT_GE(loss, 0.0);
  EXPECT_LT(loss, 1.0);
}

TEST(SgdWorkloadTest, ConvergesOnKnative) {
  ContainerModel model;
  model.cold_start_ns = 10 * kMillisecond;  // keep the test quick
  KnativeCluster cluster(SmallCluster(2), model);
  const SgdConfig config = TinySgd();
  SeedSgdDataset(cluster.kvs(), config);
  ASSERT_TRUE(RegisterSgdFunctions(cluster.registry()).ok());

  double loss = -1;
  cluster.Run([&](KnativeCluster::Client& client) {
    auto result = RunSgdTraining(client, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    loss = result.value();
  });
  EXPECT_GE(loss, 0.0);
  // Containers train on private weight replicas (no HOGWILD sharing), so the
  // baseline converges more slowly than FAASM — the untrained loss is ~15.
  EXPECT_LT(loss, 3.0);
}

TEST(SgdWorkloadTest, FaasmShipsLessDataThanKnative) {
  const SgdConfig config = TinySgd();
  uint64_t faasm_bytes = 0;
  uint64_t knative_bytes = 0;
  {
    FaasmCluster cluster(SmallCluster(2));
    SeedSgdDataset(cluster.kvs(), config);
    ASSERT_TRUE(RegisterSgdFunctions(cluster.registry()).ok());
    cluster.Run([&](Frontend& frontend) {
      ASSERT_TRUE(RunSgdTraining(frontend, config).ok());
      faasm_bytes = cluster.network_bytes();
    });
  }
  {
    ContainerModel model;
    model.cold_start_ns = 10 * kMillisecond;
    KnativeCluster cluster(SmallCluster(2), model);
    SeedSgdDataset(cluster.kvs(), config);
    ASSERT_TRUE(RegisterSgdFunctions(cluster.registry()).ok());
    cluster.Run([&](KnativeCluster::Client& client) {
      ASSERT_TRUE(RunSgdTraining(client, config).ok());
      knative_bytes = cluster.network_bytes();
    });
  }
  // The headline Fig. 6b property: the shared local tier ships less data.
  EXPECT_LT(faasm_bytes, knative_bytes);
}

class MatmulSizes : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MatmulSizes, DistributedMatchesReference) {
  const uint32_t n = GetParam();
  FaasmCluster cluster(SmallCluster(2));
  MatmulConfig config;
  config.n = n;
  config.split_levels = n >= 64 ? 2 : 1;
  SeedMatmulInputs(cluster.kvs(), config);
  ASSERT_TRUE(RegisterMatmulFunctions(cluster.registry()).ok());

  cluster.Run([&](Frontend& frontend) {
    auto out_key = RunMatmul(frontend, config);
    ASSERT_TRUE(out_key.ok()) << out_key.status().ToString();
  });

  // Compare the distributed result against a single-node multiply.
  auto a_bytes = cluster.kvs().Get(kMatmulAKey).value();
  auto b_bytes = cluster.kvs().Get(kMatmulBKey).value();
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  std::memcpy(a.data(), a_bytes.data(), a_bytes.size());
  std::memcpy(b.data(), b_bytes.data(), b_bytes.size());
  const std::vector<double> expected = ReferenceMatmul(a, b, n);

  auto c_bytes = cluster.kvs().Get(std::string(kMatmulOutPrefix) + "root").value();
  ASSERT_EQ(c_bytes.size(), n * n * sizeof(double));
  std::vector<double> c(n * n);
  std::memcpy(c.data(), c_bytes.data(), c_bytes.size());
  for (size_t i = 0; i < c.size(); i += 17) {
    EXPECT_NEAR(c[i], expected[i], 1e-9) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSizes, ::testing::Values(32, 64, 128));

TEST(MatmulWorkloadTest, CallCountMatchesPaperShape) {
  // Two split levels: 64 leaf multiplications + 9 merges (+ 9 divides).
  FaasmCluster cluster(SmallCluster(2));
  MatmulConfig config;
  config.n = 64;
  config.split_levels = 2;
  SeedMatmulInputs(cluster.kvs(), config);
  ASSERT_TRUE(RegisterMatmulFunctions(cluster.registry()).ok());
  cluster.Run([&](Frontend& frontend) {
    ASSERT_TRUE(RunMatmul(frontend, config).ok());
  });
  size_t mults = 0;
  size_t merges = 0;
  for (const CallRecord& record : cluster.calls().FinishedRecords()) {
    if (record.function == "mm_div") {
      ++mults;
    } else if (record.function == "mm_merge") {
      ++merges;
    }
  }
  EXPECT_EQ(mults, 1u + 8u + 64u);  // root + internal + leaves
  EXPECT_EQ(merges, 9u);
}

TEST(InferenceWorkloadTest, WasmMatchesNativeAndReference) {
  const MlpDims dims;
  FaasmCluster cluster(SmallCluster(1));
  SeedMlpWeights(cluster.kvs(), dims);
  ASSERT_TRUE(RegisterMlpWasm(cluster.registry(), "infer", dims).ok());

  std::vector<uint32_t> wasm_results;
  cluster.Run([&](Frontend& frontend) {
    for (uint64_t request = 0; request < 5; ++request) {
      auto image = SyntheticImage(dims, request);
      auto id = frontend.Submit("infer", EncodeImage(image));
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(frontend.Await(id.value()).value(), 0);
      auto output = frontend.Output(id.value());
      ASSERT_TRUE(output.ok());
      uint32_t result = 0;
      std::memcpy(&result, output.value().data(), 4);
      wasm_results.push_back(result);
    }
  });

  for (uint64_t request = 0; request < 5; ++request) {
    const auto image = SyntheticImage(dims, request);
    EXPECT_EQ(wasm_results[request], MlpReference(cluster.kvs(), dims, image))
        << "request " << request;
  }
}

TEST(InferenceWorkloadTest, NativeTwinMatchesReference) {
  const MlpDims dims;
  ContainerModel model;
  model.cold_start_ns = 5 * kMillisecond;
  KnativeCluster cluster(SmallCluster(1), model);
  SeedMlpWeights(cluster.kvs(), dims);
  ASSERT_TRUE(RegisterMlpNative(cluster.registry(), "infer").ok());

  cluster.Run([&](KnativeCluster::Client& client) {
    for (uint64_t request = 0; request < 3; ++request) {
      auto image = SyntheticImage(dims, request);
      auto id = client.Submit("infer", EncodeImage(image));
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(client.Await(id.value()).value(), 0);
      uint32_t result = 0;
      std::memcpy(&result, client.Output(id.value()).value().data(), 4);
      EXPECT_EQ(result, MlpReference(cluster.kvs(), dims, image));
    }
  });
}

}  // namespace
}  // namespace faasm

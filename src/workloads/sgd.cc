#include "workloads/sgd.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "state/ddo.h"

namespace faasm {

size_t SeedSgdDataset(ShardedKvs& kvs, const SgdConfig& config) {
  Rng rng(config.seed);

  // Hidden ground-truth weights generate linearly-separable-ish labels so the
  // training loss demonstrably falls.
  std::vector<double> truth(config.n_features);
  for (auto& w : truth) {
    w = rng.NextGaussian();
  }

  // CSC arrays.
  std::vector<uint64_t> col_ptr(config.n_examples + 1, 0);
  std::vector<uint32_t> row_idx;
  std::vector<double> values;
  std::vector<double> labels(config.n_examples);

  for (uint32_t col = 0; col < config.n_examples; ++col) {
    double label = 0;
    for (uint32_t k = 0; k < config.nnz_per_example; ++k) {
      const uint32_t row = static_cast<uint32_t>(rng.NextBelow(config.n_features));
      const double value = rng.NextGaussian();
      row_idx.push_back(row);
      values.push_back(value);
      label += truth[row] * value;
    }
    col_ptr[col + 1] = values.size();
    labels[col] = label + 0.1 * rng.NextGaussian();  // noisy target
  }

  auto put = [&kvs](const std::string& key, const void* data, size_t bytes) {
    const auto* p = static_cast<const uint8_t*>(data);
    kvs.Set(key, Bytes(p, p + bytes));
    return bytes;
  };

  size_t total = 0;
  const std::string matrix = kSgdMatrixKey;
  total += put(matrix + ":vals", values.data(), values.size() * sizeof(double));
  total += put(matrix + ":rows", row_idx.data(), row_idx.size() * sizeof(uint32_t));
  total += put(matrix + ":cols", col_ptr.data(), col_ptr.size() * sizeof(uint64_t));
  total += put(kSgdLabelsKey, labels.data(), labels.size() * sizeof(double));

  std::vector<double> weights(config.n_features, 0.0);
  total += put(kSgdWeightsKey, weights.data(), weights.size() * sizeof(double));
  return total;
}

Bytes EncodeSgdWorkerInput(uint32_t col_start, uint32_t col_end, float learning_rate,
                           uint32_t push_interval, bool delta_push) {
  Bytes out;
  ByteWriter writer(out);
  writer.Put<uint32_t>(col_start);
  writer.Put<uint32_t>(col_end);
  writer.Put<float>(learning_rate);
  writer.Put<uint32_t>(push_interval);
  writer.Put<uint8_t>(delta_push ? 1 : 0);
  return out;
}

int SgdUpdateFunction(InvocationContext& ctx) {
  ByteReader reader(ctx.Input());
  auto col_start = reader.Get<uint32_t>();
  auto col_end = reader.Get<uint32_t>();
  auto learning_rate = reader.Get<float>();
  auto push_interval = reader.Get<uint32_t>();
  auto delta_push = reader.Get<uint8_t>();
  if (!col_start.ok() || !col_end.ok() || !learning_rate.ok() || !push_interval.ok() ||
      !delta_push.ok()) {
    return 2;
  }

  // DDOs over the two-tier state API (Listing 1 lines 1-3).
  SparseMatrixCsc matrix(&ctx.state(), kSgdMatrixKey);
  SharedArray<double> labels(&ctx.state(), kSgdLabelsKey);
  AsyncArray<double> weights(&ctx.state(), kSgdWeightsKey,
                             static_cast<int>(push_interval.value()));
  weights.set_delta_push(delta_push.value() != 0);
  if (!matrix.Attach().ok() || !weights.Attach().ok()) {
    return 3;
  }
  // Replicate only this worker's column range and label slice.
  if (!matrix.PullColumns(col_start.value(), col_end.value()).ok()) {
    return 4;
  }
  if (!labels.PullElements(col_start.value(), col_end.value() - col_start.value()).ok()) {
    return 5;
  }

  const uint64_t* col_ptr = matrix.col_ptr();
  const double* values = matrix.values();
  const uint32_t* rows = matrix.row_indices();
  double* w = weights.data();
  const double lr = learning_rate.value();

  // CPU time: a MaybePush below may wait in virtual time, and the other
  // workers' compute meanwhile is theirs to charge.
  CpuStopwatch compute;
  for (uint32_t col = col_start.value(); col < col_end.value(); ++col) {
    // Prediction with the current (racily shared) weights — HOGWILD.
    double prediction = 0;
    for (uint64_t k = col_ptr[col]; k < col_ptr[col + 1]; ++k) {
      prediction += w[rows[k]] * values[k];
    }
    const double error = labels[col] - prediction;
    for (uint64_t k = col_ptr[col]; k < col_ptr[col + 1]; ++k) {
      w[rows[k]] += lr * error * values[k];
      // Report the racy write so delta pushes ship only the touched pages.
      weights.MarkDirtyElements(rows[k], 1);
    }
    // Sporadic push of the shared vector to the global tier (line 13).
    if (!weights.MaybePush().ok()) {
      return 6;
    }
  }
  ctx.ChargeCompute(compute.ElapsedNs());

  if (!weights.Push().ok()) {
    return 7;
  }
  return 0;
}

int SgdLossFunction(InvocationContext& ctx) {
  SparseMatrixCsc matrix(&ctx.state(), kSgdMatrixKey);
  SharedArray<double> labels(&ctx.state(), kSgdLabelsKey);
  SharedArray<double> weights(&ctx.state(), kSgdWeightsKey);
  if (!matrix.Attach().ok() || !labels.Attach().ok() || !weights.Attach().ok()) {
    return 3;
  }
  // Evaluate on a fixed sample so the metric pass does not dominate the
  // experiment's data movement.
  const size_t n = std::min<size_t>(matrix.num_cols(), 1024);
  if (!matrix.PullColumns(0, n).ok()) {
    return 4;
  }

  const uint64_t* col_ptr = matrix.col_ptr();
  const double* values = matrix.values();
  const uint32_t* rows = matrix.row_indices();
  const double* w = weights.data();

  CpuStopwatch compute;
  double sum_sq = 0;
  for (size_t col = 0; col < n; ++col) {
    double prediction = 0;
    for (uint64_t k = col_ptr[col]; k < col_ptr[col + 1]; ++k) {
      prediction += w[rows[k]] * values[k];
    }
    const double error = labels[col] - prediction;
    sum_sq += error * error;
  }
  ctx.ChargeCompute(compute.ElapsedNs());

  const double mse = sum_sq / static_cast<double>(n);
  Bytes out;
  ByteWriter writer(out);
  writer.Put<double>(mse);
  ctx.WriteOutput(std::move(out));
  return 0;
}

Status RegisterSgdFunctions(FunctionRegistry& registry) {
  // Both functions hammer the shared weights vector; declaring it as the
  // placement affinity key lets the scheduler prefer the host mastering its
  // global-tier shard, whose weight pushes/pulls cost zero network bytes.
  FunctionOptions options;
  options.state_affinity_key = kSgdWeightsKey;
  FAASM_RETURN_IF_ERROR(registry.RegisterNative("sgd_update", SgdUpdateFunction, options));
  return registry.RegisterNative("sgd_loss", SgdLossFunction, options);
}

}  // namespace faasm

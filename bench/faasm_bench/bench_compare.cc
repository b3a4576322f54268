// bench_compare: compares two sets of faasm_bench --json results.
//
//   bench_compare <set-a> <set-b>
//
// Each set is a directory of result files (or one file). For every workload
// and every end-to-end metric — the metrics whose entries carry a "bound"
// and a "better" direction, copied from faasm_bench's table that
// BENCHMARK.json mirrors — it prints each set's median and quartiles, and
// whether set B's median is within set A's bound of A's median. A metric
// whose own spread in set A exceeds its bound is reported as unresolved.
// Exits 1 on any violation, 2 on unreadable input.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// Just enough JSON for result files: objects, arrays, strings (escapes
// kept verbatim), numbers, true/false/null.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    if (!Value(out)) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;
    return true;
  }
  bool Value(Json* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') {
          return false;
        }
        if (!Value(&out->object[key])) {
          return false;
        }
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return pos_ < text_.size() && text_[pos_++] == '}';
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back())) {
          return false;
        }
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return pos_ < text_.size() && text_[pos_++] == ']';
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) {
      return true;
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) {
      return false;
    }
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

struct Series {
  std::string unit;
  std::string better;
  double bound = 0;
  std::vector<double> values;
};
// workload -> metric -> series
using ResultSet = std::map<std::string, std::map<std::string, Series>>;

bool LoadFile(const std::filesystem::path& path, ResultSet* set) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  Json root;
  if (!in || !Parser(text).Parse(&root) || root.type != Json::Type::kObject) {
    std::fprintf(stderr, "bench_compare: cannot parse %s\n", path.c_str());
    return false;
  }
  const Json* workload = root.Get("workload");
  const Json* metrics = root.Get("metrics");
  const Json* traced = root.Get("traced");
  if (workload == nullptr || metrics == nullptr || workload->type != Json::Type::kString) {
    std::fprintf(stderr, "bench_compare: %s is not a faasm_bench result\n", path.c_str());
    return false;
  }
  if (traced != nullptr && traced->boolean) {
    return true;  // end-to-end numbers come from untraced runs only
  }
  for (const auto& [name, entry] : metrics->object) {
    const Json* value = entry.Get("value");
    const Json* bound = entry.Get("bound");
    const Json* better = entry.Get("better");
    if (value == nullptr || bound == nullptr || better == nullptr) {
      continue;  // per-layer metric: no bound
    }
    Series& series = (*set)[workload->string][name];
    series.unit = entry.Get("unit") != nullptr ? entry.Get("unit")->string : "";
    series.better = better->string;
    series.bound = bound->number;
    series.values.push_back(value->number);
  }
  return true;
}

bool LoadSet(const std::string& where, ResultSet* set) {
  std::error_code error;
  if (std::filesystem::is_directory(where, error)) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(where)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      if (!LoadFile(file, set)) {
        return false;
      }
    }
    return !files.empty();
  }
  return LoadFile(where, set);
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them (the
// default 'exclusive' method), so the numbers match the acceptance check.
std::vector<double> Quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const int len = static_cast<int>(data.size());
  if (len == 1) {
    return {data[0], data[0], data[0]};
  }
  std::vector<double> out;
  const int m = len + 1;
  for (int i = 1; i < 4; ++i) {
    int j = i * m / 4;
    j = std::clamp(j, 1, len - 1);
    const int delta = i * m - j * 4;
    out.push_back((data[j - 1] * (4 - delta) + data[j] * delta) / 4.0);
  }
  return out;
}

double Median(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const size_t n = data.size();
  return n % 2 == 1 ? data[n / 2] : (data[n / 2 - 1] + data[n / 2]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <set-a dir|file> <set-b dir|file>\n", argv[0]);
    return 2;
  }
  ResultSet a, b;
  if (!LoadSet(argv[1], &a) || !LoadSet(argv[2], &b)) {
    return 2;
  }
  int violations = 0;
  std::printf("%-8s %-20s %6s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric", "unit",
              "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict");
  for (const auto& [workload, metrics] : a) {
    for (const auto& [name, series_a] : metrics) {
      auto workload_b = b.find(workload);
      if (workload_b == b.end() || workload_b->second.count(name) == 0) {
        std::printf("%-8s %-20s missing from set B\n", workload.c_str(), name.c_str());
        ++violations;
        continue;
      }
      const Series& series_b = workload_b->second.at(name);
      const double median_a = Median(series_a.values);
      const double median_b = Median(series_b.values);
      const std::vector<double> qa = Quartiles(series_a.values);
      const std::vector<double> qb = Quartiles(series_b.values);
      // Positive change = B worse than A, as a share of A's median.
      const double sign = series_a.better == "higher" ? -1.0 : 1.0;
      const double change = median_a != 0 ? sign * (median_b - median_a) / median_a : 0;
      const double spread_a = median_a != 0 ? (qa[2] - qa[0]) / std::fabs(median_a) : 0;
      const char* verdict = "ok";
      if (change > series_a.bound) {
        verdict = "REGRESSION";
        ++violations;
      } else if (spread_a > series_a.bound) {
        verdict = "unresolved (A's spread exceeds the bound)";
      }
      char qa_text[64];
      char qb_text[64];
      std::snprintf(qa_text, sizeof(qa_text), "[%.4g, %.4g]", qa[0], qa[2]);
      std::snprintf(qb_text, sizeof(qb_text), "[%.4g, %.4g]", qb[0], qb[2]);
      std::printf("%-8s %-20s %6s %12.5g %25s %12.5g %25s %+7.1f%% %5.0f%%  %s (n=%zu/%zu)\n",
                  workload.c_str(), name.c_str(), series_a.unit.c_str(), median_a, qa_text,
                  median_b, qb_text, change * 100, series_a.bound * 100, verdict,
                  series_a.values.size(), series_b.values.size());
    }
  }
  std::printf("\n%d violation(s)\n", violations);
  return violations == 0 ? 0 : 1;
}

// The leveled logger: level filtering, the "[LEVEL file:line]" prefix, and
// silence below the configured level. Output goes to stderr, captured here.
#include "common/log.h"

#include <gtest/gtest.h>

#include <string>

namespace faasm {
namespace {

// Restores the process-wide level after each case (it defaults to kWarn).
class LogTest : public ::testing::Test {
 protected:
  LogTest() : saved_(GetLogLevel()) {}
  ~LogTest() override { SetLogLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST_F(LogTest, SetLogLevelFiltersBelowTheLevel) {
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  LOG_DEBUG << "hidden";
  LOG_INFO << "shown";
  LOG_ERROR << "also shown";
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("hidden"), std::string::npos) << out;
  EXPECT_NE(out.find("shown"), std::string::npos) << out;
  EXPECT_NE(out.find("also shown"), std::string::npos) << out;
}

TEST_F(LogTest, PrefixNamesTheLevelAndTheFileBasename) {
  SetLogLevel(LogLevel::kTrace);
  ::testing::internal::CaptureStderr();
  const int line = __LINE__ + 1;
  LOG_WARN << "value=" << 42;
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "[WARN  log_test.cc:" + std::to_string(line) + "] value=42\n");
  EXPECT_EQ(out.find('/'), std::string::npos) << "prefix carries a directory: " << out;
}

TEST_F(LogTest, NothingIsEmittedBelowTheLevel) {
  SetLogLevel(LogLevel::kOff);
  ::testing::internal::CaptureStderr();
  LOG_TRACE << "t";
  LOG_DEBUG << "d";
  LOG_INFO << "i";
  LOG_WARN << "w";
  LOG_ERROR << "e";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace faasm

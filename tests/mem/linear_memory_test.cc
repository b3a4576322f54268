#include "mem/linear_memory.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "mem/page.h"

namespace faasm {
namespace {

TEST(LinearMemoryTest, CreateWithInitialPages) {
  auto memory = LinearMemory::Create(2, 10);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();
  auto& m = *memory.value();
  EXPECT_EQ(m.size_pages(), 2u);
  EXPECT_EQ(m.size_bytes(), 2 * kWasmPageBytes);
  // Freshly committed pages read as zero.
  for (size_t i = 0; i < m.size_bytes(); i += 4096) {
    EXPECT_EQ(m.base()[i], 0);
  }
}

TEST(LinearMemoryTest, GrowReturnsOldSizeAndEnforcesMax) {
  auto memory = LinearMemory::Create(1, 3);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  EXPECT_EQ(m.Grow(1), 1u);
  EXPECT_EQ(m.size_pages(), 2u);
  EXPECT_EQ(m.Grow(1), 2u);
  EXPECT_EQ(m.Grow(1), UINT32_MAX);  // would exceed max
  EXPECT_EQ(m.size_pages(), 3u);
  EXPECT_EQ(m.Grow(0), 3u);
}

TEST(LinearMemoryTest, BoundsChecking) {
  auto memory = LinearMemory::Create(1, 1);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  EXPECT_TRUE(m.InBounds(0, kWasmPageBytes));
  EXPECT_FALSE(m.InBounds(0, kWasmPageBytes + 1));
  EXPECT_FALSE(m.InBounds(kWasmPageBytes, 1));
  EXPECT_TRUE(m.InBounds(kWasmPageBytes, 0));
  // Overflow attempt.
  EXPECT_FALSE(m.InBounds(UINT64_MAX - 1, 4));
}

TEST(LinearMemoryTest, ReadWriteChecked) {
  auto memory = LinearMemory::Create(1, 1);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  const uint32_t v = 0xcafef00d;
  ASSERT_TRUE(m.Write(100, &v, 4).ok());
  uint32_t readback = 0;
  ASSERT_TRUE(m.Read(100, &readback, 4).ok());
  EXPECT_EQ(readback, v);
  EXPECT_FALSE(m.Write(kWasmPageBytes - 2, &v, 4).ok());
  EXPECT_FALSE(m.Read(kWasmPageBytes - 2, &readback, 4).ok());
}

TEST(LinearMemoryTest, ReadCString) {
  auto memory = LinearMemory::Create(1, 1);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  const char* s = "hello";
  ASSERT_TRUE(m.Write(10, s, 6).ok());
  auto out = m.ReadCString(10);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), "hello");
  // Unterminated string within max_len fails.
  Bytes junk(32, 'x');
  ASSERT_TRUE(m.Write(200, junk.data(), junk.size()).ok());
  EXPECT_FALSE(m.ReadCString(200, 16).ok());
}

TEST(LinearMemoryTest, MapSharedRegionAliasesMemory) {
  auto memory = LinearMemory::Create(1, 100);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  auto region_result = SharedRegion::Create("shared", 3 * kHostPageBytes);
  ASSERT_TRUE(region_result.ok());
  std::shared_ptr<SharedRegion> region = std::move(region_result.value());

  auto offset = m.MapSharedRegion(region);
  ASSERT_TRUE(offset.ok()) << offset.status().ToString();
  EXPECT_EQ(offset.value(), kWasmPageBytes);  // appended after private page
  EXPECT_EQ(m.size_pages(), 2u);              // region rounded to one wasm page

  // Guest write visible through the region's host view and vice versa.
  m.base()[offset.value() + 5] = 0x5A;
  EXPECT_EQ(region->host_view()[5], 0x5A);
  region->host_view()[6] = 0x6B;
  EXPECT_EQ(m.base()[offset.value() + 6], 0x6B);
}

TEST(LinearMemoryTest, SharedRegionVisibleFromTwoMemories) {
  // The core Fig. 2 property: one region mapped into two Faaslet memories at
  // different offsets, bytes stored exactly once.
  auto mem_a = LinearMemory::Create(1, 100);
  auto mem_b = LinearMemory::Create(4, 100);
  ASSERT_TRUE(mem_a.ok());
  ASSERT_TRUE(mem_b.ok());
  auto region_result = SharedRegion::Create("s", kHostPageBytes);
  ASSERT_TRUE(region_result.ok());
  std::shared_ptr<SharedRegion> region = std::move(region_result.value());

  auto offset_a = mem_a.value()->MapSharedRegion(region);
  auto offset_b = mem_b.value()->MapSharedRegion(region);
  ASSERT_TRUE(offset_a.ok());
  ASSERT_TRUE(offset_b.ok());
  EXPECT_NE(offset_a.value(), offset_b.value());  // different guest offsets

  mem_a.value()->base()[offset_a.value() + 100] = 0x42;
  EXPECT_EQ(mem_b.value()->base()[offset_b.value() + 100], 0x42);
}

TEST(LinearMemoryTest, UnmapSharedRegionsRestoresPrivateMemory) {
  auto memory = LinearMemory::Create(1, 100);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  auto region_result = SharedRegion::Create("s", kHostPageBytes);
  ASSERT_TRUE(region_result.ok());
  std::shared_ptr<SharedRegion> region = std::move(region_result.value());
  region->host_view()[0] = 0x77;

  auto offset = m.MapSharedRegion(region);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(m.base()[offset.value()], 0x77);

  ASSERT_TRUE(m.UnmapSharedRegions().ok());
  EXPECT_EQ(m.size_pages(), 1u);
  EXPECT_TRUE(m.shared_mappings().empty());
  // Region data untouched by the unmap.
  EXPECT_EQ(region->host_view()[0], 0x77);
}

TEST(LinearMemoryTest, MemoryLimitAppliesToSharedMappings) {
  auto memory = LinearMemory::Create(1, 1);  // no headroom
  ASSERT_TRUE(memory.ok());
  auto region_result = SharedRegion::Create("s", kHostPageBytes);
  ASSERT_TRUE(region_result.ok());
  std::shared_ptr<SharedRegion> region = std::move(region_result.value());
  auto offset = memory.value()->MapSharedRegion(region);
  EXPECT_FALSE(offset.ok());
  EXPECT_EQ(offset.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace faasm

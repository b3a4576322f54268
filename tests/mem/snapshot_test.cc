#include "mem/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>

#include "mem/page.h"

namespace faasm {
namespace {

TEST(SnapshotTest, CaptureAndCowRestore) {
  auto memory = LinearMemory::Create(2, 10);
  ASSERT_TRUE(memory.ok());
  auto& m = *memory.value();
  std::memset(m.base(), 0x3C, m.size_bytes());

  auto snapshot = MemorySnapshot::Capture("snap", m.base(), m.size_bytes());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // Dirty the memory, then restore.
  std::memset(m.base(), 0xFF, m.size_bytes());
  ASSERT_TRUE(snapshot.value()->RestoreInto(m).ok());
  EXPECT_EQ(m.base()[0], 0x3C);
  EXPECT_EQ(m.base()[m.size_bytes() - 1], 0x3C);
}

TEST(SnapshotTest, CowWriteDoesNotCorruptSnapshot) {
  auto mem_a = LinearMemory::Create(1, 10);
  auto mem_b = LinearMemory::Create(1, 10);
  ASSERT_TRUE(mem_a.ok());
  ASSERT_TRUE(mem_b.ok());
  std::memset(mem_a.value()->base(), 0x10, kWasmPageBytes);

  auto snapshot = MemorySnapshot::Capture("snap", mem_a.value()->base(), kWasmPageBytes);
  ASSERT_TRUE(snapshot.ok());

  // Restore into two memories; writes in one must not leak into the other or
  // into the snapshot (copy-on-write isolation).
  ASSERT_TRUE(snapshot.value()->RestoreInto(*mem_a.value()).ok());
  ASSERT_TRUE(snapshot.value()->RestoreInto(*mem_b.value()).ok());
  mem_a.value()->base()[7] = 0xEE;
  EXPECT_EQ(mem_b.value()->base()[7], 0x10);
  ASSERT_TRUE(snapshot.value()->RestoreInto(*mem_a.value()).ok());
  EXPECT_EQ(mem_a.value()->base()[7], 0x10);
}

TEST(SnapshotTest, SerializeDeserializeRoundTrip) {
  Bytes image(10000);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i);
  }
  auto snapshot = MemorySnapshot::Capture("snap", image.data(), image.size());
  ASSERT_TRUE(snapshot.ok());
  Bytes serialized = snapshot.value()->Serialize();
  EXPECT_EQ(serialized, image);

  // Cross-host path: rebuild from bytes, restore, verify.
  auto remote = MemorySnapshot::Deserialize("remote", serialized);
  ASSERT_TRUE(remote.ok());
  auto memory = LinearMemory::Create(1, 10);
  ASSERT_TRUE(memory.ok());
  ASSERT_TRUE(remote.value()->RestoreInto(*memory.value()).ok());
  EXPECT_EQ(memory.value()->base()[9999], static_cast<uint8_t>(9999));
}

TEST(SnapshotTest, RestoreGrowsSmallMemory) {
  auto big = LinearMemory::Create(4, 10);
  ASSERT_TRUE(big.ok());
  std::memset(big.value()->base(), 0x44, big.value()->size_bytes());
  auto snapshot =
      MemorySnapshot::Capture("snap", big.value()->base(), big.value()->size_bytes());
  ASSERT_TRUE(snapshot.ok());

  auto small = LinearMemory::Create(1, 10);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(snapshot.value()->RestoreInto(*small.value()).ok());
  EXPECT_GE(small.value()->size_pages(), 4u);
  EXPECT_EQ(small.value()->base()[4 * kWasmPageBytes - 1], 0x44);
}

TEST(SnapshotTest, RestoreFailsPastMemoryLimit) {
  auto big = LinearMemory::Create(4, 4);
  ASSERT_TRUE(big.ok());
  auto snapshot =
      MemorySnapshot::Capture("snap", big.value()->base(), big.value()->size_bytes());
  ASSERT_TRUE(snapshot.ok());
  auto tiny = LinearMemory::Create(1, 2);  // limit below snapshot size
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(snapshot.value()->RestoreInto(*tiny.value()).ok());
}

}  // namespace
}  // namespace faasm

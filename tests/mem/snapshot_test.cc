#include "mem/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

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

// The bytes a snapshot of `image` serialises to.
Bytes SerializedImage(const Bytes& image) {
  auto snapshot = MemorySnapshot::Capture("snap", image.data(), image.size());
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value()->Serialize() : Bytes{};
}

// Restores `serialized` into a fresh memory and returns its first
// `image_len` bytes; the rest of the memory must read zero.
Bytes RestoredImage(const Bytes& serialized, size_t image_len) {
  auto remote = MemorySnapshot::Deserialize("remote", serialized);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  auto memory = LinearMemory::Create(1, 10);
  EXPECT_TRUE(memory.ok());
  if (!remote.ok() || !memory.ok()) {
    return {};
  }
  EXPECT_EQ(remote.value()->size(), image_len);
  EXPECT_TRUE(remote.value()->RestoreInto(*memory.value()).ok());
  const uint8_t* base = memory.value()->base();
  for (size_t i = image_len; i < memory.value()->size_bytes(); ++i) {
    if (base[i] != 0) {
      ADD_FAILURE() << "byte " << i << " past the image is not zero";
      break;
    }
  }
  return Bytes(base, base + image_len);
}

// A serialised image written field by field: the logical size, then pages.
struct RawImage {
  uint64_t size = 0;
  std::vector<std::pair<uint32_t, Bytes>> pages;

  Bytes Encode() const {
    Bytes out;
    ByteWriter writer(out);
    writer.Put<uint64_t>(size);
    writer.Put<uint32_t>(static_cast<uint32_t>(pages.size()));
    for (const auto& [index, bytes] : pages) {
      writer.Put<uint32_t>(index);
      writer.PutBytes(bytes);
    }
    return out;
  }
};

TEST(SnapshotTest, SerializeDeserializeRoundTrip) {
  Bytes image(10000);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i);
  }
  // Cross-host path: rebuild from bytes, restore, verify.
  EXPECT_EQ(RestoredImage(SerializedImage(image), image.size()), image);
}

TEST(SnapshotTest, SerializedImageHoldsOnlyPagesWithData) {
  // All zero: the header alone.
  const Bytes zero(kWasmPageBytes, 0);
  const Bytes zero_wire = SerializedImage(zero);
  EXPECT_EQ(zero_wire.size(), sizeof(uint64_t) + sizeof(uint32_t));
  EXPECT_EQ(RestoredImage(zero_wire, zero.size()), zero);

  // Full: every host page, each with its 8-byte page header.
  Bytes full(kWasmPageBytes);
  for (size_t i = 0; i < full.size(); ++i) {
    full[i] = static_cast<uint8_t>(1 + i % 251);
  }
  const Bytes full_wire = SerializedImage(full);
  EXPECT_EQ(full_wire.size(), 12 + full.size() + 8 * (full.size() / kHostPageBytes));
  EXPECT_EQ(RestoredImage(full_wire, full.size()), full);

  // Sparse, with a short last page: pages 1 and 3 (of 3.5) hold data.
  Bytes sparse(3 * kHostPageBytes + 100, 0);
  sparse[kHostPageBytes + 7] = 0xAB;
  sparse[sparse.size() - 1] = 0xCD;
  const Bytes sparse_wire = SerializedImage(sparse);
  EXPECT_EQ(sparse_wire.size(), 12 + 8 + kHostPageBytes + 8 + 100);
  EXPECT_EQ(RestoredImage(sparse_wire, sparse.size()), sparse);
}

TEST(SnapshotTest, DecoderRefusesMalformedPageTables) {
  const Bytes page(kHostPageBytes, 7);
  struct Case {
    const char* name;
    RawImage image;
  };
  const std::vector<Case> cases = {
      {"page index at the size", {2 * kHostPageBytes, {{2, page}}}},
      {"page index past the size", {kHostPageBytes, {{100, page}}}},
      {"page index that overflows a byte offset", {kHostPageBytes, {{0xFFFFFFFFu, page}}}},
      {"duplicate page", {4 * kHostPageBytes, {{1, page}, {1, page}}}},
      {"out-of-order pages", {4 * kHostPageBytes, {{2, page}, {1, page}}}},
      {"page longer than a host page", {4 * kHostPageBytes, {{0, Bytes(kHostPageBytes + 1, 7)}}}},
      {"last page past the size", {kHostPageBytes + 10, {{1, Bytes(11, 7)}}}},
      {"size above 4 GiB", {(uint64_t{1} << 32) + 1, {}}},
      {"size far above 4 GiB", {~uint64_t{0}, {{0, page}}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_FALSE(MemorySnapshot::Deserialize("bad", c.image.Encode()).ok());
  }
  // A page count the bytes cannot hold, and bytes after the last page.
  Bytes huge_count;
  ByteWriter writer(huge_count);
  writer.Put<uint64_t>(kHostPageBytes);
  writer.Put<uint32_t>(0xFFFFFFFFu);
  EXPECT_FALSE(MemorySnapshot::Deserialize("bad", huge_count).ok());
  Bytes trailing = RawImage{kHostPageBytes, {{0, page}}}.Encode();
  trailing.push_back(0);
  EXPECT_FALSE(MemorySnapshot::Deserialize("bad", trailing).ok());

  // The largest image the wasm address space holds still decodes (its holes
  // take no memory).
  const RawImage largest{uint64_t{1} << 32, {{0, page}, {(1u << 20) - 1, page}}};
  auto decoded = MemorySnapshot::Deserialize("largest", largest.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value()->size(), uint64_t{1} << 32);
}

// Every mutant either fails to decode or decodes to a snapshot that restores
// (or refuses to restore) cleanly.
void ExpectDecodesOrFails(const Bytes& bytes) {
  auto decoded = MemorySnapshot::Deserialize("mutant", bytes);
  if (!decoded.ok()) {
    return;
  }
  EXPECT_LE(decoded.value()->size(), uint64_t{1} << 32);
  auto memory = LinearMemory::Create(1, 4);
  ASSERT_TRUE(memory.ok());
  (void)decoded.value()->RestoreInto(*memory.value());
}

TEST(SnapshotTest, TruncatedFlippedAndSplicedImagesNeverCrash) {
  Bytes a_image(2 * kHostPageBytes + 300, 0);
  a_image[5] = 1;
  a_image[a_image.size() - 2] = 2;
  Bytes b_image(3 * kHostPageBytes, 0);
  b_image[kHostPageBytes] = 3;
  const Bytes a = SerializedImage(a_image);
  const Bytes b = SerializedImage(b_image);

  for (size_t len = 0; len < a.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    EXPECT_FALSE(MemorySnapshot::Deserialize("cut", Bytes(a.begin(), a.begin() + len)).ok());
  }
  // Every bit of the headers (size, count, first page header), and a stride
  // through the rest.
  for (size_t bit = 0; bit < a.size() * 8; bit += bit < 20 * 8 ? 1 : 61) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    Bytes mutant = a;
    mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ExpectDecodesOrFails(mutant);
  }
  // The head of one image on the tail of the other, at every cut.
  for (size_t cut = 0; cut <= std::min(a.size(), b.size()); cut += 7) {
    SCOPED_TRACE("splice at " + std::to_string(cut));
    Bytes ab(a.begin(), a.begin() + cut);
    ab.insert(ab.end(), b.begin() + cut, b.end());
    ExpectDecodesOrFails(ab);
    Bytes ba(b.begin(), b.begin() + cut);
    ba.insert(ba.end(), a.begin() + cut, a.end());
    ExpectDecodesOrFails(ba);
  }
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

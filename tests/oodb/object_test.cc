// Tests for the object codec (encode/decode, corruption detection).

#include "oodb/object.h"

#include <gtest/gtest.h>

#include <string>

namespace ocb {
namespace {

Object SampleObject() {
  Object obj;
  obj.class_id = 3;
  obj.orefs = {10, kInvalidOid, 12};
  obj.backrefs = {7, 8};
  obj.filler_size = 64;
  return obj;
}

TEST(ObjectCodecTest, RoundTrip) {
  const Object original = SampleObject();
  std::vector<uint8_t> bytes;
  original.EncodeTo(&bytes);
  EXPECT_EQ(bytes.size(), original.EncodedSize());

  auto decoded = Object::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->class_id, original.class_id);
  EXPECT_EQ(decoded->orefs, original.orefs);
  EXPECT_EQ(decoded->backrefs, original.backrefs);
  EXPECT_EQ(decoded->filler_size, original.filler_size);
}

TEST(ObjectCodecTest, EmptyObject) {
  Object obj;
  obj.class_id = 0;
  obj.filler_size = 0;
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  EXPECT_EQ(bytes.size(), 12u);  // Header only.
  auto decoded = Object::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->orefs.empty());
  EXPECT_TRUE(decoded->backrefs.empty());
}

TEST(ObjectCodecTest, EncodedSizeFormula) {
  const Object obj = SampleObject();
  EXPECT_EQ(obj.EncodedSize(), 12u + 8u * (3 + 2) + 64u);
}

TEST(ObjectCodecTest, TruncatedHeaderIsCorruption) {
  std::vector<uint8_t> bytes = {1, 2, 3};
  EXPECT_TRUE(Object::Decode(bytes).status().IsCorruption());
}

TEST(ObjectCodecTest, LengthMismatchIsCorruption) {
  const Object obj = SampleObject();
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  bytes.pop_back();
  EXPECT_TRUE(Object::Decode(bytes).status().IsCorruption());
  bytes.push_back(0);
  bytes.push_back(0);
  EXPECT_TRUE(Object::Decode(bytes).status().IsCorruption());
}

TEST(ObjectCodecTest, FillerTamperingIsDetected) {
  const Object obj = SampleObject();
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  bytes.back() ^= 0xFF;  // Flip a filler byte.
  EXPECT_TRUE(Object::Decode(bytes).status().IsCorruption());
}

// Class ids whose ramp start (c * 131) & 0xFF lies above 200, so the
// filler ramp wraps past 0xFF within its first 56 bytes.
constexpr ClassId kWrappingClasses[] = {25, 39};

TEST(ObjectCodecTest, FillerRoundTripsAcross256ByteWindows) {
  for (ClassId c : {ClassId{0}, ClassId{3}, kWrappingClasses[0],
                    kWrappingClasses[1]}) {
    for (uint32_t size : {0u, 1u, 255u, 256u, 257u, 1000u}) {
      Object obj;
      obj.class_id = c;
      obj.orefs = {c + 1};
      obj.filler_size = size;
      std::vector<uint8_t> bytes;
      obj.EncodeTo(&bytes);
      ASSERT_EQ(bytes.size(), obj.EncodedSize());
      const size_t filler = bytes.size() - size;
      for (uint32_t i = 0; i < size; ++i) {
        ASSERT_EQ(bytes[filler + i],
                  static_cast<uint8_t>((c * 131 + i) & 0xFF))
            << "class " << c << " size " << size << " offset " << i;
      }
      auto decoded = Object::Decode(bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->class_id, c);
      EXPECT_EQ(decoded->orefs, obj.orefs);
      EXPECT_EQ(decoded->filler_size, size);
    }
  }
}

TEST(ObjectCodecTest, FillerCorruptionNamesTheFirstBadByte) {
  for (ClassId c : kWrappingClasses) {
    EXPECT_GT((c * 131) & 0xFF, 200u);
    Object obj;
    obj.class_id = c;
    obj.filler_size = 1000;
    std::vector<uint8_t> clean;
    obj.EncodeTo(&clean);
    const size_t filler = clean.size() - obj.filler_size;
    for (uint32_t offset : {0u, 255u, 256u, 999u}) {
      std::vector<uint8_t> bytes = clean;
      bytes[filler + offset] ^= 0x5A;
      const Status st = Object::Decode(bytes).status();
      EXPECT_TRUE(st.IsCorruption());
      EXPECT_EQ(st.message(),
                "filler corruption at byte " + std::to_string(offset));
    }
  }
}

TEST(ObjectCodecTest, RefTamperingIsAccepted) {
  // Reference words carry arbitrary values; only framing and filler are
  // checked. Decoding must not reject a changed oid.
  const Object obj = SampleObject();
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  bytes[12] ^= 0x01;  // First oref's low byte.
  auto decoded = Object::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orefs[0], 11u);
}

TEST(ObjectCodecTest, LiveRefCountSkipsNulls) {
  const Object obj = SampleObject();
  EXPECT_EQ(obj.LiveRefCount(), 2u);
  Object empty;
  EXPECT_EQ(empty.LiveRefCount(), 0u);
}

TEST(ObjectCodecTest, LargeRefArrays) {
  Object obj;
  obj.class_id = 1;
  obj.filler_size = 10;
  for (uint64_t i = 1; i <= 300; ++i) obj.orefs.push_back(i);
  for (uint64_t i = 1; i <= 500; ++i) obj.backrefs.push_back(i * 7);
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  auto decoded = Object::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orefs.size(), 300u);
  EXPECT_EQ(decoded->backrefs.size(), 500u);
  EXPECT_EQ(decoded->backrefs[499], 500u * 7);
}

}  // namespace
}  // namespace ocb

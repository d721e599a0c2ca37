// The shared byte codec (common/bytes.h): Put*/Read* round-trip every
// value bitwise, the layout is little-endian, and every read of a short
// span fails with OutOfRange without reading past it or allocating for a
// count the span cannot hold.

#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace pmkm {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(BytesTest, LittleEndianLayout) {
  std::vector<uint8_t> out;
  PutU32(&out, 0x01020304u);
  PutU64(&out, 0x1122334455667788ull);
  PutI32(&out, -2);
  PutBool(&out, true);
  PutString(&out, "ab");
  PutF64(&out, 1.0);
  const std::vector<uint8_t> expected = {
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0x01,                                            // bool
      0x02, 0x00, 0x00, 0x00, 'a',  'b',               // string
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
  };
  EXPECT_EQ(out, expected);

  uint8_t fixed[4];
  StoreU32(fixed, 0xA1B2C3D4u);
  EXPECT_EQ(fixed[0], 0xD4);
  EXPECT_EQ(fixed[3], 0xA1);
  EXPECT_EQ(LoadU32(fixed), 0xA1B2C3D4u);
  EXPECT_EQ(LoadU64(expected.data() + 4), 0x1122334455667788ull);
}

TEST(BytesTest, DoublesRoundTripBitwise) {
  const std::vector<uint64_t> patterns = {
      Bits(-0.0),
      0x7FF8000000000123ull,  // quiet NaN with a payload
      0xFFF0000000000001ull,  // negative signalling NaN
      0x0000000000000001ull,  // smallest denormal
      Bits(std::numeric_limits<double>::infinity()),
      Bits(0.1 + 0.2),
  };
  std::vector<uint8_t> out;
  for (uint64_t bits : patterns) PutF64(&out, FromBits(bits));
  ByteReader reader(out);
  for (uint64_t bits : patterns) {
    double v = 0.0;
    ASSERT_TRUE(reader.ReadF64(&v).ok());
    EXPECT_EQ(Bits(v), bits);
  }
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BytesTest, IntegersStringsAndVectorsRoundTrip) {
  std::vector<uint8_t> out;
  PutU64(&out, 0x8000000000000001ull);
  PutI32(&out, std::numeric_limits<int32_t>::min());
  PutI32(&out, -7);
  PutU64(&out, static_cast<uint64_t>(int64_t{-3}));
  PutBool(&out, false);
  out.push_back(0x7F);  // any non-zero byte reads as true
  PutString(&out, std::string("x\0y", 3));
  PutU64(&out, 2);
  PutF64(&out, -0.0);
  PutF64(&out, 2.5);

  ByteReader reader(out);
  uint64_t u64 = 0;
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  EXPECT_EQ(u64, 0x8000000000000001ull);
  int32_t i32 = 0;
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  EXPECT_EQ(i32, std::numeric_limits<int32_t>::min());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  EXPECT_EQ(i32, -7);
  int64_t i64 = 0;
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  EXPECT_EQ(i64, -3);
  bool flag = true;
  ASSERT_TRUE(reader.ReadBool(&flag).ok());
  EXPECT_FALSE(flag);
  ASSERT_TRUE(reader.ReadBool(&flag).ok());
  EXPECT_TRUE(flag);
  std::string s;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, std::string("x\0y", 3));
  std::vector<double> vec;
  ASSERT_TRUE(reader.ReadF64Vec(&vec).ok());
  ASSERT_EQ(vec.size(), 2u);
  EXPECT_EQ(Bits(vec[0]), Bits(-0.0));
  EXPECT_EQ(vec[1], 2.5);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BytesTest, ReadBytesIsAViewAndAdvances) {
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ByteReader reader(data);
  std::span<const uint8_t> view;
  ASSERT_TRUE(reader.ReadBytes(2, &view).ok());
  EXPECT_EQ(view.data(), data.data());
  EXPECT_EQ(view.size(), 2u);
  ASSERT_TRUE(reader.ReadBytes(3, &view).ok());
  EXPECT_EQ(view.data(), data.data() + 2);
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_TRUE(reader.ReadBytes(0, &view).ok());
  EXPECT_TRUE(reader.ReadBytes(1, &view).IsOutOfRange());
}

// One encoded value and the read that consumes exactly it.
struct Case {
  const char* name;
  std::vector<uint8_t> bytes;
  std::function<Status(ByteReader*)> read;
};

std::vector<Case> AllReads() {
  std::vector<Case> cases;
  const auto add = [&](const char* name,
                       const std::function<void(std::vector<uint8_t>*)>& put,
                       std::function<Status(ByteReader*)> read) {
    Case c{name, {}, std::move(read)};
    put(&c.bytes);
    cases.push_back(std::move(c));
  };
  add("u32", [](auto* o) { PutU32(o, 7); },
      [](ByteReader* r) { uint32_t v; return r->ReadU32(&v); });
  add("u64", [](auto* o) { PutU64(o, 7); },
      [](ByteReader* r) { uint64_t v; return r->ReadU64(&v); });
  add("i32", [](auto* o) { PutI32(o, -7); },
      [](ByteReader* r) { int32_t v; return r->ReadI32(&v); });
  add("i64", [](auto* o) { PutU64(o, 7); },
      [](ByteReader* r) { int64_t v; return r->ReadI64(&v); });
  add("f64", [](auto* o) { PutF64(o, 0.5); },
      [](ByteReader* r) { double v; return r->ReadF64(&v); });
  add("bool", [](auto* o) { PutBool(o, true); },
      [](ByteReader* r) { bool v; return r->ReadBool(&v); });
  add("string", [](auto* o) { PutString(o, "hello"); },
      [](ByteReader* r) { std::string v; return r->ReadString(&v); });
  add("bytes", [](auto* o) { o->assign(6, 0xAB); },
      [](ByteReader* r) {
        std::span<const uint8_t> v;
        return r->ReadBytes(6, &v);
      });
  add("f64vec",
      [](auto* o) {
        PutU64(o, 2);
        PutF64(o, 1.0);
        PutF64(o, 2.0);
      },
      [](ByteReader* r) {
        std::vector<double> v;
        return r->ReadF64Vec(&v);
      });
  return cases;
}

TEST(BytesTest, EveryReadFailsOutOfRangeOnEveryPrefix) {
  for (const Case& c : AllReads()) {
    SCOPED_TRACE(c.name);
    {
      ByteReader full(c.bytes);
      ASSERT_TRUE(c.read(&full).ok());
      EXPECT_EQ(full.remaining(), 0u);
    }
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      ByteReader reader(std::span<const uint8_t>(c.bytes.data(), len));
      const Status st = c.read(&reader);
      EXPECT_TRUE(st.IsOutOfRange()) << "prefix " << len << ": " << st;
      EXPECT_LE(reader.remaining(), len);
    }
  }
}

TEST(BytesTest, OversizedCountsRejectedWithoutAllocating) {
  {
    std::vector<uint8_t> out;
    PutU32(&out, 0xFFFFFFFFu);  // a 4 GiB string in a 7-byte span
    out.insert(out.end(), {'a', 'b', 'c'});
    ByteReader reader(out);
    std::string s;
    EXPECT_TRUE(reader.ReadString(&s).IsOutOfRange());
    EXPECT_TRUE(s.empty());
    EXPECT_LE(s.capacity(), std::string().capacity());
  }
  for (uint64_t count : {uint64_t{2}, uint64_t{1} << 61,
                         std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> out;
    PutU64(&out, count);
    PutF64(&out, 1.0);  // room for one double, not `count`
    ByteReader reader(out);
    std::vector<double> vec;
    EXPECT_TRUE(reader.ReadF64Vec(&vec).IsOutOfRange()) << count;
    EXPECT_EQ(vec.capacity(), 0u);
  }
}

}  // namespace
}  // namespace pmkm

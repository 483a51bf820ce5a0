// Hostile .vrsy bundles: the loader must never trust a declared length.
// Each case hand-crafts bundle bytes whose headers lie — element counts
// past EOF, counts whose byte size wraps uint64, files past the arena
// budget — and asserts a typed refusal with no crash and no attempt to
// materialize the declared sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "common/limits.h"
#include "serve/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

void AppendU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void AppendDouble(std::string* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendU64(out, bits);
}
void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  *out += s;
}

/// The file header of the format version this build reads (3): any other
/// version stops at the version check, before the parsers under test.
std::string FileHeader() {
  std::string out = "VRSY";
  AppendU16(&out, 3);  // format version
  AppendU16(&out, 0);  // reserved
  return out;
}

/// Appends one section with a valid CRC, so a refusal provably comes from
/// parsing its payload, not from checksum verification.
void AppendSection(std::string* bundle, char tag, const std::string& payload) {
  AppendU32(bundle, static_cast<uint32_t>(tag));
  AppendU64(bundle, payload.size());
  *bundle += payload;
  AppendU32(bundle, Crc32(payload.data(), payload.size()));
}

/// A file header plus a header section the loader accepts for the test
/// schema: a view section after it is parsed, not refused for lacking one.
std::string BundleThroughHeaderSection() {
  std::string payload;
  AppendU64(&payload, SchemaFingerprint(testing_support::MakeTestSchema()));
  AppendU32(&payload, 1);       // declared views
  AppendDouble(&payload, 1.0);  // total ε
  AppendDouble(&payload, 1.0);  // spent ε
  AppendU32(&payload, 1);       // ledger entries
  AppendU32(&payload, 0);       // refunds
  std::string bundle = FileHeader();
  AppendSection(&bundle, 'H', payload);
  return bundle;
}

/// A view section payload that parses up to its noisy count array, whose
/// declared element count is `count`.
std::string ViewPayloadDeclaringDoubles(uint64_t count) {
  std::string payload;
  AppendString(&payload, "v");
  AppendString(&payload, "SELECT count(*) FROM orders o");
  AppendU32(&payload, 0);       // attributes
  AppendU32(&payload, 0);       // measures
  AppendU32(&payload, 0);       // dimensions
  AppendU64(&payload, 1);       // total cells
  AppendU64(&payload, 1);       // build stats: tau
  AppendU64(&payload, 1);       //   cells
  AppendDouble(&payload, 1.0);  //   epsilon
  AppendU32(&payload, 1);       // measure records
  AppendString(&payload, "count");
  AppendDouble(&payload, 1.0);  //   noise scale
  AppendU64(&payload, count);   //   cell count
  return payload;
}

std::string WriteBundle(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
  return path;
}

Status LoadStatus(const std::string& path,
                  const ResourceLimits& limits = ResourceLimits::Defaults()) {
  Schema schema = testing_support::MakeTestSchema();
  auto store = SynopsisStore::Load(path, schema, limits);
  return store.ok() ? Status::OK() : store.status();
}

TEST(HostileBundleTest, SectionDeclaringTwoToTheSixtyDoublesRefused) {
  // A cell array declaring 2^60 doubles. The old bounds check computed
  // n * 8, which wraps to 0 for n = 2^61 — this count is chosen so both
  // the wrap and the straight comparison paths must refuse.
  std::string bundle = BundleThroughHeaderSection();
  AppendSection(&bundle, 'V',
                ViewPayloadDeclaringDoubles(uint64_t{1} << 60) + "xyz");
  Status st = LoadStatus(WriteBundle("huge_double_count.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("declares 1152921504606846976 elements"),
            std::string::npos)
      << st.ToString();
}

TEST(HostileBundleTest, ElementCountWhoseByteSizeWrapsUint64Refused) {
  // n = 2^61: n * 8 == 2^64 == 0 (mod 2^64). A `Need(n * 8)` style check
  // passes vacuously; the divide-based check must still refuse.
  std::string bundle = BundleThroughHeaderSection();
  AppendSection(&bundle, 'V', ViewPayloadDeclaringDoubles(uint64_t{1} << 61));
  Status st = LoadStatus(WriteBundle("wrapping_count.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("declares 2305843009213693952 elements"),
            std::string::npos)
      << st.ToString();
}

TEST(HostileBundleTest, SectionLengthPastEofRefused) {
  std::string bundle = FileHeader();
  AppendU32(&bundle, 'H');
  AppendU64(&bundle, uint64_t{1} << 60);  // payload "length"
  bundle += "tiny";
  Status st = LoadStatus(WriteBundle("section_past_eof.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("truncated synopsis bundle"), std::string::npos)
      << st.ToString();
}

TEST(HostileBundleTest, FileLargerThanArenaBudgetRefusedBeforeBuffering) {
  ResourceLimits limits;
  limits.max_arena_bytes = 1024;
  std::string bundle = FileHeader();
  bundle.append(4096, '\0');
  Status st = LoadStatus(WriteBundle("oversized_file.vrsy", bundle), limits);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

TEST(HostileBundleTest, BadMagicRefused) {
  Status st = LoadStatus(WriteBundle("bad_magic.vrsy",
                                     std::string("NOPE") + FileHeader()));
  ASSERT_FALSE(st.ok());
}

TEST(HostileBundleTest, EmptyFileRefused) {
  Status st = LoadStatus(WriteBundle("empty.vrsy", ""));
  ASSERT_FALSE(st.ok());
}

}  // namespace
}  // namespace viewrewrite

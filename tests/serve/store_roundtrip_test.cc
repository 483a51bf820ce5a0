#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/census.h"
#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/rewriter.h"
#include "serve/synopsis_store.h"
#include "sql/parser.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

std::vector<std::string> SmallWorkload(int w, size_t n, uint64_t seed = 11) {
  WorkloadGenerator gen(1, seed);
  auto queries = gen.Generate(w);
  EXPECT_TRUE(queries.ok());
  std::vector<std::string> sql;
  for (size_t i = 0; i < std::min(n, queries->size()); ++i) {
    sql.push_back((*queries)[i].sql);
  }
  return sql;
}

/// Save -> Load -> Answer must reproduce the in-memory noisy answers
/// *bit-identically*: once published, the noisy cells are plain data, and
/// the bundle stores doubles by bit pattern.
void ExpectBitIdenticalRoundTrip(ViewRewriteEngine& engine,
                                 const Schema& schema,
                                 const std::vector<std::string>& workload,
                                 const std::string& path) {
  auto in_memory = SynopsisStore::FromManager(engine.views(), schema);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  ASSERT_TRUE(in_memory->Save(path).ok());
  auto loaded = SynopsisStore::Load(path, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->NumViews(), in_memory->NumViews());
  EXPECT_EQ(loaded->schema_fingerprint(), in_memory->schema_fingerprint());
  EXPECT_EQ(loaded->ledger().total_epsilon, in_memory->ledger().total_epsilon);
  EXPECT_EQ(loaded->ledger().spent_epsilon, in_memory->ledger().spent_epsilon);
  EXPECT_EQ(loaded->ledger().entries, in_memory->ledger().entries);

  Rewriter rewriter(schema);
  size_t answered = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!engine.report().query_status[i].ok()) continue;
    Result<double> engine_answer = engine.NoisyAnswer(i);
    ASSERT_TRUE(engine_answer.ok()) << workload[i] << "\n"
                                    << engine_answer.status();

    // The serve path re-parses and re-rewrites from SQL, exactly as a
    // QueryServer would.
    auto stmt = ParseSelect(workload[i]);
    ASSERT_TRUE(stmt.ok());
    auto rq = rewriter.Rewrite(**stmt);
    ASSERT_TRUE(rq.ok());

    auto mem_bound = in_memory->Bind(*rq, nullptr);
    ASSERT_TRUE(mem_bound.ok()) << workload[i] << "\n" << mem_bound.status();
    auto mem_answer = in_memory->Answer(*mem_bound);
    ASSERT_TRUE(mem_answer.ok()) << mem_answer.status();

    auto load_bound = loaded->Bind(*rq, nullptr);
    ASSERT_TRUE(load_bound.ok()) << workload[i] << "\n" << load_bound.status();
    auto load_answer = loaded->Answer(*load_bound);
    ASSERT_TRUE(load_answer.ok()) << load_answer.status();

    // Bit-identical across the save/load boundary, and equal to what the
    // engine answers in-process from the same synopses.
    EXPECT_EQ(*mem_answer, *load_answer) << workload[i];
    EXPECT_EQ(*engine_answer, *load_answer) << workload[i];
    ++answered;
  }
  EXPECT_GT(answered, 0u);
}

TEST(StoreRoundTripTest, TpchWorkloadSurvivesSaveLoadBitIdentically) {
  TpchConfig config;
  config.scale = 1;
  config.customers = 120;
  config.parts = 80;
  auto db = GenerateTpch(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  auto workload = SmallWorkload(1, 30);
  auto nested = SmallWorkload(16, 10);
  workload.insert(workload.end(), nested.begin(), nested.end());
  ASSERT_TRUE(engine.Prepare(workload).ok());

  ExpectBitIdenticalRoundTrip(engine, db->schema(), workload,
                              ::testing::TempDir() + "tpch_bundle.vrsy");
}

TEST(StoreRoundTripTest, CensusWorkloadSurvivesSaveLoadBitIdentically) {
  CensusConfig config;
  config.households = 250;
  auto db = GenerateCensus(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"household"}, EngineOptions{});
  auto workload = SmallWorkload(31, 30, 77);
  ASSERT_TRUE(engine.Prepare(workload).ok());

  ExpectBitIdenticalRoundTrip(engine, db->schema(), workload,
                              ::testing::TempDir() + "census_bundle.vrsy");
}

TEST(StoreRoundTripTest, LoadUnderDriftedSchemaIsRejected) {
  TpchConfig config;
  config.scale = 1;
  config.customers = 60;
  config.parts = 40;
  auto db = GenerateTpch(config);

  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(SmallWorkload(1, 8)).ok());

  const std::string path = ::testing::TempDir() + "drift_bundle.vrsy";
  auto store = SynopsisStore::FromManager(engine.views(), db->schema());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Save(path).ok());

  // The Census schema fingerprints differently from TPC-H: the bundle
  // must refuse to serve under it instead of mis-answering.
  auto drifted = SynopsisStore::Load(path, MakeCensusSchema());
  ASSERT_FALSE(drifted.ok());
  EXPECT_EQ(drifted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(drifted.status().message().find("schema drift"),
            std::string::npos);
}

TEST(StoreRoundTripTest, VersionOneBundleRefusedAsUnsupported) {
  // A bundle of an older format version is refused by its header, with a
  // message naming both versions, before any section is parsed.
  TpchConfig config;
  config.customers = 20;
  config.parts = 20;
  auto db = GenerateTpch(config);
  ViewRewriteEngine engine(*db, PrivacyPolicy{"orders"}, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(SmallWorkload(1, 4)).ok());
  auto store = SynopsisStore::FromManager(engine.views(), db->schema());
  ASSERT_TRUE(store.ok()) << store.status();
  const std::string path = ::testing::TempDir() + "v1_bundle.vrsy";
  ASSERT_TRUE(store->Save(path).ok());
  ASSERT_TRUE(SynopsisStore::Load(path, db->schema()).ok());

  {
    // Bytes 4-5 hold the little-endian format version.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    f.write("\x01\x00", 2);
    ASSERT_TRUE(f.good());
  }
  auto old = SynopsisStore::Load(path, db->schema());
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kUnsupported) << old.status();
  EXPECT_NE(old.status().message().find("format version 1"),
            std::string::npos)
      << old.status();
  EXPECT_NE(old.status().message().find("reads version 2"), std::string::npos)
      << old.status();
}

TEST(StoreRoundTripTest, FromManagerWithoutPublishFails) {
  TpchConfig config;
  config.customers = 20;
  config.parts = 20;
  auto db = GenerateTpch(config);
  ViewManager manager(db->schema(), PrivacyPolicy{"orders"});
  auto store = SynopsisStore::FromManager(manager, db->schema());
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace viewrewrite

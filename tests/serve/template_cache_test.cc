// Query templates on the serve path: a text whose literal-free shape
// compiled once answers from the cached template with its lifted values
// bound as parameters. These tests hold the template path to the literal
// path (ParseSelect -> Rewrite -> Bind -> Answer/AnswerGrouped), bit for
// bit, and check the cache's epoch, capacity, pinning and limit rules.

#include "serve/template_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "datagen/census.h"
#include "datagen/tpch.h"
#include "engine/viewrewrite_engine.h"
#include "rewrite/rewriter.h"
#include "serve/query_server.h"
#include "serve/serve_test_util.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/token.h"
#include "workload/workload.h"

namespace viewrewrite {
namespace {

/// The perfbench grouped slice (COUNT, AVG ... HAVING, VARIANCE over
/// orders), with the same constants in lifted positions.
std::string GroupedSql(int kind, int64_t price, int64_t having) {
  const std::string tail = " FROM orders o WHERE o.o_totalprice >= " +
                           std::to_string(price) + " GROUP BY o_orderstatus";
  switch (kind) {
    case 0:
      return "SELECT o_orderstatus, COUNT(*)" + tail;
    case 1:
      return "SELECT o_orderstatus, AVG(o_totalprice)" + tail +
             " HAVING COUNT(*) >= " + std::to_string(having);
    default:
      return "SELECT o_orderstatus, VARIANCE(o_totalprice)" + tail;
  }
}

std::vector<std::string> WorkloadSample(int w, uint64_t seed, size_t n) {
  auto queries = WorkloadGenerator(1, seed).Generate(w);
  EXPECT_TRUE(queries.ok()) << queries.status();
  std::vector<std::string> out;
  if (!queries.ok()) return out;
  for (size_t i = 0; i < queries->size() && out.size() < n; ++i) {
    out.push_back((*queries)[i].sql);
  }
  return out;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  const double x = a.AsDoubleExact();
  const double y = b.AsDoubleExact();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

bool SameDouble(double x, double y) {
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

/// What the literal path answers for `sql`: the scalar value, or the row
/// set of a grouped query (suppression off, as in a default server).
struct Reference {
  Status status;
  double value = 0;
  std::shared_ptr<const aggregate::GroupedData> rows;
};

Reference LiteralAnswer(const SynopsisStore& store, const Schema& schema,
                        const std::string& sql) {
  Reference ref;
  auto fail = [&](Status status) {
    ref.status = std::move(status);
    return ref;
  };
  auto stmt = ParseSelect(sql, ResourceLimits::Defaults());
  if (!stmt.ok()) return fail(stmt.status());
  Rewriter rewriter(schema);
  auto rq = rewriter.Rewrite(**stmt);
  if (!rq.ok()) return fail(rq.status());
  auto bound = store.Bind(*rq, nullptr);
  if (!bound.ok()) return fail(bound.status());
  const bool grouped = bound->chain.empty() && bound->terms.size() == 1 &&
                       !bound->terms[0].query.cell_query->group_by.empty();
  if (!grouped) {
    auto v = store.Answer(*bound, {});
    if (!v.ok()) return fail(v.status());
    ref.value = *v;
    return ref;
  }
  auto data = store.AnswerGrouped(bound->terms[0].query, {});
  if (!data.ok()) return fail(data.status());
  ref.value = static_cast<double>(data->rows.size());
  ref.rows = std::make_shared<const aggregate::GroupedData>(std::move(*data));
  return ref;
}

/// Serves every text and compares it with the literal path: equal status
/// codes, and bit-identical values and rows.
void ExpectServedMatchesLiteral(QueryServer& server, const SynopsisStore& store,
                                const Schema& schema,
                                const std::vector<std::string>& texts) {
  for (const std::string& sql : texts) {
    const Reference want = LiteralAnswer(store, schema, sql);
    Result<ServedAnswer> got = server.Answer(sql);
    ASSERT_EQ(got.status().code(), want.status.code())
        << sql << "\nserved: " << got.status() << "\nliteral: " << want.status;
    if (!got.ok()) continue;
    EXPECT_TRUE(SameDouble(got->value, want.value))
        << sql << "\nserved " << got->value << " literal " << want.value;
    ASSERT_EQ(got->rows == nullptr, want.rows == nullptr) << sql;
    if (want.rows == nullptr) continue;
    ASSERT_EQ(got->rows->rows.size(), want.rows->rows.size()) << sql;
    EXPECT_EQ(got->rows->columns, want.rows->columns) << sql;
    for (size_t r = 0; r < want.rows->rows.size(); ++r) {
      const aggregate::GroupedRow& g = got->rows->rows[r];
      const aggregate::GroupedRow& w = want.rows->rows[r];
      EXPECT_TRUE(SameDouble(g.noisy_count, w.noisy_count)) << sql;
      EXPECT_EQ(g.suppressed, w.suppressed) << sql;
      ASSERT_EQ(g.values.size(), w.values.size()) << sql;
      for (size_t c = 0; c < w.values.size(); ++c) {
        EXPECT_TRUE(SameValue(g.values[c], w.values[c]))
            << sql << " row " << r << " col " << c << ": "
            << g.values[c].ToString() << " vs " << w.values[c].ToString();
      }
    }
  }
}

ServeOptions UncachedOptions() {
  // Without the answer cache every request runs the answer path, so each
  // text exercises the template (or literal) stages.
  ServeOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  return options;
}

/// A TPC-H and a Census publication of W1-W31 samples (plus the grouped
/// slice), served with constants drawn under other seeds.
class TemplateDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig tpch;
    tpch.customers = 120;
    tpch.parts = 80;
    tpch.suppliers = 20;
    tpch_ = GenerateTpch(tpch).release();
    CensusConfig census;
    census.households = 150;
    census_ = GenerateCensus(census).release();

    std::vector<std::string> tpch_published;
    for (int w = 1; w <= 30; ++w) {
      for (std::string& sql : WorkloadSample(w, 77 + w, 8)) {
        tpch_published.push_back(std::move(sql));
      }
    }
    for (int kind = 0; kind < 3; ++kind) {
      tpch_published.push_back(GroupedSql(kind, 8 * 16384, 2));
    }
    tpch_store_ = Publish(*tpch_, "customer", tpch_published);
    census_store_ =
        Publish(*census_, "household", WorkloadSample(31, 77 + 31, 24));
  }

  static void TearDownTestSuite() {
    delete tpch_store_;
    delete census_store_;
    delete tpch_;
    delete census_;
  }

  static std::shared_ptr<const SynopsisStore>* Publish(
      const Database& db, const std::string& policy,
      const std::vector<std::string>& workload) {
    ViewRewriteEngine engine(db, PrivacyPolicy{policy}, EngineOptions{});
    Status prepared = engine.Prepare(workload);
    EXPECT_TRUE(prepared.ok()) << prepared;
    auto store = SynopsisStore::FromManager(engine.views(), db.schema());
    EXPECT_TRUE(store.ok()) << store.status();
    if (!store.ok()) return nullptr;
    return new std::shared_ptr<const SynopsisStore>(
        std::make_shared<const SynopsisStore>(std::move(*store)));
  }

  static Database* tpch_;
  static Database* census_;
  static std::shared_ptr<const SynopsisStore>* tpch_store_;
  static std::shared_ptr<const SynopsisStore>* census_store_;
};

Database* TemplateDifferentialTest::tpch_ = nullptr;
Database* TemplateDifferentialTest::census_ = nullptr;
std::shared_ptr<const SynopsisStore>* TemplateDifferentialTest::tpch_store_ =
    nullptr;
std::shared_ptr<const SynopsisStore>* TemplateDifferentialTest::census_store_ =
    nullptr;

TEST_F(TemplateDifferentialTest, GeneratedWorkloadsMatchLiteralPathBitForBit) {
  ASSERT_NE(tpch_store_, nullptr);
  ASSERT_NE(census_store_, nullptr);
  std::vector<std::string> tpch_texts;
  for (int w = 1; w <= 30; ++w) {
    for (std::string& sql : WorkloadSample(w, 9001 + w, 12)) {
      tpch_texts.push_back(std::move(sql));
    }
  }
  for (int kind = 0; kind < 3; ++kind) {
    for (int64_t p = 1; p < 6; ++p) {
      tpch_texts.push_back(GroupedSql(kind, p * 16384, p));
    }
  }
  // Every generated text has a shape: none takes the literal path for
  // want of one.
  for (const std::string& sql : tpch_texts) {
    QueryShape shape;
    EXPECT_TRUE(MakeQueryShape(sql, ResourceLimits::Defaults(), &shape))
        << sql;
  }
  // A shape no published view covers fails to bind as a template too
  // and is pinned (the literal path reports its NotFound); every shape
  // that answers must reuse its template.
  std::vector<std::string> answerable;
  std::vector<std::string> unanswerable;
  for (std::string& sql : tpch_texts) {
    const Reference ref = LiteralAnswer(**tpch_store_, tpch_->schema(), sql);
    (ref.status.ok() ? answerable : unanswerable).push_back(std::move(sql));
  }
  ASSERT_GT(answerable.size(), unanswerable.size());
  QueryServer tpch_server(*tpch_store_, tpch_->schema(), UncachedOptions());
  ExpectServedMatchesLiteral(tpch_server, **tpch_store_, tpch_->schema(),
                             answerable);
  const ServeStats tpch_stats = tpch_server.stats();
  EXPECT_EQ(tpch_stats.template_pins, 0u) << tpch_stats;
  // Far fewer shapes than texts: most computations reuse a template.
  EXPECT_GT(tpch_stats.template_hits, answerable.size() / 2) << tpch_stats;
  ExpectServedMatchesLiteral(tpch_server, **tpch_store_, tpch_->schema(),
                             unanswerable);

  const std::vector<std::string> census_texts =
      WorkloadSample(31, 9001 + 31, 40);
  for (const std::string& sql : census_texts) {
    QueryShape shape;
    EXPECT_TRUE(MakeQueryShape(sql, ResourceLimits::Defaults(), &shape))
        << sql;
  }
  QueryServer census_server(*census_store_, census_->schema(),
                            UncachedOptions());
  ExpectServedMatchesLiteral(census_server, **census_store_,
                             census_->schema(), census_texts);
  const ServeStats census_stats = census_server.stats();
  EXPECT_EQ(census_stats.template_pins, 0u) << census_stats;
  EXPECT_GT(census_stats.template_hits, census_texts.size() / 2)
      << census_stats;
}

TEST_F(TemplateDifferentialTest, FuzzRegressionsMatchLiteralPath) {
  ASSERT_NE(tpch_store_, nullptr);
  std::vector<std::string> texts;
  const std::filesystem::path dir =
      std::filesystem::path(VR_REGRESSION_CORPUS_DIR) / "sql";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    texts.push_back(buf.str());
  }
  ASSERT_FALSE(texts.empty());
  QueryServer server(*tpch_store_, tpch_->schema(), UncachedOptions());
  // Twice: the second round answers from whatever the first compiled or
  // pinned.
  ExpectServedMatchesLiteral(server, **tpch_store_, tpch_->schema(), texts);
  ExpectServedMatchesLiteral(server, **tpch_store_, tpch_->schema(), texts);
}

using serve_testing::MakeServeContext;
using serve_testing::ServeContext;

class TemplateServeTest : public ::testing::Test {
 protected:
  void SetUp() override { ctx_ = MakeServeContext(); }
  ServeContext ctx_;
};

TEST_F(TemplateServeTest, FreshConstantsReuseTheTemplate) {
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  // workload[0] and [1] differ only in a lifted constant.
  auto first = server.Answer(ctx_.workload[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(server.stats().template_hits, 0u);
  auto second = server.Answer(ctx_.workload[1]);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->value, ctx_.Expected(1));
  EXPECT_EQ(server.stats().template_hits, 1u);
  EXPECT_EQ(server.stats().template_pins, 0u);
}

TEST_F(TemplateServeTest, ReloadNeverReusesAnOlderEpochsTemplate) {
  ServeContext other = MakeServeContext(7, "template_other");
  ASSERT_NE(other.store, nullptr);
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  ASSERT_TRUE(server.Answer(ctx_.workload[0]).ok());
  ASSERT_TRUE(server.Reload(other.store).ok());

  // Same shape, new epoch: the template recompiles against the new store
  // (no hit), and the answer is the new bundle's.
  auto after = server.Answer(ctx_.workload[1]);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(server.stats().template_hits, 0u);
  const Reference want =
      LiteralAnswer(*other.store, ctx_.db->schema(), ctx_.workload[1]);
  ASSERT_TRUE(want.status.ok()) << want.status;
  EXPECT_TRUE(SameDouble(after->value, want.value));

  // From then on the new epoch's template is reused.
  auto again = server.Answer(ctx_.workload[0]);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(server.stats().template_hits, 1u);
  const Reference want0 =
      LiteralAnswer(*other.store, ctx_.db->schema(), ctx_.workload[0]);
  EXPECT_TRUE(SameDouble(again->value, want0.value));
}

TEST_F(TemplateServeTest, ShapeFailingOnlyAsTemplateIsPinnedAndAnswers) {
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  // The IN-list constant is kept in the text and spells `$1`, the name of
  // the template's lifted parameter: binding the template's canonical SQL
  // cannot reproduce the literal rewrite, so the shape is pinned and keeps
  // answering through the literal path.
  const std::string sql_a =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 AND "
      "o.o_status IN ('$1', 'f')";
  const std::string sql_b =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 128 AND "
      "o.o_status IN ('$1', 'f')";
  for (const std::string& sql : {sql_a, sql_b}) {
    const Reference want = LiteralAnswer(*ctx_.store, ctx_.db->schema(), sql);
    auto got = server.Answer(sql);
    ASSERT_EQ(got.status().code(), want.status.code()) << got.status();
    if (got.ok()) {
      EXPECT_TRUE(SameDouble(got->value, want.value));
    }
  }
  EXPECT_EQ(server.stats().template_pins, 1u);
  EXPECT_EQ(server.stats().template_hits, 0u);
}

TEST_F(TemplateServeTest, IdentifierSpelledLikeAKeptLiteralTakesItsOwnPath) {
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  // `(5)` is a kept literal; `(i5)` names a column the schema lacks. The
  // first text compiles its template; the second must not reuse it.
  const std::string literal =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= (5)";
  const std::string identifier =
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= (i5)";
  const Reference want_literal =
      LiteralAnswer(*ctx_.store, ctx_.db->schema(), literal);
  ASSERT_TRUE(want_literal.status.ok()) << want_literal.status;
  auto first = server.Answer(literal);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(SameDouble(first->value, want_literal.value));
  ASSERT_TRUE(server.Answer(literal + " ").ok());
  EXPECT_EQ(server.stats().template_hits, 1u);  // the template compiled

  const Reference want_identifier =
      LiteralAnswer(*ctx_.store, ctx_.db->schema(), identifier);
  ASSERT_FALSE(want_identifier.status.ok());
  auto second = server.Answer(identifier);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), want_identifier.status.code())
      << second.status();
  EXPECT_EQ(server.stats().template_hits, 1u);
}

TEST_F(TemplateServeTest, EqualPrintingIntAndFloatMatchTheLiteralPath) {
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  // Each pair's first text compiles a template with two distinct slots;
  // in the second text both print `64`, so the literal rewrite treats the
  // two OR branches as one atom where the template's `$1` and `$2` would
  // stay apart. The second text must answer as the literal path does.
  const std::string pairs[][2] = {
      {"SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 OR "
       "o.o_totalprice >= 72.5",
       "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 OR "
       "o.o_totalprice >= 64.0"},
      {"SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= (64) OR "
       "o.o_totalprice >= 72",
       "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= (64) OR "
       "o.o_totalprice >= 64"},
  };
  for (const auto& pair : pairs) {
    const uint64_t hits = server.stats().template_hits;
    ExpectServedMatchesLiteral(server, *ctx_.store, ctx_.db->schema(),
                               {pair[0], pair[0] + " ", pair[1]});
    EXPECT_EQ(server.stats().template_hits, hits + 1) << pair[1];
  }
  EXPECT_EQ(server.stats().template_pins, 0u);

  // The canonical key is the literal path's too: in `>= 64 OR >= 64.0`
  // the literal rewrite deduplicates the inclusion-exclusion term's
  // `A AND A` to `A`, exactly as for `>= 64 OR >= 64`, so the two share
  // one cached answer (splicing 64 and 64.0 into the `$1 AND $2` of the
  // first pair's template would key the undeduplicated form instead).
  QueryServer cached(ctx_.store, ctx_.db->schema());
  ASSERT_TRUE(cached.Answer(pairs[0][0]).ok());
  auto ints = cached.Answer(
      "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64 OR "
      "o.o_totalprice >= 64");
  ASSERT_TRUE(ints.ok()) << ints.status();
  const uint64_t cache_hits = cached.stats().cache_hits;
  auto mixed = cached.Answer(pairs[0][1]);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_TRUE(SameDouble(mixed->value, ints->value));
  EXPECT_EQ(cached.stats().cache_hits, cache_hits + 1);
}

TEST_F(TemplateServeTest, CompilingATemplateHitsNoFaultPoint) {
  QueryServer server(ctx_.store, ctx_.db->schema(), UncachedOptions());
  // The second rewrite hit would fail, and the parse point only counts.
  ScopedFault rewrite = ScopedFault::OnNth(faults::kRewrite, 2);
  ScopedFault parse = ScopedFault::OnNth(faults::kParse, 1000);
  // The miss hits each point once, in its literal stages; its template
  // compile hits neither, so an injected fault cannot pin the shape.
  ASSERT_TRUE(server.Answer(ctx_.workload[0]).ok());
  EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kRewrite), 1u);
  EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kParse), 1u);
  EXPECT_EQ(server.stats().template_pins, 0u);
  // A template hit skips both points.
  ASSERT_TRUE(server.Answer(ctx_.workload[1]).ok());
  EXPECT_EQ(server.stats().template_hits, 1u);
  EXPECT_EQ(FaultInjection::Instance().HitCount(faults::kRewrite), 1u);
  // A new shape's literal rewrite is the second hit, and fails.
  auto failed = server.Answer(ctx_.workload[2]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << failed.status();
}

TEST_F(TemplateServeTest, LimitsStillApplyToTheRawText) {
  const std::string& warm = ctx_.workload[0];
  Result<std::vector<Token>> tokens = Tokenize(warm);
  ASSERT_TRUE(tokens.ok());
  ServeOptions options = UncachedOptions();
  options.limits.max_tokens = tokens->size() - 1;  // kEnd is not counted
  options.limits.max_sql_bytes = warm.size() + 8;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);
  ASSERT_TRUE(server.Answer(warm).ok());

  // Same shape as the warm text, so its template is cached: trailing
  // input past the token cap and a text past the byte cap must still be
  // refused exactly as the tokenizer refuses them.
  const std::string over_tokens = ctx_.workload[1] + " ";
  auto got = server.Answer(over_tokens);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status();
  const std::string over_bytes = ctx_.workload[1] + std::string(16, '\n');
  got = server.Answer(over_bytes);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status();
  EXPECT_EQ(server.stats().template_hits, 0u);
}

TEST_F(TemplateServeTest, ConcurrentRequestsAcrossReloadsMatchTheirEpoch) {
  // Workers share the template cache while the store flips between two
  // bundles: every answer must be the literal answer of the bundle its
  // epoch names (even epochs serve ctx_, odd ones `other`).
  ServeContext other = MakeServeContext(7, "template_concurrent");
  ASSERT_NE(other.store, nullptr);
  ServeOptions options = UncachedOptions();
  options.num_threads = 4;
  QueryServer server(ctx_.store, ctx_.db->schema(), options);

  std::vector<std::string> texts;
  for (int price = 0; price <= 256; price += 8) {
    texts.push_back("SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= " +
                    std::to_string(price));
  }
  for (const char* status : {"'f'", "'o'", "'p'", "'x'"}) {
    texts.push_back(std::string("SELECT SUM(o_totalprice) FROM orders o ") +
                    "WHERE o.o_status = " + status);
  }
  std::vector<Reference> want[2];
  for (const std::string& sql : texts) {
    want[0].push_back(LiteralAnswer(*ctx_.store, ctx_.db->schema(), sql));
    want[1].push_back(LiteralAnswer(*other.store, ctx_.db->schema(), sql));
  }

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<Result<ServedAnswer>>> futures;
    for (const std::string& sql : texts) futures.push_back(server.Submit(sql));
    // Reload while the round is in flight.
    ASSERT_TRUE(
        server.Reload(round % 2 == 0 ? other.store : ctx_.store).ok());
    for (size_t i = 0; i < texts.size(); ++i) {
      Result<ServedAnswer> got = futures[i].get();
      const Reference& ref = want[got.ok() ? got->epoch % 2 : 0][i];
      ASSERT_EQ(got.status().code(), ref.status.code()) << texts[i];
      if (got.ok()) {
        EXPECT_TRUE(SameDouble(got->value, ref.value))
            << texts[i] << " at epoch " << got->epoch;
      }
    }
  }
  EXPECT_EQ(server.stats().template_pins, 0u);
  EXPECT_GT(server.stats().template_hits, 0u);
}

TEST(TemplateCacheTest, CapacityBoundHolds) {
  TemplateCache cache;
  auto tmpl = std::make_shared<const QueryTemplate>();
  const size_t inserts = 4 * TemplateCache::kCapacity;
  for (size_t i = 0; i < inserts; ++i) {
    cache.Put("shape " + std::to_string(i), CachedTemplate{0, tmpl});
    ASSERT_LE(cache.size(), TemplateCache::kCapacity);
  }
  // The most recent insert is resident; the first was evicted.
  EXPECT_TRUE(cache.Get("shape " + std::to_string(inserts - 1)).has_value());
  EXPECT_FALSE(cache.Get("shape 0").has_value());
}

TEST(TemplateCacheTest, ReloadHookDropsOlderEpochs) {
  TemplateCache cache;
  auto old_tmpl = std::make_shared<const QueryTemplate>();
  auto new_tmpl = std::make_shared<const QueryTemplate>();
  cache.Put("k", CachedTemplate{0, old_tmpl});
  cache.Put("other", CachedTemplate{1, new_tmpl});
  EXPECT_EQ(cache.EvictOlderThan(1), 1u);
  EXPECT_FALSE(cache.Get("k").has_value());
  std::optional<CachedTemplate> kept = cache.Get("other");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->epoch, 1u);
  EXPECT_EQ(kept->tmpl, new_tmpl);
}

TEST(QueryShapeTest, LiftsOnlyLiteralsAfterComparisons) {
  QueryShape a;
  QueryShape b;
  ASSERT_TRUE(MakeQueryShape(
      "SELECT COUNT(*) FROM t WHERE t.a >= 5 AND t.s = 'x' AND t.b IN (1, 2) "
      "AND t.c > -3 LIMIT 4",
      ResourceLimits::Defaults(), &a));
  ASSERT_TRUE(MakeQueryShape(
      "select count(*) from T where T.A >= 7 and t.s = 'y''z' and "
      "t.b in (1, 2) and t.c > -3 limit 4",
      ResourceLimits::Defaults(), &b));
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.params.size(), 2u);
  EXPECT_TRUE(SameValue(a.params[0], Value::Int(5)));
  EXPECT_TRUE(SameValue(a.params[1], Value::String("x")));
  EXPECT_TRUE(SameValue(b.params[1], Value::String("y'z")));

  // Kept literals are part of the key; so are the lifted types and which
  // lifted values are equal.
  QueryShape c;
  ASSERT_TRUE(MakeQueryShape(
      "SELECT COUNT(*) FROM t WHERE t.a >= 5 AND t.s = 'x' AND t.b IN (1, 3) "
      "AND t.c > -3 LIMIT 4",
      ResourceLimits::Defaults(), &c));
  EXPECT_NE(a.key, c.key);
  QueryShape d;
  QueryShape e;
  QueryShape f;
  ASSERT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 5",
                             ResourceLimits::Defaults(), &d));
  ASSERT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 6",
                             ResourceLimits::Defaults(), &e));
  ASSERT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 6.0",
                             ResourceLimits::Defaults(), &f));
  EXPECT_EQ(d.params.size(), 1u);
  EXPECT_NE(d.key, e.key);
  EXPECT_NE(e.key, f.key);

  // Texts that need the literal path to report an error have no shape.
  QueryShape g;
  EXPECT_FALSE(
      MakeQueryShape("SELECT 1 FROM t WHERE t.a = 99999999999999999999",
                     ResourceLimits::Defaults(), &g));
  EXPECT_FALSE(MakeQueryShape("SELECT 'open", ResourceLimits::Defaults(), &g));
}

TEST(QueryShapeTest, KeptLiteralsNeverKeyLikeIdentifiers) {
  // The column `i5` (any case) and the integer 5, the column `f1e5` and
  // the float 1e5: a kept literal's key is `#` plus its type tag.
  const std::pair<const char*, const char*> pairs[] = {
      {"SELECT COUNT(*) FROM t WHERE t.a IN (5, 7)",
       "SELECT COUNT(*) FROM t WHERE t.a IN (i5, 7)"},
      {"SELECT COUNT(*) FROM t WHERE t.a IN (5, 7)",
       "SELECT COUNT(*) FROM t WHERE t.a IN (I5, 7)"},
      {"SELECT COUNT(*) FROM t WHERE t.a IN (1e5)",
       "SELECT COUNT(*) FROM t WHERE t.a IN (f1e5)"},
      {"SELECT COUNT(*) FROM t WHERE t.a IN ('x')",
       "SELECT COUNT(*) FROM t WHERE t.a IN (s)"},
  };
  for (const auto& [literal, identifier] : pairs) {
    QueryShape a;
    QueryShape b;
    ASSERT_TRUE(MakeQueryShape(literal, ResourceLimits::Defaults(), &a));
    ASSERT_TRUE(MakeQueryShape(identifier, ResourceLimits::Defaults(), &b));
    EXPECT_NE(a.key, b.key) << literal << "\n" << identifier;
  }
}

TEST(QueryShapeTest, LiftedValuePrintingLikeAnotherLiteralHasNoShape) {
  // The rewriter compares literals by their printed text, where 5 and
  // 5.0 (and a kept 5) are equal but a template's `$1` and `$2` are not:
  // such texts take the literal path.
  QueryShape s;
  EXPECT_FALSE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 5.0",
                              ResourceLimits::Defaults(), &s));
  EXPECT_FALSE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 5e0",
                              ResourceLimits::Defaults(), &s));
  EXPECT_FALSE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = (5) OR t.a = 5",
                              ResourceLimits::Defaults(), &s));
  EXPECT_FALSE(
      MakeQueryShape("SELECT 1 FROM t WHERE t.s = 'x' OR t.s IN ('x')",
                     ResourceLimits::Defaults(), &s));
  // Values that print differently keep their shape.
  EXPECT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.a = 5.5",
                             ResourceLimits::Defaults(), &s));
  EXPECT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = (6) OR t.a = 5",
                             ResourceLimits::Defaults(), &s));
  EXPECT_TRUE(MakeQueryShape("SELECT 1 FROM t WHERE t.a = 5 OR t.s = '5'",
                             ResourceLimits::Defaults(), &s));
}

TEST(QueryShapeTest, TemplateParseBindsLiftedSlots) {
  auto stmt = ParseSelectTemplate(
      "SELECT COUNT(*) FROM t WHERE t.a >= 5 AND t.b = 5 AND t.c < 'x'",
      ResourceLimits::Defaults());
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(ToSql(**stmt),
            "SELECT COUNT(*) FROM t WHERE (((t.a >= $1) AND (t.b = $1)) AND "
            "(t.c < $2))");
}

}  // namespace
}  // namespace viewrewrite

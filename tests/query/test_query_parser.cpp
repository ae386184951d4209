#include "query/query_expr.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace cube::query {
namespace {

TEST(QueryParserTest, PlainCompositeGrammarStillParses) {
  const auto e = parse_query("diff(mean(a, b), c)");
  EXPECT_EQ(e->str(), "diff(mean(a, b), c)");
  EXPECT_EQ(e->kind(), QueryExpr::Kind::Apply);
  EXPECT_EQ(e->op(), QueryExpr::Op::Diff);
}

TEST(QueryParserTest, SelectorsParseAndRenderCanonically) {
  EXPECT_EQ(parse_query("id(pescan-4n)")->str(), "id(pescan-4n)");
  EXPECT_EQ(parse_query("id(\"pescan-4n\")")->str(), "id(pescan-4n)");
  EXPECT_EQ(parse_query("series(run)")->str(), "series(run)");
  EXPECT_EQ(parse_query("attr(app=sweep3d, nodes=16)")->str(),
            "attr(app=sweep3d, nodes=16)");
  // Values needing quotes keep them.
  EXPECT_EQ(parse_query("attr(name=\"a b\")")->str(), "attr(name=\"a b\")");
}

TEST(QueryParserTest, AttrValuesMayStartWithDigits) {
  const auto e = parse_query("attr(nodes=16)");
  ASSERT_EQ(e->pairs().size(), 1u);
  EXPECT_EQ(e->pairs()[0].first, "nodes");
  EXPECT_EQ(e->pairs()[0].second, "16");
}

TEST(QueryParserTest, SelectorsNestInsideOperators) {
  const auto e = parse_query(
      "diff(mean(attr(run=before)), mean(attr(run=after)))");
  EXPECT_EQ(e->str(), "diff(mean(attr(run=before)), mean(attr(run=after)))");
}

TEST(QueryParserTest, MalformedInputThrows) {
  EXPECT_THROW((void)parse_query("diff(a"), Error);
  EXPECT_THROW((void)parse_query("unknown(a, b)"), Error);
  EXPECT_THROW((void)parse_query("attr(=x)"), Error);
  EXPECT_THROW((void)parse_query("attr(k)"), Error);
  EXPECT_THROW((void)parse_query("id(\"unterminated)"), Error);
  EXPECT_THROW((void)parse_query("mean()"), Error);
  EXPECT_THROW((void)parse_query("a b"), Error);
}

/// `levels` nested applications of mean around one leaf.
std::string nested_means(std::size_t levels) {
  std::string text;
  text.reserve(6 * levels + 1);
  for (std::size_t i = 0; i < levels; ++i) text += "mean(";
  text += 'a';
  text.append(levels, ')');
  return text;
}

TEST(QueryParserTest, NestingIsBoundedWithATypedError) {
  const auto deepest = parse_query(nested_means(kMaxQueryDepth));
  EXPECT_EQ(deepest->str(), nested_means(kMaxQueryDepth));
  for (const std::size_t levels : {kMaxQueryDepth + 1, std::size_t{100000}}) {
    try {
      (void)parse_query(nested_means(levels));
      FAIL() << levels << " levels parsed";
    } catch (const Error& e) {
      // The offset names the first application past the bound.
      EXPECT_NE(std::string(e.what()).find(
                    "offset " + std::to_string(5 * kMaxQueryDepth + 4)),
                std::string::npos)
          << e.what();
    }
  }
}

// The grammar's operator and identifier rules.

TEST(ExprParser, ParsesIdentifier) {
  const auto e = parse_query("before");
  EXPECT_EQ(e->kind(), QueryExpr::Kind::Ref);
  EXPECT_EQ(e->name(), "before");
  EXPECT_EQ(e->str(), "before");
}

TEST(ExprParser, ParsesNestedComposite) {
  const auto e = parse_query("diff(mean(a1, a2), mean(b1, b2))");
  EXPECT_EQ(e->op(), QueryExpr::Op::Diff);
  ASSERT_EQ(e->args().size(), 2u);
  EXPECT_EQ(e->args()[0]->op(), QueryExpr::Op::Mean);
  EXPECT_EQ(e->str(), "diff(mean(a1, a2), mean(b1, b2))");
}

TEST(ExprParser, AcceptsAliases) {
  EXPECT_EQ(parse_query("difference(a, b)")->op(), QueryExpr::Op::Diff);
  EXPECT_EQ(parse_query("avg(a)")->op(), QueryExpr::Op::Mean);
}

TEST(ExprParser, WhitespaceInsensitive) {
  const auto e = parse_query("  merge ( a ,b )  ");
  EXPECT_EQ(e->op(), QueryExpr::Op::Merge);
  EXPECT_EQ(e->str(), "merge(a, b)");
}

TEST(ExprParser, IdentifiersAllowDotsAndDashes) {
  const auto e = parse_query("run-1.cube");
  EXPECT_EQ(e->kind(), QueryExpr::Kind::Ref);
  EXPECT_EQ(e->name(), "run-1.cube");
}

TEST(ExprParser, RejectsUnknownOperator) {
  EXPECT_THROW((void)parse_query("frobnicate(a, b)"), Error);
}

TEST(ExprParser, RejectsTrailingInput) {
  EXPECT_THROW((void)parse_query("a b"), Error);
}

TEST(ExprParser, RejectsEmptyArgumentList) {
  EXPECT_THROW((void)parse_query("mean()"), Error);
}

TEST(ExprParser, RejectsUnterminatedList) {
  EXPECT_THROW((void)parse_query("mean(a, b"), Error);
}

TEST(ExprParser, RejectsEmptyInput) {
  EXPECT_THROW((void)parse_query("   "), Error);
}

}  // namespace
}  // namespace cube::query

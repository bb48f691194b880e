/**
 * @file
 * Whole-document pins for the golden tier: a results document (the
 * --out sink) compared member by member against a committed copy.
 * Member names and their order must match exactly, integral numbers
 * exactly, and every other number within 1e-9.
 *
 * Regenerate the committed copies after an *intentional* change with
 * SHMGPU_UPDATE_GOLDEN=1, as the rest of the tier.
 */

#ifndef SHMGPU_TESTS_GOLDEN_DOCUMENT_HH
#define SHMGPU_TESTS_GOLDEN_DOCUMENT_HH

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/json.hh"

namespace shmgpu::golden
{

/** Compare @p got against @p want below the JSON path @p at. */
inline void
expectSameDocument(const json::Value &got, const json::Value &want,
                   const std::string &at = "$")
{
    ASSERT_EQ(got.kind(), want.kind()) << at;
    switch (want.kind()) {
      case json::Value::Kind::Object: {
        const auto &g = got.members();
        const auto &w = want.members();
        ASSERT_EQ(g.size(), w.size()) << at << " member count";
        for (std::size_t i = 0; i < w.size(); ++i) {
            ASSERT_EQ(g[i].first, w[i].first) << at << " member " << i;
            expectSameDocument(g[i].second, w[i].second,
                               at + "." + w[i].first);
        }
        break;
      }
      case json::Value::Kind::Array:
        ASSERT_EQ(got.size(), want.size()) << at << " length";
        for (std::size_t i = 0; i < want.size(); ++i)
            expectSameDocument(got.at(i), want.at(i),
                               at + "[" + std::to_string(i) + "]");
        break;
      case json::Value::Kind::Number:
        if (std::trunc(want.asNumber()) == want.asNumber())
            EXPECT_EQ(got.asNumber(), want.asNumber()) << at;
        else
            EXPECT_NEAR(got.asNumber(), want.asNumber(), 1e-9) << at;
        break;
      case json::Value::Kind::String:
        EXPECT_EQ(got.asString(), want.asString()) << at;
        break;
      case json::Value::Kind::Bool:
        EXPECT_EQ(got.asBool(), want.asBool()) << at;
        break;
      case json::Value::Kind::Null:
        break;
    }
}

/**
 * Check @p doc against the committed document at @p path, or rewrite
 * that file when SHMGPU_UPDATE_GOLDEN is set.
 */
inline void
expectMatchesGoldenDocument(const json::Value &doc, const std::string &path)
{
    const char *env = std::getenv("SHMGPU_UPDATE_GOLDEN");
    if (env != nullptr && env[0] != '\0' && std::string(env) != "0") {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        doc.write(os, 2);
        os << "\n";
        GTEST_SKIP() << "golden document regenerated at " << path;
    }
    expectSameDocument(doc, json::Value::parseFile(path));
}

} // namespace shmgpu::golden

#endif // SHMGPU_TESTS_GOLDEN_DOCUMENT_HH

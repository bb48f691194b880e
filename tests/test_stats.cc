/**
 * @file
 * Statistics framework tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"
#include "stats_lookup.hh"

using namespace shmgpu::stats;

TEST(Stats, ScalarAccumulates)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 2;
    EXPECT_EQ(s.value(), 3u);
    s.set(7);
    EXPECT_EQ(s.value(), 7u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, GroupDumpPaths)
{
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Scalar a, b;
    a += 1;
    b += 2;
    root.addScalar("a", &a);
    child.addScalar("b", &b, "a nested stat");

    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("root.a 1"), std::string::npos);
    EXPECT_NE(out.find("root.child.b 2"), std::string::npos);
    EXPECT_NE(out.find("# a nested stat"), std::string::npos);
}

TEST(Stats, Lookup)
{
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Scalar s;
    s += 7;
    child.addScalar("x", &s);

    bool found = false;
    EXPECT_EQ(lookupStat(root, "child.x", &found), 7u);
    EXPECT_TRUE(found);
    lookupStat(root, "child.nope", &found);
    EXPECT_FALSE(found);
    lookupStat(root, "nochild.x", &found);
    EXPECT_FALSE(found);
}

TEST(Stats, LateAttach)
{
    StatGroup root(nullptr, "root");
    StatGroup floating;
    floating.attach(&root, "late");
    Scalar s;
    s += 3;
    floating.addScalar("v", &s);
    bool found = false;
    EXPECT_EQ(lookupStat(root, "late.v", &found), 3u);
    EXPECT_TRUE(found);
}

TEST(Stats, DuplicateNamePanics)
{
    StatGroup g(nullptr, "g");
    Scalar a, b;
    g.addScalar("x", &a);
    EXPECT_DEATH(g.addScalar("x", &b), "duplicate");
}

TEST(Stats, JsonDump)
{
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Scalar a, b;
    a += 1;
    b += 2;
    root.addScalar("a", &a);
    child.addScalar("b", &b);

    std::ostringstream os;
    root.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"a\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"child\": {"), std::string::npos);
    EXPECT_NE(out.find("\"b\": 2"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

/** Counts print as their exact digits in both dumps, at every
 *  magnitude a double still holds exactly (up to 2^53 - 1), not
 *  rounded to six significant digits. */
TEST(Stats, CountsPrintExactly)
{
    constexpr std::uint64_t kInstructions = 2448714;
    constexpr std::uint64_t kLargest = (std::uint64_t{1} << 53) - 1;
    StatGroup root(nullptr, "root");
    StatGroup child(&root, "child");
    Scalar small, large;
    small += kInstructions;
    large.set(kLargest);
    root.addScalar("instructions", &small);
    child.addScalar("bytes", &large);

    std::ostringstream text;
    root.dump(text);
    EXPECT_EQ(text.str(), "root.instructions 2448714\n"
                          "root.child.bytes 9007199254740991\n");

    std::ostringstream js;
    root.dumpJson(js);
    const auto doc = shmgpu::json::Value::parse(js.str());
    const auto exact = [](const shmgpu::json::Value &v) {
        return static_cast<std::uint64_t>(v.asNumber());
    };
    EXPECT_EQ(exact(doc.at("instructions")), kInstructions);
    EXPECT_EQ(exact(doc.at("child").at("bytes")), kLargest);
    EXPECT_NE(js.str().find("\"bytes\": 9007199254740991"),
              std::string::npos);
}

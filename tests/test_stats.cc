/**
 * @file
 * Statistics framework tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/stats.hh"

using namespace shmgpu::stats;

TEST(Stats, ScalarAccumulates)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_EQ(s.value(), 0);
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
    EXPECT_DOUBLE_EQ(root.lookup("child.x", &found), 7);
    EXPECT_TRUE(found);
    root.lookup("child.nope", &found);
    EXPECT_FALSE(found);
    root.lookup("nochild.x", &found);
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
    EXPECT_DOUBLE_EQ(root.lookup("late.v", &found), 3);
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
    a += 1.5;
    b += 2;
    root.addScalar("a", &a);
    child.addScalar("b", &b);

    std::ostringstream os;
    root.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"a\": 1.5"), std::string::npos);
    EXPECT_NE(out.find("\"child\": {"), std::string::npos);
    EXPECT_NE(out.find("\"b\": 2"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

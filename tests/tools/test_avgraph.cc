/**
 * @file
 * avgraph tests: each graph-contract rule fires exactly once on a
 * minimal seeded violation, the extraction pipeline resolves topic
 * constants and queue depths, rate inference reproduces the Table IV
 * cadences, and the repo's own graph both satisfies the rule catalog
 * and matches the golden canonical snapshot
 * (tests/tools/fixtures/golden_topology.txt — regenerate with
 * `avgraph --root . --canonical ...` after an intentional topology
 * change).
 */

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "avgraph.hh"

namespace {

using av::graph::checkGraph;
using av::graph::extractSources;
using av::graph::extractTree;
using av::graph::inferRates;
using av::graph::PathSpec;
using av::graph::StaticGraph;
using av::graph::tableIvSpec;
using av::graph::toCanonical;
using av::lint::Diagnostic;

using Sources = std::vector<std::pair<std::string, std::string>>;

/** A minimal node body the extractor can anchor ("Node(graph, ...)"
 *  context followed by pub/sub sites). */
std::string
nodeSrc(const std::string &name, const std::string &body)
{
    std::string out =
        "struct X { explicit X(RosGraph &graph) : Node(graph, \"";
    out += name;
    out += "\") { ";
    out += body;
    out += " } };";
    return out;
}

std::vector<Diagnostic>
check(const Sources &sources, const PathSpec &spec)
{
    StaticGraph g = extractSources(sources);
    inferRates(g, spec);
    return checkGraph(g, spec);
}

// ---------------------------------------------------------------
// Extraction.
// ---------------------------------------------------------------

TEST(Avgraph, ResolvesTopicConstantsAndQueueDepths)
{
    const Sources sources = {
        {"src/topics.hh",
         "constexpr const char *kTopic = \"/sym\";"},
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(kTopic);")},
        {"src/b.cc",
         nodeSrc("b", "subscribe<Foo>(kTopic, 9, onMsg);")},
    };
    const StaticGraph g = extractSources(sources);
    ASSERT_EQ(g.topics.count("/sym"), 1u);
    const auto &entry = g.topics.at("/sym");
    ASSERT_EQ(entry.pubs.size(), 1u);
    EXPECT_EQ(entry.pubs[0].node, "a");
    EXPECT_EQ(entry.pubs[0].type, "Foo");
    ASSERT_EQ(entry.subs.size(), 1u);
    EXPECT_EQ(entry.subs[0].node, "b");
    EXPECT_EQ(entry.subs[0].depth, 9u);
    EXPECT_EQ(g.nodes, (std::vector<std::string>{"a", "b"}));
}

TEST(Avgraph, DynamicTopicArgumentsAreSkippedNotGuessed)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(runtimeName);")},
    };
    const StaticGraph g = extractSources(sources);
    EXPECT_TRUE(g.topics.empty());
}

TEST(Avgraph, OnlyRecordingBagChannelSitesAreExternals)
{
    // The recorder's bound and chained channels publish into the bag;
    // a read-only lookup outside src/world/ (counting scans) does not.
    const Sources sources = {
        {"src/world/recorder.cc",
         "void record(Bag &out) {"
         " auto &points = out.channel<Cloud>(\"/raw\");"
         " points.add(scan);"
         " out.channel<Fix>(\"/fix\").add(fix); }"},
        {"src/exp/runner.cc",
         "std::size_t scans(Bag &bag) {"
         " auto &lookup = drive->bag.channel<Cloud>(\"/raw\");"
         " return bag.channel<Cloud>(\"/raw\").count()"
         " + lookup.count(); }"},
    };
    const StaticGraph g = extractSources(sources);
    ASSERT_EQ(g.topics.count("/raw"), 1u);
    const auto &raw = g.topics.at("/raw").externals;
    ASSERT_EQ(raw.size(), 1u);
    EXPECT_EQ(raw[0].source, "bag_replay");
    EXPECT_EQ(raw[0].site.file, "src/world/recorder.cc");
    ASSERT_EQ(g.topics.count("/fix"), 1u);
    EXPECT_EQ(g.topics.at("/fix").externals.size(), 1u);
}

// ---------------------------------------------------------------
// Rule catalog: one seeded violation -> exactly one diagnostic.
// ---------------------------------------------------------------

TEST(Avgraph, CleanGraphHasNoFindings)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(\"/t\");")},
        {"src/b.cc", nodeSrc("b", "subscribe<Foo>(\"/t\", 1, h);")},
    };
    EXPECT_TRUE(check(sources, PathSpec{}).empty());
}

TEST(Avgraph, TypeMismatchExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(\"/t\");")},
        {"src/b.cc", nodeSrc("b", "subscribe<Bar>(\"/t\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "type-mismatch");
    EXPECT_NE(diags[0].message.find("Bar vs Foo"),
              std::string::npos);
}

TEST(Avgraph, NamespaceQualifiedTypesCompareByLastComponent)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a",
                 "pub_ = graph.advertise<pc::PointCloud>(\"/t\");")},
        {"src/b.cc",
         nodeSrc("b", "subscribe<PointCloud>(\"/t\", 1, h);")},
    };
    EXPECT_TRUE(check(sources, PathSpec{}).empty());
}

TEST(Avgraph, OrphanPublishedExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a",
                 "pub_ = graph.advertise<Foo>(\"/dead\"); "
                 "pub2_ = graph.advertise<Foo>(\"/live\");")},
        {"src/b.cc",
         nodeSrc("b", "subscribe<Foo>(\"/live\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "orphan-published");
    EXPECT_NE(diags[0].message.find("/dead"), std::string::npos);
}

TEST(Avgraph, OrphanSubscribedExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(\"/t\");")},
        {"src/b.cc",
         nodeSrc("b",
                 "subscribe<Foo>(\"/t\", 1, h); "
                 "subscribe<Foo>(\"/ghost\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "orphan-subscribed");
    EXPECT_NE(diags[0].message.find("/ghost"), std::string::npos);
}

TEST(Avgraph, DuplicatePublisherExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a", "pub_ = graph.advertise<Foo>(\"/t\");")},
        {"src/b.cc",
         nodeSrc("b", "pub_ = graph.advertise<Foo>(\"/t\");")},
        {"src/c.cc", nodeSrc("c", "subscribe<Foo>(\"/t\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "duplicate-publisher");
    EXPECT_NE(diags[0].message.find("a, b"), std::string::npos);
}

TEST(Avgraph, GraphCycleExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a",
                 "pub_ = graph.advertise<Foo>(\"/a\"); "
                 "subscribe<Foo>(\"/b\", 1, h);")},
        {"src/b.cc",
         nodeSrc("b",
                 "pub_ = graph.advertise<Foo>(\"/b\"); "
                 "subscribe<Foo>(\"/a\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "graph-cycle");
    EXPECT_NE(diags[0].message.find("a -> b -> a"),
              std::string::npos);
}

TEST(Avgraph, SelfLoopIsACycle)
{
    const Sources sources = {
        {"src/a.cc",
         nodeSrc("a",
                 "pub_ = graph.advertise<Foo>(\"/t\"); "
                 "subscribe<Foo>(\"/t\", 1, h);")},
    };
    const auto diags = check(sources, PathSpec{});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "graph-cycle");
}

TEST(Avgraph, QueueDepthExactlyOneDiagnostic)
{
    // A 25 Hz aux input into a node serviced at 10 Hz (its path
    // trigger is the 10 Hz sensor) with only a depth-1 queue:
    // need ceil(25/10) = 3.
    const Sources sources = {
        {"src/config.hh",
         "struct C { sim::Tick slowPeriod = 100 * sim::oneMs; "
         "sim::Tick fastPeriod = 40 * sim::oneMs; };"},
        {"src/bag.cc",
         "void wire(Bag &bag) { bag.channel<Foo>(\"/slow\").add(m); "
         "bag.channel<Foo>(\"/fast\").add(m); }"},
        {"src/a.cc",
         nodeSrc("a",
                 "subscribe<Foo>(\"/slow\", 1, h); "
                 "subscribe<Foo>(\"/fast\", 1, h); "
                 "pub_ = graph.advertise<Foo>(\"/out\");")},
    };
    PathSpec spec;
    spec.paths = {{"p", {"/slow", "a", "/out"}}};
    spec.auxTopics = {"/fast"};
    spec.sensorPeriods = {{"/slow", "slowPeriod"},
                          {"/fast", "fastPeriod"}};

    StaticGraph g = extractSources(sources);
    inferRates(g, spec);
    EXPECT_DOUBLE_EQ(g.topics.at("/slow").rateHz, 10.0);
    EXPECT_DOUBLE_EQ(g.topics.at("/fast").rateHz, 25.0);
    EXPECT_DOUBLE_EQ(g.nodeRates.at("a"), 10.0);
    EXPECT_DOUBLE_EQ(g.topics.at("/out").rateHz, 10.0);

    const auto diags = checkGraph(g, spec);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "queue-depth");
    EXPECT_NE(diags[0].message.find("'/fast'"), std::string::npos);
    EXPECT_NE(diags[0].message.find("need >= 3"),
              std::string::npos);
}

TEST(Avgraph, OffPathTopicExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/bag.cc",
         "void wire(Bag &bag) { bag.channel<Foo>(\"/a\").add(m); }"},
        {"src/a.cc",
         nodeSrc("A",
                 "subscribe<Foo>(\"/a\", 1, h); "
                 "pub_ = graph.advertise<Foo>(\"/b\");")},
        {"src/b.cc",
         nodeSrc("B",
                 "subscribe<Foo>(\"/b\", 1, h); "
                 "pub_ = graph.advertise<Foo>(\"/stray\");")},
        {"src/c.cc",
         nodeSrc("C", "subscribe<Foo>(\"/stray\", 1, h);")},
    };
    PathSpec spec;
    spec.paths = {{"p", {"/a", "A", "/b"}}};
    const auto diags = check(sources, spec);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "path-coverage");
    EXPECT_NE(diags[0].message.find("/stray"), std::string::npos);
}

TEST(Avgraph, MissingDeclaredPathEdgeExactlyOneDiagnostic)
{
    const Sources sources = {
        {"src/bag.cc",
         "void wire(Bag &bag) { bag.channel<Foo>(\"/a\").add(m); }"},
        {"src/a.cc",
         nodeSrc("A",
                 "subscribe<Foo>(\"/a\", 1, h); "
                 "pub_ = graph.advertise<Foo>(\"/b\");")},
    };
    PathSpec spec;
    spec.paths = {{"p", {"/a", "A", "/missing"}}};
    spec.auxTopics = {"/b"};
    const auto diags = check(sources, spec);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "path-coverage");
    EXPECT_NE(diags[0].message.find("does not publish '/missing'"),
              std::string::npos);
}

// ---------------------------------------------------------------
// The repo's own graph.
// ---------------------------------------------------------------

StaticGraph
repoGraph()
{
    StaticGraph g = extractTree(AVSCOPE_SOURCE_DIR);
    inferRates(g, tableIvSpec());
    return g;
}

TEST(Avgraph, RepoGraphSatisfiesRuleCatalog)
{
    const auto diags = checkGraph(repoGraph(), tableIvSpec());
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << d.file << ":" << d.line << ": " << d.rule
                      << ": " << d.message;
}

TEST(Avgraph, RepoRatesMatchTableIvCadences)
{
    const StaticGraph g = repoGraph();
    // Sensor cadences out of the recorder config.
    EXPECT_DOUBLE_EQ(g.topics.at("/points_raw").rateHz, 10.0);
    EXPECT_DOUBLE_EQ(g.topics.at("/imu_raw").rateHz, 25.0);
    EXPECT_DOUBLE_EQ(g.topics.at("/gnss_pose").rateHz, 1.0);
    EXPECT_NEAR(g.topics.at("/image_raw").rateHz, 15.1515, 0.01);
    // The camera branch runs at camera rate until the fusion node,
    // which is throttled by the slower LiDAR branch.
    EXPECT_NEAR(g.nodeRates.at("vision_detection"), 15.1515, 0.01);
    EXPECT_DOUBLE_EQ(g.nodeRates.at("range_vision_fusion"), 10.0);
    EXPECT_DOUBLE_EQ(g.nodeRates.at("costmap_generator"), 10.0);
    EXPECT_DOUBLE_EQ(g.topics.at("/semantics/costmap").rateHz,
                     10.0);
}

TEST(Avgraph, RepoGraphMatchesGoldenSnapshot)
{
    std::ifstream in(std::string(AVLINT_FIXTURE_DIR) +
                     "/golden_topology.txt");
    ASSERT_TRUE(in) << "missing golden_topology.txt fixture";
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(toCanonical(repoGraph()), os.str())
        << "static pub/sub topology changed; if intentional, "
           "regenerate the golden with: avgraph --root . "
           "--canonical tests/tools/fixtures/golden_topology.txt";
}

} // namespace

/**
 * @file
 * avgraph — whole-program static pub/sub topology analysis.
 *
 * The paper's methodology is graph-shaped: every latency, drop and
 * contention finding is an attribute of the node/topic dataflow
 * graph (Fig. 2) and its computation paths (Table IV). That graph
 * exists in the source only implicitly, as ~30 `advertise<T>` /
 * `subscribe<T>` call sites — a refactor can orphan a topic,
 * mismatch a message type or shrink a queue without any test
 * noticing. avgraph makes the graph explicit and checkable:
 *
 *  1. *Extraction* (extract.cc): every `advertise<T>(topic)`,
 *     `subscribe<T>(topic, depth, ...)` and recording bag
 *     `channel<T>(topic)` call site in src/ (one whose channel gets
 *     `.add(`; a read-only lookup is no source), resolved through
 *     a symbol table of `constexpr const char *` topic constants and
 *     attributed to its node via the `PerceptionNode(graph, "name",
 *     ...)` / `Node(graph, "name")` constructor anchor. Sensor
 *     cadences are read from `<x>Period = N * sim::oneMs`-style
 *     fields.
 *
 *  2. *Rates* (rules.cc): sensor rates propagate along the declared
 *     Table IV computation paths — a node's service rate is the
 *     slowest of its path-predecessor topics (secondary inputs such
 *     as the IMU cache into the next cycle; they do not trigger
 *     publications), and a topic inherits its publisher's rate.
 *
 *  3. *Rule catalog* (rules.cc), one diagnostic per defect:
 *       type-mismatch        pub/sub/external types disagree on a
 *                            topic
 *       orphan-published     published (or replayed) but never
 *                            subscribed, and neither an aux topic
 *                            nor a path terminal
 *       orphan-subscribed    subscribed but nothing publishes it
 *       duplicate-publisher  more than one publisher on one topic
 *       queue-depth          bounded queue cannot absorb the
 *                            producer/consumer rate ratio
 *                            (depth < ceil(producer/consumer))
 *       graph-cycle          a pub/sub cycle between nodes
 *       path-coverage        a topic outside every declared path
 *                            (and not an aux topic), or a declared
 *                            path edge missing from the graph
 *
 *  4. *Emitters* (emit.cc): JSON and DOT for tooling and docs, and
 *     a canonical form — sorted, stripped of file/line — that the
 *     golden-graph snapshot test pins byte-for-byte, so any
 *     topology change must be intentional.
 *
 * The runtime half lives in src/ros/topology.hh: a live drive's
 * registered topology must equal the statically extracted graph
 * (tests/stack/test_topology_crossval.cc).
 */

#ifndef AVSCOPE_TOOLS_AVGRAPH_AVGRAPH_HH
#define AVSCOPE_TOOLS_AVGRAPH_AVGRAPH_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "avlint.hh"

namespace av::graph {

/** Where a call site was found. */
struct Site
{
    std::string file; ///< path relative to the scanned root
    int line = 0;     ///< 1-based
};

/** One `advertise<T>(topic, ...)` call site. */
struct PubSite
{
    std::string node;  ///< advertising node's registered name
    std::string topic; ///< resolved topic string
    std::string type;  ///< message type as written, e.g. "pc::PointCloud"
    Site site;
};

/** One `subscribe<T>(topic, depth, ...)` call site. */
struct SubSite
{
    std::string node;
    std::string topic;
    std::string type;
    std::size_t depth = 0; ///< bounded queue depth at the site
    Site site;
};

/** One bag `channel<T>(topic)` site that records into the channel:
 *  an external publisher. */
struct ExternalSite
{
    std::string source; ///< e.g. "bag_replay"
    std::string topic;
    std::string type;
    Site site;
};

/** Everything the graph knows about one topic. */
struct TopicEntry
{
    std::vector<PubSite> pubs;
    std::vector<SubSite> subs;
    std::vector<ExternalSite> externals;
    double rateHz = 0.0; ///< inferred publication rate; 0 = unknown
};

/** The assembled static pub/sub graph. */
struct StaticGraph
{
    /** Node names with at least one pub or sub site, sorted. */
    std::vector<std::string> nodes;
    /** Topic name -> entry (map keeps reporting order canonical). */
    std::map<std::string, TopicEntry> topics;
    /** Inferred node service rates (Hz) for nodes on declared
     *  paths. */
    std::map<std::string, double> nodeRates;
    /** `<field>Period` values extracted from source, in seconds. */
    std::map<std::string, double> periodSeconds;
};

/**
 * The declared computation-path contract the graph is checked
 * against (defaults: the paper's Table IV, tableIvSpec()).
 */
struct PathSpec
{
    struct Path
    {
        std::string name;
        /** Alternating topic, node, topic, ..., topic — starts and
         *  ends on a topic. */
        std::vector<std::string> elements;
    };

    std::vector<Path> paths;
    /** Topics legal outside every path (debug outputs, secondary
     *  localization inputs). */
    std::vector<std::string> auxTopics;
    /** Sensor topic -> the `*Period` field naming its cadence. */
    std::map<std::string, std::string> sensorPeriods;
};

/** The paper's Table IV paths for this stack. */
PathSpec tableIvSpec();

/**
 * Extract the static graph from every .hh/.cc under @p root/src.
 * Files are visited in sorted path order; the result is independent
 * of filesystem traversal order.
 */
StaticGraph extractTree(const std::string &root);

/** Extract from in-memory sources (fixture tests). Each pair is
 *  (rel_path, content); processed in the order given after a
 *  whole-set symbol pass. */
StaticGraph
extractSources(const std::vector<std::pair<std::string, std::string>>
                   &sources);

/**
 * Infer topic/node rates: seed sensor topics from extracted periods
 * via @p spec.sensorPeriods, then propagate to a fixpoint along the
 * declared paths (node rate = min over path-predecessor topics;
 * topic rate = its publisher node's rate).
 */
void inferRates(StaticGraph &graph, const PathSpec &spec);

/**
 * Run the rule catalog. Diagnostics are sorted with
 * av::lint::sortDiagnostics — byte-stable output. Path and
 * queue-depth rules only apply where @p spec declares paths /
 * rates are known.
 */
std::vector<lint::Diagnostic> checkGraph(const StaticGraph &graph,
                                         const PathSpec &spec);

/** Machine-readable JSON (full detail, incl. file/line). */
std::string toJson(const StaticGraph &graph);

/** Graphviz DOT (sensors as diamonds, topics as boxes, nodes as
 *  ellipses; edges labeled with queue depths). */
std::string toDot(const StaticGraph &graph);

/**
 * Canonical form for the golden snapshot: sorted `node` /
 * `external` / `pub` / `sub` / `rate` lines with no file/line info,
 * so the golden only churns when the *topology* changes, not when
 * code moves within a file.
 */
std::string toCanonical(const StaticGraph &graph);

} // namespace av::graph

#endif // AVSCOPE_TOOLS_AVGRAPH_AVGRAPH_HH

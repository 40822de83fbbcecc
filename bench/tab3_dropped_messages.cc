/**
 * @file
 * Regenerates the paper's Table III: dropped messages per topic and
 * subscribing node, per detector. A message is dropped when a newer
 * one arrives on a full subscription queue before the previous one
 * was consumed — the ROS queue semantics reproduced by the
 * middleware.
 */

#include <iostream>

#include "common.hh"
#include "util/logging.hh"

using namespace av;

int
main(int argc, char **argv)
{
    bench::BenchEnv env(argc, argv);

    std::vector<std::size_t> jobs;
    for (const auto kind : bench::detectors)
        jobs.push_back(env.runner().submit(env.spec(kind)));

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const prof::RunResult &run = env.runner().result(jobs[i]);
        bench::assertZeroCopy(run);
        util::Table table(
            std::string("Table III — dropped messages, with ") +
                perception::detectorName(bench::detectors[i]),
            {"topic", "subscribed by", "delivered", "dropped",
             "drop rate"});
        for (const auto &row : run.drops) {
            if (row.delivered == 0)
                continue;
            // The paper's table lists topics with at least one drop
            // plus /image_raw (its headline row) always.
            if (row.dropped == 0 && row.topic != "/image_raw")
                continue;
            table.addRow({row.topic, row.node,
                          std::to_string(row.delivered),
                          std::to_string(row.dropped),
                          util::Table::pct(row.dropRate())});
        }
        env.print(table);
    }

    std::cout
        << "Paper reference (Table III): /image_raw drops 16.3% with"
           " SSD512 and 0.0% with SSD300/YOLO; the tracker and"
           " costmap object inputs drop ~0.1-1%.\n";
    return 0;
}

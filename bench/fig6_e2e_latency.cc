/**
 * @file
 * Regenerates the paper's Fig. 6 + Table IV: end-to-end latency of
 * the four computation paths under the three detectors; the
 * end-to-end latency of the system is the worst path.
 */

#include <cstdio>
#include <iostream>

#include "common.hh"
#include "util/logging.hh"

using namespace av;

namespace {

const std::vector<std::pair<prof::Path, const char *>> pathRows = {
    {prof::Path::Localization,
     "/points_raw > voxel_grid_filter > /filtered_points > "
     "ndt_matching"},
    {prof::Path::CostmapPoints,
     "/points_raw > ray_ground_filter > /points_no_ground > "
     "costmap_generator"},
    {prof::Path::CostmapVisionObj,
     "/image_raw > vision_detection > range_vision_fusion > "
     "imm_ukf_pda > relay > naive_motion_predict > "
     "costmap_generator"},
    {prof::Path::CostmapClusterObj,
     "/points_raw > ray_ground_filter > euclidean_cluster > "
     "range_vision_fusion > imm_ukf_pda > relay > "
     "naive_motion_predict > costmap_generator"},
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchEnv env(argc, argv);

    util::Table desc("Table IV — computation paths",
                     {"path", "topics/nodes"});
    for (const auto &[path, description] : pathRows)
        desc.addRow({prof::pathName(path), description});
    env.print(desc);

    // Submit every detector up front so replays fan out across the
    // worker pool.
    std::vector<std::size_t> jobs;
    for (const auto kind : bench::detectors)
        jobs.push_back(env.runner().submit(env.spec(kind)));

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto kind = bench::detectors[i];
        const prof::RunResult &run = env.runner().result(jobs[i]);
        bench::assertZeroCopy(run);
        util::Table table(
            std::string("Fig. 6 — end-to-end path latency (ms), with ") +
                perception::detectorName(kind),
            {"path", "n", "min", "q1", "mean", "q3", "p99", "max"});
        std::string worst_path;
        double worst_mean = -1.0;
        for (const auto &[path, description] : pathRows) {
            const util::SampleSeries *series = run.findPathSeries(path);
            AV_ASSERT(series != nullptr, "untraced path");
            const auto s = series->summarize();
            table.addRow({prof::pathName(path), std::to_string(s.count),
                          util::Table::num(s.min),
                          util::Table::num(s.q1),
                          util::Table::num(s.mean),
                          util::Table::num(s.q3),
                          util::Table::num(s.p99),
                          util::Table::num(s.max)});
            if (s.mean > worst_mean) {
                worst_mean = s.mean;
                worst_path = prof::pathName(path);
            }
        }
        env.print(table);
        std::printf("end-to-end latency (worst path): %s, mean "
                    "%.1f ms, p99 %.1f ms -> %s the 100 ms budget\n\n",
                    worst_path.c_str(), worst_mean, run.worstCaseP99(),
                    run.worstCaseP99() > 100.0 ? "EXCEEDS" : "meets");
    }

    std::cout
        << "Paper reference (Fig. 6 / Finding 2): tail end-to-end"
           " latency exceeds 200 ms for every detector; the worst"
           " average path is costmap_vision_obj with SSD512 and"
           " costmap_cluster_obj with SSD300/YOLO.\n";
    return 0;
}

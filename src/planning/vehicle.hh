/**
 * @file
 * Kinematic vehicle model for closed-loop driving: integrates twist
 * commands (the drive-by-wire interface the paper's Fig. 1 ends in)
 * into an ego pose.
 */

#ifndef AVSCOPE_PLANNING_VEHICLE_HH
#define AVSCOPE_PLANNING_VEHICLE_HH

#include "geom/pose.hh"
#include "planning/pure_pursuit.hh"

namespace av::plan {

/**
 * Unicycle kinematics with first-order actuation lag.
 */
class VehicleModel
{
  public:
    explicit VehicleModel(const geom::Pose2 &start = geom::Pose2{},
                          double actuation_tau = 0.25)
        : pose_(start), tau_(actuation_tau)
    {}

    /** Integrate @p dt seconds under the last commanded twist. */
    void step(const Twist &command, double dt);

    const geom::Pose2 &pose() const { return pose_; }
    double speed() const { return speed_; }
    double yawRate() const { return yawRate_; }

  private:
    geom::Pose2 pose_;
    double speed_ = 0.0;
    double yawRate_ = 0.0;
    double tau_;
};

} // namespace av::plan

#endif // AVSCOPE_PLANNING_VEHICLE_HH

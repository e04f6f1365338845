// Fleet-campaign workloads of the benchmark: inputs built from a seed, the
// timed set-up that provisions them, and the output checks a finished
// campaign must pass. Everything here calls UpKit's public API only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/fleet.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/chaos.hpp"

namespace fleetbench {

using namespace upkit;

enum class Kind { kFull, kDelta, kChaos, kSharded };

struct WorkloadSpec {
    const char* name;
    Kind kind;
    std::size_t devices;        // default fleet size N
    std::size_t smoke_devices;  // size for the benchmark's own smoke test
};

/// Key seeds of the workload's vendor and update server.
Bytes vendor_key_seed(std::uint64_t seed);
Bytes server_key_seed(std::uint64_t seed);

/// The workload table entry for `name`; nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);

/// Host time the set-up spent in the calls the traced run reports.
struct SetupTimings {
    double publish_s = 0.0;     // create_release + publish, all releases
    unsigned releases = 0;
    double prepare_s = 0.0;     // provisioning prepare_update, all devices
    double provision_s = 0.0;   // Device construction + provision_factory
};

/// One campaign, built and provisioned. Construction is the benchmark's
/// set-up phase; run() is the timed rollout.
class Scenario {
public:
    static constexpr std::uint32_t kAppId = 0xF1EE7;
    static constexpr std::uint32_t kFirstDeviceId = 0x20000;

    Scenario(const WorkloadSpec& spec, std::uint64_t seed, std::size_t devices);

    /// Engine selection for the next run(): the workload's own engine, or
    /// the single heap whatever the workload (traced runs).
    void use_single_heap() { campaign_->set_shards(0); }
    void set_tracer(sim::Tracer* tracer) { campaign_->set_tracer(tracer); }

    core::CampaignReport run();

    /// Output checks (see README.md): returns the number of devices whose
    /// outcome violates the workload's rule (the first few go to stderr)
    /// and counts the devices running the rolled-out release.
    std::size_t check(const core::CampaignReport& report, std::size_t& on_target);

    const SetupTimings& timings() const { return timings_; }
    const Bytes& newest_image() const { return newest_image_; }
    const server::VendorServer& vendor() const { return *vendor_; }
    const server::UpdateServer& server() const { return *server_; }
    /// Sum of SimFlash::bytes_written over every device's flash.
    std::uint64_t flash_bytes_written() const;

private:
    void publish(std::uint16_t version, Bytes firmware, bool chunked);
    void provision(const core::DeviceConfig& config, std::uint16_t version,
                   const net::LinkParams& link);

    const WorkloadSpec* spec_;
    std::unique_ptr<sim::ChaosPlan> chaos_;  // the server model points at it
    std::unique_ptr<server::VendorServer> vendor_;
    std::unique_ptr<server::UpdateServer> server_;
    std::vector<std::unique_ptr<core::Device>> devices_;
    std::vector<std::uint16_t> provisioned_;  // factory version, per device
    std::unique_ptr<core::FleetCampaign> campaign_;
    core::FleetPolicy policy_;
    std::uint16_t target_version_ = 0;
    Bytes newest_image_;
    SetupTimings timings_;
};

}  // namespace fleetbench

// Trace sink of the traced run: attributes host time to the steps of the
// single-heap engine and sums simulated phase spans per device.
//
// Host time: the sink stamps steady_clock on every event. The engine runs
// one step at a time and each step ends in the event it emits, so the host
// time between two consecutive events belongs to the step the later event
// closes. A few events close the named steps below; every other event's
// interval is engine and session bookkeeping.
//
// Simulated time: per device, the span of each session phase (start ..
// recv-payload, reboot, confirm, rollback) and of the agent's verify
// states, which give the paper's propagation / verification / loading
// split (Fig. 8).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/trace.hpp"

namespace fleetbench {

class LayerSink final : public upkit::sim::TraceSink {
public:
    enum Step {
        kPrepare,         // closed by server-cache: UpdateServer::prepare_update
        kManifestVerify,  // FSM verify-manifest -> receive-firmware
        kPayload,         // FSM receive-firmware -> verify-firmware
        kReboot,          // phase reboot -> ...: bootloader re-verify + load
        kToken,           // FSM -> start-update: device token issue
        kEdge,            // closed by edge-cache: regional edge cache
        kOther,           // every other interval: engine bookkeeping
        kStepCount,
    };

    LayerSink(std::uint32_t first_device_id, std::size_t devices)
        : first_id_(first_device_id), devices_(devices) {}

    void start() { last_ = Clock::now(); }
    /// Closes the run: the time after the last event is engine time.
    void stop() { host_ns_[kOther] += elapsed_ns(); }

    void on_event(const upkit::sim::TraceEvent& e) override {
        const Step step = classify(e);
        host_ns_[step] += elapsed_ns();
        ++count_[step];
        track_sim_time(e);
    }

    double host_s(Step s) const { return static_cast<double>(host_ns_[s]) * 1e-9; }
    std::uint64_t count(Step s) const { return count_[s]; }

    /// Device-seconds summed over the fleet, every attempt.
    double propagation_s() const { return propagation_s_ - verification_s_; }
    double verification_s() const { return verification_s_; }
    double loading_s() const { return loading_s_; }

private:
    using Clock = std::chrono::steady_clock;

    struct DeviceSpans {
        double phase_since = 0.0;
        double fsm_since = 0.0;
    };

    std::uint64_t elapsed_ns() {
        const auto now = Clock::now();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_);
        last_ = now;
        return static_cast<std::uint64_t>(ns.count());
    }

    static Step classify(const upkit::sim::TraceEvent& e) {
        using upkit::sim::TraceType;
        switch (e.type) {
            case TraceType::kServerCache: return kPrepare;
            case TraceType::kEdgeCache: return kEdge;
            case TraceType::kFsmTransition:
                if (e.from == "verify-manifest" && e.to == "receive-firmware") {
                    return kManifestVerify;
                }
                if (e.from == "receive-firmware" && e.to == "verify-firmware") return kPayload;
                if (e.to == "start-update") return kToken;
                return kOther;
            case TraceType::kSessionPhase:
                return e.from == "reboot" ? kReboot : kOther;
            default: return kOther;
        }
    }

    void track_sim_time(const upkit::sim::TraceEvent& e) {
        using upkit::sim::TraceType;
        if (e.device_id < first_id_ || e.device_id - first_id_ >= devices_.size()) return;
        DeviceSpans& d = devices_[e.device_id - first_id_];
        switch (e.type) {
            case TraceType::kSessionStart:
                d.phase_since = e.t;
                d.fsm_since = e.t;
                break;
            case TraceType::kSessionPhase: {
                const double span = e.t - d.phase_since;
                d.phase_since = e.t;
                if (e.from == "reboot" || e.from == "confirm" || e.from == "rollback") {
                    loading_s_ += span;
                } else if (e.from != "done") {
                    propagation_s_ += span;
                }
                break;
            }
            case TraceType::kFsmTransition:
                if (e.from == "verify-manifest" || e.from == "verify-firmware") {
                    verification_s_ += e.t - d.fsm_since;
                }
                d.fsm_since = e.t;
                break;
            default: break;
        }
    }

    std::uint32_t first_id_;
    std::vector<DeviceSpans> devices_;
    Clock::time_point last_{};
    std::array<std::uint64_t, kStepCount> host_ns_{};
    std::array<std::uint64_t, kStepCount> count_{};
    double propagation_s_ = 0.0;
    double verification_s_ = 0.0;
    double loading_s_ = 0.0;
};

}  // namespace fleetbench

#include "scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "diff/cdc.hpp"
#include "net/link.hpp"
#include "sim/firmware.hpp"
#include "sim/platform.hpp"

namespace fleetbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Simulated MCU with `flash_kib` of internal flash in 1 KiB sectors. The
/// 16 KiB variant is bench/fleet_scale.cpp's scale profile; the larger ones
/// only grow the flash so bigger images fit.
sim::PlatformProfile mcu(const char* name, std::uint64_t flash_kib) {
    return sim::PlatformProfile{
        .name = name,
        .cpu_mhz = 64.0,
        .internal_flash_bytes = flash_kib * 1024,
        .ram_bytes = 64 * 1024,
        .flash_sector_bytes = 1024,
        .flash_page_bytes = 256,
        .has_external_flash = false,
        .external_flash_bytes = 0,
        .flash_erase_sector_s = 0.085,
        .flash_write_page_s = 0.0053,
        .flash_read_bandwidth_bps = 16e6,
        .voltage = 3.0,
        .cpu_active_ma = 6.3,
        .radio_tx_ma = 16.4,
        .radio_rx_ma = 11.7,
        .flash_ma = 7.0,
        .sleep_ma = 0.003,
    };
}

const sim::PlatformProfile& profile_16k() {
    static const sim::PlatformProfile p = mcu("fleet-sim-16k", 16);
    return p;
}
const sim::PlatformProfile& profile_32k() {
    static const sim::PlatformProfile p = mcu("fleet-sim-32k", 32);
    return p;
}
const sim::PlatformProfile& profile_64k() {
    static const sim::PlatformProfile p = mcu("fleet-sim-64k", 64);
    return p;
}

/// `base` ± `spread` bytes, drawn from the workload seed: image sizes vary
/// a little between seeds, so the simulated timeline does too.
std::size_t jittered(Rng& rng, std::size_t base, std::size_t spread) {
    return base - spread + static_cast<std::size_t>(rng.next_u64() % (2 * spread + 1));
}

/// A chain of `releases` localized app edits on top of `base`: each release
/// rewrites 256 bytes inside `per_release` chunks of the previous one (the
/// CDC chunks nearest the average size, a different chunk each time) and
/// leaves every chunk boundary where it was. A device `k` releases behind
/// therefore misses exactly `k * per_release` chunks of known size, which
/// keeps bytes on air nearly equal from one seed to the next.
std::vector<Bytes> edit_chain(Bytes base, Rng& rng, int releases, int per_release) {
    const std::vector<manifest::ChunkRef> table = diff::chunk_image(base);
    // The chunks nearest the average chunk size, taken in a seeded order.
    std::vector<std::size_t> picks(table.size());
    for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    const auto distance = [&](std::size_t i) {
        const long len = static_cast<long>(table[i].length);
        return std::abs(len - static_cast<long>(diff::kProtocolChunkParams.avg_size));
    };
    std::stable_sort(picks.begin(), picks.end(),
                     [&](std::size_t a, std::size_t b) { return distance(a) < distance(b); });
    const std::size_t needed = static_cast<std::size_t>(releases * per_release);
    if (picks.size() < needed || table[picks[needed - 1]].length < 1024) {
        throw std::runtime_error("edit chain: too few chunks");
    }
    picks.resize(needed);
    for (std::size_t i = 0; i + 1 < needed; ++i) {
        std::swap(picks[i], picks[i + rng.next_u64() % (needed - i)]);
    }

    const auto same_cuts = [&](const Bytes& image) {
        const std::vector<manifest::ChunkRef> t = diff::chunk_image(image);
        if (t.size() != table.size()) return false;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].offset != table[i].offset || t[i].length != table[i].length) return false;
        }
        return true;
    };
    std::vector<Bytes> chain{std::move(base)};
    for (int r = 0; r < releases; ++r) {
        for (int attempt = 0;; ++attempt) {
            if (attempt == 256) throw std::runtime_error("edit chain: boundaries moved");
            Bytes next = chain.back();
            for (int e = 0; e < per_release; ++e) {
                const manifest::ChunkRef& c = table[picks[r * per_release + e]];
                const std::size_t at = c.offset + c.length / 2 - 128;
                for (std::size_t b = 0; b < 256; ++b) {
                    next[at + b] = static_cast<std::uint8_t>(rng.next_u64());
                }
            }
            if (same_cuts(next)) {
                chain.push_back(std::move(next));
                break;
            }
        }
    }
    return chain;
}

}  // namespace

Bytes vendor_key_seed(std::uint64_t seed) {
    return to_bytes("fleetbench-vendor-" + std::to_string(seed));
}

Bytes server_key_seed(std::uint64_t seed) {
    return to_bytes("fleetbench-server-" + std::to_string(seed));
}

const WorkloadSpec* find_workload(const std::string& name) {
    static const WorkloadSpec table[] = {
        {"fleet_full", Kind::kFull, 2000, 200},
        {"fleet_delta", Kind::kDelta, 2000, 150},
        {"fleet_chaos", Kind::kChaos, 2000, 200},
        {"fleet_sharded", Kind::kSharded, 2000, 200},
    };
    for (const WorkloadSpec& w : table) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

void Scenario::publish(std::uint16_t version, Bytes firmware, bool chunked) {
    const auto t0 = Clock::now();
    const Status s = server_->publish(vendor_->create_release(
        std::move(firmware),
        {.version = version, .app_id = kAppId, .chunked = chunked}));
    timings_.publish_s += since(t0);
    ++timings_.releases;
    if (s != Status::kOk) throw std::runtime_error("publish failed");
}

void Scenario::provision(const core::DeviceConfig& config, std::uint16_t version,
                         const net::LinkParams& link) {
    // The same steps FleetCampaign::add_synthetic takes, timed one by one.
    auto t0 = Clock::now();
    auto device = std::make_unique<core::Device>(config);
    timings_.provision_s += since(t0);

    t0 = Clock::now();
    auto image = server_->prepare_update(
        kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0},
        version);
    timings_.prepare_s += since(t0);
    if (!image) throw std::runtime_error("provisioning prepare_update failed");

    t0 = Clock::now();
    const Status s = device->provision_factory(*image);
    timings_.provision_s += since(t0);
    if (s != Status::kOk) throw std::runtime_error("provision_factory failed");

    campaign_->add(*device, link);
    provisioned_.push_back(version);
    devices_.push_back(std::move(device));
}

Scenario::Scenario(const WorkloadSpec& spec, std::uint64_t seed, std::size_t devices)
    : spec_(&spec) {
    Rng rng(seed);
    vendor_ = std::make_unique<server::VendorServer>(vendor_key_seed(seed));
    server_ = std::make_unique<server::UpdateServer>(server_key_seed(seed));
    campaign_ = std::make_unique<core::FleetCampaign>(*server_);
    devices_.reserve(devices);
    provisioned_.reserve(devices);

    core::DeviceConfig base;
    base.app_id = kAppId;
    base.vendor_key = vendor_->public_key();
    base.server_key = server_->public_key();
    base.calibrated_costs = false;  // host-independent simulated costs
    base.bootloader_reserved = 4 * 1024;
    base.seed = rng.next_u64() >> 16;
    const auto config_for = [&](std::size_t k) {
        core::DeviceConfig config = base;
        config.device_id = kFirstDeviceId + static_cast<std::uint32_t>(k);
        config.seed = base.seed + k;
        return config;
    };

    // Constant-mode origin: 8 service slots, fixed service time.
    server::ServerModel origin{.concurrency = 8, .service_time_s = 0.05};
    const server::ServerModel edge_model{.concurrency = 8, .service_time_s = 0.01};
    const core::EdgeTopology four_edges{.edges = 4,
                                        .model = edge_model,
                                        .backhaul_rtt_s = 0.05,
                                        .backhaul_per_kb_s = 0.001};
    const unsigned wave = static_cast<unsigned>(std::max<std::size_t>(devices / 4, 1));

    switch (spec.kind) {
        case Kind::kFull:
        case Kind::kSharded: {
            // Homogeneous A/B fleet, full-image updates over BLE.
            const std::size_t size = jittered(rng, 2 * 1024, 32);
            const std::uint64_t s1 = rng.next_u64(), s2 = rng.next_u64();
            publish(1, sim::generate_firmware({.size = size, .seed = s1}), false);
            newest_image_ = sim::generate_firmware({.size = size, .seed = s2});
            publish(2, newest_image_, false);
            base.layout = core::SlotLayout::kAB;
            base.platform = &profile_16k();
            base.enable_differential = false;
            for (std::size_t k = 0; k < devices; ++k) {
                provision(config_for(k), 1, net::ble_gatt());
            }
            policy_.wave_size = wave;
            policy_.wave_stagger_s = 5.0;
            if (spec.kind == Kind::kSharded) campaign_->set_shards(2);
            break;
        }

        case Kind::kDelta: {
            // A chain of localized app edits, every release chunked; the
            // fleet sits in equal thirds on the three older releases.
            const std::size_t size = jittered(rng, 24 * 1024, 256);
            std::vector<Bytes> chain = edit_chain(
                sim::generate_firmware({.size = size, .seed = rng.next_u64()}), rng, 3, 2);
            for (std::size_t v = 0; v < chain.size(); ++v) {
                publish(static_cast<std::uint16_t>(v + 1), chain[v], true);
            }
            newest_image_ = chain.back();
            base.layout = core::SlotLayout::kAB;
            base.platform = &profile_64k();
            base.enable_differential = true;
            base.enable_chunked = true;
            for (std::size_t k = 0; k < devices; ++k) {
                provision(config_for(k), static_cast<std::uint16_t>(1 + k % 3),
                          net::ble_gatt());
            }
            campaign_->set_edges(four_edges);
            policy_.wave_size = wave;
            policy_.wave_stagger_s = 5.0;
            break;
        }

        case Kind::kChaos: {
            // Mixed legacy fleet: even devices A/B full-image, odd devices
            // static-internal with bsdiff differential updates.
            const std::size_t size = jittered(rng, 8 * 1024, 64);
            const Bytes v1 = sim::generate_firmware({.size = size, .seed = rng.next_u64()});
            newest_image_ = sim::mutate_app_change(v1, rng.next_u64(), 1000);
            publish(1, v1, false);
            publish(2, newest_image_, false);
            base.platform = &profile_32k();
            for (std::size_t k = 0; k < devices; ++k) {
                core::DeviceConfig config = config_for(k);
                const bool ab = k % 2 == 0;
                config.layout = ab ? core::SlotLayout::kAB : core::SlotLayout::kStaticInternal;
                config.enable_differential = !ab;
                provision(config, 1, net::ble_gatt());
            }
            // Periodic fault windows at a seeded phase: every seed and every
            // wave sees the same dose of each fault, so the simulated results
            // move little between seeds. Per-device faults are drawn per
            // device from the seed: 5% flaky radios, 3% devices whose link
            // corrupts every image (they fail all their attempts).
            chaos_ = std::make_unique<sim::ChaosPlan>();
            const double period = 13.0, horizon = 8000.0;
            const double phase = static_cast<double>(rng.next_u64() % 13000) / 1000.0;
            for (double t = phase; t < horizon; t += period) {
                chaos_->add_outage(t, t + 1.0);
                chaos_->add_loss_burst(t + 4.0, t + 6.0, 0.10);
                chaos_->add_latency_spike(t + 8.0, t + 10.0, 3.0);
            }
            chaos_->set_device_profile_params(rng.next_u64(), 0.05, 0.05, 0.03, 1e9, 1.0, 0.0);
            chaos_->set_region_outage_params(rng.next_u64(), 80, 5.0, horizon);
            chaos_->set_clock_drift(rng.next_u64(), 50.0);
            origin.chaos = chaos_.get();
            campaign_->set_edges(four_edges);
            // A canary and eighty waves: the run's outcome is a sum over many
            // cohorts, not hostage to how one fault window meets one wave.
            policy_.canary_size = static_cast<unsigned>(std::max<std::size_t>(devices / 160, 1));
            policy_.wave_size = static_cast<unsigned>(std::max<std::size_t>(devices / 80, 1));
            policy_.wave_stagger_s = 5.0;
            policy_.promote_success_rate = 0.8;
            policy_.breaker_failure_rate = 0.5;
            policy_.breaker_min_failures = 10;
            policy_.breaker_abort = false;
            policy_.breaker_pause_s = 5.0;
            policy_.breaker_max_trips = 100;
            policy_.transport_resumes = 2;
            break;
        }
    }
    target_version_ = static_cast<std::uint16_t>(timings_.releases);
    server_->set_model(origin);
    campaign_->set_event_budget(1000 * devices);
}

core::CampaignReport Scenario::run() { return campaign_->run(kAppId, policy_); }

std::size_t Scenario::check(const core::CampaignReport& report, std::size_t& on_target) {
    on_target = 0;
    if (report.devices.size() != devices_.size()) {
        std::fprintf(stderr, "check: report has %zu devices, fleet %zu\n",
                     report.devices.size(), devices_.size());
        return devices_.size();
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        const core::CampaignDeviceResult& r = report.devices[i];
        core::Device& device = *devices_[i];
        const std::uint16_t installed = device.identity().installed_version;
        const char* why = nullptr;
        if (installed == target_version_) ++on_target;
        if (r.device_id != device.identity().device_id) {
            why = "report order does not match the fleet";
        } else if (spec_->kind != Kind::kChaos) {
            if (r.status != Status::kOk || r.final_version != target_version_ ||
                installed != target_version_) {
                why = "not updated to the rolled-out release";
            }
        } else if (installed == target_version_) {
            if (r.final_version != target_version_) why = "report disagrees with device";
        } else if (installed != provisioned_[i]) {
            why = "runs neither the old nor the new release";
        } else {
            // Not updated: the device must still boot its old image from
            // flash (no bricked slot, no half-written image selected).
            auto boot = device.reboot();
            if (!boot || boot->booted.version != provisioned_[i]) {
                why = "old release no longer boots";
            }
        }
        if (why != nullptr) {
            if (bad < 10) {
                std::fprintf(stderr, "check: device %#x (status %d, v%u): %s\n",
                             r.device_id, static_cast<int>(r.status), installed, why);
            }
            ++bad;
        }
    }
    return bad;
}

std::uint64_t Scenario::flash_bytes_written() const {
    std::uint64_t total = 0;
    for (const auto& device : devices_) {
        total += device->internal_flash().bytes_written();
        if (device->external_flash() != nullptr) {
            total += device->external_flash()->bytes_written();
        }
    }
    return total;
}

}  // namespace fleetbench

// Fleet-campaign benchmark driver: one workload per process.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--git-sha SHA]
//
// --trace 0 repeats set-up + FleetCampaign::run of one seeded campaign
// until S seconds of measured work have passed (at least three times) and
// reports the end-to-end metrics: the median set-up time, the fastest run,
// and simulated results that must repeat exactly. --trace 1 alternates an untraced and a
// traced single-heap run of the same campaign and reports the per-layer
// metrics. Both modes check every device's outcome and exit nonzero on a
// wrong outcome or a fingerprint that differs between runs.
//
// Output: a JSON detail line (host block, speed probe, fingerprint, per-run
// times, metrics), then, last, the result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "crypto/backend.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256x4.hpp"
#include "diff/cdc.hpp"
#include "layer_sink.hpp"
#include "probe.hpp"
#include "scenario.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define FLEETBENCH_COMPILER "clang " __clang_version__
#else
#define FLEETBENCH_COMPILER "gcc " __VERSION__
#endif

using namespace upkit;
using namespace fleetbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;  // the workload's smoke size instead of its full size
    std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--git-sha SHA]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value");
        const char* v = argv[++i];
        if (arg == "--workload") o.workload = v;
        else if (arg == "--seed") o.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds") o.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace") o.trace = std::strcmp(v, "1") == 0;
        else if (arg == "--git-sha") o.git_sha = v;
        else usage("unknown argument");
    }
    if (o.workload.empty()) usage("--workload is required");
    return o;
}

// --- JSON output ------------------------------------------------------------

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest round trip
    return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

std::string metrics_object(const std::vector<Metric>& metrics, bool with_units) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ",";
        out += quoted(metrics[i].name) + ":";
        out += with_units ? "{\"value\":" + num(metrics[i].value) +
                                ",\"unit\":" + quoted(metrics[i].unit) + "}"
                          : num(metrics[i].value);
    }
    return out + "}";
}

std::string list(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ",";
        out += num(values[i]);
    }
    return out + "]";
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- one campaign -------------------------------------------------------------

struct RunResult {
    core::CampaignReport report;
    double setup_s = 0.0;
    double run_s = 0.0;
    std::size_t bad = 0;        // devices failing the output check
    std::size_t on_target = 0;  // devices running the rolled-out release
};

/// Nearest-rank percentile: the smallest value with at least p of the
/// samples at or below it.
double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The simulated end-to-end metrics: a pure function of the inputs.
std::vector<Metric> simulated_metrics(const RunResult& r) {
    const core::CampaignReport& rep = r.report;
    const double n = static_cast<double>(rep.devices.size());
    std::vector<double> ends;
    for (const core::CampaignDeviceResult& d : rep.devices) {
        if (d.status == Status::kOk) ends.push_back(d.end_s);
    }
    std::sort(ends.begin(), ends.end());
    return {
        {"makespan_s", "s", rep.makespan_s},
        {"completion_p50_s", "s", percentile(ends, 0.50)},
        {"completion_p99_s", "s", percentile(ends, 0.99)},
        {"air_bytes_per_device", "bytes", static_cast<double>(rep.total_bytes) / n},
        {"energy_mj_per_device", "mJ", rep.total_energy_mj / n},
        {"device_success_rate", "ratio", static_cast<double>(r.on_target) / n},
    };
}

/// Runs the campaign `scenario` was built for and checks every device.
void run_campaign(Scenario& scenario, RunResult& out) {
    crypto::verify_memo_reset();  // each campaign starts with a cold memo
    const auto t0 = Clock::now();
    out.report = scenario.run();
    out.run_s = since(t0);
    out.bad = scenario.check(out.report, out.on_target);
}

// --- unit costs on the workload's own keys and image ----------------------

/// Median seconds per call of `op`, over `batches` batches of `calls`.
template <typename Op>
double per_call_s(Op&& op, int batches, int calls) {
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        for (int c = 0; c < calls; ++c) op();
        samples.push_back(since(t0) / calls);
    }
    return median(samples);
}

std::vector<Metric> unit_costs(const Scenario& sc, std::uint64_t seed) {
    const Bytes& image = sc.newest_image();
    const crypto::PrivateKey server_key = crypto::PrivateKey::generate(server_key_seed(seed));
    const crypto::Sha256Digest digest = crypto::Sha256::digest(image);
    volatile std::uint8_t keep = 0;

    const double sign_s = per_call_s(
        [&] { keep = keep ^ crypto::ecdsa_sign(server_key, digest)[0]; }, 5, 40);

    auto response = sc.server().prepare_update(
        Scenario::kAppId,
        {.device_id = Scenario::kFirstDeviceId, .nonce = 7, .current_version = 0});
    if (!response) throw std::runtime_error("unit costs: prepare_update failed");
    const manifest::Manifest& m = response->manifest;
    const crypto::PreparedPublicKey vendor_pub(sc.vendor().public_key());
    const crypto::PreparedPublicKey server_pub(server_key.public_key());
    const crypto::Sha256Digest d1 = crypto::Sha256::digest(m.vendor_signed_bytes());
    const crypto::Sha256Digest d2 = crypto::Sha256::digest(m.server_signed_bytes());
    bool verified = true;
    const double verify2_s = per_call_s(
        [&] {
            verified = verified && crypto::ecdsa_verify2(vendor_pub, d1, m.vendor_signature,
                                                         server_pub, d2, m.server_signature);
        },
        5, 40);
    if (!verified) throw std::runtime_error("unit costs: double signature rejected");

    const int image_calls = static_cast<int>(std::max<std::size_t>(1, (4u << 20) / image.size()));
    const double sha_s = per_call_s(
        [&] { keep = keep ^ crypto::Sha256::digest(image)[0]; }, 5, image_calls);
    const double cdc_s = per_call_s(
        [&] { keep = keep ^ static_cast<std::uint8_t>(diff::chunk_image(image).size()); }, 5,
        image_calls / 4 + 1);
    const double mb = static_cast<double>(image.size()) / 1e6;
    return {
        {"crypto.sign_us", "us", sign_s * 1e6},
        {"crypto.verify2_us", "us", verify2_s * 1e6},
        {"crypto.sha256_mb_s", "MB/s", mb / sha_s},
        {"diff.cdc_mb_s", "MB/s", mb / cdc_s},
    };
}

/// Share of the traced run's host time per step (detail line only).
std::vector<Metric> step_shares(const RunResult& r, const LayerSink& sink) {
    static constexpr const char* kNames[LayerSink::kStepCount] = {
        "server.prepare", "verify.manifest", "pipeline.payload", "boot.reboot",
        "agent.token",    "server.edge",     "core.engine"};
    std::vector<Metric> shares;
    for (int s = 0; s < LayerSink::kStepCount; ++s) {
        shares.push_back({kNames[s], "%",
                          100.0 * sink.host_s(static_cast<LayerSink::Step>(s)) / r.run_s});
    }
    return shares;
}

/// Per-layer metrics of one traced run (`untraced_run_s`: the untraced run
/// of the same campaign, for the tracing overhead).
std::vector<Metric> layer_metrics(const RunResult& r, const LayerSink& sink,
                                  const SetupTimings& setup, double untraced_run_s,
                                  std::uint64_t flash_written) {
    const core::CampaignReport& rep = r.report;
    const double n = static_cast<double>(rep.devices.size());
    const auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
    const auto step_us = [&](LayerSink::Step s) {
        return per(sink.host_s(s) * 1e6, static_cast<double>(sink.count(s)));
    };
    double named_s = 0.0;
    for (int s = 0; s < LayerSink::kOther; ++s) named_s += sink.host_s(static_cast<LayerSink::Step>(s));

    double attempts = 0, refreshes = 0, resumes = 0;
    for (const core::CampaignDeviceResult& d : rep.devices) {
        attempts += d.attempts;
        refreshes += d.token_refreshes;
        resumes += d.transport_resumes;
    }
    double edge_requests = 0, edge_hits = 0, origin_fetch = 0, fallbacks = 0;
    for (const core::EdgeReport& e : rep.edges) {
        edge_requests += static_cast<double>(e.cache.requests);
        edge_hits += static_cast<double>(e.cache.cache_hits);
        origin_fetch += static_cast<double>(e.cache.origin_fetch_bytes);
        fallbacks += static_cast<double>(e.fallbacks);
    }
    const server::ServerStats& ss = rep.server_stats;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"server.prepare_us", "us", step_us(LayerSink::kPrepare)},
        {"verify.manifest_us", "us", step_us(LayerSink::kManifestVerify)},
        {"pipeline.payload_us", "us", step_us(LayerSink::kPayload)},
        {"boot.reboot_us", "us", step_us(LayerSink::kReboot)},
        {"agent.token_us", "us", step_us(LayerSink::kToken)},
        {"server.edge_us", "us", step_us(LayerSink::kEdge)},
        {"core.engine_us_per_event", "us",
         per((r.run_s - named_s) * 1e6, d(rep.events_processed))},
        {"sim.trace_named_share_pct", "%", per(100.0 * named_s, r.run_s)},
        {"sim.trace_overhead_pct", "%", per(100.0 * (r.run_s - untraced_run_s), untraced_run_s)},
        {"server.publish_ms", "ms", per(setup.publish_s * 1e3, setup.releases)},
        {"server.provision_prepare_us", "us", per(setup.prepare_s * 1e6, n)},
        {"core.provision_us", "us", per(setup.provision_s * 1e6, n)},
        {"core.events", "count", d(rep.events_processed)},
        {"core.attempts_per_device", "ratio", per(attempts, n)},
        {"server.sign_ops_per_device", "ratio", per(d(ss.sign_ops), n)},
        {"net.token_refreshes", "count", refreshes},
        {"net.transport_resumes", "count", resumes},
        {"server.response_hit_ratio", "ratio",
         per(d(ss.response_hits), d(ss.response_hits + ss.response_misses))},
        {"crypto.verify_memo_hit_ratio", "ratio",
         per(d(rep.verify_memo.hits), d(rep.verify_memo.hits + rep.verify_memo.misses))},
        {"server.delta_generations", "count", d(ss.delta_generations)},
        {"server.chunk_bytes_served_per_device", "bytes", per(d(ss.chunk_bytes_served), n)},
        {"server.chunk_dedup_ratio", "ratio",
         per(d(ss.chunk_bytes_deduped), d(ss.chunk_bytes_deduped + ss.chunk_bytes_served))},
        {"edge.hit_ratio", "ratio", per(edge_hits, edge_requests)},
        {"edge.origin_fetch_bytes", "bytes", origin_fetch},
        {"edge.fallbacks", "count", fallbacks},
        {"core.outage_rejections", "count", d(rep.server.outage_rejections)},
        {"core.breaker_trips", "count", d(rep.breaker_trips.size())},
        {"core.queue_wait_s_per_device", "s", per(rep.server.total_wait_s, n)},
        {"core.queue_peak_depth", "count", d(rep.server.peak_depth)},
        {"core.server_busy_s", "s", rep.server.busy_s},
        {"sim.propagation_s_per_device", "s", per(sink.propagation_s(), n)},
        {"sim.verification_s_per_device", "s", per(sink.verification_s(), n)},
        {"sim.loading_s_per_device", "s", per(sink.loading_s(), n)},
        {"flash.bytes_written_per_device", "bytes", per(d(flash_written), n)},
    };
}

// --- the two modes --------------------------------------------------------------

/// CPUs a campaign of `spec` keeps busy: the coordinator, plus two shard
/// workers on the sharded engine.
unsigned cpus_for(const WorkloadSpec& spec) { return spec.kind == Kind::kSharded ? 3 : 1; }

struct Outcome {
    std::vector<Metric> metrics;
    std::uint64_t fingerprint = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool consistent = true;  // every run's fingerprint matched the first
    std::vector<double> setup_reps, run_reps;
    std::vector<Metric> step_share_pct;  // traced mode: last traced run
};

void note_run(Outcome& o, const RunResult& r) {
    const std::uint64_t fp = r.report.fingerprint();
    if (o.attempted == 0) o.fingerprint = fp;
    if (fp != o.fingerprint) {
        std::fprintf(stderr, "fleetbench: fingerprint %016llx differs from %016llx\n",
                     static_cast<unsigned long long>(fp),
                     static_cast<unsigned long long>(o.fingerprint));
        o.consistent = false;
    }
    o.attempted += r.report.devices.size();
    o.failed += r.bad;
}

Outcome end_to_end(const WorkloadSpec& spec, const Options& opt, std::size_t n) {
    Outcome o;
    RunResult last;
    const auto start = Clock::now();
    double measured = 0.0;
    while (o.setup_reps.size() < 3 || measured < opt.seconds) {
        RunResult r;
        pin_to_fastest_cpus(cpus_for(spec));
        const auto t0 = Clock::now();
        Scenario scenario(spec, opt.seed, n);
        r.setup_s = since(t0);
        run_campaign(scenario, r);
        note_run(o, r);
        o.setup_reps.push_back(r.setup_s);
        o.run_reps.push_back(r.run_s);
        measured += r.setup_s + r.run_s;
        last = std::move(r);
        if (since(start) > 4.0 * opt.seconds + 60.0) break;  // runaway guard
    }
    // Contention from other work on the host only ever adds time, so the
    // fastest campaign of the run is the steadiest estimate of run_s (see
    // README.md, "Noise"); set-up time is reported as the median.
    o.metrics = {{"setup_s", "s", median(o.setup_reps)},
                 {"run_s", "s", *std::min_element(o.run_reps.begin(), o.run_reps.end())},
                 {"peak_rss_mb", "MB", peak_rss_mb()}};
    for (Metric& m : simulated_metrics(last)) o.metrics.push_back(m);
    return o;
}

Outcome traced(const WorkloadSpec& spec, const Options& opt, std::size_t n) {
    Outcome o;
    std::map<std::string, std::vector<double>> samples;
    std::vector<Metric> shape;  // names and units, in print order
    std::unique_ptr<Scenario> last;
    const auto start = Clock::now();
    while (o.run_reps.empty() || since(start) < opt.seconds) {
        // Untraced baseline on the same engine as the traced run.
        RunResult base;
        {
            pin_to_fastest_cpus(1);
            Scenario scenario(spec, opt.seed, n);
            scenario.use_single_heap();
            run_campaign(scenario, base);
            note_run(o, base);
        }
        if (spec.kind == Kind::kSharded && o.run_reps.empty()) {
            // The sharded engine must replay the single heap exactly.
            RunResult sharded;
            pin_to_fastest_cpus(cpus_for(spec));
            Scenario scenario(spec, opt.seed, n);
            run_campaign(scenario, sharded);
            note_run(o, sharded);
        }

        RunResult r;
        pin_to_fastest_cpus(1);
        auto scenario = std::make_unique<Scenario>(spec, opt.seed, n);
        scenario->use_single_heap();
        LayerSink sink(Scenario::kFirstDeviceId, n);
        sim::Tracer tracer;
        tracer.add_sink(sink);
        scenario->set_tracer(&tracer);
        const std::uint64_t flash_before = scenario->flash_bytes_written();
        sink.start();
        run_campaign(*scenario, r);
        sink.stop();
        scenario->set_tracer(nullptr);  // the tracer dies with this iteration
        note_run(o, r);
        o.run_reps.push_back(r.run_s);
        std::vector<Metric> layers =
            layer_metrics(r, sink, scenario->timings(), base.run_s,
                          scenario->flash_bytes_written() - flash_before);
        for (const Metric& m : layers) samples[m.name].push_back(m.value);
        o.step_share_pct = step_shares(r, sink);
        shape = std::move(layers);
        last = std::move(scenario);
        if (since(start) > 4.0 * opt.seconds + 60.0) break;  // runaway guard
    }
    for (Metric& m : shape) {
        m.value = median(samples[m.name]);
        o.metrics.push_back(m);
    }
    for (Metric& m : unit_costs(*last, opt.seed)) o.metrics.push_back(m);
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    const WorkloadSpec* spec = find_workload(opt.workload);
    if (spec == nullptr) usage("unknown workload");
    const std::size_t n = opt.smoke ? spec->smoke_devices : spec->devices;

    crypto::set_verify_memo_enabled(true);
    const double probe_before = probe_ns_per_round();
    Outcome o;
    try {
        o = opt.trace ? traced(*spec, opt, n) : end_to_end(*spec, opt, n);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetbench: %s\n", e.what());
        return 1;
    }
    const double probe_after = probe_ns_per_round();
    const bool correct = o.failed == 0 && o.consistent;

    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx", static_cast<unsigned long long>(o.fingerprint));
    std::printf(
        "{\"fleetbench\":%s,\"seed\":%llu,\"devices\":%zu,\"trace\":%d,\"runs\":%zu,"
        "\"host\":{\"cpu\":%s,\"threads\":%u,\"sha256\":%s,\"compiler\":%s,"
        "\"build_type\":%s,\"git_sha\":%s},"
        "\"probe_ns_before\":%s,\"probe_ns_after\":%s,\"fingerprint\":\"%s\","
        "\"setup_s_runs\":%s,\"run_s_runs\":%s,\"step_share_pct\":%s,\"metrics\":%s}\n",
        quoted(spec->name).c_str(), static_cast<unsigned long long>(opt.seed), n,
        opt.trace ? 1 : 0, o.run_reps.size(), quoted(cpu_model()).c_str(),
        std::thread::hardware_concurrency(),
        quoted(crypto::sha256x4_impl_name(crypto::sha256x4_impl())).c_str(),
        quoted(FLEETBENCH_COMPILER).c_str(), quoted(FLEETBENCH_BUILD_TYPE).c_str(),
        quoted(opt.git_sha).c_str(), num(probe_before).c_str(), num(probe_after).c_str(), fp,
        list(o.setup_reps).c_str(), list(o.run_reps).c_str(),
        metrics_object(o.step_share_pct, false).c_str(), metrics_object(o.metrics, false).c_str());
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
                correct ? "true" : "false", o.attempted, o.failed,
                metrics_object(o.metrics, true).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// Fleet campaign engine: one coordinator over one EventScheduler, with two
// sources for a device's next session step.
//
// The coordinator owns the scheduler, the admission queues, the rollout
// state machine (waves, breaker, promotion), the server, and the campaign
// tracer. Each of its handlers consumes one event and makes its schedule
// calls at fixed program points, so the heap pops a (time, seq) sequence
// that is a pure function of the campaign's inputs. What varies with
// set_shards() is only where the step a consume event needs comes from:
//
//  - shards == 0 (inline source): the coordinator calls
//    SessionDriver::step() itself at the consume point, one step per event,
//    and the device traces straight into the campaign tracer. No worker,
//    pool, or handoff buffer exists.
//  - shards >= 1 (run-ahead source): a device's *segment* — the run of
//    steps between two global interaction points (attempt start / server
//    response → next server request / session end) — is a pure function of
//    device-local state plus its start instant, because each kDelay step's
//    continuation fires exactly at the device clock's own next instant. So
//    the worker that owns the device (shard = fleet index % shards) computes
//    the whole segment ahead, recording per step its Want, its event time,
//    and the trace events the step emitted (into a per-shard buffering
//    sink). The coordinator pops one record per consume event — blocking
//    only when a shard hasn't caught up — and emits the buffered traces into
//    the campaign tracer at that point in the global order.
//
// Both sources share the one-step body (step_once), so both yield the same
// records, and every shard count replays the inline campaign byte for byte.
//
// Thread-safety contract (run-ahead source): a device's DeviceSession is
// touched by exactly one thread at a time — its shard worker while a
// segment runs, the coordinator while the driver is parked (at kServer, for
// token reads and the server response; at kFinished, for the report and
// terminal accounting). Handoffs synchronize on the segment buffer's mutex
// (coordinator blocks popping the record the worker pushed) and the shard
// queue's mutex (worker runs the task the coordinator submitted), so every
// crossing has a happens-before edge. DeviceCtx (results, jitter RNG,
// cohort state) and the queues are never touched by workers.
#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/chaos.hpp"
#include "sim/energy.hpp"
#include "sim/shard.hpp"

namespace upkit::core {

namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
    // FNV-1a over the value's bytes, 8 at a time.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFu;
        h *= 0x100000001B3ull;
    }
}

void mix(std::uint64_t& h, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
}

void mix_queue(std::uint64_t& h, const ServerQueueStats& q) {
    mix(h, q.requests);
    mix(h, static_cast<std::uint64_t>(q.peak_depth));
    mix(h, static_cast<std::uint64_t>(q.peak_in_service));
    mix(h, q.total_wait_s);
    mix(h, q.max_wait_s);
    mix(h, q.busy_s);
    mix(h, q.outage_rejections);
}

/// Per-cohort rollout state (gated campaigns). Attempt counters form the
/// breaker's failure window and are reset when a paused breaker resumes.
struct CohortState {
    bool released_flag = false;
    unsigned released = 0;
    unsigned terminal = 0;
    unsigned succeeded = 0;
    unsigned failed = 0;
    unsigned rolled_back = 0;
    unsigned attempts_done = 0;
    unsigned attempts_failed = 0;
    double release_s = 0.0;
    double complete_s = 0.0;
};

/// Contiguous cohort partition of fleet indices: canary first (when
/// configured), then wave_size chunks in add() order.
struct CohortPartition {
    std::size_t total = 0;
    std::size_t wave_size = 1;
    std::size_t canary = 0;

    CohortPartition(std::size_t total_devices, unsigned policy_wave_size,
                    unsigned policy_canary_size)
        : total(total_devices),
          wave_size(policy_wave_size == 0 ? std::max<std::size_t>(total_devices, 1)
                                          : policy_wave_size),
          canary(std::min<std::size_t>(policy_canary_size, total_devices)) {}

    unsigned cohort_of(std::size_t i) const {
        if (canary == 0) return static_cast<unsigned>(i / wave_size);
        if (i < canary) return 0;
        return static_cast<unsigned>(1 + (i - canary) / wave_size);
    }

    std::pair<std::size_t, std::size_t> range(unsigned k) const {
        if (canary == 0) {
            const std::size_t lo = static_cast<std::size_t>(k) * wave_size;
            return {lo, std::min(total, lo + wave_size)};
        }
        if (k == 0) return {0, canary};
        const std::size_t lo = canary + static_cast<std::size_t>(k - 1) * wave_size;
        return {lo, std::min(total, lo + wave_size)};
    }

    unsigned count() const { return total == 0 ? 0 : cohort_of(total - 1) + 1; }
};

server::ServerStats stats_delta(const server::ServerStats& now,
                                const server::ServerStats& then) {
    server::ServerStats d;
    d.requests = now.requests - then.requests;
    d.sign_ops = now.sign_ops - then.sign_ops;
    d.delta_generations = now.delta_generations - then.delta_generations;
    d.response_hits = now.response_hits - then.response_hits;
    d.response_misses = now.response_misses - then.response_misses;
    d.response_evictions = now.response_evictions - then.response_evictions;
    d.chunked_responses = now.chunked_responses - then.chunked_responses;
    d.chunk_hits = now.chunk_hits - then.chunk_hits;
    d.chunk_misses = now.chunk_misses - then.chunk_misses;
    d.chunks_served = now.chunks_served - then.chunks_served;
    d.chunk_bytes_served = now.chunk_bytes_served - then.chunk_bytes_served;
    d.chunk_bytes_deduped = now.chunk_bytes_deduped - then.chunk_bytes_deduped;
    d.key_rotations = now.key_rotations - then.key_rotations;
    return d;
}

/// One session step: how the driver wants to continue, the campaign
/// instant the continuation fires at, and (run-ahead source only) the
/// traces the step emitted.
struct StepRec {
    SessionDriver::Want want = SessionDriver::Want::kDelay;
    double t = 0.0;
    std::vector<sim::TraceEvent> traces;
};

/// Worker → coordinator handoff for one device. push() under the mutex
/// publishes the record (and everything the segment wrote before it);
/// pop() blocks until the owning shard has produced the next record.
struct SegmentBuffer {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<StepRec> recs;  // lint: guarded-by(mu)

    void push(StepRec&& rec) {
        {
            std::lock_guard<std::mutex> lock(mu);
            recs.push_back(std::move(rec));
        }
        cv.notify_one();
    }

    StepRec pop() {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !recs.empty(); });
        StepRec rec = std::move(recs.front());
        recs.pop_front();
        return rec;
    }
};

/// Redirects a shard Tracer's fan-out into the StepRec being computed.
/// One per shard: tasks on a shard run sequentially, so the current-target
/// pointer is only ever touched by that shard's worker thread.
class BufferSink final : public sim::TraceSink {
public:
    void on_event(const sim::TraceEvent& event) override {
        if (out_ != nullptr) out_->push_back(event);
    }
    void set_target(std::vector<sim::TraceEvent>* out) { out_ = out; }

private:
    std::vector<sim::TraceEvent>* out_ = nullptr;
};

struct ShardCtx {
    sim::Tracer tracer;
    BufferSink sink;
    ShardCtx() { tracer.add_sink(sink); }
};

/// What the step source drives for one device (see the contract above).
struct DeviceSession {
    FleetMember* member = nullptr;
    sim::DeviceClockView view;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<SessionDriver> driver;
    /// Regional edge serving the current attempt (-1 = origin). Chosen when
    /// the attempt starts, so the transport's fault domain and the driver's
    /// outage probe follow it; written by the coordinator only while the
    /// driver is parked.
    int serving_region = -1;
};

/// Coordinator-private per-device bookkeeping.
struct DeviceCtx {
    CampaignDeviceResult result;
    Rng jitter_rng{0};
    unsigned attempt = 0;  // attempts launched so far (1-based once running)
    double e0 = 0.0;
    SessionReport last;
    bool done = false;
    double enqueue_t = 0.0;
    unsigned cohort = 0;
    bool released = false;
    /// The current attempt retargeted the origin at connect time because the
    /// home region was inside an outage window (trace deferred so scatter-
    /// gather release can emit it in fleet order, next to kSessionStart).
    bool start_fallback = false;
};

/// The one-step body both sources share: idle the device forward to the
/// campaign instant `t`, step, map the device clock back to the campaign
/// timeline, and clamp the continuation forward the way
/// EventScheduler::schedule_at would.
StepRec step_once(DeviceSession& s, double t) {
    s.view.sync_to(t);
    const SessionDriver::StepResult r = s.driver->step();
    double tn = s.view.campaign_now();
    if (tn < t) tn = t;  // schedule_at's forward clamp, bit-for-bit
    return StepRec{.want = r.want, .t = tn, .traces = {}};
}

/// Run-ahead source: computes one segment on the worker thread, starting at
/// campaign instant `t` (the time of the coordinator event that kicked it
/// off), and hands each step to the coordinator with the traces it emitted.
void run_segment(DeviceSession& s, SegmentBuffer& buffer, ShardCtx& sc, double t) {
    for (;;) {
        std::vector<sim::TraceEvent> traces;
        sc.sink.set_target(&traces);
        StepRec rec = step_once(s, t);
        sc.sink.set_target(nullptr);
        rec.traces = std::move(traces);
        const bool more = rec.want == SessionDriver::Want::kDelay;
        t = rec.t;
        buffer.push(std::move(rec));
        if (!more) return;
    }
}

}  // namespace

std::uint64_t CampaignReport::fingerprint() const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    mix(h, static_cast<std::uint64_t>(devices.size()));
    for (const CampaignDeviceResult& d : devices) {
        mix(h, static_cast<std::uint64_t>(d.device_id));
        mix(h, static_cast<std::uint64_t>(d.status));
        mix(h, static_cast<std::uint64_t>(d.attempts));
        mix(h, static_cast<std::uint64_t>(d.final_version));
        mix(h, static_cast<std::uint64_t>(d.differential) | (std::uint64_t(d.chunked) << 1) |
                   (std::uint64_t(d.confirmed) << 2) | (std::uint64_t(d.rolled_back) << 3) |
                   (std::uint64_t(d.halted) << 4));
        mix(h, static_cast<std::uint64_t>(d.chunk_retries));
        mix(h, d.start_s);
        mix(h, d.end_s);
        mix(h, d.time_s);
        mix(h, d.backoff_s);
        mix(h, d.queue_wait_s);
        mix(h, d.energy_mj);
        mix(h, d.verification_s);
        mix(h, d.verification_mah);
        mix(h, d.bytes_over_air);
        mix(h, static_cast<std::uint64_t>(d.wave));
        mix(h, static_cast<std::uint64_t>(d.transport_resumes));
        mix(h, static_cast<std::uint64_t>(d.token_refreshes));
    }
    mix(h, static_cast<std::uint64_t>(succeeded));
    mix(h, static_cast<std::uint64_t>(failed));
    mix(h, total_energy_mj);
    mix(h, total_bytes);
    mix(h, makespan_s);
    mix(h, verification_s);
    mix(h, verification_mah);
    mix(h, static_cast<std::uint64_t>(differential_updates));
    mix(h, static_cast<std::uint64_t>(chunked_updates));
    mix(h, static_cast<std::uint64_t>(chunk_retries));
    mix(h, static_cast<std::uint64_t>(waves.size()));
    for (const WaveStats& w : waves) {
        mix(h, static_cast<std::uint64_t>(w.wave));
        mix(h, static_cast<std::uint64_t>(w.released));
        mix(h, static_cast<std::uint64_t>(w.succeeded));
        mix(h, static_cast<std::uint64_t>(w.failed));
        mix(h, static_cast<std::uint64_t>(w.rolled_back));
        mix(h, w.release_s);
        mix(h, w.complete_s);
    }
    mix(h, static_cast<std::uint64_t>(breaker_trips.size()));
    for (const BreakerTrip& b : breaker_trips) {
        mix(h, b.t);
        mix(h, static_cast<std::uint64_t>(b.wave));
        mix(h, static_cast<std::uint64_t>(b.failures));
        mix(h, static_cast<std::uint64_t>(b.completed));
        mix(h, static_cast<std::uint64_t>(b.released));
        mix(h, b.failure_rate);
        mix(h, static_cast<std::uint64_t>(b.aborted));
    }
    mix(h, static_cast<std::uint64_t>(exposed_devices));
    mix(h, static_cast<std::uint64_t>(halted_devices));
    mix(h, static_cast<std::uint64_t>(rolled_back_devices));
    mix(h, static_cast<std::uint64_t>(confirmed_devices));
    mix_queue(h, server);
    mix(h, server_stats.requests);
    mix(h, server_stats.sign_ops);
    mix(h, server_stats.delta_generations);
    mix(h, server_stats.response_hits);
    mix(h, server_stats.response_misses);
    mix(h, server_stats.response_evictions);
    mix(h, server_stats.chunked_responses);
    mix(h, server_stats.chunk_hits);
    mix(h, server_stats.chunk_misses);
    mix(h, server_stats.chunks_served);
    mix(h, server_stats.chunk_bytes_served);
    mix(h, server_stats.chunk_bytes_deduped);
    mix(h, server_stats.key_rotations);
    mix(h, events_processed);
    mix(h, static_cast<std::uint64_t>(edges.size()));
    for (const EdgeReport& e : edges) {
        mix(h, static_cast<std::uint64_t>(e.region));
        mix_queue(h, e.queue);
        mix(h, e.cache.requests);
        mix(h, e.cache.cache_hits);
        mix(h, e.cache.cache_misses);
        mix(h, e.cache.origin_fetch_bytes);
        mix(h, e.cache.bytes_served);
        mix(h, e.fallbacks);
    }
    return h;
}

Status FleetCampaign::add_synthetic(const SyntheticFleetSpec& spec) {
    owned_.reserve(owned_.size() + spec.count);
    members_.reserve(members_.size() + spec.count);
    for (std::size_t k = 0; k < spec.count; ++k) {
        DeviceConfig cfg = spec.base;
        cfg.device_id = spec.first_device_id + static_cast<std::uint32_t>(k);
        cfg.app_id = spec.app_id;
        cfg.seed = spec.base.seed + k;
        auto device = std::make_unique<Device>(cfg);
        manifest::DeviceToken token;
        token.device_id = cfg.device_id;
        token.nonce = 0;
        token.current_version = 0;
        auto image =
            server_->prepare_update(spec.app_id, token, spec.provision_version);
        if (!image) return image.status();
        UPKIT_RETURN_IF_ERROR(device->provision_factory(*image));
        members_.push_back(FleetMember{device.get(), spec.link});
        owned_.push_back(std::move(device));
    }
    return Status::kOk;
}

CampaignReport FleetCampaign::run(std::uint32_t app_id, const FleetPolicy& policy) {
    CampaignReport report;
    sim::EventScheduler sched;
    const server::ServerStats stats_before = server_->stats();
    const crypto::VerifyMemoStats memo_before = crypto::verify_memo_stats();
    const server::ServerModel& model = server_->model();
    const unsigned service_cap = model.concurrency == 0
                                     ? std::numeric_limits<unsigned>::max()
                                     : model.concurrency;

    // Sized once: handlers and worker tasks keep references into these.
    std::vector<DeviceCtx> devs(members_.size());
    std::vector<DeviceSession> sessions(members_.size());

    // The run-ahead source's state exists only when shards are configured;
    // the pool is declared last so its workers join before anything their
    // tasks reference goes away.
    const std::size_t shards = shards_;
    std::vector<SegmentBuffer> buffers(shards > 0 ? members_.size() : 0);
    std::vector<std::unique_ptr<ShardCtx>> shard_ctx;
    for (std::size_t s = 0; s < shards; ++s) {
        shard_ctx.push_back(std::make_unique<ShardCtx>());
    }
    auto pool = shards > 0 ? std::make_unique<sim::ShardPool>(shards) : nullptr;

    // Serving targets: regional edges 0..edges-1 (when configured) plus the
    // origin as the last entry. Without edges the origin is target 0 and
    // every code path below reduces to the legacy single-queue engine.
    const EdgeTopology& topo = edges_;
    const std::size_t edge_count = topo.edges;
    const std::size_t origin_target = edge_count;
    struct Target {
        std::deque<std::size_t> queue;  // FIFO admission queue of fleet indices
        unsigned in_service = 0;
        unsigned cap = 0;
        ServerQueueStats stats;     // per-target detail (edge topologies)
        server::EdgeCache cache;    // edges only
        std::uint64_t fallbacks = 0;
    };
    std::vector<Target> targets(edge_count + 1);
    for (std::size_t r = 0; r < edge_count; ++r) {
        targets[r].cap = topo.model.concurrency == 0
                             ? std::numeric_limits<unsigned>::max()
                             : topo.model.concurrency;
    }
    targets[origin_target].cap = service_cap;

    // Fault injection, when the server model carries a chaos plan.
    const sim::ChaosPlan* chaos = model.chaos;

    // Cohort partition: canary first (when configured), then wave_size
    // chunks in add() order. Cohorts are contiguous index ranges.
    const CohortPartition part(members_.size(), policy.wave_size, policy.canary_size);
    const std::size_t wave_size = part.wave_size;
    const unsigned cohort_count = part.count();

    // Gated-rollout state. `aborted` stops retries and promotions for good;
    // `paused` defers them until the breaker's cool-down elapses.
    const bool gated = policy.gated() && !members_.empty();
    std::vector<CohortState> cohorts(cohort_count);
    unsigned next_release = 0;  // next cohort index to release
    unsigned trips = 0;
    bool aborted = false;
    bool paused = false;
    std::vector<std::pair<std::size_t, double>> paused_retries;

    const auto trace = [&](sim::TraceType type, std::uint32_t device_id,
                           std::uint32_t code, double value) {
        if (tracer_ != nullptr) {
            tracer_->emit(sim::TraceEvent{.t = sched.now(),
                                          .device_id = device_id,
                                          .type = type,
                                          .from = {},
                                          .to = {},
                                          .code = code,
                                          .value = value});
        }
    };

    // Where device i's own traces go: straight to the campaign tracer when
    // it steps inline, else into its shard's buffering tracer.
    const auto device_tracer = [&](std::size_t i) -> sim::Tracer* {
        if (tracer_ == nullptr || pool == nullptr) return tracer_;
        return &shard_ctx[i % shards]->tracer;
    };

    // Device-side work at a global interaction point (attempt start, server
    // response). Inline, it runs right here and the coordinator steps on at
    // the next consume; run-ahead, it runs on the device's shard, which
    // then computes the segment that follows from campaign instant T.
    const auto on_device = [&](std::size_t i, double T, auto work) {
        if (pool == nullptr) {
            work();
            return;
        }
        const std::size_t shard = i % shards;
        pool->submit(shard, [&, i, T, shard, work = std::move(work)]() mutable {
            work();
            run_segment(sessions[i], buffers[i], *shard_ctx[shard], T);
        });
    };

    // Builds device i's transport + driver for its next attempt at instant
    // T. Fresh loss seed per attempt: a retry sees new channel conditions,
    // not a replay of the exact packet losses that sank the previous one.
    const auto begin_session = [&](std::size_t i, double T) {
        DeviceSession& s = sessions[i];
        sim::Tracer* st = device_tracer(i);
        const std::uint32_t id = devs[i].result.device_id;
        const unsigned attempt = devs[i].attempt;
        on_device(i, T, [&s, &policy, st, id, attempt, T, chaos] {
            s.view.sync_to(T);
            Device& device = *s.member->device;
            s.transport = std::make_unique<net::Transport>(
                s.member->link, device.clock(), &device.meter(),
                id * 1000003ull + (attempt - 1));
            s.transport->set_max_retries(policy.transport_max_retries);
            s.driver = std::make_unique<SessionDriver>(device, *s.transport, st,
                                                       s.view.offset());
            s.driver->set_transport_resumes(policy.transport_resumes);
            if (chaos != nullptr) {
                s.transport->set_chaos({.plan = chaos,
                                        .device_id = id,
                                        .campaign_offset = s.view.offset(),
                                        .payload_via_server = true,
                                        .region = s.serving_region});
                s.driver->set_outage_probe([&s, chaos] {
                    const double t = s.view.campaign_now();
                    return s.serving_region >= 0
                               ? chaos->region_down(
                                     static_cast<unsigned>(s.serving_region), t)
                               : chaos->server_down(t);
                });
                s.driver->set_reconnect_backoff(policy.reconnect_backoff_s);
                s.driver->set_chunk_chaos(chaos);
            }
        });
    };

    // Hands the parked driver its server response at instant T, with the
    // transport's fault domain rebound to the serving target. `response` may
    // hold a failure status (outage rejection) — same provide_response call
    // either way.
    const auto resume_session =
        [&](std::size_t i, std::shared_ptr<Expected<server::UpdateResponse>> response,
            double T) {
            DeviceSession& s = sessions[i];
            const std::uint32_t id = devs[i].result.device_id;
            on_device(i, T, [&s, id, response = std::move(response), chaos]() mutable {
                if (chaos != nullptr) {
                    s.transport->set_chaos({.plan = chaos,
                                            .device_id = id,
                                            .campaign_offset = s.view.offset(),
                                            .payload_via_server = true,
                                            .region = s.serving_region});
                }
                s.driver->provide_response(std::move(*response));
            });
        };

    // Serving-target selection at attempt start: home region by fleet index,
    // retargeted to the origin when the region is already dark (fallback
    // on, origin up) — otherwise the uplink would time the outage out
    // without ever reaching the admission queue. Decided before
    // begin_session so the transport's fault domain binds to the final
    // target; the kEdgeFallback trace is deferred to trace_start so
    // scatter-gather release keeps fleet-order emission.
    const auto pick_start_region = [&](std::size_t i, double T) {
        DeviceSession& s = sessions[i];
        DeviceCtx& c = devs[i];
        s.serving_region = edge_count > 0 ? static_cast<int>(i % edge_count) : -1;
        c.start_fallback = false;
        if (chaos != nullptr && s.serving_region >= 0 && topo.origin_fallback &&
            chaos->region_down(static_cast<unsigned>(s.serving_region), T) &&
            !chaos->server_down(T)) {
            ++targets[static_cast<std::size_t>(s.serving_region)].fallbacks;
            c.start_fallback = true;
            s.serving_region = -1;
        }
    };
    const auto trace_start = [&](std::size_t i) {
        DeviceCtx& c = devs[i];
        if (c.start_fallback) {
            trace(sim::TraceType::kEdgeFallback, c.result.device_id,
                  static_cast<std::uint32_t>(i % edge_count), 0.0);
        }
        trace(sim::TraceType::kSessionStart, c.result.device_id, c.attempt, 0.0);
    };

    // The event handlers form a cycle (consume → enqueue → admit → consume),
    // so they live in std::functions declared up front. Handlers never
    // recurse through the scheduler — continuations are scheduled, not
    // called — so stack depth stays flat no matter how long a session runs.
    std::function<void(std::size_t)> consume;
    std::function<void(std::size_t)> enqueue;
    std::function<void(std::size_t)> admit;
    std::function<void(std::size_t)> start_attempt;
    std::function<void(std::size_t)> session_done;
    std::function<void(unsigned)> release_cohort;
    std::function<void()> maybe_promote;
    std::function<void(unsigned, double, bool)> trip_breaker;

    // One event in, one schedule call out: the device's next step lands at
    // the instant its cost advanced the device clock to.
    consume = [&](std::size_t i) {
        StepRec rec = pool == nullptr ? step_once(sessions[i], sched.now())
                                      : buffers[i].pop();
        if (tracer_ != nullptr) {
            // A run-ahead step's own traces, at this point in the global
            // order — exactly where an inline step emits them.
            for (const sim::TraceEvent& e : rec.traces) tracer_->emit(e);
        }
        switch (rec.want) {
            case SessionDriver::Want::kDelay:
                sched.schedule_at(rec.t, [&consume, i] { consume(i); });
                break;
            case SessionDriver::Want::kServer:
                sched.schedule_at(rec.t, [&enqueue, i] { enqueue(i); });
                break;
            case SessionDriver::Want::kFinished:
                sched.schedule_at(rec.t, [&session_done, i] { session_done(i); });
                break;
        }
    };

    enqueue = [&](std::size_t i) {
        DeviceCtx& d = devs[i];
        // The serving target was pinned at attempt start (home region, or
        // the origin after a connect-time fallback); here we only handle
        // faults that began mid-attempt.
        std::size_t target = sessions[i].serving_region >= 0
                                 ? static_cast<std::size_t>(sessions[i].serving_region)
                                 : origin_target;
        if (chaos != nullptr) {
            bool down = target == origin_target
                            ? chaos->server_down(sched.now())
                            : chaos->region_down(static_cast<unsigned>(target),
                                                 sched.now());
            if (down && target != origin_target && topo.origin_fallback &&
                !chaos->server_down(sched.now())) {
                // Regional outage, origin healthy: retarget.
                ++targets[target].fallbacks;
                trace(sim::TraceType::kEdgeFallback, d.result.device_id,
                      static_cast<std::uint32_t>(target), 0.0);
                target = origin_target;
                sessions[i].serving_region = -1;
                down = false;
            }
            if (down) {
                // The deployment is down: the request never reaches the
                // admission queue — the device's connect timeout expires and
                // the attempt sees kUnavailable (the driver's reconnect path
                // then waits the outage out).
                ++report.server.outage_rejections;
                if (edge_count > 0) ++targets[target].stats.outage_rejections;
                trace(sim::TraceType::kServerOutage, d.result.device_id, 0,
                      policy.outage_timeout_s);
                sched.schedule_in(policy.outage_timeout_s, [&, i] {
                    resume_session(i,
                                   std::make_shared<Expected<server::UpdateResponse>>(
                                       Status::kUnavailable),
                                   sched.now());
                    consume(i);
                });
                return;
            }
        }
        d.enqueue_t = sched.now();
        Target& tg = targets[target];
        tg.queue.push_back(i);
        report.server.peak_depth = std::max(
            report.server.peak_depth, static_cast<unsigned>(tg.queue.size()));
        if (edge_count > 0) {
            tg.stats.peak_depth = std::max(tg.stats.peak_depth,
                                           static_cast<unsigned>(tg.queue.size()));
        }
        trace(sim::TraceType::kQueueEnter, d.result.device_id,
              static_cast<std::uint32_t>(tg.queue.size()), 0.0);
        admit(target);
    };

    admit = [&](std::size_t target) {
        Target& tg = targets[target];
        const bool is_origin = target == origin_target;
        const server::ServerModel& tmodel = is_origin ? model : topo.model;
        while (tg.in_service < tg.cap && !tg.queue.empty()) {
            const std::size_t i = tg.queue.front();
            tg.queue.pop_front();
            DeviceCtx& c = devs[i];
            const double wait = sched.now() - c.enqueue_t;
            c.result.queue_wait_s += wait;
            ++report.server.requests;
            report.server.total_wait_s += wait;
            report.server.max_wait_s = std::max(report.server.max_wait_s, wait);
            if (edge_count > 0) {
                ++tg.stats.requests;
                tg.stats.total_wait_s += wait;
                tg.stats.max_wait_s = std::max(tg.stats.max_wait_s, wait);
            }
            trace(sim::TraceType::kQueueExit, c.result.device_id,
                  static_cast<std::uint32_t>(tg.queue.size()), wait);

            // The request occupies a service slot while the server builds
            // the device-bound image (prepare_update is the work product;
            // the model says what the deployment charges for it — in
            // measured mode, from the request's ServiceReceipt: signatures
            // issued, cache hit or miss, payload dispatched). With edges the
            // origin still prepares and signs every response — the edge is a
            // payload cache, never a signing authority. The driver is parked
            // at kServer, so its token is stable to read here.
            auto response = std::make_shared<Expected<server::UpdateResponse>>(
                server_->prepare_update(app_id, sessions[i].driver->token()));
            if (*response) {
                const server::ServiceReceipt& r = (*response)->receipt;
                std::uint32_t bits = 0;
                if (r.chunked) bits |= sim::kCacheBitChunked;
                if (r.response_cache_hit) bits |= sim::kCacheBitResponseHit;
                if (r.delta_attempted) bits |= sim::kCacheBitDeltaAttempt;
                trace(sim::TraceType::kServerCache, c.result.device_id, bits,
                      static_cast<double>(r.sign_ops));
            }
            double service = *response ? tmodel.service_seconds((*response)->receipt)
                                       : tmodel.service_seconds(std::size_t{0});
            if (!is_origin && *response) {
                // Edge payload cache: a miss pulls the bytes from the
                // origin over the backhaul before serving.
                const bool hit = tg.cache.serve(**response);
                trace(sim::TraceType::kEdgeCache, c.result.device_id,
                      static_cast<std::uint32_t>(target), hit ? 1.0 : 0.0);
                if (!hit) {
                    service += topo.backhaul_rtt_s +
                               topo.backhaul_per_kb_s *
                                   static_cast<double>((*response)->payload.size() +
                                                       (*response)->manifest_bytes.size()) /
                                   1024.0;
                }
            }
            ++tg.in_service;
            report.server.peak_in_service =
                std::max(report.server.peak_in_service, tg.in_service);
            report.server.busy_s += service;
            if (edge_count > 0) {
                tg.stats.peak_in_service =
                    std::max(tg.stats.peak_in_service, tg.in_service);
                tg.stats.busy_s += service;
            }
            sched.schedule_in(service, [&, i, target, response, service] {
                --targets[target].in_service;
                trace(sim::TraceType::kServiceDone, devs[i].result.device_id, 0,
                      service);
                resume_session(i, response, sched.now());
                admit(target);  // the freed slot may admit the next request
                consume(i);
            });
        }
    };

    start_attempt = [&](std::size_t i) {
        DeviceCtx& c = devs[i];
        ++c.attempt;
        c.result.attempts = c.attempt;
        pick_start_region(i, sched.now());
        begin_session(i, sched.now());
        trace_start(i);
        consume(i);
    };

    trip_breaker = [&](unsigned k, double failure_rate, bool force_abort) {
        ++trips;
        const bool abort_now =
            force_abort || policy.breaker_abort || trips > policy.breaker_max_trips;
        report.breaker_trips.push_back(BreakerTrip{.t = sched.now(),
                                                   .wave = k,
                                                   .failures = cohorts[k].attempts_failed,
                                                   .completed = cohorts[k].attempts_done,
                                                   .released = cohorts[k].released,
                                                   .failure_rate = failure_rate,
                                                   .aborted = abort_now});
        trace(sim::TraceType::kBreakerTrip, 0, k, failure_rate);
        if (abort_now) {
            aborted = true;
            return;
        }
        paused = true;
        sched.schedule_in(policy.breaker_pause_s, [&] {
            if (aborted) return;
            paused = false;
            // Windowed breaker: restart the failure window, or the pre-pause
            // failures would instantly re-trip it on resume.
            for (CohortState& w : cohorts) {
                w.attempts_done = 0;
                w.attempts_failed = 0;
            }
            auto deferred = std::move(paused_retries);
            paused_retries.clear();
            for (const auto& [idx, delay] : deferred) {
                sched.schedule_in(delay, [&start_attempt, idx] { start_attempt(idx); });
            }
            maybe_promote();
        });
    };

    session_done = [&](std::size_t i) {
        DeviceCtx& c = devs[i];
        DeviceSession& s = sessions[i];
        // Driver parked at kFinished: the report and the device's terminal
        // state are stable to read.
        c.last = s.driver->report();
        c.result.bytes_over_air += c.last.bytes_over_air;  // all attempts count
        c.result.verification_s += c.last.phases.verification_s;
        c.result.transport_resumes += c.last.transport_resumes;
        c.result.token_refreshes += c.last.token_refreshes;
        c.result.chunk_retries += c.last.chunk_retries;
        if (c.last.confirmed) c.result.confirmed = true;
        if (c.last.rolled_back) c.result.rolled_back = true;
        s.driver.reset();
        s.transport.reset();

        // Attempt-level breaker window: count the outcome, then let the
        // breaker react before this device decides whether to retry.
        CohortState* w = gated ? &cohorts[c.cohort] : nullptr;
        if (w != nullptr) {
            ++w->attempts_done;
            if (c.last.status != Status::kOk) ++w->attempts_failed;
            if (!aborted && !paused && policy.breaker_failure_rate > 0.0 &&
                w->attempts_failed >= policy.breaker_min_failures) {
                const double rate = static_cast<double>(w->attempts_failed) /
                                    static_cast<double>(w->attempts_done);
                if (rate > policy.breaker_failure_rate) {
                    trip_breaker(c.cohort, rate, /*force_abort=*/false);
                }
            }
        }

        const bool give_up = c.last.status == Status::kOk ||
                             // A stale offer will not get fresher by retrying.
                             c.last.status == Status::kStaleVersion ||
                             // The image booted but failed its self-test; a
                             // re-download installs the same bad image.
                             c.last.status == Status::kSelfTestFailed ||
                             aborted ||
                             c.attempt >= policy.max_attempts;
        if (!give_up) {
            double delay = 0.0;
            if (policy.initial_backoff_s > 0) {
                delay = policy.initial_backoff_s *
                        std::pow(policy.backoff_factor,
                                 static_cast<double>(c.attempt - 1));
                delay = std::min(delay, policy.max_backoff_s);
                // u uniform in [-1, 1): delay stays positive for jitter < 1.
                const double u =
                    static_cast<double>(c.jitter_rng.next_u32()) / 2147483648.0 - 1.0;
                delay *= 1.0 + policy.jitter * u;
                c.result.backoff_s += delay;
            }
            trace(sim::TraceType::kRetryScheduled, c.result.device_id, c.attempt + 1,
                  delay);
            if (paused) {
                // Deferred until the breaker resumes (jitter already drawn,
                // so the rng stream is identical either way).
                paused_retries.emplace_back(i, delay);
            } else {
                sched.schedule_in(delay, [&start_attempt, i] { start_attempt(i); });
            }
            return;
        }

        Device& device = *s.member->device;
        c.done = true;
        c.result.status = c.last.status;
        c.result.final_version = device.identity().installed_version;
        c.result.differential = c.last.differential;
        c.result.chunked = c.last.chunked;
        c.result.end_s = sched.now();
        c.result.time_s = c.result.end_s - c.result.start_s;
        c.result.energy_mj = device.meter().total_millijoules() - c.e0;
        device.set_tracer(nullptr);

        if (w != nullptr) {
            ++w->terminal;
            if (c.result.status == Status::kOk) ++w->succeeded;
            else ++w->failed;
            if (c.result.rolled_back) ++w->rolled_back;
            w->complete_s = sched.now();
            maybe_promote();
        }
    };

    // Binds device i to the campaign timeline at the current instant.
    const auto setup_device = [&](std::size_t i, unsigned wave) {
        DeviceCtx& c = devs[i];
        DeviceSession& s = sessions[i];
        s.member = &members_[i];
        Device& device = *s.member->device;
        c.result.device_id = device.identity().device_id;
        c.result.wave = wave;
        c.cohort = wave;
        c.released = true;
        c.result.start_s = sched.now();
        // Deterministic jitter stream: a function of the device id only,
        // so a rerun of the same campaign replays the same delays.
        c.jitter_rng.reseed(0x9E3779B97F4A7C15ull ^ c.result.device_id);
        // Oscillator drift (chaos plans): exactly 1.0 when unconfigured,
        // which keeps the clock-view arithmetic bit-identical to pre-drift.
        const double rate =
            chaos != nullptr ? chaos->device_clock_rate(c.result.device_id) : 1.0;
        s.view = sim::DeviceClockView(device.clock(), sched.now(), rate);
        c.e0 = device.meter().total_millijoules();
        device.set_tracer(device_tracer(i), s.view.offset());
        if (chaos != nullptr) {
            const std::uint32_t id = c.result.device_id;
            device.set_health_hook([chaos, id](std::uint16_t version) {
                return chaos->self_test_passes(id, version);
            });
        }
    };

    release_cohort = [&](unsigned k) {
        if (aborted) return;
        if (paused) {
            // Promotion landed inside a breaker pause: wait it out.
            sched.schedule_in(policy.breaker_pause_s,
                              [&release_cohort, k] { release_cohort(k); });
            return;
        }
        CohortState& w = cohorts[k];
        w.released_flag = true;
        w.release_s = sched.now();
        trace(sim::TraceType::kWaveStart, 0, k, 0.0);
        const auto [lo, hi] = part.range(k);
        // Scatter first so every shard starts computing its devices' first
        // segments concurrently; then consume in fleet order — which is
        // where the trace emissions and schedule calls happen.
        for (std::size_t i = lo; i < hi; ++i) {
            setup_device(i, k);
            ++w.released;
            DeviceCtx& c = devs[i];
            ++c.attempt;
            c.result.attempts = c.attempt;
            pick_start_region(i, sched.now());
            begin_session(i, sched.now());
        }
        for (std::size_t i = lo; i < hi; ++i) {
            trace_start(i);
            consume(i);
        }
    };

    maybe_promote = [&] {
        if (!gated || aborted || paused) return;
        if (next_release == 0 || next_release >= cohort_count) return;
        const CohortState& prev = cohorts[next_release - 1];
        if (!prev.released_flag || prev.terminal < prev.released) return;
        const double rate =
            prev.released == 0
                ? 1.0
                : static_cast<double>(prev.succeeded) / static_cast<double>(prev.released);
        if (policy.promote_success_rate > 0.0 && rate < policy.promote_success_rate) {
            // Gate failure: the cohort's devices are already terminal — a
            // pause cannot heal them, so a failed gate always aborts.
            trip_breaker(next_release - 1, 1.0 - rate, /*force_abort=*/true);
            return;
        }
        const unsigned k = next_release;
        ++next_release;  // bumped at scheduling time: no double promotion
        trace(sim::TraceType::kWavePromote, 0, k, rate);
        sched.schedule_in(policy.wave_stagger_s,
                          [&release_cohort, k] { release_cohort(k); });
    };

    if (gated) {
        // Staged promotion: only the canary releases up front; every later
        // wave is earned by the cohort before it passing its gate.
        next_release = 1;
        sched.schedule_at(0.0, [&release_cohort] { release_cohort(0); });
    } else {
        // Legacy release: the whole schedule is fixed up front.
        for (std::size_t i = 0; i < members_.size(); ++i) {
            const std::size_t wave = i / wave_size;
            const double release_t = static_cast<double>(wave) * policy.wave_stagger_s;
            sched.schedule_at(release_t, [&, i, wave] {
                setup_device(i, static_cast<unsigned>(wave));
                if (i % wave_size == 0) {
                    trace(sim::TraceType::kWaveStart, 0,
                          static_cast<std::uint32_t>(wave), 0.0);
                }
                start_attempt(i);
            });
        }
    }

    sched.run(event_budget_);

    // Join the workers before aggregating (a worker stops only once its
    // queue is empty): an exhausted event budget can leave shards
    // mid-segment, and the join is the happens-before edge for every
    // terminal device read below.
    pool.reset();

    report.devices.reserve(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        DeviceCtx& c = devs[i];
        const FleetMember* member = sessions[i].member;
        if (gated && !c.released) {
            // The breaker halted the campaign before this device's wave:
            // contained, never offered the update — not an OTA failure.
            c.result.device_id = members_[i].device->identity().device_id;
            c.result.wave = part.cohort_of(i);
            c.result.status = Status::kCampaignHalted;
            c.result.halted = true;
            ++report.halted_devices;
            report.devices.push_back(std::move(c.result));
            continue;
        }
        if (!c.done) {
            // Event budget exhausted mid-session: surface the stuck device
            // rather than pretending it failed over the air.
            c.result.status = Status::kResourceExhausted;
            if (member != nullptr) member->device->set_tracer(nullptr);
        }
        if (c.result.status == Status::kOk) {
            ++report.succeeded;
            if (c.result.differential) ++report.differential_updates;
            if (c.result.chunked) ++report.chunked_updates;
        } else {
            ++report.failed;
        }
        report.chunk_retries += c.result.chunk_retries;
        if (member != nullptr) {
            // Battery cost of the verification seconds: CPU active draw plus
            // the HSM's supply current where one did the verifying.
            const Device& device = *member->device;
            const double draw_ma = device.config().platform->cpu_active_ma +
                                   device.verifier().backend().costs().active_current_ma;
            c.result.verification_mah =
                sim::milliamp_hours(c.result.verification_s, draw_ma);
        }
        ++report.exposed_devices;
        if (c.result.confirmed) ++report.confirmed_devices;
        if (c.result.rolled_back) ++report.rolled_back_devices;
        report.verification_mah += c.result.verification_mah;
        report.total_energy_mj += c.result.energy_mj;
        report.total_bytes += c.result.bytes_over_air;
        report.verification_s += c.result.verification_s;
        report.makespan_s = std::max(report.makespan_s, c.result.end_s);
        report.devices.push_back(std::move(c.result));
    }
    if (gated) {
        for (unsigned k = 0; k < cohort_count; ++k) {
            const CohortState& w = cohorts[k];
            if (!w.released_flag) continue;
            report.waves.push_back(WaveStats{.wave = k,
                                             .released = w.released,
                                             .succeeded = w.succeeded,
                                             .failed = w.failed,
                                             .rolled_back = w.rolled_back,
                                             .release_s = w.release_s,
                                             .complete_s = w.complete_s});
        }
    }
    if (edge_count > 0) {
        for (std::size_t r = 0; r < edge_count; ++r) {
            report.edges.push_back(EdgeReport{.region = static_cast<unsigned>(r),
                                              .queue = targets[r].stats,
                                              .cache = targets[r].cache.stats(),
                                              .fallbacks = targets[r].fallbacks});
        }
    }
    report.events_processed = sched.events_processed();
    report.server_stats = stats_delta(server_->stats(), stats_before);
    const crypto::VerifyMemoStats memo_after = crypto::verify_memo_stats();
    report.verify_memo = {memo_after.hits - memo_before.hits,
                          memo_after.misses - memo_before.misses};
    return report;
}

}  // namespace upkit::core

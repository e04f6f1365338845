#include "crypto/backend.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/bytes.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256x4.hpp"

namespace upkit::crypto {

namespace {

// --- verify memo ---------------------------------------------------------
//
// Keyed by the full 160-byte (pubkey || digest || signature) triple so a
// hit can never alias a different verification. The triple is folded to a
// 128-bit FNV pair for the table key; at the few-million entries a 1M-device
// campaign produces, a collision needs ~2^64 entries — not a concern. The
// map is guarded by a plain mutex: verify() calls come from shard workers,
// and the critical section is two hash probes (TSan runs the fleet suite).

struct MemoKey {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const MemoKey& o) const { return lo == o.lo && hi == o.hi; }
};

struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
        return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ull));
    }
};

struct VerifyMemo {
    std::mutex mu;
    std::unordered_map<MemoKey, bool, MemoKeyHash> results;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

VerifyMemo& verify_memo() {
    static VerifyMemo memo;
    return memo;
}

std::atomic<bool> g_verify_memo_enabled{false};

MemoKey memo_key(const PublicKey& key, const Sha256Digest& digest, ByteSpan signature) {
    std::array<std::uint8_t, kPublicKeySize + kSha256DigestSize + kSignatureSize> buf{};
    const auto pub = key.to_bytes();
    std::memcpy(buf.data(), pub.data(), pub.size());
    std::memcpy(buf.data() + pub.size(), digest.data(), digest.size());
    std::memcpy(buf.data() + pub.size() + digest.size(), signature.data(),
                signature.size());
    MemoKey k{0xCBF29CE484222325ull, 0x84222325CBF29CE4ull};
    for (const std::uint8_t b : buf) {
        k.lo = (k.lo ^ b) * 0x100000001B3ull;
        k.hi = (k.hi ^ b) * 0x100000001B3ull;
        k.hi ^= k.hi >> 29;
    }
    return k;
}

/// Consults the memo around the raw verify `fn`. Signature length is
/// checked first so malformed input never lands in the table.
template <typename Fn>
bool memoized_verify(const PublicKey& key, const Sha256Digest& digest,
                     ByteSpan signature, Fn&& fn) {
    if (!g_verify_memo_enabled.load(std::memory_order_relaxed) ||
        signature.size() != kSignatureSize) {
        return fn();
    }
    const MemoKey k = memo_key(key, digest, signature);
    VerifyMemo& memo = verify_memo();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        auto it = memo.results.find(k);
        if (it != memo.results.end()) {
            ++memo.hits;
            return it->second;
        }
    }
    const bool ok = fn();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        ++memo.misses;
        memo.results.emplace(k, ok);
    }
    return ok;
}

/// Both software libraries wrap the same from-scratch ECDSA core (that code
/// sharing is the point of the security interface); they differ in the
/// measured execution profile of the real libraries on Cortex-M4.
class SoftwareBackend : public CryptoBackend {
public:
    SoftwareBackend(std::string_view name, const BackendCosts& costs)
        : name_(name), costs_(costs) {}

    std::string_view name() const override { return name_; }
    BackendCosts costs() const override { return costs_; }

    bool verify(const PublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override {
        return memoized_verify(key, digest, signature,
                               [&] { return ecdsa_verify(key, digest, signature); });
    }

    bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override {
        return memoized_verify(key.key(), digest, signature,
                               [&] { return ecdsa_verify(key, digest, signature); });
    }

    Expected<Signature> sign(const PrivateKey& key,
                             const Sha256Digest& digest) const override {
        return ecdsa_sign(key, digest);
    }

private:
    std::string_view name_;
    BackendCosts costs_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

VerifyCalibration run_verify_calibration() {
    using Clock = std::chrono::steady_clock;
    const P256& curve = P256::instance();
    volatile std::uint64_t sink = 0;

    // One signed message, verified through the prepared hot path vs the
    // pre-PR kernel reconstructed from its two halves: the comb u1*G that
    // already existed plus the generic ladder that used to serve u2*P.
    const PrivateKey priv = PrivateKey::generate(::upkit::to_bytes("upkit-calibration"));  // lint: public-value (calibration key from a fixed public seed)
    const PublicKey pub = priv.public_key();
    const Sha256Digest digest = Sha256::digest(::upkit::to_bytes("calibration-msg"));
    const Signature sig = ecdsa_sign(priv, digest);
    const PreparedPublicKey prepared(pub);
    (void)ecdsa_verify(prepared, digest, ByteSpan(sig));  // warm singleton + tables

    constexpr int kVerifyIters = 40;
    auto t0 = Clock::now();
    for (int i = 0; i < kVerifyIters; ++i) {
        sink = sink + static_cast<std::uint64_t>(ecdsa_verify(prepared, digest, ByteSpan(sig)));
    }
    const double prepared_s = seconds_since(t0) / kVerifyIters;

    U256 k{};
    k.w = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
           0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
    constexpr int kCombIters = 160;
    t0 = Clock::now();
    for (int i = 0; i < kCombIters; ++i) {
        k.w[0] ^= static_cast<std::uint64_t>(i);
        sink = sink + curve.mul_base(k)->x.w[0];  // lint: public-scalar (calibration constant)
    }
    const double comb_s = seconds_since(t0) / kCombIters;

    constexpr int kLadderIters = 16;
    t0 = Clock::now();
    for (int i = 0; i < kLadderIters; ++i) {
        k.w[0] ^= static_cast<std::uint64_t>(i);
        sink = sink + curve.mul_generic(k, pub.point())->x.w[0];  // lint: public-scalar (calibration constant)
    }
    const double ladder_s = seconds_since(t0) / kLadderIters;

    // SHA-256: unrolled streaming kernel vs the rolled reference, over a
    // buffer big enough that per-call overhead vanishes.
    Bytes buf(256 * 1024);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 31 + 7);
    (void)Sha256::digest(buf);
    constexpr int kShaIters = 24;
    t0 = Clock::now();
    for (int i = 0; i < kShaIters; ++i) {
        buf[0] = static_cast<std::uint8_t>(i);
        sink = sink + Sha256::digest(buf)[0];
    }
    const double sha_s = seconds_since(t0) / kShaIters;
    t0 = Clock::now();
    for (int i = 0; i < kShaIters; ++i) {
        buf[0] = static_cast<std::uint8_t>(i);
        sink = sink + sha256_reference(buf)[0];
    }
    const double sha_ref_s = seconds_since(t0) / kShaIters;

    // Multi-buffer SHA-256: four independent 256 KiB lanes through the
    // dispatched sha256x4 kernel vs four sequential reference digests (the
    // server's publish/ingest shape: many unrelated chunk buffers at once).
    std::array<Bytes, 4> lane_bufs;
    std::array<ByteSpan, 4> lanes;
    std::array<Sha256Digest, 4> lane_out;
    for (std::size_t i = 0; i < 4; ++i) {
        lane_bufs[i] = buf;
        lane_bufs[i][1] = static_cast<std::uint8_t>(i);
        lanes[i] = ByteSpan(lane_bufs[i]);
    }
    sha256x4_digest(lanes.data(), lane_out.data(), 4);  // warm dispatch
    constexpr int kShaX4Iters = 12;
    t0 = Clock::now();
    for (int i = 0; i < kShaX4Iters; ++i) {
        lane_bufs[0][0] = static_cast<std::uint8_t>(i);
        sha256x4_digest(lanes.data(), lane_out.data(), 4);
        sink = sink + lane_out[0][0];
    }
    const double sha_x4_s = seconds_since(t0) / kShaX4Iters;
    t0 = Clock::now();
    for (int i = 0; i < kShaX4Iters; ++i) {
        lane_bufs[0][0] = static_cast<std::uint8_t>(i);
        for (const auto& lane : lane_bufs) sink = sink + sha256_reference(lane)[0];
    }
    const double sha_x4_ref_s = seconds_since(t0) / kShaX4Iters;

    VerifyCalibration out;
    // The pre-PR verify spent ~all its time in comb(u1*G) + ladder(u2*P);
    // using just those halves as the baseline slightly understates the old
    // cost, so the ratio is conservative.
    if (prepared_s > 0.0) out.ecdsa_speedup = std::max(1.0, (comb_s + ladder_s) / prepared_s);
    if (sha_s > 0.0) out.sha256_speedup = std::max(1.0, sha_ref_s / sha_s);
    if (sha_s > 0.0) out.sha256_host_mb_s = static_cast<double>(buf.size()) / sha_s / 1e6;
    if (sha_x4_s > 0.0) out.sha256x4_speedup = std::max(1.0, sha_x4_ref_s / sha_x4_s);
    if (sha_x4_s > 0.0) {
        out.sha256x4_host_mb_s = 4.0 * static_cast<double>(buf.size()) / sha_x4_s / 1e6;
    }
    return out;
}

}  // namespace

void set_verify_memo_enabled(bool enabled) {
    g_verify_memo_enabled.store(enabled, std::memory_order_relaxed);
}

bool verify_memo_enabled() {
    return g_verify_memo_enabled.load(std::memory_order_relaxed);
}

void verify_memo_reset() {
    VerifyMemo& memo = verify_memo();
    std::lock_guard<std::mutex> lock(memo.mu);
    memo.results.clear();
    memo.hits = 0;
    memo.misses = 0;
}

VerifyMemoStats verify_memo_stats() {
    VerifyMemo& memo = verify_memo();
    std::lock_guard<std::mutex> lock(memo.mu);
    return {memo.hits, memo.misses};
}

const VerifyCalibration& measure_verify_speedup() {
    static const VerifyCalibration calibration = run_verify_calibration();
    return calibration;
}

BackendCosts calibrate_software_costs(const BackendCosts& baseline) {
    const VerifyCalibration& c = measure_verify_speedup();
    BackendCosts out = baseline;
    out.verify_seconds = baseline.verify_seconds / c.ecdsa_speedup;
    out.sha256_seconds_per_kb = baseline.sha256_seconds_per_kb / c.sha256_speedup;
    return out;
}

std::unique_ptr<CryptoBackend> make_tinydtls_backend() {
    // TinyDTLS ships a compact, unoptimized ECC: smallest flash, slowest.
    return std::make_unique<SoftwareBackend>(
        "tinydtls", BackendCosts{.sign_seconds = 0.310,
                                 .verify_seconds = 0.360,
                                 .sha256_seconds_per_kb = 0.0016,
                                 .active_current_ma = 0.0});
}

std::unique_ptr<CryptoBackend> make_tinycrypt_backend() {
    // tinycrypt trades ~1.1 kB more flash for faster fixed-window ECC.
    return std::make_unique<SoftwareBackend>(
        "tinycrypt", BackendCosts{.sign_seconds = 0.230,
                                  .verify_seconds = 0.270,
                                  .sha256_seconds_per_kb = 0.0013,
                                  .active_current_ma = 0.0});
}

std::unique_ptr<CryptoBackend> make_tinydtls_backend(const BackendCosts& costs) {
    return std::make_unique<SoftwareBackend>("tinydtls", costs);
}

std::unique_ptr<CryptoBackend> make_tinycrypt_backend(const BackendCosts& costs) {
    return std::make_unique<SoftwareBackend>("tinycrypt", costs);
}

}  // namespace upkit::crypto

// The security interface (paper Fig. 3, "Security interface").
//
// UpKit abstracts the crypto primitives it needs — SHA-256 digests and
// ECDSA/secp256r1 signature verification — behind a single interface so
// that the same verifier module can run on TinyDTLS, tinycrypt, or a
// CryptoAuthLib-driven ATECC508 HSM, and so the update agent can share one
// crypto implementation with the main application. Each backend also
// carries the execution-cost profile the device simulator charges when the
// primitive runs on the modelled MCU (the math itself runs natively here).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

/// Modelled on-device execution cost of each primitive. Times are for the
/// nRF52840-class Cortex-M4 @ 64 MHz the paper evaluates on; the device
/// simulator scales them by the platform's relative CPU speed.
struct BackendCosts {
    double sign_seconds = 0.0;
    double verify_seconds = 0.0;
    double sha256_seconds_per_kb = 0.0;
    /// Average extra current draw while the primitive runs, in mA at 3 V
    /// (0 for pure-software backends where the CPU-active draw applies).
    double active_current_ma = 0.0;
};

class CryptoBackend {
public:
    virtual ~CryptoBackend() = default;

    virtual std::string_view name() const = 0;
    virtual BackendCosts costs() const = 0;

    /// SHA-256 of `data` (all backends use the shared software digest; the
    /// ATECC508 also has a SHA engine, modelled via costs()).
    virtual Sha256Digest digest(ByteSpan data) const { return Sha256::digest(data); }

    /// ECDSA/secp256r1 verification of a 64-byte r||s signature.
    virtual bool verify(const PublicKey& key, const Sha256Digest& digest,
                        ByteSpan signature) const = 0;

    /// Verification against a long-lived key whose wNAF table is already
    /// built (UpKit's vendor and server keys are fixed at provisioning).
    /// Software backends override this with the zero-table-construction hot
    /// path; hardware backends (the ATECC508 holds keys in its own slots)
    /// keep this fallback to the plain-key entry point.
    virtual bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                        ByteSpan signature) const {
        return verify(key.key(), digest, signature);
    }

    /// ECDSA signing. Device-side backends may not support it (the
    /// ATECC508 is used verify-only in UpKit's deployment).
    virtual Expected<Signature> sign(const PrivateKey& key,
                                     const Sha256Digest& digest) const = 0;
};

/// Cost of one double verification under `costs`: two sequential
/// verifies, the way every backend checks the vendor and then the server
/// signature. Charge sites use this helper so the pair is priced in one place.
inline double double_verify_seconds(const BackendCosts& costs) {
    return 2.0 * costs.verify_seconds;
}

/// Process-wide memo of software-backend verify() results, keyed by the
/// full (public key, digest, signature) triple. Fleet campaigns re-verify
/// the same manifests at boot that they verified at receive time (and every
/// device checks the one vendor signature per version), so at million-device
/// scale the memo removes the dominant repeated cost without changing a
/// single verdict — the answer is a pure function of the key. OFF by
/// default: calibration loops time raw verifies, and the small suites want
/// the real kernels exercised. The fleet engine and the scale bench opt in.
/// Hits/misses are counted so tests can prove both the reuse and the
/// equivalence of results with the memo on and off.
struct VerifyMemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
void set_verify_memo_enabled(bool enabled);
bool verify_memo_enabled();
/// Drops all memoized entries and zeroes the counters (benches call this
/// between sweep cells so one cell's warm cache can't flatter the next).
void verify_memo_reset();
VerifyMemoStats verify_memo_stats();

/// TinyDTLS's crypto core: software ECDSA, the smallest-flash option in the
/// paper's Table I comparison.
std::unique_ptr<CryptoBackend> make_tinydtls_backend();

/// tinycrypt: software ECDSA tuned for speed, slightly larger flash.
std::unique_ptr<CryptoBackend> make_tinycrypt_backend();

/// Same software backends with an explicit cost profile (e.g. the
/// host-calibrated one from calibrate_software_costs()).
std::unique_ptr<CryptoBackend> make_tinydtls_backend(const BackendCosts& costs);
std::unique_ptr<CryptoBackend> make_tinycrypt_backend(const BackendCosts& costs);

/// Host-measured speedup of this repo's verification hot path over its own
/// pre-optimization kernels — the ServerModel::calibrate() pattern applied
/// to the device side.
struct VerifyCalibration {
    /// Prepared-key ECDSA verify vs the pre-wNAF kernel (comb u1*G + generic
    /// ladder u2*P), approximated as the sum of those two measured halves.
    double ecdsa_speedup = 1.0;
    /// Unrolled SHA-256 kernel vs the rolled reference loop.
    double sha256_speedup = 1.0;
    /// Host throughput of the unrolled kernel, for reporting.
    double sha256_host_mb_s = 0.0;
    /// Multi-buffer SHA-256 (sha256x4_digest, dispatched implementation)
    /// vs four sequential reference digests on a 4-buffer workload. The
    /// device cost model does not use this — an MCU digests one stream —
    /// it calibrates the server-side ingest path and is reported by the
    /// benches.
    double sha256x4_speedup = 1.0;
    /// Host throughput of the dispatched multi-buffer kernel, aggregate
    /// across four lanes.
    double sha256x4_host_mb_s = 0.0;
};

/// Runs the micro-measurements once per process and caches the result, so
/// every caller (device configs, benches) sees the same numbers and fleet
/// reruns stay byte-identical within a process.
const VerifyCalibration& measure_verify_speedup();

/// Scales a paper-anchored software cost profile by the measured speedups:
/// the modelled Cortex-M4 is assumed to gain what the host gained from the
/// same algorithmic changes (wNAF + precomputed tables, unrolled SHA-256).
BackendCosts calibrate_software_costs(const BackendCosts& baseline);

}  // namespace upkit::crypto

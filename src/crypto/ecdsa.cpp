#include "crypto/ecdsa.hpp"

#include <list>
#include <map>
#include <mutex>

#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/hmac_drbg.hpp"

namespace upkit::crypto {

namespace {

/// bits2int for SHA-256 digests: hash length equals the order length
/// (256 bits), so this is a straight big-endian load, reduced mod n where
/// arithmetic requires it.
U256 digest_to_scalar(const Sha256Digest& digest) {
    return U256::from_be_bytes(ByteSpan(digest.data(), digest.size()));
}

/// Process-wide LRU intern cache for precomputed wNAF tables, keyed by the
/// 64-byte key encoding. A simulated fleet provisions every device with the
/// same vendor + server keys, so without interning a 1000-device campaign
/// would rebuild the identical table 2000 times. Eviction drops only the
/// cache's reference: handles pin their table via shared_ptr, so a table
/// in use outlives its cache slot. All access is serialized by kIntern.mu.
struct InternCache {
    using KeyId = std::array<std::uint8_t, kPublicKeySize>;
    struct Entry {
        std::list<KeyId>::iterator lru_pos;
        std::shared_ptr<const P256::Precomputed> table;
    };

    static constexpr std::size_t kCapacity = 128;

    std::mutex mu;
    std::list<KeyId> lru;           // lint: guarded-by(mu) — front = most recently used
    std::map<KeyId, Entry> entries; // lint: guarded-by(mu)
    InternStats stats;              // lint: guarded-by(mu)
};

InternCache& intern_cache() {
    static InternCache cache;
    return cache;
}

std::shared_ptr<const P256::Precomputed> interned_table(const PublicKey& key) {
    InternCache& c = intern_cache();
    const InternCache::KeyId id = key.to_bytes();

    {
        std::lock_guard<std::mutex> lock(c.mu);
        if (auto it = c.entries.find(id); it != c.entries.end()) {
            c.lru.splice(c.lru.begin(), c.lru, it->second.lru_pos);
            ++c.stats.hits;
            return it->second.table;
        }
    }

    // Build outside the lock: the table is ~300 group ops + an inversion
    // and must not serialize unrelated threads. Two threads racing on the
    // same new key both build; the loser's insert finds the winner's entry
    // and adopts it, so callers still share one table.
    auto table = std::make_shared<P256::Precomputed>(
        P256::instance().precompute(key.point()));

    std::lock_guard<std::mutex> lock(c.mu);
    if (auto it = c.entries.find(id); it != c.entries.end()) {
        c.lru.splice(c.lru.begin(), c.lru, it->second.lru_pos);
        ++c.stats.hits;
        return it->second.table;
    }
    ++c.stats.misses;
    c.lru.push_front(id);
    c.entries.emplace(id, InternCache::Entry{c.lru.begin(), table});
    if (c.entries.size() > InternCache::kCapacity) {
        c.entries.erase(c.lru.back());
        c.lru.pop_back();
        ++c.stats.evictions;
    }
    c.stats.size = c.entries.size();
    return table;
}

}  // namespace

PreparedPublicKey::PreparedPublicKey(const PublicKey& key)
    : key_(key), table_(interned_table(key)) {}

InternStats PreparedPublicKey::intern_stats() {
    InternCache& c = intern_cache();
    std::lock_guard<std::mutex> lock(c.mu);
    InternStats out = c.stats;
    out.size = c.entries.size();
    return out;
}

Expected<PublicKey> PublicKey::from_point(const AffinePoint& p) {
    if (!P256::instance().on_curve(p)) return Status::kBadKey;
    PublicKey key;
    key.point_ = p;
    return key;
}

Expected<PublicKey> PublicKey::from_bytes(ByteSpan raw64) {
    if (raw64.size() != kPublicKeySize) return Status::kBadKey;
    AffinePoint p;
    p.x = U256::from_be_bytes(raw64.subspan(0, 32));
    p.y = U256::from_be_bytes(raw64.subspan(32, 32));
    return from_point(p);
}

std::array<std::uint8_t, kPublicKeySize> PublicKey::to_bytes() const {
    std::array<std::uint8_t, kPublicKeySize> out{};
    point_.x.to_be_bytes(MutByteSpan(out.data(), 32));
    point_.y.to_be_bytes(MutByteSpan(out.data() + 32, 32));
    return out;
}

PrivateKey PrivateKey::generate(ByteSpan seed) {
    const P256& curve = P256::instance();
    HmacDrbg drbg(seed, ::upkit::to_bytes("upkit-p256-keygen"));
    for (;;) {
        std::array<std::uint8_t, 32> candidate{};
        drbg.generate(MutByteSpan(candidate));
        const U256 d = U256::from_be_bytes(candidate);
        // Branchless range check; the accept/reject bit is declassified —
        // a rejection only reveals that a uniformly random 256-bit string
        // fell outside [1, n), which leaks nothing about the accepted key.
        const std::uint64_t ok = ~ct_is_zero_mask(d) & ct_lt_mask(d, curve.n());
        if (ct::declassify_value(ok != 0)) return PrivateKey(d);
    }
}

Expected<PrivateKey> PrivateKey::from_bytes(ByteSpan raw32) {
    if (raw32.size() != kPrivateKeySize) return Status::kBadKey;
    const U256 d = U256::from_be_bytes(raw32);
    // Branchless range check on the candidate secret; only the public
    // accept/reject verdict is branched on.
    const std::uint64_t ok =
        ~ct_is_zero_mask(d) & ct_lt_mask(d, P256::instance().n());
    if (!ct::declassify_value(ok != 0)) return Status::kBadKey;
    return PrivateKey(d);
}

PublicKey PrivateKey::public_key() const {
    // Constant-time walk: d is the long-lived secret, and key derivation
    // can run on-device (e.g. when provisioning an ECDH ephemeral).
    const auto point = P256::instance().mul_base_ct(d_);
    // d is in [1, n-1], so d*G can never be the point at infinity; the
    // resulting point is, by definition, the public key.
    const AffinePoint p = ct::declassify_value(*point);
    auto key = PublicKey::from_point(p);
    return *key;
}

U256 rfc6979_nonce(const U256& d, const Sha256Digest& digest) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();

    // bits2octets(h1) = int2octets(bits2int(h1) mod n).
    const U256 z = fn.reduce(digest_to_scalar(digest));
    const Bytes x_octets = d.to_be_bytes();
    const Bytes h_octets = z.to_be_bytes();

    std::array<std::uint8_t, 32> v{};
    std::array<std::uint8_t, 32> k{};
    v.fill(0x01);
    k.fill(0x00);

    const auto step = [&](std::uint8_t tag) {
        HmacSha256 mac(k);
        mac.update(v);
        mac.update(ByteSpan(&tag, 1));
        mac.update(x_octets);
        mac.update(h_octets);
        k = mac.finalize();
        v = HmacSha256::mac(k, v);
    };
    step(0x00);
    step(0x01);

    for (;;) {
        v = HmacSha256::mac(k, v);
        const U256 candidate = U256::from_be_bytes(v);
        // Branchless range check, declassified accept bit: RFC 6979
        // rejection only reveals that an HMAC output exceeded n, which is
        // independent of the nonce actually used.
        const std::uint64_t ok =
            ~ct_is_zero_mask(candidate) & ct_lt_mask(candidate, curve.n());
        if (ct::declassify_value(ok != 0)) return candidate;
        HmacSha256 mac(k);
        mac.update(v);
        const std::uint8_t zero = 0x00;
        mac.update(ByteSpan(&zero, 1));
        k = mac.finalize();
        v = HmacSha256::mac(k, v);
    }
}

Signature ecdsa_sign(const PrivateKey& key, const Sha256Digest& digest) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const U256 z = fn.reduce(digest_to_scalar(digest));

    U256 k = rfc6979_nonce(key.scalar(), digest);
    for (;;) {
        // The nonce is the most timing-sensitive secret in ECDSA (a few
        // leaked bits across signatures break the key via lattice attacks),
        // so k*G takes the constant-time Booth walk, not the comb table.
        const auto point = curve.mul_base_ct(k);
        // Branching on "k*G is infinity" reveals one-in-2^256 information;
        // the declassify records that this k-dependent bit is deliberately
        // public (it only fires on the astronomically-unlikely retry).
        if (ct::declassify_value(point.has_value())) {
            // r is the published signature half: declassified the moment
            // it exists.
            const U256 r = ct::declassify_value(fn.reduce(point->x));
            if (!r.is_zero()) {
                // s = k^-1 (z + r d) mod n, computed in the order's
                // Montgomery domain. The nonce inverse is Fermat's
                // k^(n-2): the step schedule follows the public exponent
                // and every step is a branchless mul, so it is fixed for
                // every k (ctcheck pins it in the ecdsa_sign trace).
                const U256 km = fn.to_mont(k);
                const U256 rm = fn.to_mont(r);
                const U256 dm = fn.to_mont(key.scalar());
                const U256 zm = fn.to_mont(z);
                const U256 s_m = fn.mul(fn.inv(km), fn.add(zm, fn.mul(rm, dm)));
                const U256 s = ct::declassify_value(fn.from_mont(s_m));
                if (!s.is_zero()) {
                    Signature sig{};
                    r.to_be_bytes(MutByteSpan(sig.data(), 32));
                    s.to_be_bytes(MutByteSpan(sig.data() + 32, 32));
                    return sig;
                }
            }
        }
        // Vanishingly unlikely retry path: perturb the nonce derivation by
        // re-deriving over the digest of the previous nonce.
        const Bytes kb = k.to_be_bytes();
        k = rfc6979_nonce(key.scalar(), Sha256::digest(kb));
    }
}

namespace {

/// Shared verify core: signature parsing, range checks, and u1/u2.
/// `verdict` decides whether u1*G + u2*P has x congruent to r mod n via
/// whichever scalar-mul path the variant uses — the only thing the
/// variants differ in.
template <typename VerdictFn>
bool verify_with(const Sha256Digest& digest, ByteSpan signature, VerdictFn&& verdict) {
    if (signature.size() != kSignatureSize) return false;
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();

    const U256 r = U256::from_be_bytes(signature.subspan(0, 32));
    const U256 s = U256::from_be_bytes(signature.subspan(32, 32));
    if (r.is_zero() || s.is_zero()) return false;
    if (!(r < curve.n()) || !(s < curve.n())) return false;

    const U256 z = fn.reduce(digest_to_scalar(digest));
    const U256 w_m = fn.inv(fn.to_mont(s));
    const U256 u1 = fn.from_mont(fn.mul(fn.to_mont(z), w_m));
    const U256 u2 = fn.from_mont(fn.mul(fn.to_mont(r), w_m));
    return verdict(u1, u2, r);
}

/// The affine final test: x mod n == r, infinity rejected.
bool affine_x_matches(const std::optional<AffinePoint>& point, const U256& r) {
    return point && P256::instance().order().reduce(point->x) == r;
}

}  // namespace

bool ecdsa_verify(const PublicKey& key, const Sha256Digest& digest, ByteSpan signature) {
    return verify_with(digest, signature, [&](const U256& u1, const U256& u2, const U256& r) {
        // u1, u2 derive from the signature and digest, both public.
        const auto point = P256::instance().mul_add(u1, u2, key.point());  // lint: public-scalar
        return affine_x_matches(point, r);
    });
}

bool ecdsa_verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                  ByteSpan signature) {
    if (!key.valid()) return false;
    return verify_with(digest, signature, [&](const U256& u1, const U256& u2, const U256& r) {
        return P256::instance().verify_prepared(u1, u2, key.table(), r);  // lint: public-scalar
    });
}

bool ecdsa_verify_generic(const PublicKey& key, const Sha256Digest& digest,
                          ByteSpan signature) {
    return verify_with(digest, signature, [&](const U256& u1, const U256& u2, const U256& r) {
        const auto point =
            P256::instance().mul_add_generic(u1, u2, key.point());  // lint: public-scalar
        return affine_x_matches(point, r);
    });
}

bool ecdsa_verify2(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                   ByteSpan signature1, const PreparedPublicKey& key2,
                   const Sha256Digest& digest2, ByteSpan signature2) {
    return ecdsa_verify(key1, digest1, signature1) &&
           ecdsa_verify(key2, digest2, signature2);
}

}  // namespace upkit::crypto

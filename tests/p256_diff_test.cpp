// Differential suite for the fixed-base comb acceleration (src/crypto/p256).
//
// mul_base() serves ECDSA signing from a precomputed comb table; the generic
// double-and-add ladder (mul_base_generic) is retained as the reference. The
// two paths share no point-arithmetic shortcuts beyond the group formulas, so
// agreement over thousands of seeded scalars — plus every structural edge
// case (zero, one, n-1, n, sparse bytes, values >= n) — locks the table
// construction and the mixed-addition formula down. The same treatment
// covers ecdsa_sign (whose r must match the reference ladder's x-coordinate
// of k*G for the RFC 6979 nonce) and mul_add's accelerated u1*G half.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {
namespace {

constexpr std::size_t kCases = 1024;  // seeded scalars per differential path

U256 random_u256(Rng& rng) {
    U256 k;
    for (auto& limb : k.w) limb = rng.next_u64();
    return k;
}

void expect_same(const std::optional<AffinePoint>& comb,
                 const std::optional<AffinePoint>& ladder, const char* what,
                 std::size_t i) {
    ASSERT_EQ(comb.has_value(), ladder.has_value()) << what << " case " << i;
    if (!comb) return;
    EXPECT_EQ(comb->x, ladder->x) << what << " case " << i;
    EXPECT_EQ(comb->y, ladder->y) << what << " case " << i;
}

// ------------------------------------------------------------- mul_base

TEST(P256DiffTest, CombMatchesLadderOnSeededScalars) {
    const P256& curve = P256::instance();
    Rng rng(0x5EED0001);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_base(k), curve.mul_base_generic(k), "mul_base", i);
    }
}

TEST(P256DiffTest, CombMatchesLadderOnSparseScalars) {
    // Scalars with long zero runs skip most comb windows; single set bytes
    // exercise each table row in isolation.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0002);
    std::size_t cases = 0;
    // Every single-bit scalar 2^b (touches every window with a lone digit).
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_base(k), curve.mul_base_generic(k), "2^b", b);
        ++cases;
    }
    // Scalars with exactly one random nonzero byte, and scalars where a
    // random contiguous run of bytes is zeroed out of a random value.
    while (cases < kCases) {
        U256 k;
        if (cases % 2 == 0) {
            const unsigned byte = static_cast<unsigned>(rng.below(32));
            const std::uint64_t v = rng.between(1, 255);
            k.w[byte / 8] = v << (8 * (byte % 8));
        } else {
            k = random_u256(rng);
            const unsigned start = static_cast<unsigned>(rng.below(32));
            const unsigned len = static_cast<unsigned>(rng.between(1, 32 - start));
            for (unsigned b = start; b < start + len; ++b) {
                k.w[b / 8] &= ~(0xffull << (8 * (b % 8)));
            }
        }
        expect_same(curve.mul_base(k), curve.mul_base_generic(k), "sparse", cases);
        ++cases;
    }
}

TEST(P256DiffTest, CombMatchesLadderOnOrderEdges) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();

    // k == 0 and k == n (== 0 mod n): both paths must refuse.
    EXPECT_FALSE(curve.mul_base(U256::zero()).has_value());
    EXPECT_FALSE(curve.mul_base_generic(U256::zero()).has_value());
    EXPECT_FALSE(curve.mul_base(n).has_value());
    EXPECT_FALSE(curve.mul_base_generic(n).has_value());

    // k == 1 must hand back the generator itself.
    const auto one = curve.mul_base(U256::one());
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->x, curve.generator().x);
    EXPECT_EQ(one->y, curve.generator().y);

    // Scalars straddling the order: n-1 (the negation of G), n+1, n+k for
    // seeded k (reduction mod n must agree between the paths).
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_base(n_minus_1), curve.mul_base_generic(n_minus_1),
                "n-1", 0);
    Rng rng(0x5EED0003);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul_base(k), curve.mul_base_generic(k), "n+k", i);
    }
    // n-1 really is -G: same x, negated y.
    EXPECT_EQ(one->x, curve.mul_base(n_minus_1)->x);
}

// ------------------------------------------- constant-time Booth walks

TEST(P256DiffTest, CtBoothMatchesLadderOnSeededScalars) {
    // mul_base_ct shares nothing with the ladder beyond the group law: a
    // dedicated 65-row table, signed-window recoding, masked additions.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0007);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_base_ct(k), curve.mul_base_generic(k), "mul_base_ct", i);
    }
}

TEST(P256DiffTest, CtBoothMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();

    EXPECT_FALSE(curve.mul_base_ct(U256::zero()).has_value());
    EXPECT_FALSE(curve.mul_base_ct(n).has_value());

    const auto one = curve.mul_base_ct(U256::one());
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->x, curve.generator().x);
    EXPECT_EQ(one->y, curve.generator().y);

    // Single-bit scalars hit every Booth window (including the carry
    // window: bit 255 set recodes to a digit at position 256); all-ones
    // windows maximize the negative-digit / borrow chains.
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_base_ct(k), curve.mul_base_generic(k), "ct 2^b", b);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_base_ct(n_minus_1), curve.mul_base_generic(n_minus_1),
                "ct n-1", 0);
    Rng rng(0x5EED0008);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul_base_ct(k), curve.mul_base_generic(k), "ct n+k", i);
    }
}

TEST(P256DiffTest, CtMulMatchesLadderOnSeededScalars) {
    const P256& curve = P256::instance();
    Rng rng(0x5EED0009);
    const AffinePoint p = *curve.mul_base_generic(U256::from_u64(0xC0FFEE));
    for (std::size_t i = 0; i < kCases / 4; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_ct(k, p), curve.mul_generic(k, p), "mul_ct", i);
    }
}

TEST(P256DiffTest, CtMulMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *curve.mul_base_generic(U256::from_u64(0xFACADE));

    EXPECT_FALSE(curve.mul_ct(U256::zero(), p).has_value());
    EXPECT_FALSE(curve.mul_ct(n, p).has_value());
    const auto same = curve.mul_ct(U256::one(), p);
    ASSERT_TRUE(same.has_value());
    EXPECT_EQ(same->x, p.x);
    EXPECT_EQ(same->y, p.y);

    for (unsigned b = 0; b < 256; b += 7) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_ct(k, p), curve.mul_generic(k, p), "ct_mul 2^b", b);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_ct(n_minus_1, p), curve.mul_generic(n_minus_1, p),
                "ct_mul n-1", 0);
}

// ---------------------------------------------------------------- ECDSA

TEST(P256DiffTest, SignaturesMatchReferenceLadderNonce) {
    // ecdsa_sign's r is the x-coordinate of k*G for the RFC 6979 nonce k,
    // computed through the comb table. Recompute k*G with the reference
    // ladder and check r (reduced mod n) byte-for-byte, then verify.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0004);
    for (std::size_t i = 0; i < kCases; ++i) {
        const Bytes seed = rng.bytes(32);
        const PrivateKey key = PrivateKey::generate(seed);
        const Sha256Digest digest = Sha256::digest(rng.bytes(1 + i % 96));

        const Signature sig = ecdsa_sign(key, digest);
        EXPECT_TRUE(ecdsa_verify(key.public_key(), digest, sig)) << i;

        const U256 k = rfc6979_nonce(key.scalar(), digest);
        const auto point = curve.mul_base_generic(k);
        ASSERT_TRUE(point.has_value()) << i;
        const U256 r_ref = curve.order().reduce(point->x);
        const U256 r = U256::from_be_bytes(ByteSpan(sig.data(), 32));
        EXPECT_EQ(r, r_ref) << "nonce point mismatch, case " << i;
    }
}

TEST(P256DiffTest, SignaturesAreDeterministicAcrossCalls) {
    // RFC 6979 + deterministic comb arithmetic: the same (key, digest) must
    // produce the same 64 bytes every time — the server's response cache
    // depends on re-signing being reproducible.
    Rng rng(0x5EED0005);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const Sha256Digest digest = Sha256::digest(rng.bytes(57));
    const Signature first = ecdsa_sign(key, digest);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(ecdsa_sign(key, digest), first);
}

// -------------------------------------------------------------- mul_add

TEST(P256DiffTest, MulAddMatchesScalarIdentity) {
    // With P = x*G: u1*G + u2*P == (u1 + u2*x mod n)*G, so mul_add's comb-
    // accelerated u1 half is checked against the reference ladder through
    // the group law itself.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED0006);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 x = fn.reduce(random_u256(rng));
        if (x.is_zero()) continue;
        const auto p = curve.mul_base_generic(x);
        ASSERT_TRUE(p.has_value()) << i;

        // Edge mixes every 8th case: u1 or u2 == 0 / 1 / n-1.
        U256 u1 = fn.reduce(random_u256(rng));
        U256 u2 = fn.reduce(random_u256(rng));
        if (i % 8 == 6) u1 = U256::zero();
        if (i % 8 == 7) u2 = U256::zero();
        if (i % 8 == 5) sub(u1, curve.n(), U256::one());

        const U256 combined = fn.add(
            u1, fn.from_mont(fn.mul(fn.to_mont(u2), fn.to_mont(x))));
        expect_same(curve.mul_add(u1, u2, *p),
                    curve.mul_base_generic(combined), "mul_add", i);
    }
}

// --------------------------------------------- wNAF variable-base mul

// A deterministic set of base points P = x*G derived from the reference
// ladder (so the wNAF paths are not checked against themselves).
std::vector<AffinePoint> seeded_points(std::size_t count, std::uint64_t seed) {
    const P256& curve = P256::instance();
    Rng rng(seed);
    std::vector<AffinePoint> points;
    while (points.size() < count) {
        const auto p = curve.mul_base_generic(random_u256(rng));
        if (p) points.push_back(*p);
    }
    return points;
}

TEST(P256DiffTest, WnafMulMatchesLadderOnSeededScalars) {
    const P256& curve = P256::instance();
    Rng rng(0x5EED0007);
    const auto points = seeded_points(8, 0x5EED0107);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        const AffinePoint& p = points[i % points.size()];
        expect_same(curve.mul(k, p), curve.mul_generic(k, p), "wnaf mul", i);
    }
}

TEST(P256DiffTest, WnafMulMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *curve.mul_base_generic(U256::from_u64(0xDEC0DE));

    // 0 and n (== 0 mod n): both paths must refuse.
    EXPECT_FALSE(curve.mul(U256::zero(), p).has_value());
    EXPECT_FALSE(curve.mul_generic(U256::zero(), p).has_value());
    EXPECT_FALSE(curve.mul(n, p).has_value());
    EXPECT_FALSE(curve.mul_generic(n, p).has_value());

    // k == 1 hands back P itself.
    const auto identity = curve.mul(U256::one(), p);
    ASSERT_TRUE(identity.has_value());
    EXPECT_EQ(identity->x, p.x);
    EXPECT_EQ(identity->y, p.y);

    // Every single-bit scalar (lone wNAF digit at every position), the
    // all-ones-ish straddles of the order, and n+k reductions.
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul(k, p), curve.mul_generic(k, p), "wnaf 2^b", b);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul(n_minus_1, p), curve.mul_generic(n_minus_1, p), "wnaf n-1", 0);
    Rng rng(0x5EED0008);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul(k, p), curve.mul_generic(k, p), "wnaf n+k", i);
    }
    // Dense small-window scalars: every odd value 1..31 plus shifted copies,
    // exercising each wNAF digit magnitude with and without carries.
    for (std::uint64_t v = 1; v < 32; ++v) {
        for (unsigned shift = 0; shift < 3; ++shift) {
            U256 k = U256::from_u64(v << (4 * shift));
            expect_same(curve.mul(k, p), curve.mul_generic(k, p), "wnaf window", v);
        }
    }
}

TEST(P256DiffTest, PrecomputedMatchesFreshAndLadder) {
    // The interleaved per-key table must be indistinguishable from both the
    // fresh single-row wNAF walk and the reference ladder, for many keys.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0009);
    const auto points = seeded_points(8, 0x5EED0109);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));

    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        const std::size_t j = i % points.size();
        const auto pre = curve.mul(k, tables[j]);
        expect_same(pre, curve.mul(k, points[j]), "precomputed vs fresh", i);
        if (i % 8 == 0) {
            expect_same(pre, curve.mul_generic(k, points[j]), "precomputed vs ladder", i);
        }
    }
}

TEST(P256DiffTest, PrecomputedMatchesLadderOnEdgeScalars) {
    // Scalars near n exercise the wNAF carry digit at position 256 — the
    // overflow row of the interleaved table.
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *curve.mul_base_generic(U256::from_u64(0xAB15EED));
    const P256::Precomputed table = curve.precompute(p);

    EXPECT_FALSE(curve.mul(U256::zero(), table).has_value());
    EXPECT_FALSE(curve.mul(n, table).has_value());

    std::vector<U256> edges;
    edges.push_back(U256::one());
    U256 e;
    sub(e, n, U256::one());
    edges.push_back(e);  // n-1: dense top limbs, carry digit
    for (std::uint64_t d = 2; d <= 16; ++d) {
        sub(e, n, U256::from_u64(d));
        edges.push_back(e);  // n-d: every near-order carry pattern
    }
    for (unsigned b = 0; b < 256; b += 13) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        edges.push_back(k);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
        expect_same(curve.mul(edges[i], table), curve.mul_generic(edges[i], p),
                    "precomputed edge", i);
    }
}

TEST(P256DiffTest, MulAddVariantsMatchGenericReference) {
    // All three mul_add flavours — comb + fresh wNAF, comb + precomputed
    // table, and the pure generic ladder — must agree everywhere, including
    // the zero-scalar branches.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED000A);
    const auto points = seeded_points(4, 0x5EED010A);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));

    for (std::size_t i = 0; i < kCases; ++i) {
        U256 u1 = fn.reduce(random_u256(rng));
        U256 u2 = fn.reduce(random_u256(rng));
        if (i % 8 == 5) u1 = U256::zero();
        if (i % 8 == 6) u2 = U256::zero();
        if (i % 8 == 7) sub(u2, curve.n(), U256::one());
        const std::size_t j = i % points.size();

        const auto reference = curve.mul_add_generic(u1, u2, points[j]);
        expect_same(curve.mul_add(u1, u2, points[j]), reference, "mul_add fresh", i);
        expect_same(curve.mul_add(u1, u2, tables[j]), reference, "mul_add prepared", i);
    }
}

// ------------------------------------ signature pairs (ecdsa_verify2)

TEST(P256DiffTest, Verify2AgreesWithSequentialVerifies) {
    // Honest pairs accept; any corrupted signature, digest, or key pairing
    // must get the same verdict as the two sequential verifies.
    Rng rng(0x5EED0012);
    for (std::size_t i = 0; i < 192; ++i) {
        const PrivateKey key1 = PrivateKey::generate(rng.bytes(32));
        // Every 4th case reuses key1 for both slots — the fleet's actual
        // shape is two distinct trust anchors, but equal keys must work.
        const PrivateKey key2 = (i % 4 == 0) ? key1 : PrivateKey::generate(rng.bytes(32));
        const PreparedPublicKey prep1(key1.public_key());
        const PreparedPublicKey prep2(key2.public_key());
        const Sha256Digest d1 = Sha256::digest(rng.bytes(1 + i % 80));
        const Sha256Digest d2 = Sha256::digest(rng.bytes(1 + (i * 7) % 80));
        Signature s1 = ecdsa_sign(key1, d1);
        Signature s2 = ecdsa_sign(key2, d2);

        EXPECT_TRUE(ecdsa_verify2(prep1, d1, s1, prep2, d2, s2)) << i;

        // Corrupt one signature: the pair must reject.
        Signature bad = s1;
        bad[i % bad.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));
        EXPECT_FALSE(ecdsa_verify2(prep1, d1, bad, prep2, d2, s2)) << i;
        bad = s2;
        bad[(i * 3) % bad.size()] ^= static_cast<std::uint8_t>(1u << ((i + 5) % 8));
        EXPECT_FALSE(ecdsa_verify2(prep1, d1, s1, prep2, d2, bad)) << i;

        // Swapped digests: both slots see the wrong message.
        if (!(d1 == d2)) {
            EXPECT_FALSE(ecdsa_verify2(prep1, d2, s1, prep2, d1, s2)) << i;
        }

        // Swapped keys (distinct-key cases): wrong key for each signature.
        if (i % 4 != 0) {
            EXPECT_FALSE(ecdsa_verify2(prep2, d1, s1, prep1, d2, s2)) << i;
        }
    }
}

TEST(P256DiffTest, Verify2RejectsMalformedInputs) {
    Rng rng(0x5EED0013);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const PreparedPublicKey prep(key.public_key());
    const Sha256Digest digest = Sha256::digest(rng.bytes(40));
    const Signature good = ecdsa_sign(key, digest);

    // Zero r / zero s / r >= n / s >= n in either slot.
    Signature zero_r = good;
    std::fill(zero_r.begin(), zero_r.begin() + 32, std::uint8_t{0});
    Signature zero_s = good;
    std::fill(zero_s.begin() + 32, zero_s.end(), std::uint8_t{0});
    Signature big_r = good;
    std::fill(big_r.begin(), big_r.begin() + 32, std::uint8_t{0xff});
    Signature big_s = good;
    std::fill(big_s.begin() + 32, big_s.end(), std::uint8_t{0xff});
    for (const Signature& bad : {zero_r, zero_s, big_r, big_s}) {
        EXPECT_FALSE(ecdsa_verify2(prep, digest, bad, prep, digest, good));
        EXPECT_FALSE(ecdsa_verify2(prep, digest, good, prep, digest, bad));
    }
    // Truncated signature and invalid (empty) prepared key.
    EXPECT_FALSE(ecdsa_verify2(prep, digest, ByteSpan(good.data(), 63), prep,
                               digest, good));
    const PreparedPublicKey empty;
    EXPECT_FALSE(ecdsa_verify2(empty, digest, good, prep, digest, good));
    EXPECT_FALSE(ecdsa_verify2(prep, digest, good, empty, digest, good));
}

// ------------------------------------------------------ ECDSA verify paths

TEST(P256DiffTest, RPlusNCandidateVerifiesOnEveryPath) {
    // The final test x(R) mod n == r has a second candidate x = r + n when
    // x(R) lies in [n, p), a ~2^-32 slice no random signature reaches.
    // Build one: a curve point R with x in [n, p) serves as its own public
    // key, the digest is all zero (u1 = 0) and s = r = x - n (u2 = 1), so
    // u1*G + u2*R = R.
    const P256& curve = P256::instance();
    const Montgomery& fp = curve.field();
    const auto mont_poly = [&](const U256& xm, const U256& bm) {  // x^3 - 3x + b
        const U256 three_x = fp.add(fp.add(xm, xm), xm);
        return fp.add(fp.sub(fp.mul(fp.sqr(xm), xm), three_x), bm);
    };
    // b = gy^2 - (gx^3 - 3 gx), read off the generator.
    const U256 gx = fp.to_mont(curve.generator().x);
    const U256 gy = fp.to_mont(curve.generator().y);
    const U256 bm = fp.sub(fp.sqr(gy), mont_poly(gx, U256::zero()));
    // p = 3 mod 4: a square's root is a^((p + 1) / 4).
    U256 root_exp;
    (void)add(root_exp, fp.modulus(), U256::one());
    root_exp = shr1(shr1(root_exp));

    AffinePoint point{};
    for (std::uint64_t i = 1;; ++i) {
        ASSERT_LT(i, 256u) << "no curve point with x = n + i, i < 256";
        U256 x;
        (void)add(x, curve.n(), U256::from_u64(i));
        const U256 rhs = mont_poly(fp.to_mont(x), bm);
        const U256 y = fp.pow(rhs, root_exp);
        if (fp.sqr(y) == rhs) {
            point = AffinePoint{x, fp.from_mont(y)};
            break;
        }
    }
    const auto pub = PublicKey::from_point(point);
    ASSERT_TRUE(pub.has_value());
    const PreparedPublicKey prepared(*pub);
    U256 r;
    (void)sub(r, point.x, curve.n());
    Signature sig{};
    r.to_be_bytes(MutByteSpan(sig.data(), 32));
    r.to_be_bytes(MutByteSpan(sig.data() + 32, 32));
    const Sha256Digest zero{};

    Rng rng(0x5EED0015);
    const PrivateKey honest = PrivateKey::generate(rng.bytes(32));
    const PreparedPublicKey honest_key(honest.public_key());
    const Sha256Digest honest_digest = Sha256::digest(rng.bytes(40));
    const Signature honest_sig = ecdsa_sign(honest, honest_digest);

    EXPECT_TRUE(ecdsa_verify(prepared, zero, sig));
    EXPECT_TRUE(ecdsa_verify(*pub, zero, sig));
    EXPECT_TRUE(ecdsa_verify_generic(*pub, zero, sig));
    EXPECT_TRUE(ecdsa_verify2(prepared, zero, sig, honest_key, honest_digest, honest_sig));
    EXPECT_TRUE(ecdsa_verify2(honest_key, honest_digest, honest_sig, prepared, zero, sig));

    // Flip bit 1 of r (bit 0 could zero it and stop at the range check).
    Signature bad = sig;
    bad[31] ^= 0x02;
    EXPECT_FALSE(ecdsa_verify(prepared, zero, bad));
    EXPECT_FALSE(ecdsa_verify(*pub, zero, bad));
    EXPECT_FALSE(ecdsa_verify_generic(*pub, zero, bad));
    EXPECT_FALSE(ecdsa_verify2(prepared, zero, bad, honest_key, honest_digest, honest_sig));
    EXPECT_FALSE(ecdsa_verify2(honest_key, honest_digest, honest_sig, prepared, zero, bad));
}

TEST(P256DiffTest, PreparedKeysShareInternedTables) {
    // Two PreparedPublicKey instances for the same key bytes must be usable
    // interchangeably (the intern cache hands out one shared table). Runs
    // before VerifyVariantsAgree, whose 256 distinct keys exhaust the
    // bounded intern cache — later keys get private (unshared) tables by
    // design.
    Rng rng(0x5EED000C);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const PublicKey pub = key.public_key();
    const PreparedPublicKey a(pub);
    const PreparedPublicKey b(pub);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(&a.table(), &b.table());

    const Sha256Digest digest = Sha256::digest(rng.bytes(48));
    const Signature sig = ecdsa_sign(key, digest);
    EXPECT_TRUE(ecdsa_verify(a, digest, sig));
    EXPECT_TRUE(ecdsa_verify(b, digest, sig));

    // A default-constructed (table-less) handle fails closed.
    const PreparedPublicKey empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_FALSE(ecdsa_verify(empty, digest, sig));
}

TEST(P256DiffTest, VerifyVariantsAgree) {
    // Valid signatures, corrupted signatures, and corrupted digests must
    // get identical verdicts from the fresh, prepared, and generic-ladder
    // verify entry points.
    Rng rng(0x5EED000B);
    for (std::size_t i = 0; i < 256; ++i) {
        const PrivateKey key = PrivateKey::generate(rng.bytes(32));
        const PublicKey pub = key.public_key();
        const PreparedPublicKey prepared(pub);
        const Sha256Digest digest = Sha256::digest(rng.bytes(1 + i % 64));
        Signature sig = ecdsa_sign(key, digest);

        EXPECT_TRUE(ecdsa_verify(pub, digest, sig)) << i;
        EXPECT_TRUE(ecdsa_verify(prepared, digest, sig)) << i;
        EXPECT_TRUE(ecdsa_verify_generic(pub, digest, sig)) << i;

        // Flip one signature bit: all three must reject.
        sig[i % sig.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));
        EXPECT_EQ(ecdsa_verify(pub, digest, sig), false) << i;
        EXPECT_EQ(ecdsa_verify(prepared, digest, sig),
                  ecdsa_verify_generic(pub, digest, sig))
            << i;
        sig[i % sig.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));

        // Wrong digest: same story.
        Sha256Digest wrong = digest;
        wrong[i % wrong.size()] ^= 0x40;
        EXPECT_EQ(ecdsa_verify(prepared, wrong, sig),
                  ecdsa_verify_generic(pub, wrong, sig))
            << i;
        EXPECT_FALSE(ecdsa_verify(prepared, wrong, sig)) << i;
    }
}

}  // namespace
}  // namespace upkit::crypto

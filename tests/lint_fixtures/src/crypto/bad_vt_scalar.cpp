// Fixture: variable-time scalar multiplication on a private scalar without
// the `public-scalar` annotation — must trip `vt-scalar-mul`.
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"

namespace upkit::crypto {

AffinePoint leak_public_key(const P256& curve, const U256& secret_d) {
    return *curve.mul_base(secret_d);
}

// The prepared single verify is variable-time too; a private scalar fed to
// it trips this rule, and secret-taint as a variable-time sink.
bool leak_via_prepared(const P256& curve, const PrivateKey& key, const P256::Precomputed& p,
                       const U256& r) {
    const U256 d = key.scalar();
    return curve.verify_prepared(d, d, p, r);
}

}  // namespace upkit::crypto

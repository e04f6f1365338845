// Fixture: a secret used as the exponent of Montgomery::pow, whose
// square-and-multiply schedule follows the exponent bits — must trip
// `secret-taint` at the variable-time sink pow().
#include "crypto/ecdsa.hpp"
#include "crypto/modular.hpp"

namespace upkit::crypto {

U256 leak_nonce_exponent(const Montgomery& fn, const U256& base, const PrivateKey& key,
                         const Sha256Digest& digest) {
    const U256 secret_e = rfc6979_nonce(key.scalar(), digest);
    return fn.pow(base, secret_e);
}

}  // namespace upkit::crypto

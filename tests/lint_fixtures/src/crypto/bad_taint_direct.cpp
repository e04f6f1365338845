// Fixture: a source call passed straight into a variable-time sink. No
// local carries the secret, so the call itself must taint the argument —
// must trip `secret-taint` at pow().
#include "crypto/ecdsa.hpp"
#include "crypto/modular.hpp"

namespace upkit::crypto {

U256 leak_key_exponent(const Montgomery& fn, const U256& base, const PrivateKey& key) {
    return fn.pow(base, key.scalar());
}

}  // namespace upkit::crypto

// Constant-time discipline primitives and the ctcheck annotation layer.
//
// Two halves share this header:
//
//  1. Branchless word primitives (masks, selects) that the hardened crypto
//     kernels are written against. A mask is all-ones or all-zeros; every
//     helper is a fixed sequence of ALU ops with no data-dependent branch
//     or memory index.
//
//  2. The ctcheck harness hooks, in the ctgrind lineage: secrets are marked
//     as poisoned memory so a sanitizer flags any secret-dependent branch
//     or secret-indexed load. Under MemorySanitizer (clang
//     -fsanitize=memory) poison() maps onto the MSan shadow and a
//     violation aborts the process. Without MSan the calls are no-ops and
//     the harness falls back to operation-trace equivalence: the group-op
//     kernels and the Fermat inversion's pow note each operation into a
//     global trace, and the ctcheck test asserts the trace is
//     bit-identical across different secrets — a variable-time kernel
//     (the generic ladder, the comb walk) produces secret-shaped traces
//     and is caught deterministically.
//
// declassify() is the explicit escape hatch for values that are public by
// protocol (the r and s halves of a signature, an accept/reject bit, the
// RFC 6979 candidate-rejection outcome). Each call site is an auditable
// claim that the value leaks nothing the protocol does not already reveal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(__has_feature)
#if __has_feature(memory_sanitizer)
#include <sanitizer/msan_interface.h>
#define UPKIT_CT_MSAN 1
#endif
#endif

namespace upkit::crypto::ct {

// ---- branchless word primitives ----------------------------------------

/// 0 -> 0, 1 -> all-ones. `bit` must be 0 or 1.
inline constexpr std::uint64_t mask_from_bit(std::uint64_t bit) {
    return 0 - (bit & 1);
}

/// 1 if x != 0 else 0, without branching.
inline constexpr std::uint64_t nonzero_bit(std::uint64_t x) {
    return (x | (0 - x)) >> 63;
}

/// All-ones if x == 0 else 0.
inline constexpr std::uint64_t is_zero_mask(std::uint64_t x) {
    return mask_from_bit(nonzero_bit(x) ^ 1);
}

/// All-ones if a == b else 0.
inline constexpr std::uint64_t eq_mask(std::uint64_t a, std::uint64_t b) {
    return is_zero_mask(a ^ b);
}

/// mask ? a : b. `mask` must be all-ones or all-zeros.
inline constexpr std::uint64_t select(std::uint64_t mask, std::uint64_t a,
                                      std::uint64_t b) {
    return b ^ (mask & (a ^ b));
}

// ---- secret poisoning (MSan shadow; no-op otherwise) --------------------

/// Marks `n` bytes as secret: under MSan any branch or index derived from
/// them aborts with a use-of-uninitialized-value report.
inline void poison(const void* p, std::size_t n) {
#ifdef UPKIT_CT_MSAN
    __msan_allocated_memory(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/// Declares `n` bytes public again (signature outputs, accept/reject bits).
inline void declassify(const void* p, std::size_t n) {
#ifdef UPKIT_CT_MSAN
    __msan_unpoison(const_cast<void*>(p), n);
#else
    (void)p;
    (void)n;
#endif
}

/// Pass-through declassification of a trivially copyable value, for use at
/// the exact point a derived value becomes public by protocol.
template <typename T>
inline T declassify_value(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    declassify(&v, sizeof v);
    return v;
}

/// RAII poison wrapper for harness inputs: private keys, nonces, HMAC-DRBG
/// seeds, ChaCha20/Poly1305 keys. Poisons on construction, zeroizes (and
/// unpoisons, so the wipe itself is not flagged) on destruction.
template <typename T>
class Secret {
public:
    static_assert(std::is_trivially_copyable_v<T>);

    explicit Secret(const T& v) : v_(v) { poison(&v_, sizeof(T)); }
    ~Secret() {
        declassify(&v_, sizeof(T));
        std::memset(static_cast<void*>(&v_), 0, sizeof(T));
    }

    Secret(const Secret&) = delete;
    Secret& operator=(const Secret&) = delete;

    const T& ref() const { return v_; }
    T& ref() { return v_; }

private:
    T v_;
};

// ---- operation-trace fallback -------------------------------------------

/// Tags for traced group operations (and the field steps of
/// Montgomery::pow). Values are part of the recorded trace only;
/// renumbering is safe.
enum : std::uint16_t {
    kTraceDbl = 1,        // Jacobian doubling (variable-time path)
    kTraceAdd = 2,        // full Jacobian addition
    kTraceMadd = 3,       // mixed addition (variable-time path)
    kTraceCtDbl = 4,      // branchless doubling (hardened path)
    kTraceCtMadd = 5,     // masked mixed addition (hardened path)
    kTraceCtSelect = 6,   // full-row constant-time table scan
    kTraceFieldSqr = 7,   // Montgomery::pow squaring step
    kTraceFieldMul = 8,   // Montgomery::pow multiply step
};

/// Cheap global gate checked inline on the hot paths; recording costs one
/// predictable branch per group op when disabled.
inline bool g_trace_enabled = false;

/// Out-of-line recorder (only reached while tracing).
void trace_record(std::uint16_t tag);

inline void trace_note(std::uint16_t tag) {
    if (g_trace_enabled) trace_record(tag);
}

/// Starts recording; any previous trace is discarded.
void trace_begin();

/// Stops recording and returns the operations seen since trace_begin().
std::vector<std::uint16_t> trace_take();

}  // namespace upkit::crypto::ct

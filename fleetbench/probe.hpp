// Host description, the frozen speed probe printed with every result, and
// the choice of CPUs a campaign runs on.
//
// The probe is a fixed kernel that never changes with the program under
// test: 4-limb (256-bit) multiply-accumulate rounds with carries, the same
// shape of work as the P-256 field arithmetic that dominates a campaign's
// host time. It is timed before and after the measured phases; a run whose
// probe reads slow landed in a slow period of the host. The figure is a
// diagnostic for reading results, never a compared metric.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace fleetbench {

/// Nanoseconds per round of the frozen kernel: median of `trials` timed
/// batches of `rounds` rounds each, after two untimed warm-up batches.
inline double probe_ns_per_round(int trials = 9, std::uint64_t rounds = 200000) {
    std::vector<double> samples;
    std::uint64_t sink = 0;
    for (int t = -2; t < trials; ++t) {
        std::uint64_t a[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                              0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
        std::uint64_t b[4] = {0x452821E638D01377ull, 0xBE5466CF34E90C6Cull,
                              0xC0AC29B7C97C50DDull, 0x3F84D5B5B5470917ull};
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < rounds; ++r) {
            std::uint64_t out[8] = {};
            for (int i = 0; i < 4; ++i) {
                unsigned __int128 carry = 0;
                for (int j = 0; j < 4; ++j) {
                    carry += static_cast<unsigned __int128>(a[i]) * b[j] + out[i + j];
                    out[i + j] = static_cast<std::uint64_t>(carry);
                    carry >>= 64;
                }
                out[i + 4] = static_cast<std::uint64_t>(carry);
            }
            for (int i = 0; i < 4; ++i) a[i] = out[i] ^ out[i + 4] ^ (r + i);
        }
        const auto t1 = std::chrono::steady_clock::now();
        sink ^= a[0] ^ a[3];
        if (t < 0) continue;
        samples.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                          static_cast<double>(rounds));
    }
    // Keep the kernel observable so it is not optimized away.
    asm volatile("" : : "r"(sink) : "memory");
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// Restricts this thread, and the threads it starts later, to the `count`
/// CPUs of the process's original affinity set on which a short probe runs
/// fastest right now. On a machine shared with other tenants a CPU whose
/// physical core is busy with someone else's work runs this code up to
/// twice as slowly, for tens of seconds at a time; picking the quietest
/// CPUs before each campaign keeps that out of the measurement. A no-op
/// where affinity cannot be read or set.
inline void pin_to_fastest_cpus(unsigned count) {
    static const cpu_set_t original = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
        return set;
    }();
    std::vector<std::pair<double, int>> speed;  // (ns per round, cpu)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &original)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
        speed.emplace_back(probe_ns_per_round(5, 20000), cpu);
    }
    if (speed.empty()) return;
    std::sort(speed.begin(), speed.end());
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    for (std::size_t i = 0; i < speed.size() && i < count; ++i) CPU_SET(speed[i].second, &chosen);
    sched_setaffinity(0, sizeof(chosen), &chosen);
}

inline std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

}  // namespace fleetbench

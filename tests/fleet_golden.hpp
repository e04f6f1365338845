// Pinned campaign outputs for the fleet engine tests.
//
// A golden is what one campaign produced when it was recorded: the report
// fingerprint, the trace stream's FingerprintSink value and event count, and
// the scheduler's event count. Every campaign that pins one uses
// uncalibrated device costs and a constant (or pinned measured-mode) server
// model, so the values are host-independent; every engine configuration —
// inline stepping and every shard count — must reproduce them exactly. That
// makes the goldens an oracle that shares no code with the engine under
// test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <source_location>

#include "core/fleet.hpp"
#include "sim/trace.hpp"

namespace upkit::testenv {

struct FleetGolden {
    std::uint64_t report_fp = 0;
    std::uint64_t trace_fp = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t events_processed = 0;

    bool operator==(const FleetGolden&) const = default;
};

/// Fails at the caller's line, printing the observed values in the same
/// literal form the call site pins them in.
inline void expect_golden(const core::CampaignReport& report,
                          const sim::FingerprintSink& trace, const FleetGolden& want,
                          std::source_location where = std::source_location::current()) {
    const FleetGolden got{report.fingerprint(), trace.fingerprint(), trace.events(),
                          report.events_processed};
    if (got == want) return;
    ADD_FAILURE_AT(where.file_name(), static_cast<int>(where.line()))
        << "campaign differs from its golden; observed {0x" << std::hex
        << got.report_fp << "ull, 0x" << got.trace_fp << "ull, " << std::dec
        << got.trace_events << ", " << got.events_processed << "}";
}

}  // namespace upkit::testenv

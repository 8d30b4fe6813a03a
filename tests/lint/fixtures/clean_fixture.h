// Clean fixture: near-miss patterns for every rule; must produce ZERO
// findings (asserted by lint_selftest.py). Guard matches path.
#ifndef MITHRIL_TESTS_LINT_FIXTURES_CLEAN_FIXTURE_H
#define MITHRIL_TESTS_LINT_FIXTURES_CLEAN_FIXTURE_H

#include <cstdint>
#include <memory>

#include "common/simtime.h"
#include "common/status.h"

namespace mithril {

// Defined in clean_fixture.cc; returns a value type, not Status.
uint64_t fixtureCount();

// Near-miss for cycle-to-time: a cycles identifier with additive
// arithmetic only stays in the cycle domain — legal everywhere.
inline uint64_t
addCycles(uint64_t busy_cycles, uint64_t stall_cycles)
{
    return busy_cycles + stall_cycles;
}

// The sanctioned conversion: cycles flow through SimTime.
inline double
fixtureSeconds(uint64_t cycles, double hz)
{
    return SimTime::cycles(cycles, hz).toSeconds();
}

} // namespace mithril

#endif // MITHRIL_TESTS_LINT_FIXTURES_CLEAN_FIXTURE_H

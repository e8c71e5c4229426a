// ccsched tests — the exact-rational referee for the maximum cycle ratio.
//
// The denominator sweep that computed iteration_bound() before Howard
// policy iteration replaced it, kept verbatim as the reference the
// shipped method is checked against.  For every denominator q up to
// min(total delay, |V| * max edge delay) it binary-searches the least p
// with no cycle of ratio above p/q, each probe a Bellman–Ford positive
// cycle test; the least such p/q over all q is exactly the bound.  Slow
// (pseudo-polynomial in the delays) and only safe while q*t and p*d fit
// in 64 bits, which every graph the tests hand it does.
#pragma once

#include "core/critical_cycle.hpp"
#include "core/csdfg.hpp"
#include "core/iteration_bound.hpp"

namespace ccs {

/// True iff some cycle of the graph with edge weight q*t(u) - p*d(e) is
/// strictly positive — i.e. the iteration bound exceeds p/q.
[[nodiscard]] bool has_cycle_ratio_above(const Csdfg& g, long long p,
                                         long long q);

/// The iteration bound by the denominator sweep.
[[nodiscard]] Rational referee_iteration_bound(const Csdfg& g);

/// critical_cycle() as it was computed from referee_iteration_bound():
/// the same tight-subgraph walk in 64-bit arithmetic.
[[nodiscard]] CycleWitness referee_critical_cycle(const Csdfg& g);

}  // namespace ccs

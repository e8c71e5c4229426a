// ccsched — the iteration bound of a cyclic data-flow graph.
//
// The iteration bound B(G) = max over cycles C of (sum of t over C) /
// (sum of d over C) is the fundamental throughput limit of a cyclic DFG: no
// schedule, on any number of processors with any communication system, can
// sustain one iteration per fewer than B(G) time units.  The benches report
// it as the architecture-independent floor against which cyclo-compaction's
// schedule lengths are judged.
#pragma once

#include <compare>
#include <string>

#include "core/csdfg.hpp"

namespace ccs {

/// An exact non-negative rational p/q in lowest terms.
struct Rational {
  long long num = 0;
  long long den = 1;

  [[nodiscard]] double value() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] friend std::strong_ordering operator<=>(const Rational& a,
                                                        const Rational& b) {
    // 128-bit cross products: num and den may each exceed 2^31.
    return __extension__(static_cast<__int128>(a.num) * b.den <=>
                         static_cast<__int128>(b.num) * a.den);
  }
  [[nodiscard]] friend bool operator==(const Rational& a, const Rational& b) {
    return (a <=> b) == std::strong_ordering::equal;
  }
};

/// Computes the iteration bound of `g` exactly.
///
/// Method: the bound is the maximum cycle ratio of the edge-weighted graph
/// with value(e) = t(source(e)) and cost(e) = d(e), computed per strongly
/// connected component that holds a cycle by Howard policy iteration
/// (Cochet-Terrasson et al. 1998; Dasdan 2004).  Each policy keeps one
/// out-edge per node; its cycles' ratios are kept as exact reduced
/// (sum t, sum d) pairs and compared by 128-bit cross-multiplication, so the
/// result is exact for any int32 times and delays.  No step enumerates
/// candidate denominators, so the work does not scale with the delay
/// values.  The denominator sweep this replaced (a Stern–Brocot search with
/// a Bellman–Ford test per probe) survives only as the test referee in
/// tests/cycle_ratio_referee.hpp.
///
/// Acyclic graphs have bound 0/1.  Throws GraphError if `g` is illegal (a
/// zero-delay cycle would make the bound infinite).
[[nodiscard]] Rational iteration_bound(const Csdfg& g);

}  // namespace ccs

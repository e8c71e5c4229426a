#include "analysis/rules.hpp"

#include <array>

namespace ccs {

namespace {

constexpr std::array<LintRule, 45> kRules{{
    {"CCS-P001", "syntax-error", Severity::kError,
     "A line of the graph file does not match any directive grammar.",
     "Use `graph <name>`, `node <name> <time>`, or `edge <from> <to> "
     "<delay> [volume]`; `#` starts a comment."},
    {"CCS-P002", "unknown-node", Severity::kError,
     "An edge references a node name that no node directive declares.",
     "Declare the node before the first edge that uses it, or fix the "
     "spelling."},
    {"CCS-P003", "misplaced-graph-directive", Severity::kError,
     "A graph directive is duplicated or appears after the first node.",
     "Keep exactly one `graph <name>` line and put it before every node."},
    {"CCS-G001", "zero-delay-cycle", Severity::kError,
     "A dependence cycle carries zero total delay, so an iteration would "
     "depend on its own future.",
     "Add at least one loop-carried delay (a register) somewhere on the "
     "cycle, or break the cycle."},
    {"CCS-G002", "zero-delay-self-loop", Severity::kError,
     "A node depends on itself within the same iteration, which is "
     "unsatisfiable.",
     "Give the self-loop a delay of at least 1 so it refers to a previous "
     "iteration."},
    {"CCS-G003", "non-positive-time", Severity::kError,
     "A node declares a computation time below 1 control step.",
     "Computation times t(v) must be >= 1; model free tasks with time 1."},
    {"CCS-G004", "non-positive-volume", Severity::kError,
     "An edge declares a data volume below 1.",
     "Data volumes c(e) must be >= 1; omit the volume field to default "
     "to 1."},
    {"CCS-G005", "negative-delay", Severity::kError,
     "An edge declares a negative loop-carried delay.",
     "Delays d(e) count registers and must be >= 0."},
    {"CCS-G006", "duplicate-edge", Severity::kWarning,
     "Two edges connect the same nodes with the same delay; their volumes "
     "do not merge and the duplicate only tightens constraints redundantly.",
     "Remove the duplicate, or combine the transfers into one edge with "
     "the summed volume."},
    {"CCS-G007", "isolated-node", Severity::kWarning,
     "A node has no incident edges; it constrains nothing and is likely a "
     "leftover or a typo.",
     "Connect the node to the dependence structure or delete it."},
    {"CCS-G008", "delay-starved-cycle", Severity::kWarning,
     "The critical cycle carries a single delay and its computation time "
     "reaches the critical path, so the recurrence serializes every "
     "iteration and no retiming or remapping can shorten the schedule.",
     "Deepen the cycle's delays (c-slow the loop) or shorten the tasks on "
     "the critical cycle."},
    {"CCS-G009", "horizon-overflow", Severity::kError,
     "The zero-delay critical path (the start-up schedule's ASAP/ALAP "
     "horizon) spans more control steps than a schedule table can index "
     "(2^31 - 1); the graph is refused rather than scheduled with "
     "overflowing arithmetic.",
     "Scale the node times down (a common divisor keeps every ratio), or "
     "split the long zero-delay chain with delays."},
    {"CCS-A001", "insufficient-processors", Severity::kWarning,
     "The zero-delay DAG offers more simultaneously ready tasks than the "
     "architecture has processors, so the schedule must serialize "
     "parallelism.",
     "Use a wider machine, or accept the serialization if throughput "
     "still meets the iteration bound."},
    {"CCS-A002", "oversized-communication", Severity::kWarning,
     "An edge's data volume is at least the projected schedule length, so "
     "even a single-hop transfer cannot complete within one iteration "
     "period; the endpoints are effectively pinned to one processor.",
     "Reduce the edge's volume, speed up the interconnect model, or keep "
     "both endpoints on the same processor."},
    {"CCS-A003", "speed-list-mismatch", Severity::kError,
     "The heterogeneous speed list does not match the architecture: wrong "
     "processor count or a factor below 1.",
     "Give exactly one integer slowdown factor >= 1 per processor."},
    {"CCS-S001", "schedule-syntax", Severity::kError,
     "A line of the schedule file does not parse, or a directive does not "
     "pair with the graph or architecture being certified.",
     "Use `schedule <length> <pes> [pipelined]`, `speeds ...`, `place "
     "<task> <pe> <cb>`, `retime <task> <r>`; place every task exactly "
     "once on an in-range processor of the certified architecture."},
    {"CCS-S002", "unplaced-task", Severity::kError,
     "A task of the graph has no place directive, so the cyclic schedule "
     "is incomplete.",
     "Add a `place` line for the task; every task executes exactly once "
     "per iteration of a static cyclic schedule."},
    {"CCS-S003", "out-of-table", Severity::kError,
     "A task's occupied steps [CB, CE] extend outside the declared table "
     "of length L.",
     "Start the task at step >= 1 and either move it earlier or declare a "
     "longer schedule length."},
    {"CCS-S004", "resource-conflict", Severity::kError,
     "Two tasks occupy the same processor at the same control step on a "
     "non-pipelined machine.",
     "Move one task to a free slot; a non-pipelined processor executes "
     "one task at a time."},
    {"CCS-S005", "issue-conflict", Severity::kError,
     "Two tasks issue in the same control step on the same pipelined "
     "processor.",
     "Stagger the issue steps; a pipelined processor issues at most one "
     "task per control step."},
    {"CCS-S006", "dependence-violation", Severity::kError,
     "An intra-iteration dependence breaks the master constraint "
     "CB(v) >= CE(u) + M + 1: the consumer starts before the producer's "
     "data can arrive.",
     "Start the consumer later, shorten the communication path, or "
     "co-locate the endpoints so M = 0."},
    {"CCS-S007", "psl-overrun", Severity::kError,
     "A loop-carried dependence cannot complete its communication within "
     "the declared cyclic length: CB(v) + k*L < CE(u) + M + 1 (Lemma "
     "4.3), so the declared length is below the projected schedule "
     "length.",
     "Pad the schedule to the recomputed minimum feasible length the "
     "certifier reports, or shorten the communication path."},
    {"CCS-S008", "illegal-retiming", Severity::kError,
     "The recorded accumulated retiming is not legal: some edge's "
     "un-retimed delay d(e) - r(u) + r(v) is negative, so no legal "
     "rotation sequence can have produced this graph from a legal "
     "original.",
     "Record the retiming of the actual rotation sequence; a rotation may "
     "only draw delays from edges that carry them (Lemma 4.1)."},
    {"CCS-S009", "non-monotone-length", Severity::kError,
     "A without-relaxation cyclo-compaction run reports a pass that "
     "lengthened the schedule, contradicting the monotone non-increasing "
     "guarantee of Theorem 4.4.",
     "Audit the rotate-remap pass that grew the table; without relaxation "
     "a pass that cannot keep the length must roll back instead."},
    {"CCS-S010", "claim-mismatch", Severity::kError,
     "A quantity claimed by the scheduler (best length, best pass, "
     "retimed delays, trace bookkeeping) disagrees with the value the "
     "certifier recomputes from first principles.",
     "Trust the recomputed value; the scheduler's bookkeeping is buggy or "
     "the artifact was edited after the run."},
    {"CCS-S011", "unfold-divergence", Severity::kError,
     "Unfolding the cyclic schedule into explicit iterations produced a "
     "flat schedule that violates the unfolded graph's constraints even "
     "though the cyclic table certified clean.",
     "This indicates a bug in the schedule tooling itself (table, "
     "unfolding transform, or validator); report it."},
    {"CCS-S012", "trace-divergence", Severity::kError,
     "Replaying the pipeline recomputed an event stream that differs from "
     "the recorded trace: the scheduler that wrote the trace behaved "
     "differently from the one replaying it.",
     "Diff the claimed and recomputed events at the reported line; either "
     "the trace was edited or the scheduler changed behaviour."},
    {"CCS-S013", "malformed-trace", Severity::kError,
     "A trace line is not a valid event object: bad JSON, a missing "
     "seq/kind field, or broken sequence numbering.",
     "Regenerate the trace with --trace; traces are JSON Lines with "
     "contiguous seq numbers starting at 0."},
    {"CCS-S014", "malformed-span", Severity::kError,
     "A profiler span event breaks the stream's structure: a scope that "
     "never terminates, a span_end with no matching span_begin or a "
     "mismatched name, an out-of-order timestamp on one thread, or a "
     "missing/negative thread tag.",
     "Regenerate the trace with --trace --profile; span_begin/span_end "
     "pairs must nest per thread with monotone ts_ns values."},
    {"CCS-F001", "fault-spec-syntax", Severity::kError,
     "A line of the fault spec does not match any directive grammar.",
     "Use `fail <pe> [@iter <n>]`, `link <peA> <peB> [@iter <n>]`, or "
     "`jitter <task> <+n|-n>`; `#` starts a comment and iterations are "
     "0-based."},
    {"CCS-F002", "fault-unknown-target", Severity::kError,
     "A fault directive names a target the graph or architecture does not "
     "have: a PE index out of range, a pair of PEs with no link between "
     "them, or an unknown task name.",
     "Name PEs p0..p<P-1> of the --arch machine, fail only links the "
     "topology actually has, and spell task names as the graph file "
     "declares them."},
    {"CCS-E001", "invalid-request", Severity::kError,
     "The solve request cannot be executed as given: an illegal graph, a "
     "malformed architecture or fault spec, or an unsupported option "
     "combination (ccs::Solver, docs/API.md).",
     "Fix the request field named in the message; the wording matches the "
     "exception the underlying component raised."},
    {"CCS-E002", "infeasible-request", Severity::kError,
     "The solve request is well-formed but provably has no certified "
     "answer — e.g. a repair request whose fault plan leaves no usable "
     "machine (ccs::Solver, docs/API.md).",
     "Relax the fault plan or the budgets, or provide a machine with more "
     "survivors; the message carries the infeasibility detail."},
    {"CCS-E003", "deadline-expired", Severity::kError,
     "The request's deadline_ms budget was already spent before any solve "
     "work started — the deadline was non-positive at admission, or the "
     "request aged out while queued (ccsched serve, docs/SERVE.md).",
     "Raise deadline_ms, lower the service load (shallower queue, more "
     "--jobs), or resubmit; the response carries no schedule by design."},
    {"CCS-B001", "bound-iteration", Severity::kNote,
     "Ceil'd iteration bound: no static cyclic schedule can be shorter "
     "than ceil(max over cycles of total time / total delay); the witness "
     "is a critical cycle attaining the ratio.",
     "Informational.  To lower this floor, shorten the recurrence on the "
     "witness cycle or deepen its delays (c-slowdown)."},
    {"CCS-B002", "bound-work-conservation", Severity::kNote,
     "Speed-aware work-conservation bound: the machine's processors, each "
     "at its own slowdown factor, cannot complete the graph's total "
     "computation in fewer control steps; also floors the schedule at the "
     "longest single task on the fastest processor.",
     "Informational.  Add or speed up processors, or shrink task times, "
     "to lower this floor."},
    {"CCS-B003", "bound-pipelined-issue", Severity::kNote,
     "Pipelined-issue bound: with pipelined processors every task still "
     "occupies one issue slot, so the schedule needs at least "
     "ceil(tasks / processors) control steps.",
     "Informational.  Add processors to lower this floor."},
    {"CCS-B004", "bound-critical-cycle-mapping", Severity::kNote,
     "Communication-aware critical-cycle bound: the critical cycle either "
     "runs on one processor (paying its serialized occupancy) or is split "
     "across processors (paying at least two cheapest inter-PE transfers "
     "per iteration window); the better case still floors the length.",
     "Informational.  Shorten the critical cycle, deepen its delays, or "
     "cheapen communication between processors to lower this floor."},
    {"CCS-B005", "bound-topology-cut", Severity::kNote,
     "Topology cut bound for THIS graph's delay placement: for a cut of "
     "the machine into two processor groups, the schedule either fits all "
     "work on one side or splits a dependence edge across processors and "
     "pays its cheapest transfer within the edge's delay window.  Not "
     "invariant under retiming — excluded from the portfolio composite.",
     "Informational.  Balance processor speeds across the cut or cheapen "
     "inter-group links to lower this floor."},
    {"CCS-B006", "bound-retiming-feasibility", Severity::kNote,
     "Retiming-feasibility bound: minimized over every legal retiming "
     "(d_r(e) >= 0), the zero-delay critical path still costs its "
     "serialized time on the fastest processor, and no prologue/epilogue "
     "trick can beat the best achievable clock period.",
     "Informational.  Pipeline the longest zero-delay chain by adding "
     "loop-carried delays to lower this floor."},
    {"CCS-S015", "schedule-beats-sound-bound", Severity::kError,
     "A schedule that passed first-principles certification is SHORTER "
     "than a claimed-sound static lower bound — the bound derivation or "
     "the certifier has a first-principles bug; pruning decisions made "
     "from this bound are unsound.",
     "File a bug: re-run `ccsched analyze` on the graph and machine, "
     "compare each CCS-B witness against the certified table, and fix "
     "whichever derivation is wrong before trusting portfolio pruning."},
    {"CCS-S016", "cached-translation-uncertified", Severity::kError,
     "A schedule served from the canonical solve cache, translated back "
     "through the inverse permutation witness, failed first-principles "
     "re-certification — the cached entry, the witness, or the translation "
     "is corrupt; the hit was discarded.",
     "File a bug: the solve falls back to a cold run automatically, but a "
     "failing translation means the canonical labeling or the cache "
     "storage violated its invariants.  Re-run `ccsched fingerprint` on "
     "both submissions and compare the witnesses."},
    {"CCS-N001", "isomorphic-duplicate-workload", Severity::kWarning,
     "Two workloads in the corpus are attribute-isomorphic: identical "
     "node times, edge delays, and data volumes up to a renaming of the "
     "tasks — every analysis and schedule of one applies verbatim to the "
     "other through the permutation witness.",
     "Deduplicate the corpus (keep one copy and reference it), or "
     "annotate why both copies exist (e.g. a file mirror of a library "
     "workload kept for CLI round-trip tests)."},
    {"CCS-N002", "nontrivial-automorphism-group", Severity::kNote,
     "The graph has nontrivial attribute-preserving automorphisms: "
     "interchangeable tasks make portfolio attempts explore mirrored "
     "placements that differ only by a renaming.",
     "Informational.  The orbit partition in the message lists the "
     "interchangeable task groups; symmetry-aware search may pin one "
     "representative per orbit to skip the duplicate work."},
    {"CCS-N003", "fingerprint-collision", Severity::kError,
     "Two non-isomorphic graphs share a 128-bit canonical fingerprint — "
     "a hash collision that equality-by-fingerprint consumers (the solve "
     "cache, corpus dedup) must never trust silently.",
     "Report the colliding pair.  Every consumer in this repository "
     "verifies candidate matches by exact canonical-form comparison, so "
     "a collision degrades to a cache miss rather than a wrong answer."},
}};

}  // namespace

std::span<const LintRule> all_rules() { return kRules; }

const LintRule* find_rule(std::string_view code) {
  for (const LintRule& r : kRules)
    if (r.code == code) return &r;
  return nullptr;
}

std::size_t rule_index(std::string_view code) {
  for (std::size_t i = 0; i < kRules.size(); ++i)
    if (kRules[i].code == code) return i;
  return kRules.size();
}

}  // namespace ccs

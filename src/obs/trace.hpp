// ccsched — structured event tracing for the scheduling pipeline.
//
// The cyclo-compaction loop (rotate -> remap -> PSL check) makes thousands
// of small decisions per run; this tracer turns them into a stream of typed
// events serialized as JSON Lines (one object per line).  Consumers replay
// the stream to answer "why did pass 7 stall?" or "which AN bound pushed
// task F off processor 2?" without re-running the scheduler under a
// debugger.
//
// Design rules:
//  * Zero overhead when disabled.  A default-constructed Tracer has no sink
//    (the null sink); every emit is a single-branch no-op, and the
//    instrumented call sites additionally gate any event-only computation on
//    Tracer::enabled() / ObsContext::tracing().
//  * Events are plain structs with value semantics — tests construct and
//    inspect them directly; the JSON encoding is an output detail.
//  * Node/processor identifiers are raw indices (std::size_t), matching
//    NodeId/PeId, so the layer has no dependency on src/core or src/arch.
//  * Events carry a monotonically increasing sequence number ("seq").
//    Low-level events (remap decisions, PSL checks) carry no pass field;
//    pass_start/pass_end events bracket them in the stream.
//
// The event schema is documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ccs {

/// Destination of serialized trace lines.  Implementations receive one
/// complete JSON object per call, without a trailing newline.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void write(std::string_view line) = 0;
};

/// Appends each line (plus '\n') to a std::ostream — the JSONL file sink.
class StreamSink final : public TraceSink {
public:
  /// Non-owning: `os` must outlive the sink.
  explicit StreamSink(std::ostream& os) : os_(os) {}
  void write(std::string_view line) override;

private:
  std::ostream& os_;
};

/// Collects lines in memory; the test-friendly sink.
class VectorSink final : public TraceSink {
public:
  void write(std::string_view line) override { lines_.emplace_back(line); }
  [[nodiscard]] const std::vector<std::string>& lines() const noexcept {
    return lines_;
  }

private:
  std::vector<std::string> lines_;
};

// --- Typed events -----------------------------------------------------------

/// A rotate-remap pass begins; `length` is the table length entering it.
struct PassStartEvent {
  int pass = 0;  ///< 1-based pass number.
  int length = 0;
};

/// The rotation deallocated the first row.
struct RotationEvent {
  int pass = 0;
  std::vector<std::size_t> rotated;  ///< Node ids freed by the rotation.
};

/// The remapper starts an attempt at one target length.
struct RemapTargetEvent {
  int target = 0;
  bool relaxed = false;  ///< Target exceeds the pre-pass length.
};

/// One per-node placement decision inside a remap attempt.
struct RemapDecisionEvent {
  std::size_t node = 0;
  bool accepted = false;
  std::size_t pe = 0;     ///< Chosen processor (accepted only).
  int cb = 0;             ///< Chosen start step (accepted only).
  int an = 0;             ///< Anticipation bound AN(v, pe) at the slot.
  int latest = 0;         ///< Successor-side latest start at the slot.
  int psl = 0;            ///< PSL bound implied by v's loop-carried edges.
  int slots_scanned = 0;  ///< Candidate processors examined.
  std::string reason;     ///< "placed" or "no-feasible-slot".
};

/// The PSL check after a complete placement.  `needed` < 0 flags an
/// intra-iteration violation (no length works); otherwise the table is
/// padded to max(occupied, needed) = `length`.
struct PslPadEvent {
  int needed = 0;
  int length = 0;
};

/// A without-relaxation pass found no placement within the previous length
/// and is abandoned (the compaction loop ends).
struct RollbackEvent {
  int pass = 0;
  int length = 0;  ///< The length the schedule keeps.
  std::string reason;
};

/// A rotate-remap pass committed.
struct PassEndEvent {
  int pass = 0;
  int length = 0;        ///< Length after the pass.
  bool improved = false; ///< This pass set a new best.
  int best_length = 0;   ///< Best length so far (Q in the algorithm).
};

/// The start-up list scheduler finished.
struct StartupEvent {
  int length = 0;
  int control_steps = 0;  ///< Control steps scanned until completion.
};

/// One simulator run completed (static or self-timed mode).
struct SimRunEvent {
  std::string mode;  ///< "static" or "self-timed".
  long long iterations = 0;
  long long makespan = 0;
  double steady_ii = 0.0;
  long long messages = 0;
  long long late_arrivals = 0;
  bool deadlocked = false;
};

/// A fault from an injected FaultPlan (src/robust) bit during execution.
/// Emitted once per fault when it first takes effect, not per instance.
struct FaultEvent {
  std::string fault;          ///< "fail_stop", "link_down", or "jitter".
  std::size_t pe = 0;         ///< Failed PE (fail_stop) / link endpoint A.
  std::size_t pe2 = 0;        ///< Link endpoint B (link_down only).
  std::size_t node = 0;       ///< Jittered task (jitter only).
  long long iteration = 0;    ///< First affected iteration (0-based).
  std::string detail;         ///< Human-readable description.
};

/// One rung of the schedule-repair degradation ladder was attempted.
struct RepairEvent {
  std::string rung;    ///< "remap", "recompact_relax", "recompact_strict",
                       ///< "list_schedule", or "serial".
  bool success = false;  ///< The rung produced a certified schedule.
  int length = 0;        ///< Schedule length the rung achieved (success only).
  std::string detail;    ///< Why the rung failed / what it produced.
};

/// A run budget stopped cyclo-compaction before its pass limit: the driver
/// returns the best-so-far schedule.
struct BudgetEvent {
  std::string reason;   ///< "max-passes", "deadline", or "patience".
  int pass = 0;         ///< Pass at which the budget fired (1-based).
  int best_length = 0;  ///< Best length at the stop.
};

/// A portfolio attempt took its result, or the start of its run, from
/// another attempt's compaction run (engine/portfolio.hpp).  Without `fork`
/// the attempt ran nothing of its own: its result is the source run after
/// `pass` passes.  With `fork` the attempt's own without-relaxation run
/// continues from the source's with-relaxation run after `pass` passes —
/// the first pass where the two policies can decide differently — and its
/// own pass events follow.
struct AttemptDerivedEvent {
  int source = 0;       ///< Attempt index whose stream records that run.
  int pass = 0;         ///< Passes of that run taken over.
  int best_length = 0;  ///< The attempt's best length (at the fork: so far).
  std::string reason;   ///< The attempt's stop reason ("" = ran out, fork).
  bool fork = false;    ///< The attempt's own run continues from here.
};

/// A profiler span opened (obs/span.hpp).  Emitted only when a span
/// profiler is active alongside the tracer; timestamps are monotonic
/// nanoseconds from the process profiling epoch, so these events are
/// excluded from deterministic replay (analysis/certify.cpp).
struct SpanBeginEvent {
  std::string name;
  int tid = 0;    ///< span_thread_index() of the opening thread.
  int depth = 0;  ///< Nesting depth on that thread.
  std::uint64_t ts_ns = 0;
};

/// The matching span closed.  `ts_ns` is the close timestamp; `dur_ns` the
/// wall time of the whole scope.
struct SpanEndEvent {
  std::string name;
  int tid = 0;
  int depth = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

// --- Tracer -----------------------------------------------------------------

/// Serializes typed events to a sink as JSON Lines.  Default-constructed
/// tracers are disabled (the null sink): emit() returns immediately and
/// nothing is counted.
class Tracer {
public:
  Tracer() = default;
  /// Non-owning: `sink` must outlive the tracer.
  explicit Tracer(TraceSink* sink) : sink_(sink) {}
  /// Continues a stream that already holds `first_seq` events: the first
  /// event written gets seq `first_seq`.  The portfolio engine uses this to
  /// put an attempt's run after its start-up lines in one seq space.
  Tracer(TraceSink* sink, std::uint64_t first_seq)
      : sink_(sink), seq_(first_seq) {}

  [[nodiscard]] bool enabled() const noexcept { return sink_ != nullptr; }

  /// The seq the next event gets: the events written so far, plus any
  /// `first_seq` (0 for a disabled tracer).
  [[nodiscard]] std::uint64_t events_emitted() const noexcept { return seq_; }

  /// Tags every subsequent event line with an "attempt" field — the
  /// portfolio engine gives each worker its own tracer tagged with the
  /// attempt index, so merged streams stay attributable.  Negative clears
  /// the tag (the default; serial traces stay byte-identical to before).
  void set_attempt(int attempt) noexcept { attempt_ = attempt; }
  [[nodiscard]] int attempt() const noexcept { return attempt_; }

  /// Forwards an already-serialized event line to the sink unchanged.  The
  /// portfolio engine uses this to splice per-attempt sub-traces into the
  /// parent stream in deterministic attempt order; each spliced line keeps
  /// its own per-attempt seq.  Counts toward events_emitted().
  void emit_raw(std::string_view line);

  void emit(const PassStartEvent& e);
  void emit(const RotationEvent& e);
  void emit(const RemapTargetEvent& e);
  void emit(const RemapDecisionEvent& e);
  void emit(const PslPadEvent& e);
  void emit(const RollbackEvent& e);
  void emit(const PassEndEvent& e);
  void emit(const StartupEvent& e);
  void emit(const SimRunEvent& e);
  void emit(const FaultEvent& e);
  void emit(const RepairEvent& e);
  void emit(const BudgetEvent& e);
  void emit(const AttemptDerivedEvent& e);
  void emit(const SpanBeginEvent& e);
  void emit(const SpanEndEvent& e);

private:
  TraceSink* sink_ = nullptr;
  std::uint64_t seq_ = 0;
  int attempt_ = -1;
};

}  // namespace ccs

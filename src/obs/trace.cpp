#include "obs/trace.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace ccs {

void StreamSink::write(std::string_view line) { os_ << line << '\n'; }

namespace {

/// Every event line starts with the sequence number and its kind so stream
/// consumers can dispatch without a schema.  A non-negative attempt index
/// (portfolio workers) rides along right after the kind.
JsonWriter header(std::uint64_t seq, int attempt, std::string_view kind) {
  JsonWriter w;
  w.field("seq", static_cast<unsigned long long>(seq)).field("kind", kind);
  if (attempt >= 0) w.field("attempt", attempt);
  return w;
}

}  // namespace

void Tracer::emit_raw(std::string_view line) {
  if (!sink_) return;
  ++seq_;
  sink_->write(line);
}

void Tracer::emit(const PassStartEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "pass_start")
                   .field("pass", e.pass)
                   .field("length", e.length)
                   .close());
}

void Tracer::emit(const RotationEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "rotation")
                   .field("pass", e.pass)
                   .field("rotated", e.rotated)
                   .close());
}

void Tracer::emit(const RemapTargetEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "remap_target")
                   .field("target", e.target)
                   .field("relaxed", e.relaxed)
                   .close());
}

void Tracer::emit(const RemapDecisionEvent& e) {
  if (!sink_) return;
  JsonWriter w = header(seq_++, attempt_, "remap_decision");
  w.field("node", e.node).field("accepted", e.accepted);
  if (e.accepted) w.field("pe", e.pe).field("cb", e.cb);
  w.field("an", e.an)
      .field("latest", e.latest)
      .field("psl", e.psl)
      .field("slots_scanned", e.slots_scanned)
      .field("reason", e.reason);
  sink_->write(w.close());
}

void Tracer::emit(const PslPadEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "psl_pad")
                   .field("needed", e.needed)
                   .field("length", e.length)
                   .close());
}

void Tracer::emit(const RollbackEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "rollback")
                   .field("pass", e.pass)
                   .field("length", e.length)
                   .field("reason", e.reason)
                   .close());
}

void Tracer::emit(const PassEndEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "pass_end")
                   .field("pass", e.pass)
                   .field("length", e.length)
                   .field("improved", e.improved)
                   .field("best_length", e.best_length)
                   .close());
}

void Tracer::emit(const StartupEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "startup_done")
                   .field("length", e.length)
                   .field("control_steps", e.control_steps)
                   .close());
}

void Tracer::emit(const SimRunEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "sim_run")
                   .field("mode", e.mode)
                   .field("iterations", e.iterations)
                   .field("makespan", e.makespan)
                   .field("steady_ii", e.steady_ii)
                   .field("messages", e.messages)
                   .field("late_arrivals", e.late_arrivals)
                   .field("deadlocked", e.deadlocked)
                   .close());
}

void Tracer::emit(const FaultEvent& e) {
  if (!sink_) return;
  JsonWriter w = header(seq_++, attempt_, "fault");
  w.field("fault", e.fault);
  if (e.fault == "link_down") {
    w.field("pe", e.pe).field("pe2", e.pe2);
  } else if (e.fault == "jitter") {
    w.field("node", e.node);
  } else {
    w.field("pe", e.pe);
  }
  w.field("iteration", e.iteration).field("detail", e.detail);
  sink_->write(w.close());
}

void Tracer::emit(const RepairEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "repair_attempt")
                   .field("rung", e.rung)
                   .field("success", e.success)
                   .field("length", e.length)
                   .field("detail", e.detail)
                   .close());
}

void Tracer::emit(const AttemptDerivedEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "attempt_derived")
                   .field("source", e.source)
                   .field("pass", e.pass)
                   .field("best_length", e.best_length)
                   .field("reason", e.reason)
                   .field("fork", e.fork)
                   .close());
}

void Tracer::emit(const BudgetEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "budget_exhausted")
                   .field("reason", e.reason)
                   .field("pass", e.pass)
                   .field("best_length", e.best_length)
                   .close());
}

void Tracer::emit(const SpanBeginEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "span_begin")
                   .field("name", e.name)
                   .field("tid", e.tid)
                   .field("depth", e.depth)
                   .field("ts_ns", static_cast<unsigned long long>(e.ts_ns))
                   .close());
}

void Tracer::emit(const SpanEndEvent& e) {
  if (!sink_) return;
  sink_->write(header(seq_++, attempt_, "span_end")
                   .field("name", e.name)
                   .field("tid", e.tid)
                   .field("depth", e.depth)
                   .field("ts_ns", static_cast<unsigned long long>(e.ts_ns))
                   .field("dur_ns", static_cast<unsigned long long>(e.dur_ns))
                   .close());
}

}  // namespace ccs

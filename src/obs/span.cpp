#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"

namespace ccs {

namespace {

/// One epoch per process: every profiler timestamps against the same origin,
/// so per-worker record streams merge onto a single consistent timeline.
std::chrono::steady_clock::time_point process_epoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<SpanProfiler*> g_process_profiler{nullptr};

/// The calling thread's innermost open span (the nesting stack's top).
thread_local ObsSpan* tls_open_span = nullptr;

}  // namespace

int span_thread_index() noexcept {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::uint64_t span_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

std::uint64_t SpanHistogram::quantile_ns(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it, so p95 of two samples is the larger one.
  const double n = static_cast<double>(count_);
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * n)), 1, count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bins_[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      // Bucket b holds durations in [2^(b-1), 2^b - 1]; report the upper
      // bound, clamped by the true maximum.
      const std::uint64_t upper =
          b >= 63 ? max_ns_ : ((std::uint64_t{1} << b) - 1);
      return upper < max_ns_ ? upper : max_ns_;
    }
  }
  return max_ns_;
}

void SpanProfiler::record(SpanRecord&& r) {
  const std::scoped_lock lock(mu_);
  SpanStat& stat = stats_[r.name];
  stat.durations.add(r.dur_ns);
  stat.self_ns += r.self_ns;
  if (records_.size() < kMaxRecords) {
    records_.push_back(std::move(r));
  } else {
    ++dropped_;
  }
}

void SpanProfiler::fold(std::string_view name, const SpanHistogram& hist) {
  if (hist.count() == 0) return;
  const std::scoped_lock lock(mu_);
  const auto it = stats_.find(name);
  SpanStat& stat = it != stats_.end()
                       ? it->second
                       : stats_.emplace(std::string(name), SpanStat{})
                             .first->second;
  stat.durations.merge(hist);
  stat.self_ns += hist.total_ns();
}

void SpanProfiler::absorb(const SpanProfiler& other) {
  // Copy the other side out under its own lock first; never hold both.
  std::vector<SpanRecord> theirs = other.records();
  auto their_stats = other.stats();
  const std::size_t their_dropped = other.dropped();

  const std::scoped_lock lock(mu_);
  for (SpanRecord& r : theirs) {
    if (records_.size() < kMaxRecords) {
      records_.push_back(std::move(r));
    } else {
      ++dropped_;
    }
  }
  for (auto& [name, stat] : their_stats) {
    SpanStat& mine = stats_[name];
    mine.durations.merge(stat.durations);
    mine.self_ns += stat.self_ns;
  }
  dropped_ += their_dropped;
}

std::vector<SpanRecord> SpanProfiler::records() const {
  const std::scoped_lock lock(mu_);
  return records_;
}

std::map<std::string, SpanStat, std::less<>> SpanProfiler::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

std::size_t SpanProfiler::dropped() const {
  const std::scoped_lock lock(mu_);
  return dropped_;
}

bool SpanProfiler::empty() const {
  const std::scoped_lock lock(mu_);
  return records_.empty() && stats_.empty();
}

SpanProfiler* SpanProfiler::process() noexcept {
  return g_process_profiler.load(std::memory_order_acquire);
}

SpanProfiler* SpanProfiler::set_process(SpanProfiler* profiler) noexcept {
  return g_process_profiler.exchange(profiler, std::memory_order_acq_rel);
}

ObsSpan::ObsSpan(SpanProfiler* profiler, std::string_view name,
                 Tracer* tracer)
    : profiler_(profiler), tracer_(tracer) {
  if (profiler_ == nullptr) return;
  name_ = std::string(name);
  tid_ = span_thread_index();
  parent_ = tls_open_span;
  depth_ = parent_ != nullptr ? parent_->depth_ + 1 : 0;
  tls_open_span = this;
  start_ns_ = span_now_ns();
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->emit(SpanBeginEvent{name_, tid_, depth_, start_ns_});
}

ObsSpan::~ObsSpan() {
  if (profiler_ == nullptr) return;
  const std::uint64_t end_ns = span_now_ns();
  const std::uint64_t dur = end_ns - start_ns_;
  const std::uint64_t self = dur > child_ns_ ? dur - child_ns_ : 0;
  tls_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->emit(SpanEndEvent{name_, tid_, depth_, end_ns, dur});
  SpanRecord r;
  r.name = std::move(name_);
  r.start_ns = start_ns_;
  r.dur_ns = dur;
  r.self_ns = self;
  r.tid = tid_;
  r.attempt = profiler_->attempt();
  r.depth = depth_;
  profiler_->record(std::move(r));
}

}  // namespace ccs

#include "core/remap_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/validator.hpp"
#include "util/contracts.hpp"

namespace ccs {

namespace {

/// The worst communication cost any single edge of `g` can incur on a
/// machine with `num_pes` processors under `comm` — used to bound the
/// with-relaxation target search.
long long worst_edge_cost(const Csdfg& g, const CommModel& comm,
                          std::size_t num_pes) {
  long long worst = 0;
  std::size_t max_volume = 1;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    max_volume = std::max(max_volume, g.edge(e).volume);
  for (PeId a = 0; a < num_pes; ++a)
    for (PeId b = 0; b < num_pes; ++b)
      worst = std::max(worst, static_cast<long long>(comm.cost(a, b, max_volume)));
  return worst;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine lifecycle.
// ---------------------------------------------------------------------------

RemapEngine::RemapEngine(const Csdfg& g, const CommModel& comm)
    : comm_(&comm),
      base_graph_(g),
      num_nodes_(g.node_count()),
      graph_(g),
      retiming_(g.node_count()) {
  times_.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) times_[v] = g.node(v).time;
  // Volumes are immutable, so the edge -> volume-index map is build-once;
  // the flat cost table itself waits for bind() (it needs the PE count).
  vols_.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) vols_.push_back(g.edge(e).volume);
  std::sort(vols_.begin(), vols_.end());
  vols_.erase(std::unique(vols_.begin(), vols_.end()), vols_.end());
  evol_idx_.resize(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto it =
        std::lower_bound(vols_.begin(), vols_.end(), g.edge(e).volume);
    evol_idx_[e] = static_cast<std::size_t>(it - vols_.begin());
  }
  placed_.assign(num_nodes_, 0);
  wpe_.assign(num_nodes_, 0);
  wcb_.assign(num_nodes_, 0);
  an_static_.resize(num_nodes_);
  lat_static_.resize(num_nodes_);
  ncomm_static_.resize(num_nodes_);
  dyn_an_.resize(num_nodes_);
  dyn_lat_.resize(num_nodes_);
  dyn_comm_.resize(num_nodes_);
}

void RemapEngine::bind(const ScheduleTable& table) {
  CCS_EXPECTS(table.node_count() == num_nodes_);
  num_pes_ = table.num_pes();
  pipelined_ = table.pipelined_pes();
  speeds_.resize(num_pes_);
  for (PeId p = 0; p < num_pes_; ++p) speeds_[p] = table.pe_speed(p);
  // Flat cost table: one entry per (volume, from, to).  CommModel::cost is
  // not volume-linear in general (cut-through adds a per-hop term), so the
  // table is keyed by the distinct volumes actually present.
  cost_.assign(vols_.size() * num_pes_ * num_pes_, 0);
  for (std::size_t vi = 0; vi < vols_.size(); ++vi)
    for (PeId a = 0; a < num_pes_; ++a)
      for (PeId b = 0; b < num_pes_; ++b)
        cost_[(vi * num_pes_ + a) * num_pes_ + b] = comm_->cost(a, b, vols_[vi]);
  // Volumes and the machine are fixed for the run, so the relaxed target
  // cap's worst transfer is too.
  worst_edge_cost_ = worst_edge_cost(base_graph_, *comm_, num_pes_);
  // Reset the working graph to the construction delays.
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    if (graph_.edge(e).delay != base_graph_.edge(e).delay)
      graph_.set_delay(e, base_graph_.edge(e).delay);
  retiming_ = Retiming(num_nodes_);
  import_table(table);
  bound_ = true;
  commit();
}

void RemapEngine::import_table(const ScheduleTable& table) {
  origin_ = 0;
  length_ = table.length();
  bits_.assign(num_pes_, {});
  for (NodeId v = 0; v < num_nodes_; ++v) {
    placed_[v] = table.is_placed(v) ? 1 : 0;
    if (!placed_[v]) continue;
    const Placement p = table.placement(v);
    wpe_[v] = p.pe;
    wcb_[v] = p.cb;
    set_bits(p.pe, p.cb, span_of(v, p.pe), true);
  }
}

std::vector<NodeId> RemapEngine::rotate() {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(complete());
  CCS_EXPECTS(length_ >= 1);
  std::vector<NodeId> rotated;
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (placed_[v] != 0 && lcb(v) == 1) rotated.push_back(v);
  Retiming r(num_nodes_);
  for (NodeId v : rotated) r.add(v, 1);
  r.apply(graph_);  // throws GraphError atomically; engine untouched
  for (NodeId v : rotated) unplace_working(v);
  origin_ += 1;
  length_ -= 1;
  retiming_ = retiming_ + r;
  return rotated;
}

void RemapEngine::commit() {
  CCS_EXPECTS(bound_);
  committed_.placed = placed_;
  committed_.pe = wpe_;
  committed_.cb_phys = wcb_;
  committed_.bits = bits_;
  committed_.delays.resize(graph_.edge_count());
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    committed_.delays[e] = graph_.edge(e).delay;
  committed_.retiming = retiming_;
  committed_.origin = origin_;
  committed_.length = length_;
  committed_.stats = stats_;
}

void RemapEngine::rollback() {
  CCS_EXPECTS(bound_);
  placed_ = committed_.placed;
  wpe_ = committed_.pe;
  wcb_ = committed_.cb_phys;
  bits_ = committed_.bits;
  for (EdgeId e = 0; e < graph_.edge_count(); ++e)
    if (graph_.edge(e).delay != committed_.delays[e])
      graph_.set_delay(e, committed_.delays[e]);
  retiming_ = committed_.retiming;
  origin_ = committed_.origin;
  length_ = committed_.length;
}

void RemapEngine::revert() {
  rollback();
  stats_ = committed_.stats;
}

ScheduleTable RemapEngine::table() const {
  CCS_EXPECTS(bound_);
  ScheduleTable t(graph_, speeds_, pipelined_);
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (placed_[v] != 0) t.place(v, wpe_[v], lcb(v));
  t.set_length(length_);
  return t;
}

// ---------------------------------------------------------------------------
// Geometry.
// ---------------------------------------------------------------------------

int RemapEngine::span_of(NodeId v, PeId pe) const noexcept {
  return pipelined_ ? 1 : times_[v] * speeds_[pe];
}

int RemapEngine::time_on(NodeId v, PeId pe) const noexcept {
  return times_[v] * speeds_[pe];
}

int RemapEngine::lcb(NodeId v) const noexcept { return wcb_[v] - origin_; }

int RemapEngine::lce(NodeId v) const noexcept {
  return lcb(v) + time_on(v, wpe_[v]) - 1;
}

bool RemapEngine::complete() const noexcept {
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (placed_[v] == 0) return false;
  return true;
}

int RemapEngine::occupied_logical() const noexcept {
  int max_ce = 0;
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (placed_[v] != 0) max_ce = std::max(max_ce, lce(v));
  return max_ce;
}

CommCost RemapEngine::cost_at(std::size_t vol_idx, PeId from,
                              PeId to) const noexcept {
  return cost_[(vol_idx * num_pes_ + from) * num_pes_ + to];
}

void RemapEngine::set_bits(PeId pe, int cb_phys, int span, bool value) {
  CCS_ASSERT(cb_phys >= 1);
  auto& words = bits_[pe];
  const std::size_t first = static_cast<std::size_t>(cb_phys - 1);
  const std::size_t last = first + static_cast<std::size_t>(span) - 1;
  if (value && last / 64 >= words.size()) words.resize(last / 64 + 1, 0);
  for (std::size_t b = first; b <= last; ++b) {
    if (b / 64 >= words.size()) break;  // clearing past the tail: already 0
    const std::uint64_t mask = std::uint64_t{1} << (b % 64);
    if (value)
      words[b / 64] |= mask;
    else
      words[b / 64] &= ~mask;
  }
}

void RemapEngine::place_working(NodeId v, PeId pe, int cb_logical) {
  CCS_ASSERT(placed_[v] == 0);
  CCS_ASSERT(cb_logical >= 1);
  const int pcb = cb_logical + origin_;
  placed_[v] = 1;
  wpe_[v] = pe;
  wcb_[v] = pcb;
  set_bits(pe, pcb, span_of(v, pe), true);
  // Mirror ScheduleTable::place: length grows by the *execution* span even
  // on pipelined PEs (only the issue step is occupied, but CE counts).
  length_ = std::max(length_, cb_logical + time_on(v, pe) - 1);
}

void RemapEngine::unplace_working(NodeId v) {
  CCS_ASSERT(placed_[v] != 0);
  set_bits(wpe_[v], wcb_[v], span_of(v, wpe_[v]), false);
  placed_[v] = 0;
}

int RemapEngine::bitset_first_free(PeId pe, int earliest, int span,
                                   long long& probes) const {
  const auto& words = bits_[pe];
  const long long nbits = static_cast<long long>(words.size()) * 64;
  const long long start =
      static_cast<long long>(std::max(1, earliest)) + origin_ - 1;
  long long run_begin = start;  // candidate slot, as a bit index
  long long pos = start;        // next bit to examine
  for (;;) {
    if (pos - run_begin >= span || pos >= nbits) {
      // Either the free run is long enough, or everything past the stored
      // words is free — run_begin works either way.
      return static_cast<int>(run_begin + 1 - origin_);
    }
    ++probes;
    const std::uint64_t word = words[static_cast<std::size_t>(pos >> 6)];
    const int off = static_cast<int>(pos & 63);
    std::uint64_t window = word >> off;  // bit 0 of window == bit `pos`
    long long base = pos;
    while (window != 0) {
      const int z = std::countr_zero(window);
      const long long occ = base + z;  // next occupied bit
      if (occ - run_begin >= span)
        return static_cast<int>(run_begin + 1 - origin_);
      run_begin = occ + 1;
      base = occ + 1;
      const int shift = z + 1;
      window = shift >= 64 ? 0 : window >> shift;
    }
    pos = ((pos >> 6) + 1) << 6;  // continue at the next word boundary
  }
}

// ---------------------------------------------------------------------------
// Incremental caches.
// ---------------------------------------------------------------------------

std::vector<NodeId> RemapEngine::prepare(const std::vector<NodeId>& nodes,
                                         RemapSelection selection) {
  // Place long tasks first; ties broken by node id for determinism.
  std::vector<NodeId> order = nodes;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (times_[a] != times_[b]) return times_[a] > times_[b];
    return a < b;
  });
  constexpr long long kNegInf = std::numeric_limits<long long>::min() / 4;
  constexpr long long kPosInf = std::numeric_limits<long long>::max() / 4;
  const auto group = [this](std::vector<KGroup>& groups, long long k,
                            long long init) -> KGroup& {
    for (KGroup& gr : groups)
      if (gr.k == k) return gr;
    groups.push_back(KGroup{k, std::vector<long long>(num_pes_, init)});
    return groups.back();
  };
  for (NodeId v : nodes) {
    an_static_[v].clear();
    lat_static_[v].clear();
    ncomm_static_[v].assign(num_pes_, 0);
    dyn_an_[v].clear();
    dyn_lat_[v].clear();
    dyn_comm_[v].clear();
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.from == v) continue;          // self-loop
      if (placed_[e.from] == 0) continue; // rotated peer: handled as a delta
      const std::size_t vol = evol_idx_[eid];
      const long long head = lce(e.from) + 1;
      KGroup& gr = group(an_static_[v], e.delay, kNegInf);
      for (PeId p = 0; p < num_pes_; ++p) {
        const CommCost m = cost_at(vol, wpe_[e.from], p);
        gr.per_pe[p] = std::max(gr.per_pe[p], head + m);
        ncomm_static_[v][p] += m;
      }
    }
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.to == v) continue;
      if (placed_[e.to] == 0) continue;
      const std::size_t vol = evol_idx_[eid];
      KGroup* gr = selection == RemapSelection::kBidirectional
                       ? &group(lat_static_[v], e.delay, kPosInf)
                       : nullptr;
      for (PeId p = 0; p < num_pes_; ++p) {
        const CommCost m = cost_at(vol, p, wpe_[e.to]);
        if (gr != nullptr)
          gr->per_pe[p] = std::min(gr->per_pe[p], lcb(e.to) - m);
        ncomm_static_[v][p] += m;
      }
    }
  }
  return order;
}

long long RemapEngine::eval_an(NodeId v, PeId pe,
                               long long target) const noexcept {
  long long earliest = 1;
  for (const KGroup& gr : an_static_[v])
    earliest = std::max(earliest, gr.per_pe[pe] - gr.k * target);
  for (const DynAn& d : dyn_an_[v])
    earliest =
        std::max(earliest, d.base + cost_at(d.vol, d.pe, pe) - d.k * target);
  return earliest;
}

long long RemapEngine::eval_latest(NodeId v, PeId pe,
                                   long long target) const noexcept {
  const long long ton = time_on(v, pe);
  long long latest = target - ton + 1;
  for (const KGroup& gr : lat_static_[v])
    latest = std::min(latest, gr.per_pe[pe] + gr.k * target - ton);
  for (const DynLat& d : dyn_lat_[v])
    latest =
        std::min(latest, d.cb + d.k * target - cost_at(d.vol, pe, d.pe) - ton);
  latest = std::min<long long>(latest, std::numeric_limits<int>::max());
  latest = std::max<long long>(latest, std::numeric_limits<int>::min() + 1);
  return latest;
}

long long RemapEngine::eval_neighbor_comm(NodeId v, PeId pe) const noexcept {
  long long total = ncomm_static_[v][pe];
  for (const DynComm& d : dyn_comm_[v])
    total += d.incoming ? cost_at(d.vol, d.pe, pe) : cost_at(d.vol, pe, d.pe);
  return total;
}

int RemapEngine::node_psl_bound_soa(NodeId v, PeId pe, int cb) const {
  const int ce_v = cb + time_on(v, pe) - 1;
  long long bound = 0;
  const auto fold = [&bound](long long numerator, long long delay) {
    if (numerator <= 0) return;
    bound = std::max(bound, (numerator + delay - 1) / delay);
  };
  for (EdgeId eid : graph_.in_edges(v)) {
    const Edge& e = graph_.edge(eid);
    if (e.delay == 0) continue;
    if (e.from == v) {
      fold(ce_v + 1 - cb, e.delay);  // self-loop: M(pe, pe) = 0
    } else if (placed_[e.from] != 0) {
      fold(lce(e.from) + cost_at(evol_idx_[eid], wpe_[e.from], pe) + 1 - cb,
           e.delay);
    }
  }
  for (EdgeId eid : graph_.out_edges(v)) {
    const Edge& e = graph_.edge(eid);
    if (e.delay == 0 || e.to == v) continue;
    if (placed_[e.to] != 0)
      fold(ce_v + cost_at(evol_idx_[eid], pe, wpe_[e.to]) + 1 - lcb(e.to),
           e.delay);
  }
  return static_cast<int>(
      std::min<long long>(bound, std::numeric_limits<int>::max()));
}

int RemapEngine::min_feasible_soa() const {
  // Mirror of min_feasible_length (Lemma 4.3) over the SoA state.
  long long needed = occupied_logical();
  for (EdgeId eid = 0; eid < graph_.edge_count(); ++eid) {
    const Edge& e = graph_.edge(eid);
    const long long ce_u = lce(e.from);
    const long long cb_v = lcb(e.to);
    const long long m = cost_at(evol_idx_[eid], wpe_[e.from], wpe_[e.to]);
    const long long slack = ce_u + m + 1 - cb_v;
    const long long k = e.delay;
    if (k == 0) {
      if (slack > 0) return -1;
    } else if (slack > 0) {
      needed = std::max(needed, (slack + k - 1) / k);
    }
  }
  CCS_ENSURES(needed <= std::numeric_limits<int>::max());
  return static_cast<int>(needed);
}

// ---------------------------------------------------------------------------
// Remapping.
// ---------------------------------------------------------------------------

std::optional<int> RemapEngine::remap(const std::vector<NodeId>& rotated,
                                      int previous_length, RemapPolicy policy,
                                      RemapSelection selection,
                                      const ObsContext& obs) {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(previous_length >= 1);
  const ScopedTimer timer(obs.metrics, "time.remap");
  const ObsSpan remap_span = obs.span("remap");
  // The static caches depend only on the post-rotation base, which every
  // failed or undone attempt restores, so one build serves every target.
  const std::vector<NodeId> order = prepare(rotated, selection);

  const int first_target = std::max(1, previous_length - 1);
  int last_target = previous_length;
  if (policy == RemapPolicy::kWithRelaxation) {
    // A generous sufficient target: the whole shifted table, every rotated
    // task serialized after it, and one worst-case transfer of slack.  If
    // even this fails, the input table was not a valid schedule.
    long long cap = previous_length + 1 + worst_edge_cost_;
    int max_speed = 1;
    for (PeId p = 0; p < num_pes_; ++p)
      max_speed = std::max(max_speed, speeds_[p]);
    for (NodeId v : rotated) cap += graph_.node(v).time * max_speed;
    last_target = static_cast<int>(
        std::min<long long>(cap, std::numeric_limits<int>::max() / 2));
  }

  for (int target = first_target; target <= last_target; ++target) {
    if (length_ > target) continue;
    const ObsSpan target_span = obs.span("remap.target");
    obs.count("remap.target_attempts");
    obs.emit(RemapTargetEvent{target, target > previous_length});
    const std::optional<int> length =
        place_prepared(order, target, selection, obs);
    if (!length) continue;
    if (policy == RemapPolicy::kWithoutRelaxation &&
        *length > previous_length) {
      // The placement succeeded but the PSL padding overshot the budget.
      obs.count("psl.rejections");
      undo_placement();
      continue;
    }
    return length;
  }
  return std::nullopt;
}

std::optional<int> RemapEngine::place(const std::vector<NodeId>& nodes,
                                      int target_length,
                                      RemapSelection selection,
                                      const ObsContext& obs) {
  CCS_EXPECTS(bound_);
  CCS_EXPECTS(static_cast<std::size_t>(std::count(
                  placed_.begin(), placed_.end(), 0)) == nodes.size());
  return place_prepared(prepare(nodes, selection), target_length, selection,
                        obs);
}

void RemapEngine::undo_placement() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it)
    unplace_working(*it);
  undo_.clear();
  origin_ = undo_origin_;
  length_ = undo_length_;
}

std::optional<int> RemapEngine::place_prepared(
    const std::vector<NodeId>& order, int target, RemapSelection selection,
    const ObsContext& obs) {
  undo_.clear();
  undo_origin_ = origin_;
  undo_length_ = length_;
  for (NodeId v : order) {
    dyn_an_[v].clear();
    dyn_lat_[v].clear();
    dyn_comm_[v].clear();
  }
  // Per-PE first-free memo, valid for the duration of one attempt.  Within
  // an attempt occupancy only ever fills, so first_free(pe, lo, s) is
  // monotone in lo and a cached answer (lo0 -> cb0 for span s) stays exact
  // for every query with the same span and lo in [lo0, cb0] until a
  // placement lands on that PE.  Memo hits answer with zero occupancy
  // probes, which is where most of the slots_scanned reduction comes from
  // on short schedules (one word already covers the whole table).
  struct FreeMemo {
    int lo = 0;
    int cb = -1;
    int span = -1;
  };
  std::vector<FreeMemo> free_memo(num_pes_);
  const auto memo_first_free = [&](PeId pe, int lo, int span,
                                   long long& probes) {
    FreeMemo& m = free_memo[pe];
    if (m.span == span && lo >= m.lo && lo <= m.cb) return m.cb;
    const int cb = bitset_first_free(pe, lo, span, probes);
    m = FreeMemo{lo, cb, span};
    return cb;
  };
  // Hot-loop tallies are accumulated locally and flushed once per attempt
  // so the per-slot cost with metrics enabled stays a register increment.
  // The per-evaluation AN histogram follows the same rule: a local
  // fixed-bucket accumulator, folded into the profiler once per attempt, so
  // profiling never takes a lock inside the slot scan.
  long long an_evaluations = 0;
  long long word_probes = 0;
  const bool profiled = obs.profiling();
  const ObsSpan an_span = obs.span("remap.an");
  SpanHistogram an_hist;
  const auto flush_tallies = [&] {
    if (profiled) obs.profiler->fold("an.eval", an_hist);
    stats_.an_evaluations += an_evaluations;
    stats_.an_cache_hits += an_evaluations;
    stats_.slots_scanned += word_probes;
    stats_.bitset_probes += word_probes;
    if (obs.metrics != nullptr) {
      obs.metrics->add("an.evaluations", an_evaluations);
      obs.metrics->add("remap.slots_scanned", word_probes);
      obs.metrics->add("remap.an_cache_hit", an_evaluations);
      obs.metrics->add("remap.bitset_probe", word_probes);
    }
  };

  for (NodeId v : order) {
    CCS_ASSERT(placed_[v] == 0);
    bool found = false;
    int best_cb = 0;
    long long best_comm = 0;
    PeId best_pe = 0;
    int best_lo = 0;
    int best_hi = 0;

    for (PeId pe = 0; pe < num_pes_; ++pe) {
      long long lo_bound;
      if (profiled) {
        const std::uint64_t t0 = span_now_ns();
        lo_bound = eval_an(v, pe, target);
        an_hist.add(span_now_ns() - t0);
      } else {
        lo_bound = eval_an(v, pe, target);
      }
      ++an_evaluations;
      CCS_ASSERT(lo_bound <= std::numeric_limits<int>::max());
      const int lo = static_cast<int>(lo_bound);
      // A slot on this PE starts at first_free(lo) >= lo; once a winner
      // with best_cb < lo exists this PE cannot beat it on the primary
      // key, and best_cb only ever decreases — skip the probes.
      if (found && lo > best_cb) continue;
      const int hi = selection == RemapSelection::kBidirectional
                         ? static_cast<int>(eval_latest(v, pe, target))
                         : target - time_on(v, pe) + 1;
      if (lo > hi) continue;
      const int cb = memo_first_free(pe, lo, span_of(v, pe), word_probes);
      if (cb > hi) continue;
      const long long cc = eval_neighbor_comm(v, pe);
      if (!found || cb < best_cb || (cb == best_cb && cc < best_comm)) {
        found = true;
        best_cb = cb;
        best_comm = cc;
        best_pe = pe;
        best_lo = lo;
        best_hi = hi;
      }
    }
    if (!found) {
      flush_tallies();
      if (obs.metrics != nullptr) obs.count("remap.placement_failures");
      if (obs.tracing()) {
        RemapDecisionEvent ev;
        ev.node = v;
        ev.accepted = false;
        ev.slots_scanned = static_cast<int>(num_pes_);
        ev.reason = "no-feasible-slot";
        obs.emit(ev);
      }
      undo_placement();
      return std::nullopt;
    }
    if (obs.tracing()) {
      RemapDecisionEvent ev;
      ev.node = v;
      ev.accepted = true;
      ev.pe = best_pe;
      ev.cb = best_cb;
      ev.an = best_lo;
      ev.latest = best_hi;
      ev.psl = node_psl_bound_soa(v, best_pe, best_cb);
      ev.slots_scanned = static_cast<int>(num_pes_);
      ev.reason = "placed";
      obs.emit(ev);
    }
    place_working(v, best_pe, best_cb);
    free_memo[best_pe] = FreeMemo{};  // occupancy changed on this PE only
    undo_.push_back(v);
    obs.count("remap.placements");
    // Delta updates: placing v changes the cached bounds of exactly the
    // unplaced endpoints of v's own edges — no other node's AN / latest /
    // comm tie-break can move (docs/ALGORITHM.md).
    const long long v_ce = lce(v);
    const long long v_cb = lcb(v);
    for (EdgeId eid : graph_.out_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.to == v || placed_[e.to] != 0) continue;
      dyn_an_[e.to].push_back(
          DynAn{v_ce + 1, e.delay, best_pe, evol_idx_[eid]});
      dyn_comm_[e.to].push_back(DynComm{best_pe, evol_idx_[eid], true});
    }
    for (EdgeId eid : graph_.in_edges(v)) {
      const Edge& e = graph_.edge(eid);
      if (e.from == v || placed_[e.from] != 0) continue;
      if (selection == RemapSelection::kBidirectional)
        dyn_lat_[e.from].push_back(
            DynLat{v_cb, e.delay, best_pe, evol_idx_[eid]});
      dyn_comm_[e.from].push_back(DynComm{best_pe, evol_idx_[eid], false});
    }
  }
  flush_tallies();

  // Leading compaction: with every task placed, shifting is just an
  // origin bump of (min CB - 1).
  length_ = std::max(length_, occupied_logical());
  if (num_nodes_ > 0) {
    int min_cb = std::numeric_limits<int>::max();
    for (NodeId v = 0; v < num_nodes_; ++v) min_cb = std::min(min_cb, lcb(v));
    const int removed = min_cb - 1;
    if (removed > 0) {
      origin_ += removed;
      length_ -= removed;
    }
  }

  // PSL padding: the smallest cyclic length satisfying every loop-carried
  // communication ("the algorithm will assign empty control steps to
  // compensate the communication requirements").
  const int needed = min_feasible_soa();
  obs.count("psl.evaluations");
  if (needed < 0) {
    // An intra-iteration constraint is broken — only reachable with
    // kAnticipationOnly, whose successor dependences are unchecked.
    obs.count("psl.rejections");
    obs.emit(PslPadEvent{needed, length_});
    undo_placement();
    return std::nullopt;
  }
  length_ = std::max(occupied_logical(), needed);
  obs.emit(PslPadEvent{needed, length_});
  return length_;
}

}  // namespace ccs

#include "rtv/lazy/refined_system.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace rtv {

namespace {

/// Gap word meaning "unbounded".
constexpr std::uint32_t kGapInf = RefinedSystem::kMaxGapCap;
/// Words before the codes: base, c, k, n.
constexpr std::size_t kHeader = 4;

/// The regions of a packed state (layout in refined_system.hpp).
struct Unpacked {
  explicit Unpacked(PackedState s)
      : codes(s.subspan(kHeader, s[1])),
        events(s.subspan(kHeader + s[1], s[2])),
        waves(s.subspan(kHeader + s[1] + s[2], s[2])),
        gaps(s.subspan(kHeader + s[1] + 2 * s[2],
                       std::size_t{s[3]} * s[3])),
        n(s[3]) {}
  PackedState codes, events, waves, gaps;
  std::size_t n;
};

Time decode_gap(std::uint32_t v) {
  return v == kGapInf ? kTimeInfinity : static_cast<std::int32_t>(v);
}

/// CSR rows of sorted, deduplicated events per state.
struct EventRows {
  std::vector<std::uint32_t> off{0};
  std::vector<EventId> ev;
  void close_row() {
    const auto begin = ev.begin() + off.back();
    std::sort(begin, ev.end());
    ev.erase(std::unique(begin, ev.end()), ev.end());
    off.push_back(static_cast<std::uint32_t>(ev.size()));
  }
};

}  // namespace

RefinedSystem::RefinedSystem(const TransitionSystem& base) : base_(&base) {
  EventRows rows;
  rows.off.reserve(base.num_states() + 1);
  for (std::size_t s = 0; s < base.num_states(); ++s) {
    for (const Transition& t :
         base.transitions_from(StateId(static_cast<StateId::underlying_type>(s))))
      rows.ev.push_back(t.event);
    rows.close_row();
  }
  enabled_off_ = std::move(rows.off);
  enabled_ev_ = std::move(rows.ev);
}

Time RefinedSystem::wave_gap(PackedState s, std::size_t i, std::size_t j) {
  const Unpacked u(s);
  return decode_gap(u.gaps[i * u.n + j]);
}

void RefinedSystem::add_observer(BanObserver obs) {
  assert(!obs.window.empty());
  first_code_.push_back(static_cast<std::uint32_t>(positions_.size()));
  for (std::size_t i = 0; i < obs.window.size(); ++i)
    positions_.push_back({obs.window[i], i + 1 == obs.window.size()});
  observers_.push_back(std::move(obs));
}

void RefinedSystem::enable_age_rule(bool on) {
  age_rule_ = on;
  if (on) {
    // Cap for gap entries: anything above the largest finite upper bound
    // can never influence a blocking decision.
    cap_ = 1;
    for (std::size_t i = 0; i < base_->num_events(); ++i) {
      const DelayInterval d =
          base_->delay(EventId(static_cast<EventId::underlying_type>(i)));
      if (d.upper_bounded()) cap_ = std::max<Time>(cap_, d.hi() + 1);
    }
  }
}

void RefinedSystem::set_chokes(std::span<const ChokeRecord> chokes) {
  if (chokes.empty()) return;
  std::vector<std::pair<StateId::underlying_type, EventId>> extra;
  extra.reserve(chokes.size());
  for (const ChokeRecord& c : chokes) extra.emplace_back(c.state.value(), c.event);
  std::sort(extra.begin(), extra.end());
  EventRows rows;
  rows.off.reserve(enabled_off_.size());
  auto it = extra.begin();
  for (std::size_t s = 0; s + 1 < enabled_off_.size(); ++s) {
    const auto row =
        pseudo_enabled(StateId(static_cast<StateId::underlying_type>(s)));
    rows.ev.insert(rows.ev.end(), row.begin(), row.end());
    for (; it != extra.end() && it->first == s; ++it) rows.ev.push_back(it->second);
    rows.close_row();
  }
  pseudo_off_ = std::move(rows.off);
  pseudo_ev_ = std::move(rows.ev);
}

std::span<const EventId> RefinedSystem::pseudo_enabled(StateId s) const {
  if (pseudo_off_.empty()) return enabled(s);
  return {pseudo_ev_.data() + pseudo_off_[s.value()],
          pseudo_ev_.data() + pseudo_off_[s.value() + 1]};
}

void RefinedSystem::initial(std::vector<std::uint32_t>& out) const {
  const StateId b = base_->initial();
  out.assign(kHeader, 0);
  out[0] = b.value();
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    const BanObserver& o = observers_[i];
    if (o.from_start || o.anchor_state == b) out.push_back(first_code_[i]);
  }
  std::sort(out.begin() + kHeader, out.end());
  out[1] = static_cast<std::uint32_t>(out.size() - kHeader);
  // Wave bookkeeping only matters once an ordering is active; the first
  // iteration explores the plain untimed product.
  if (age_rule_ && num_pairs_ > 0) {
    const std::span<const EventId> pending = pseudo_enabled(b);
    if (pending.empty()) return;
    out[2] = static_cast<std::uint32_t>(pending.size());
    out[3] = 1;  // one wave
    for (EventId e : pending) out.push_back(e.value());
    out.insert(out.end(), pending.size(), 0);
    out.push_back(encode_gap(0));
  }
}

std::uint32_t RefinedSystem::encode_gap(Time v) const {
  assert(gaps_in_range());
  // Extrapolation: bounds beyond the cap carry no extra information for
  // any blocking decision, so they are clamped (upper bounds round up to
  // "unbounded", lower bounds saturate).
  if (v >= cap_) return kGapInf;
  if (v < -cap_) v = -cap_;
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
}

bool RefinedSystem::activate_pair(EventId before, EventId after) {
  if (befores_.size() <= after.value()) befores_.resize(after.value() + 1);
  std::vector<EventId>& list = befores_[after.value()];
  if (std::find(list.begin(), list.end(), before) != list.end()) return false;
  list.push_back(before);
  ++num_pairs_;
  return true;
}

bool RefinedSystem::blocked_by_age(PackedState s, EventId e) const {
  if (e.value() >= befores_.size() || befores_[e.value()].empty()) return false;
  const std::vector<EventId>& befores = befores_[e.value()];
  const Unpacked u(s);
  const std::size_t k = u.events.size();
  std::size_t e_wave = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < k; ++i) {
    if (u.events[i] == e.value()) {
      e_wave = u.waves[i];
      break;
    }
  }
  if (e_wave == static_cast<std::size_t>(-1)) return false;
  const Time lo = base_->delay(e).lo();

  // An activated pair (x before e) blocks e when x is pending and e's
  // earliest firing provably exceeds x's deadline:
  //   lower(t(wave_e) - t(wave_x)) + lo(e) > hi(x).
  // In every consistent timing x then fires (or is disabled) strictly
  // first, so pruning e only removes timing-inconsistent runs.
  for (std::size_t i = 0; i < k; ++i) {
    const EventId x(u.events[i]);
    if (x == e) continue;
    if (std::find(befores.begin(), befores.end(), x) == befores.end()) continue;
    const DelayInterval dx = base_->delay(x);
    if (!dx.upper_bounded()) continue;
    const std::size_t w = u.waves[i];
    Time lower = 0;
    if (w != e_wave) {
      const std::uint32_t ub = u.gaps[w * u.n + e_wave];  // t(w) - t(e_wave) <= ub
      // Extrapolated ("unbounded") gaps carry no lower bound on
      // t(e_wave) - t(w).  Substituting -cap_ here would be unsound for
      // events whose *lower* bound exceeds the cap (cap_ only covers the
      // finite upper bounds): the true gap may be anywhere above cap_,
      // and the run where x fires late is exactly the failure.
      if (ub == kGapInf) continue;
      lower = -decode_gap(ub);
    }
    if (lower + lo > dx.hi()) return true;
  }
  return false;
}

bool RefinedSystem::blocked(PackedState s, EventId e) const {
  for (std::uint32_t c : Unpacked(s).codes) {
    if (positions_[c].last && positions_[c].event == e) return true;
  }
  return age_rule_ && num_pairs_ > 0 && blocked_by_age(s, e);
}

void RefinedSystem::advance_age(PackedState s, EventId fired, StateId succ,
                                std::vector<std::uint32_t>& out) const {
  const std::span<const EventId> enabled = pseudo_enabled(succ);
  const Unpacked u(s);
  const std::size_t k = u.events.size();
  const std::size_t n_old = u.n;

  std::size_t fired_wave = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (u.events[i] == fired.value()) {
      fired_wave = u.waves[i];
      break;
    }
  }

  // Working DBM over the old waves plus the firing instant W = index n_old,
  // in plain Time with kTimeInfinity for "unbounded".
  constexpr std::size_t kMaxN = kMaxWaves + 1;
  const std::size_t n = n_old + 1;
  assert(n <= kMaxN);
  std::array<Time, kMaxN * kMaxN> m;
  auto at = [&](std::size_t i, std::size_t j) -> Time& { return m[i * n + j]; };
  std::fill_n(m.begin(), n * n, kTimeInfinity);
  for (std::size_t i = 0; i < n_old; ++i)
    for (std::size_t j = 0; j < n_old; ++j)
      at(i, j) = decode_gap(u.gaps[i * n_old + j]);
  for (std::size_t i = 0; i < n; ++i) at(i, i) = 0;

  // The firing instant: within the fired event's delay window of its
  // enabling wave, no earlier than any existing instant, and no later than
  // any pending event's deadline (maximal progress).
  const DelayInterval df = base_->delay(fired);
  at(n_old, fired_wave) = std::min(at(n_old, fired_wave),
                                   df.upper_bounded() ? df.hi() : kTimeInfinity);
  at(fired_wave, n_old) = std::min(at(fired_wave, n_old), -df.lo());
  for (std::size_t j = 0; j < n_old; ++j)
    at(j, n_old) = std::min(at(j, n_old), Time{0});
  for (std::size_t i = 0; i < k; ++i) {
    const EventId x(u.events[i]);
    if (x == fired) continue;
    const DelayInterval dx = base_->delay(x);
    if (dx.upper_bounded())
      at(n_old, u.waves[i]) = std::min(at(n_old, u.waves[i]), dx.hi());
  }

  // Shortest-path closure.
  for (std::size_t kk = 0; kk < n; ++kk)
    for (std::size_t i = 0; i < n; ++i) {
      if (at(i, kk) >= kTimeInfinity) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (at(kk, j) >= kTimeInfinity) continue;
        const Time v = at(i, kk) + at(kk, j);
        if (v < at(i, j)) at(i, j) = v;
      }
    }

  // Survivors (pending entries still enabled, other than the fired one)
  // and the fresh wave (events newly enabled at instant W: the fired
  // event again, or events that were not pending).
  auto survives = [&](std::size_t i) {
    const EventId e(u.events[i]);
    return e != fired && std::binary_search(enabled.begin(), enabled.end(), e);
  };
  auto fresh = [&](EventId e) {
    return e == fired ||
           std::find(u.events.begin(), u.events.end(), e.value()) == u.events.end();
  };
  std::array<std::size_t, kMaxN> kept{};  // old wave indices with survivors
  std::size_t n_kept = 0, entries = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!survives(i)) continue;
    ++entries;
    if (std::find(kept.begin(), kept.begin() + n_kept, u.waves[i]) ==
        kept.begin() + n_kept)
      kept[n_kept++] = u.waves[i];
  }
  const std::size_t n_fresh =
      static_cast<std::size_t>(std::count_if(enabled.begin(), enabled.end(), fresh));
  entries += n_fresh;
  if (n_fresh > 0) kept[n_kept++] = n_old;  // the fresh wave instant

  // Bound the tracked waves: merge the oldest two into one pseudo-instant
  // whose bounds cover both (elementwise weaker), reassigning the older
  // wave's events.  Sound: every constraint stated about the merged
  // instant holds for both original instants.  After `merges` merges the
  // new wave 0 holds kept[merges], kept[merges - 1], ..., kept[0] (newest
  // first) and new wave a > 0 is kept[merges + a].
  std::size_t merges = 0;
  while (n_kept - merges > kMaxWaves) {
    const std::size_t w0 = kept[merges], w1 = kept[merges + 1];
    for (std::size_t j = 0; j < n; ++j) {
      at(w1, j) = std::max(at(w1, j), at(w0, j));
      at(j, w1) = std::max(at(j, w1), at(j, w0));
    }
    at(w1, w1) = 0;
    ++merges;
  }
  const std::size_t n_new = n_kept - merges;

  const std::size_t ev_at = out.size();
  const std::size_t gap_at = ev_at + 2 * entries;
  out.resize(gap_at + n_new * n_new);
  out[2] = static_cast<std::uint32_t>(entries);
  out[3] = static_cast<std::uint32_t>(n_new);
  std::size_t next = 0;
  auto emit = [&](std::uint32_t event, std::size_t wave) {
    out[ev_at + next] = event;
    out[ev_at + entries + next] = static_cast<std::uint32_t>(wave);
    ++next;
  };
  auto emit_source = [&](std::size_t src, std::size_t wave) {
    if (src == n_old) {
      for (EventId e : enabled)
        if (fresh(e)) emit(e.value(), wave);
    } else {
      for (std::size_t i = 0; i < k; ++i)
        if (u.waves[i] == src && survives(i)) emit(u.events[i], wave);
    }
  };
  if (n_new > 0)
    for (std::size_t r = merges + 1; r-- > 0;) emit_source(kept[r], 0);
  for (std::size_t a = 1; a < n_new; ++a) emit_source(kept[merges + a], a);

  for (std::size_t a = 0; a < n_new; ++a)
    for (std::size_t b = 0; b < n_new; ++b)
      out[gap_at + a * n_new + b] =
          encode_gap(a == b ? 0 : at(kept[merges + a], kept[merges + b]));
}

void RefinedSystem::advance(PackedState s, EventId e,
                            std::vector<std::uint32_t>& out) const {
  assert(!blocked(s, e));
  const auto succ = base_->successor(base_of(s), e);
  assert(succ.has_value());
  out.assign(kHeader, 0);
  out[0] = succ->value();
  for (std::uint32_t c : Unpacked(s).codes) {
    // Non-matching positions die: the run diverged from the window.
    if (positions_[c].event == e && !positions_[c].last) out.push_back(c + 1);
  }
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    const BanObserver& o = observers_[i];
    if (!o.from_start && o.anchor_state == *succ) out.push_back(first_code_[i]);
  }
  std::sort(out.begin() + kHeader, out.end());
  out.erase(std::unique(out.begin() + kHeader, out.end()), out.end());
  out[1] = static_cast<std::uint32_t>(out.size() - kHeader);
  if (age_rule_ && num_pairs_ > 0) advance_age(s, e, *succ, out);
}

}  // namespace rtv

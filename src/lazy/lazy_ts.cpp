#include "rtv/lazy/refined_system.hpp"

#include <algorithm>
#include <cassert>

#include "rtv/base/hash.hpp"

namespace rtv {

std::size_t RefinedStateHash::operator()(const RefinedState& s) const noexcept {
  std::size_t h = std::hash<StateId>()(s.base);
  for (std::uint32_t c : s.codes) h = hash_mix(h, c);
  for (std::uint16_t o : s.order) h = hash_mix(h, o);
  for (std::uint16_t g : s.gaps) h = hash_mix(h, g);
  return h;
}

namespace {

constexpr std::uint16_t kWaveStart = 0x8000;
constexpr std::uint16_t kIdMask = 0x7fff;

std::uint32_t code(std::size_t obs, std::uint32_t pos) {
  return static_cast<std::uint32_t>(obs << 16) | pos;
}
std::size_t code_obs(std::uint32_t c) { return c >> 16; }
std::uint32_t code_pos(std::uint32_t c) { return c & 0xffffu; }

/// Wave index of every entry of an order vector.
std::vector<std::size_t> wave_of_entries(const std::vector<std::uint16_t>& order) {
  std::vector<std::size_t> w(order.size());
  std::size_t wave = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] & kWaveStart) ++wave;
    w[i] = wave;
  }
  return w;
}

}  // namespace

void RefinedSystem::add_observer(BanObserver obs) {
  assert(!obs.window.empty());
  assert(obs.window.size() < 0x10000);
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
  for (const ChokeRecord& c : chokes)
    chokes_[c.state.value()].push_back(c.event);
  for (auto& [state, events] : chokes_) {
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());
  }
}

std::vector<EventId> RefinedSystem::pseudo_enabled(StateId s) const {
  std::vector<EventId> out = base_->enabled_events(s);
  const auto it = chokes_.find(s.value());
  if (it != chokes_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

std::vector<std::uint16_t> RefinedSystem::initial_order() const {
  std::vector<std::uint16_t> order;
  bool first = true;
  for (EventId e : pseudo_enabled(base_->initial())) {
    order.push_back(static_cast<std::uint16_t>(e.value()) |
                    (first ? kWaveStart : 0));
    first = false;
  }
  return order;
}

RefinedState RefinedSystem::initial() const {
  RefinedState s;
  s.base = base_->initial();
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    const BanObserver& o = observers_[i];
    if (o.from_start || o.anchor_state == s.base) {
      s.codes.push_back(code(i, 0));
    }
  }
  std::sort(s.codes.begin(), s.codes.end());
  // Wave bookkeeping only matters once an ordering is active; the first
  // iteration explores the plain untimed product.
  if (age_rule_ && !pairs_.empty()) {
    s.order = initial_order();
    if (!s.order.empty()) s.gaps.assign(1, encode_gap(0));  // one wave
  }
  return s;
}

namespace {
constexpr std::uint16_t kGapInf = 0xffff;
}  // namespace

Time RefinedSystem::decode_gap(std::uint16_t v) const {
  return static_cast<Time>(v) - cap_;
}

std::uint16_t RefinedSystem::encode_gap(Time v) const {
  // Extrapolation: bounds beyond the cap carry no extra information for
  // any blocking decision, so they are clamped (upper bounds round up to
  // "unbounded", lower bounds saturate).
  if (v >= cap_) return kGapInf;
  if (v < -cap_) v = -cap_;
  return static_cast<std::uint16_t>(v + cap_);
}

bool RefinedSystem::activate_pair(EventId before, EventId after) {
  const auto pair = std::make_pair(before, after);
  if (std::find(pairs_.begin(), pairs_.end(), pair) != pairs_.end())
    return false;
  pairs_.push_back(pair);
  return true;
}

bool RefinedSystem::blocked_by_age(const RefinedState& s, EventId e) const {
  if (pairs_.empty()) return false;
  const Time lo = base_->delay(e).lo();
  const std::vector<std::size_t> waves = wave_of_entries(s.order);
  const std::size_t n =
      s.order.empty() ? 0 : waves.back() + 1;
  std::size_t e_wave = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (EventId(s.order[i] & kIdMask) == e) {
      e_wave = waves[i];
      break;
    }
  }
  if (e_wave == static_cast<std::size_t>(-1)) return false;

  // An activated pair (x before e) blocks e when x is pending and e's
  // earliest firing provably exceeds x's deadline:
  //   lower(t(wave_e) - t(wave_x)) + lo(e) > hi(x).
  // In every consistent timing x then fires (or is disabled) strictly
  // first, so pruning e only removes timing-inconsistent runs.
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId x(s.order[i] & kIdMask);
    if (x == e) continue;
    if (std::find(pairs_.begin(), pairs_.end(), std::make_pair(x, e)) ==
        pairs_.end())
      continue;
    const DelayInterval dx = base_->delay(x);
    if (!dx.upper_bounded()) continue;
    const std::size_t w = waves[i];
    Time lower = 0;
    if (w != e_wave) {
      const std::uint16_t ub = s.gaps[w * n + e_wave];  // t(w) - t(e_wave) <= ub
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

bool RefinedSystem::blocked(const RefinedState& s, EventId e) const {
  if (age_rule_ && blocked_by_age(s, e)) return true;
  for (std::uint32_t c : s.codes) {
    const BanObserver& o = observers_[code_obs(c)];
    const std::uint32_t pos = code_pos(c);
    if (pos + 1 == o.window.size() && o.window[pos] == e) return true;
  }
  return false;
}

void RefinedSystem::advance_age(const RefinedState& s, EventId fired,
                                StateId succ, RefinedState* out) const {
  const std::vector<EventId> enabled = pseudo_enabled(succ);
  const std::vector<std::size_t> old_wave = wave_of_entries(s.order);
  const std::size_t n_old = s.order.empty() ? 0 : old_wave.back() + 1;

  std::size_t fired_wave = 0;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (EventId(s.order[i] & kIdMask) == fired) {
      fired_wave = old_wave[i];
      break;
    }
  }

  // Working DBM over the old waves plus the firing instant W = index n_old,
  // in plain Time with kTimeInfinity for "unbounded".
  const std::size_t n = n_old + 1;
  std::vector<Time> m(n * n, kTimeInfinity);
  auto at = [&](std::size_t i, std::size_t j) -> Time& { return m[i * n + j]; };
  for (std::size_t i = 0; i < n_old; ++i) {
    for (std::size_t j = 0; j < n_old; ++j) {
      const std::uint16_t v = s.gaps[i * n_old + j];
      at(i, j) = (v == kGapInf) ? kTimeInfinity : decode_gap(v);
    }
  }
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
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId x(s.order[i] & kIdMask);
    if (x == fired) continue;
    const DelayInterval dx = base_->delay(x);
    if (dx.upper_bounded())
      at(n_old, old_wave[i]) = std::min(at(n_old, old_wave[i]), dx.hi());
  }

  // Shortest-path closure.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      if (at(i, k) >= kTimeInfinity) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (at(k, j) >= kTimeInfinity) continue;
        const Time v = at(i, k) + at(k, j);
        if (v < at(i, j)) at(i, j) = v;
      }
    }

  // Survivors and the fresh wave (events newly enabled at instant W).
  struct Entry {
    EventId event;
    std::size_t wave;
  };
  std::vector<Entry> survivors;
  survivors.reserve(s.order.size());
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId e(s.order[i] & kIdMask);
    if (e == fired) continue;
    if (!std::binary_search(enabled.begin(), enabled.end(), e)) continue;
    survivors.push_back({e, old_wave[i]});
  }
  std::vector<EventId> fresh;
  fresh.reserve(enabled.size());
  for (EventId e : enabled) {
    const bool surviving =
        std::any_of(survivors.begin(), survivors.end(),
                    [&](const Entry& en) { return en.event == e; });
    if (!surviving) fresh.push_back(e);
  }

  std::vector<std::size_t> kept;  // old wave indices with survivors
  kept.reserve(survivors.size() + 1);
  for (const Entry& en : survivors) {
    if (std::find(kept.begin(), kept.end(), en.wave) == kept.end())
      kept.push_back(en.wave);
  }
  if (!fresh.empty()) kept.push_back(n_old);  // the fresh wave instant

  // Bound the tracked waves: merge the oldest two into one pseudo-instant
  // whose bounds cover both (elementwise weaker), reassigning the older
  // wave's events.  Sound: every constraint stated about the merged
  // instant holds for both original instants.
  std::vector<std::vector<std::size_t>> merged_into(kept.size());
  for (std::size_t a = 0; a < kept.size(); ++a) merged_into[a] = {kept[a]};
  while (kept.size() > kMaxWaves) {
    const std::size_t w0 = kept[0], w1 = kept[1];
    for (std::size_t j = 0; j < n; ++j) {
      at(w1, j) = std::max(at(w1, j), at(w0, j));
      at(j, w1) = std::max(at(j, w1), at(j, w0));
    }
    at(w1, w1) = 0;
    merged_into[1].insert(merged_into[1].end(), merged_into[0].begin(),
                          merged_into[0].end());
    merged_into.erase(merged_into.begin());
    kept.erase(kept.begin());
  }
  const std::size_t n_new = kept.size();

  out->order.clear();
  out->gaps.assign(n_new * n_new, kGapInf);
  for (std::size_t a = 0; a < n_new; ++a)
    for (std::size_t b = 0; b < n_new; ++b)
      out->gaps[a * n_new + b] = encode_gap(at(kept[a], kept[b]));
  for (std::size_t a = 0; a < n_new; ++a)
    out->gaps[a * n_new + a] = encode_gap(0);

  for (std::size_t a = 0; a < n_new; ++a) {
    bool first = true;
    for (std::size_t src : merged_into[a]) {
      if (src == n_old) {
        for (EventId e : fresh) {
          out->order.push_back(static_cast<std::uint16_t>(e.value()) |
                               (first ? kWaveStart : 0));
          first = false;
        }
      } else {
        for (const Entry& en : survivors) {
          if (en.wave != src) continue;
          out->order.push_back(static_cast<std::uint16_t>(en.event.value()) |
                               (first ? kWaveStart : 0));
          first = false;
        }
      }
    }
  }
}

RefinedState RefinedSystem::advance(const RefinedState& s, EventId e) const {
  assert(!blocked(s, e));
  const auto succ = base_->successor(s.base, e);
  assert(succ.has_value());
  RefinedState out;
  out.base = *succ;
  for (std::uint32_t c : s.codes) {
    const BanObserver& o = observers_[code_obs(c)];
    const std::uint32_t pos = code_pos(c);
    if (o.window[pos] == e && pos + 1 < o.window.size()) {
      out.codes.push_back(code(code_obs(c), pos + 1));
    }
    // Non-matching positions die: the run diverged from the window.
  }
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    const BanObserver& o = observers_[i];
    if (!o.from_start && o.anchor_state == out.base) {
      out.codes.push_back(code(i, 0));
    }
  }
  std::sort(out.codes.begin(), out.codes.end());
  out.codes.erase(std::unique(out.codes.begin(), out.codes.end()),
                  out.codes.end());
  if (age_rule_ && !pairs_.empty()) advance_age(s, e, out.base, &out);
  return out;
}

}  // namespace rtv

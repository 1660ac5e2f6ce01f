#include "rtv/verify/engine.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/verify/refinement.hpp"
#include "rtv/zone/discrete.hpp"
#include "rtv/zone/zone_graph.hpp"

namespace rtv {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kVerified:
      return "VERIFIED";
    case Verdict::kViolated:
      return "VIOLATED";
    case Verdict::kInconclusive:
      return "INCONCLUSIVE";
  }
  return "?";
}

Verdict verdict_from_string(std::string_view s, std::string_view context) {
  if (s == "VERIFIED") return Verdict::kVerified;
  if (s == "VIOLATED") return Verdict::kViolated;
  if (s == "INCONCLUSIVE") return Verdict::kInconclusive;
  throw std::runtime_error(std::string(context) + ": unknown verdict '" +
                           std::string(s) + "'");
}

std::vector<DerivedOrdering> RefineEngineStats::orderings() const {
  std::vector<DerivedOrdering> all;
  for (const RefinementRecord& r : records)
    all.insert(all.end(), r.orderings.begin(), r.orderings.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// ---------------------------------------------------------------------------
// RunClock
// ---------------------------------------------------------------------------

RunClock::RunClock(std::string_view engine, const RunBudget& budget,
                   ProgressFn progress, std::size_t progress_interval)
    : start_(std::chrono::steady_clock::now()),
      cancel_(budget.cancel),
      progress_(std::move(progress)),
      progress_interval_(progress_interval == 0 ? kDefaultProgressInterval
                                                : progress_interval),
      engine_(engine) {
  if (budget.max_seconds > 0.0) {
    has_deadline_ = true;
    deadline_seconds_ = budget.max_seconds;
  }
}

double RunClock::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

const char* RunClock::tick(std::size_t states_explored) {
  if (cancel_ && cancel_->cancelled()) return stop_reason::kCancelled;
  if (has_deadline_ && (ticks_ % 64) == 0 && seconds() > deadline_seconds_)
    return stop_reason::kDeadline;
  ++ticks_;
  if (progress_ && (ticks_ % progress_interval_) == 0) {
    EngineProgress p{engine_, states_explored, seconds(), nullptr};
    if (obs::metrics_enabled()) {
      // Snapshot cost is amortized over progress_interval explored states
      // (default 8192), so attaching it here stays off the per-state path.
      const obs::MetricsSnapshot snap = obs::snapshot();
      p.metrics = &snap;
      progress_(p);
    } else {
      progress_(p);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Built-in engines
// ---------------------------------------------------------------------------

namespace {

/// One flush per finished run: cheap enough to do unconditionally from the
/// engine adapters, so every caller (CLI, suite, serve, fuzz) gets the
/// per-engine counters without opting in.
void record_run_metrics(std::string_view engine, const EngineResult& r) {
  if (!obs::metrics_enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  const std::string label = "engine=\"" + std::string(engine) + '"';
  reg.counter("rtv_engine_runs_total", label, "Finished engine runs").inc();
  reg.counter("rtv_engine_states_explored_total", label,
              "Explored states in the engine's own unit")
      .add(r.states_explored);
  reg.counter("rtv_engine_verdicts_total",
              label + ",verdict=\"" + to_string(r.verdict) + '"',
              "Run verdict tally")
      .inc();
  reg.histogram("rtv_engine_run_seconds", obs::Histogram::time_buckets(),
                label, "Wall-clock seconds per run")
      .observe(r.seconds);
  if (const auto* st = std::get_if<RefineEngineStats>(&r.stats))
    reg.counter("rtv_engine_refinement_iterations_total", "",
                "Refinement loop iterations across runs")
        .add(static_cast<std::uint64_t>(
            st->refinements < 0 ? 0 : st->refinements));
}

/// The one way into every built-in engine: compose the request's modules
/// under the run's single RunClock (so composition counts against the
/// deadline and cancellation budget, and the run's seconds include it),
/// then hand the built system to the engine's `search`.  A truncated
/// composition has frontier states with no outgoing transitions; exploring
/// it would fabricate deadlocks (and mangle enabled sets), so no verdict
/// can be trusted: the run is Inconclusive without exploring.
template <class Stats, class Search>
EngineResult compose_and_search(std::string_view engine,
                                const EngineRequest& request,
                                std::size_t native_budget, Search search) {
  const std::size_t max_states =
      request.budget.max_states ? request.budget.max_states : native_budget;
  RunClock clock(engine, request.budget, request.progress,
                 request.progress_interval);
  ComposeOptions copts;
  copts.track_chokes = request.track_chokes;
  copts.max_states = max_states;
  copts.jobs = request.jobs;
  copts.stop = [&clock](std::size_t states) { return clock.tick(states); };
  const Composition comp = compose(request.modules, copts);

  EngineResult out;
  if (comp.truncated) {
    out.truncated_reason = comp.truncated_reason ? comp.truncated_reason
                                                 : stop_reason::kComposeBudget;
    Stats stats;
    if constexpr (std::is_same_v<Stats, RefineEngineStats>) {
      out.message = "composition truncated; verdict unavailable";
      stats.composed_states = comp.ts.num_states();
    }
    out.stats = std::move(stats);
  } else {
    out = search(comp, clock, max_states);
  }
  out.seconds = clock.seconds();
  record_run_metrics(engine, out);
  return out;
}

class RefineEngine final : public Engine {
 public:
  std::string_view name() const override { return "refine"; }
  std::string_view description() const override {
    return "relative-timing refinement (the paper's flow: untimed search + "
           "derived timing constraints)";
  }

  EngineResult run(const EngineRequest& request) const override {
    return refine_run(request);
  }
};

class ZoneEngine final : public Engine {
 public:
  std::string_view name() const override { return "zone"; }
  std::string_view description() const override {
    return "exact dense-time reachability over DBM zones (ground truth, "
           "exponential in clocks)";
  }

  EngineResult run(const EngineRequest& request) const override {
    obs::Span span("engine:zone", "engine");
    return compose_and_search<ZoneEngineStats>(
        name(), request, kDefaultMaxStates,
        [&](const Composition& comp, RunClock& clock, std::size_t max_zones) {
          return zone_explore(comp.ts, request.properties, comp.chokes,
                              max_zones, clock);
        });
  }
};

class DiscreteEngine final : public Engine {
 public:
  std::string_view name() const override { return "discrete"; }
  std::string_view description() const override {
    return "digitized reachability with integer ages (cost grows with the "
           "timing constants)";
  }

  EngineResult run(const EngineRequest& request) const override {
    obs::Span span("engine:discrete", "engine");
    return compose_and_search<DiscreteEngineStats>(
        name(), request, kDefaultMaxConfigs,
        [&](const Composition& comp, RunClock& clock, std::size_t max_states) {
          DiscreteVerifyOptions opts;
          opts.max_states = max_states;
          opts.jobs = request.jobs;
          opts.clock = &clock;
          return discrete_explore(comp.ts, request.properties, comp.chokes,
                                  opts);
        });
  }
};

}  // namespace

EngineResult refine_run(const EngineRequest& request,
                        const RefineOptions& options) {
  obs::Span span("engine:refine", "engine");
  return compose_and_search<RefineEngineStats>(
      "refine", request, kDefaultMaxStates,
      [&](const Composition& comp, RunClock& clock, std::size_t max_states) {
        return refine_explore(comp, request, clock, max_states, options);
      });
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void EngineRegistry::add(std::unique_ptr<Engine> engine) {
  for (auto& existing : engines_) {
    if (existing->name() == engine->name()) {
      existing = std::move(engine);
      return;
    }
  }
  engines_.push_back(std::move(engine));
}

const Engine* EngineRegistry::find(std::string_view name) const {
  for (const auto& e : engines_)
    if (e->name() == name) return e.get();
  return nullptr;
}

std::vector<const Engine*> EngineRegistry::engines() const {
  std::vector<const Engine*> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e.get());
  return out;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.emplace_back(e->name());
  return out;
}

namespace {

/// The one mutable handle on the process-wide registry.  Construction is a
/// C++11 magic static (thread-safe, exactly once); mutation afterwards
/// only happens through register_engine() under the registration mutex.
EngineRegistry& mutable_registry() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry;
    r->add(std::make_unique<RefineEngine>());
    r->add(std::make_unique<ZoneEngine>());
    r->add(std::make_unique<DiscreteEngine>());
    return r;
  }();
  return *registry;
}

}  // namespace

const EngineRegistry& engine_registry() { return mutable_registry(); }

void register_engine(std::unique_ptr<Engine> engine) {
  static std::mutex registration_mutex;
  std::lock_guard<std::mutex> lock(registration_mutex);
  mutable_registry().add(std::move(engine));
}

}  // namespace rtv

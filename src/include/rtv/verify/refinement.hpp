// The relative-timing verification flow (the paper's Fig. 3, as implemented
// by the transyt tool of [13]):
//
//   compose -> search failure -> timing-consistent? -> counterexample
//                     ^                |no
//                     |   extract window / derive constraints
//                     +---- refine (enabling-compatible product) ----+
//
// Iterates until no failure remains (verified, with back-annotated relative
// timing constraints), a timing-consistent failure is found (a true
// counterexample), or the iteration budget is exhausted (inconclusive).
//
// The "refine" engine (rtv/verify/engine.hpp) is refine_run() with the
// default RefineOptions; call the engine unless you need the ablation knobs
// of RefineOptions.
#pragma once

#include <cstddef>

#include "rtv/ts/compose.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv {

/// Refine-only settings over and above EngineRequest; the "refine" engine
/// runs the defaults.
struct RefineOptions {
  /// Apply the structural relative-timing rule (see RefinedSystem) from the
  /// first iteration.  Off reproduces the pure trace-by-trace flow (the
  /// ablation of bench/ablation_structural).
  bool structural_rule = true;
};

/// The "refine" engine's run under `options`: compose the request's
/// modules under one RunClock (a truncated composition is Inconclusive
/// without exploring), then run refine_explore() on the result.
EngineResult refine_run(const EngineRequest& request,
                        const RefineOptions& options = {});

/// The refinement loop over an already-built, untruncated composition.
/// `request` supplies the properties and the iteration cap
/// (max_refinements); `max_states` bounds each failure search; `clock` is
/// the run's clock, so the composition built under it counts against the
/// same deadline.
EngineResult refine_explore(const Composition& comp,
                            const EngineRequest& request, RunClock& clock,
                            std::size_t max_states,
                            const RefineOptions& options);

}  // namespace rtv

// The five verification experiments of Table 1 (Section 4.2):
//
//   1. A_in || A_out |= S                (assume: abstractions meet the spec)
//   2. A_in || I || OUT  <=  A_out       (guarantee A_out)
//   3. IN  || I || A_out <=  A_in        (guarantee A_in, induction base)
//   4. A_in || I || A_out <=  A_in       (A_in is a behavioural fixed point)
//   5. IN  || I || OUT  |= S             (1-stage pipeline, both ends pulsed)
//
// S ("every data item is acknowledged once and only once at every stage")
// is checked as deadlock-freedom of the closed control system plus the
// protocol conformance embodied by the environment/abstraction STGs (an
// extra or missing ACK chokes them), plus the CMOS correctness conditions
// (short-circuit invariants and persistency) whenever a transistor-level
// stage is present.
#pragma once

#include <cstddef>

#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::ipcmos {

struct ExperimentConfig {
  PipelineTiming timing;
  /// Per-obligation budget.  A zero state cap inherits the suite-wide
  /// SuiteOptions budget (e.g. the CLI's --max-states); deadlines come from
  /// SuiteOptions or Obligation::request().budget.
  struct Budget {
    std::size_t max_refinements = 500;
    std::size_t max_states = 0;
  } verify;
};

/// The five Table 1 obligations as a declarative batch, in the paper's
/// order and with its row labels ("1. Ain || Aout |= S", ...).  The suite
/// owns the pipeline modules, containment monitors and property bundles,
/// so it can be handed straight to run_suite() (obligations in parallel,
/// any engine selection, machine-readable report) or its obligations run
/// one at a time through Engine::run.
Suite table1_suite(const ExperimentConfig& cfg = {});

}  // namespace rtv::ipcmos

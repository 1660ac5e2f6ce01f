// Full IPCMOS verification: the paper's assume-guarantee plan.
//
// Verifies an n-stage IPCMOS pipeline for every n > 0 by running the five
// obligations of Section 4.2:
//   1. the abstractions meet the specification,
//   2. A_out is a sound abstraction of I || OUT,
//   3. A_in  is a sound abstraction of IN || I (induction base),
//   4. A_in  is a behavioural fixed point (induction step),
//   5. a single stage works between two pulse-driven environments.
//
//   $ ./ipcmos_verify
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/verify/report.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

int main() {
  // The stage is a 32-transistor netlist (21 + 7 inputs + 4 outputs),
  // reconstructed from the paper's stack-level description.
  const Netlist stage = make_stage_netlist("I1", linear_channels(1));
  std::printf("IPCMOS stage: %d transistors, %zu nodes, %zu stacks\n\n",
              stage.transistor_count(), stage.num_nodes(),
              stage.stacks().size());

  const Suite table1 = table1_suite();
  std::vector<EngineResult> results;
  std::vector<ExperimentRow> table;
  for (const Obligation& ob : table1.obligations()) {
    results.push_back(engine_registry().find("refine")->run(ob.request()));
    table.push_back(summarize(ob.name, results.back()));
  }
  std::printf("%s\n", format_table(table).c_str());

  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].verified()) {
      std::printf("FAILED %s: %s\n", table[i].name.c_str(),
                  results[i].message.c_str());
      ok = false;
    }
  }
  if (!ok) return 1;

  std::printf("pipelines of every length n > 0 are verified:\n"
              "  - steps 3 and 4 induct over the pipeline length,\n"
              "  - step 2 closes the output end,\n"
              "  - step 5 covers the single-stage case,\n"
              "  - step 1 ties the abstractions to the specification.\n\n");

  std::printf("sufficient relative timing constraints (from step 5):\n%s",
              format_constraints(results[4]).c_str());
  return 0;
}

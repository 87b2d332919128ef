// Private to mhs::sim: the per-level bodies behind sim::run. Only
// src/sim/*.cpp includes this header. Each body reads its level's group
// of SimRequest fields (see sim/run.h) and checks the pointers it needs.
#pragma once

#include "sim/run.h"

namespace mhs::sim::detail {

/// Streams *request.samples through the accelerator *request.impl.
CosimReport run_accelerator(const SimRequest& request);
/// Runs *request.network, process p in hardware iff (*request.in_hw)[p].
OsCosimResult run_process(const SimRequest& request);
/// Co-simulates *request.graph under *request.mapping (true = hardware).
SystemCosimResult run_system(const SimRequest& request);

}  // namespace mhs::sim::detail

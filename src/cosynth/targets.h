// Private to mhs::cosynth: the per-target bodies behind cosynth::run.
// Only src/cosynth/*.cpp includes this header. Each body reads its
// target's group of Request fields (see cosynth/run.h) and checks the
// pointers it needs. Bodies that call a traced layer get run()'s
// resolved trace sink and pass it down.
#pragma once

#include "cosynth/run.h"

namespace mhs::cosynth::detail {

/// Partitions *request.model with request.strategy; the all-SW latency
/// is the speedup baseline.
CoprocDesign run_coprocessor(const Request& request, obs::Registry* sink);
/// The feature subset maximizing weighted cycle savings (exact knapsack).
AsipDesign run_asip(const Request& request);
/// ISA features and co-processor offload searched jointly.
MixedDesign run_mixed(const Request& request, obs::Registry* sink);
/// Address allocation plus the better of the polling and IRQ drivers,
/// chosen by co-simulating both.
InterfaceDesign run_interface(const Request& request, obs::Registry* sink);
/// One variant per menu (exact branch and bound).
ImplSelection run_impl_select(const Request& request);
/// Beck-style periodic synthesis: utilization packing tightened until
/// response-time analysis passes on every PE. Every task needs a period.
MpDesign run_multiproc_periodic(const Request& request);

}  // namespace mhs::cosynth::detail

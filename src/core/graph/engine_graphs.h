#pragma once

#include <string>

#include "core/graph/graph.h"
#include "core/graph/nodes.h"

namespace adavp::core::graph {

/// The engine ring topologies, declarative graph specs over one
/// EngineContext. They are the only implementation of these engines:
/// run_detect_only, run_continuous and run_mpdt each build one and run it.
/// Builders only wire; the caller runs. The context must outlive the graph.
///
/// detect-only:  camera -> detector -> sink -(tick)-> camera
/// continuous:   camera -> detector -> sink            (no ring: camera
///               free-runs, paced purely by edge backpressure)
/// mpdt/adavp:   camera -> adapter -> detector -> catchup -> sink
///               -(tick)-> camera, plus catchup -(velocity)-> adapter
Graph build_detect_only_graph(EngineContext& ctx,
                              detect::ModelSetting setting);
Graph build_continuous_graph(EngineContext& ctx, detect::ModelSetting setting,
                             double cpu_feed_w);
Graph build_mpdt_graph(EngineContext& ctx, detect::ModelSetting setting,
                       const adapt::ModelAdapter* adapter,
                       SelectionPolicy selection);

/// Graphviz topology of a graph engine by name ("mpdt", "adavp",
/// "detect_only", "continuous"): its real executable wiring. Throws
/// GraphError for any other name, MARLIN, realtime and offload included;
/// they schedule over EngineContext without a graph.
std::string engine_topology_dot(const std::string& engine);

}  // namespace adavp::core::graph

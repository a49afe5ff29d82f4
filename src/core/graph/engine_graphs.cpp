#include "core/graph/engine_graphs.h"

#include <string>

#include "energy/power_model.h"
#include "video/scene.h"

namespace adavp::core::graph {

Graph build_detect_only_graph(EngineContext& ctx,
                              detect::ModelSetting setting) {
  Graph g;
  g.set_name("run_detect_only");
  auto& camera =
      g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/false,
                                       /*emit_detect_span=*/true);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kDetectOnly);
  g.connect(camera, "frame", detector, "frame");
  g.connect(detector, "event", sink, "event");
  g.connect(sink, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

Graph build_continuous_graph(EngineContext& ctx, detect::ModelSetting setting,
                             double cpu_feed_w) {
  Graph g;
  g.set_name("run_continuous");
  auto& camera = g.add<CameraSourceNode>(
      ctx, CameraSourceNode::Mode::kEveryFrame, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/true,
                                       /*emit_detect_span=*/true);
  auto& sink =
      g.add<SinkNode>(ctx, SinkNode::Mode::kContinuous, cpu_feed_w);
  // Bounded queues pace the free-running camera: the downstream-first
  // scheduler keeps at most one packet in flight per edge, and the bound
  // guarantees it even under a different scan policy.
  g.connect(camera, "frame", detector, "frame", /*capacity=*/2);
  g.connect(detector, "event", sink, "event", /*capacity=*/2);
  return g;
}

Graph build_mpdt_graph(EngineContext& ctx, detect::ModelSetting setting,
                       const adapt::ModelAdapter* adapter,
                       SelectionPolicy selection) {
  Graph g;
  g.set_name(adapter != nullptr ? "run_adavp" : "run_mpdt");
  auto& camera =
      g.add<CameraSourceNode>(ctx, CameraSourceNode::Mode::kFeedback, setting);
  auto& adapt_node = g.add<AdapterNode>(ctx, adapter, setting);
  auto& detector = g.add<DetectorNode>(ctx, /*continuous_power=*/false,
                                       /*emit_detect_span=*/false);
  auto& catchup = g.add<TrackerCatchupNode>(ctx, selection);
  auto& sink = g.add<SinkNode>(ctx, SinkNode::Mode::kMpdt);
  g.connect(camera, "frame", adapt_node, "frame");
  g.connect(adapt_node, "frame", detector, "frame");
  g.connect(detector, "event", catchup, "event");
  g.connect(catchup, "cycle", sink, "cycle");
  g.connect(catchup, "velocity", adapt_node, "velocity");
  g.connect(sink, "tick", camera, "tick");
  g.prime(camera, "tick", Packet::make<CycleTick>({}, 0.0));
  return g;
}

std::string engine_topology_dot(const std::string& engine) {
  // The graph engines export their *executable* wiring: build the real
  // graph over a throwaway one-frame context and dump it without running.
  video::SceneConfig config;
  config.width = 64;
  config.height = 64;
  config.frame_count = 1;
  const video::SyntheticVideo video(config);
  EngineContext ctx(video, {});
  const detect::ModelSetting setting = detect::ModelSetting::kYolov3_512;
  if (engine == "detect_only") {
    return build_detect_only_graph(ctx, setting).to_dot();
  }
  if (engine == "continuous") {
    return build_continuous_graph(ctx, setting,
                                  energy::PowerModel::cpu_feed_w(setting))
        .to_dot();
  }
  if (engine == "mpdt" || engine == "adavp") {
    static const adapt::ModelAdapter adapter{adapt::ThresholdSet{}};
    return build_mpdt_graph(ctx, setting,
                            engine == "adavp" ? &adapter : nullptr,
                            SelectionPolicy::kAdaptiveFraction)
        .to_dot();
  }
  throw GraphError("no graph topology for engine '" + engine +
                   "' (graph engines: mpdt, adavp, detect_only, continuous)");
}

}  // namespace adavp::core::graph

#include "layers.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using adavp::obs::SpanEvent;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

void LayerSplit::add_pass(const std::vector<SpanEvent>& events,
                          std::uint32_t caller_tid, double wall_ms) {
  ++passes_;
  wall_ms_ += wall_ms;

  // Group by thread, then order each thread's spans by begin time with the
  // outer span first on ties. ScopedSpan records the nesting depth at
  // begin, so a span's parent is the latest earlier span one level up.
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_thread;
  for (const SpanEvent& e : events) by_thread[e.tid].push_back(&e);

  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->begin_us != b->begin_us) return a->begin_us < b->begin_us;
                return a->depth < b->depth;
              });
    std::vector<double> child_ms(spans.size(), 0.0);
    // open[d] = index of the latest depth-d span; kNone where the parent
    // began before tracing was switched on.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanEvent& e = *spans[i];
      const double ms = static_cast<double>(e.end_us - e.begin_us) / 1000.0;
      if (e.depth > 0 && e.depth <= open.size() && open[e.depth - 1] != kNone) {
        child_ms[open[e.depth - 1]] += ms;
      }
      open.resize(e.depth, kNone);
      open.push_back(i);
      if (tid == caller_tid && e.depth == 0) caller_covered_ms_ += ms;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanEvent& e = *spans[i];
      const double ms = static_cast<double>(e.end_us - e.begin_us) / 1000.0;
      SpanTotals& t = spans_[{e.category, e.name}];
      ++t.calls;
      t.total_ms += ms;
      t.self_ms += std::max(0.0, ms - child_ms[i]);
      t.durations_ms.push_back(ms);
    }
  }
}

template <typename F>
void LayerSplit::for_each(const std::string& category, const std::string& name,
                          F f) const {
  for (const auto& [key, t] : spans_) {
    if (key.first == category && (name.empty() || key.second == name)) f(t);
  }
}

std::uint64_t LayerSplit::calls(const std::string& category,
                                const std::string& name) const {
  std::uint64_t sum = 0;
  for_each(category, name, [&](const SpanTotals& t) { sum += t.calls; });
  return sum;
}

double LayerSplit::self_ms(const std::string& category,
                           const std::string& name) const {
  double sum = 0.0;
  for_each(category, name, [&](const SpanTotals& t) { sum += t.self_ms; });
  return sum;
}

double LayerSplit::total_ms(const std::string& category,
                            const std::string& name) const {
  double sum = 0.0;
  for_each(category, name, [&](const SpanTotals& t) { sum += t.total_ms; });
  return sum;
}

double LayerSplit::percentile_ms(const std::string& category,
                                 const std::string& name, double q) const {
  const auto it = spans_.find({category, name});
  return it == spans_.end() ? 0.0 : percentile(it->second.durations_ms, q);
}

double LayerSplit::residual_frac() const {
  if (wall_ms_ <= 0.0) return 0.0;
  const double uncovered = std::max(0.0, wall_ms_ - caller_covered_ms_);
  return (uncovered + self_ms("bench", "bench.engine")) / wall_ms_;
}

}  // namespace perfbench

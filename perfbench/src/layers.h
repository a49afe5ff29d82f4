// Per-layer split of a traced run: self time, call counts and span
// durations, measured from outside by the spans the program already emits
// at its public boundaries plus the benchmark's own spans around the calls
// it makes (bench.engine, bench.score).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/span_tracer.h"

namespace perfbench {

/// Totals of one span (category, name) over every traced pass.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0.0;  ///< Σ span durations
  double self_ms = 0.0;   ///< Σ durations minus the time child spans cover
  std::vector<double> durations_ms;
};

class LayerSplit {
 public:
  using Key = std::pair<std::string, std::string>;  ///< (category, name)

  /// Adds one traced pass: the flushed spans of every thread, the id of the
  /// thread that drove the pass, and that pass's wall time.
  void add_pass(const std::vector<adavp::obs::SpanEvent>& events,
                std::uint32_t caller_tid, double wall_ms);

  int passes() const { return passes_; }
  const std::map<Key, SpanTotals>& spans() const { return spans_; }

  /// Σ over the spans of `category` named `name` (every name when empty);
  /// zero when nothing matched.
  std::uint64_t calls(const std::string& category, const std::string& name = "") const;
  double self_ms(const std::string& category, const std::string& name = "") const;
  double total_ms(const std::string& category, const std::string& name = "") const;
  /// Percentile `q` in [0, 1] of one span's durations (0 if absent).
  double percentile_ms(const std::string& category, const std::string& name,
                       double q) const;

  /// Share of the calling thread's traced wall that no layer span accounts
  /// for: time outside every top-level span plus the self time of the
  /// benchmark's own bench.engine wrapper. A span the program stops
  /// emitting moves its time here.
  double residual_frac() const;

 private:
  template <typename F>
  void for_each(const std::string& category, const std::string& name, F f) const;

  int passes_ = 0;
  double wall_ms_ = 0.0;
  double caller_covered_ms_ = 0.0;
  std::map<Key, SpanTotals> spans_;
};

/// Percentile `q` in [0, 1] of `values` by linear interpolation between
/// closest ranks (0 for an empty sample).
double percentile(std::vector<double> values, double q);

}  // namespace perfbench

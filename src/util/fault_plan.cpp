#include "util/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/rng.h"

namespace adavp::util {

namespace {

/// SplitMix64 finalizer — the same mixer Rng's reseed uses internally, good
/// enough to decorrelate (seed, name, rule, event) tuples.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return splitmix64_finalize(h);
}

std::uint64_t hash_name(std::string_view name) {
  // FNV-1a.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::optional<FaultKind> parse_kind(std::string_view word) {
  if (word == "latency") return FaultKind::kLatency;
  if (word == "stall") return FaultKind::kStall;
  if (word == "drop") return FaultKind::kDrop;
  if (word == "garbage") return FaultKind::kGarbage;
  if (word == "throw") return FaultKind::kThrow;
  if (word == "black") return FaultKind::kBlack;
  if (word == "corrupt") return FaultKind::kCorrupt;
  if (word == "hiccup") return FaultKind::kHiccup;
  if (word == "starve") return FaultKind::kStarve;
  if (word == "diverge") return FaultKind::kDiverge;
  if (word == "nan") return FaultKind::kNanFlow;
  if (word == "hang") return FaultKind::kHang;
  if (word == "crash") return FaultKind::kCrash;
  if (word == "wedge") return FaultKind::kWedge;
  return std::nullopt;
}

constexpr std::string_view kValidKinds =
    "latency, stall, drop, garbage, throw, black, corrupt, hiccup, starve, "
    "diverge, nan, hang, crash, wedge";

constexpr std::string_view kValidChannels =
    "detector, camera, tracker, gpu, stream, codec";

bool valid_channel_name(std::string_view name) {
  for (std::string_view channel :
       {"detector", "camera", "tracker", "gpu", "stream", "codec"}) {
    if (name == channel) return true;
  }
  return false;
}

/// Kind-specific magnitude default (see FaultKind docs).
double default_magnitude(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLatency: return 3.0;     // 3x the modeled latency
    case FaultKind::kStall: return 1000.0;    // +1 s
    case FaultKind::kGarbage: return 4.0;     // 4 random boxes
    case FaultKind::kCorrupt: return 64.0;    // +/-64 gray levels
    case FaultKind::kHiccup: return 100.0;    // 100 ms capture delay
    case FaultKind::kStarve: return 0.5;      // lose half the live features
    case FaultKind::kDiverge: return 8.0;     // 8 px of spurious drift
    case FaultKind::kHang: return 1.0;      // 1 hung attempt (one watchdog
                                            // budget before the retry lands)
    case FaultKind::kWedge: return 500.0;   // 500 ms of wedged time
    case FaultKind::kDrop:
    case FaultKind::kThrow:
    case FaultKind::kCrash:
    case FaultKind::kBlack:
    case FaultKind::kNanFlow: return 0.0;
  }
  return 0.0;
}

bool parse_double(std::string_view s, double* out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_int(std::string_view s, int* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool parse_rule(std::string_view text, FaultRule* rule, std::string* error) {
  // Tokenize on whitespace: first token is the kind, the rest key=value.
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  if (tokens.empty()) return fail(error, "empty fault rule");

  const std::optional<FaultKind> kind = parse_kind(tokens[0]);
  if (!kind.has_value()) {
    return fail(error, "unknown fault kind '" + std::string(tokens[0]) +
                           "' (valid: " + std::string(kValidKinds) + ")");
  }
  rule->kind = *kind;
  rule->magnitude = default_magnitude(*kind);

  int triggers = 0;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const std::size_t eq = tokens[t].find('=');
    if (eq == std::string_view::npos) {
      return fail(error,
                  "expected key=value, got '" + std::string(tokens[t]) + "'");
    }
    const std::string_view key = tokens[t].substr(0, eq);
    const std::string_view value = tokens[t].substr(eq + 1);
    if (key == "p") {
      if (!parse_double(value, &rule->probability) ||
          rule->probability < 0.0 || rule->probability > 1.0) {
        return fail(error, "bad probability '" + std::string(value) + "'");
      }
      ++triggers;
    } else if (key == "every") {
      if (!parse_int(value, &rule->every) || rule->every <= 0) {
        return fail(error, "bad every '" + std::string(value) + "'");
      }
      ++triggers;
    } else if (key == "at") {
      for (std::string_view item : split(value, ',')) {
        int index = 0;
        if (!parse_int(trim(item), &index) || index < 0) {
          return fail(error, "bad at list '" + std::string(value) + "'");
        }
        rule->at.push_back(index);
      }
      if (rule->at.empty()) return fail(error, "empty at list");
      ++triggers;
    } else if (key == "x" || key == "ms" || key == "amp" || key == "n" ||
               key == "frac" || key == "px") {
      if (!parse_double(value, &rule->magnitude) || rule->magnitude < 0.0) {
        return fail(error, "bad magnitude '" + std::string(value) + "'");
      }
    } else {
      return fail(error, "unknown key '" + std::string(key) + "'");
    }
  }
  if (triggers != 1) {
    return fail(error, "rule '" + std::string(trim(text)) +
                           "' needs exactly one trigger (p= / at= / every=)");
  }
  return true;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLatency: return "latency";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kGarbage: return "garbage";
    case FaultKind::kThrow: return "throw";
    case FaultKind::kBlack: return "black";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kHiccup: return "hiccup";
    case FaultKind::kStarve: return "starve";
    case FaultKind::kDiverge: return "diverge";
    case FaultKind::kNanFlow: return "nan";
    case FaultKind::kHang: return "hang";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kWedge: return "wedge";
  }
  return "unknown";
}

std::string_view valid_fault_channels() { return kValidChannels; }

FaultChannel::FaultChannel(std::uint64_t plan_seed, std::string_view name,
                           std::vector<FaultRule> rules)
    : channel_seed_(mix64(plan_seed, hash_name(name))),
      rules_(std::move(rules)) {}

std::vector<FaultDecision> FaultChannel::decide(int index) const {
  std::vector<FaultDecision> decisions;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FaultRule& rule = rules_[r];
    // One private stream per (channel, rule, event): triggering and the
    // fault payload replay identically no matter how many other events
    // were sampled, or in what order.
    const std::uint64_t event_seed =
        mix64(mix64(channel_seed_, r), static_cast<std::uint64_t>(index));
    bool triggered = false;
    if (rule.probability >= 0.0) {
      Rng rng(event_seed);
      triggered = rng.chance(rule.probability);
    } else if (rule.every > 0) {
      triggered = (index % rule.every) == 0;
    } else {
      triggered = std::find(rule.at.begin(), rule.at.end(), index) !=
                  rule.at.end();
    }
    if (triggered) {
      decisions.push_back({rule.kind, rule.magnitude, mix64(event_seed, 1)});
    }
  }
  return decisions;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec,
                                          std::uint64_t seed,
                                          std::string* error) {
  FaultPlan plan;
  plan.seed_ = seed;
  for (std::string_view section_text : split(spec, '|')) {
    section_text = trim(section_text);
    if (section_text.empty()) continue;
    const std::size_t colon = section_text.find(':');
    if (colon == std::string_view::npos) {
      if (error != nullptr) {
        *error = "section missing 'channel:' prefix: '" +
                 std::string(section_text) + "'";
      }
      return std::nullopt;
    }
    Section section;
    section.name = std::string(trim(section_text.substr(0, colon)));
    if (section.name.empty()) {
      if (error != nullptr) *error = "empty channel name";
      return std::nullopt;
    }
    if (!valid_channel_name(section.name)) {
      // A section naming an unknown channel would be silently inert —
      // channel() lookups for real channels would never match it. Fail
      // loudly with the offending token and the valid set instead.
      if (error != nullptr) {
        *error = "unknown fault channel '" + section.name +
                 "' (valid: " + std::string(kValidChannels) + ")";
      }
      return std::nullopt;
    }
    for (std::string_view rule_text : split(section_text.substr(colon + 1), ';')) {
      if (trim(rule_text).empty()) continue;
      FaultRule rule;
      if (!parse_rule(rule_text, &rule, error)) return std::nullopt;
      section.rules.push_back(std::move(rule));
    }
    if (section.rules.empty()) {
      if (error != nullptr) {
        *error = "channel '" + section.name + "' has no rules";
      }
      return std::nullopt;
    }
    plan.channels_.push_back(std::move(section));
  }
  return plan;
}

FaultChannel FaultPlan::channel(std::string_view name) const {
  for (const Section& section : channels_) {
    if (section.name == name) {
      return FaultChannel(seed_, name, section.rules);
    }
  }
  return FaultChannel();
}

}  // namespace adavp::util

#include "obs/profile.h"

#include <algorithm>
#include <unordered_map>

#include "obs/json.h"

namespace ugrpc::obs {

namespace {

/// The micro-protocol a handler/timer name belongs to: the prefix before the
/// first '.' ("ReliableComm.handle_new_call" -> "ReliableComm").
std::string component_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank < sorted.size() ? rank : sorted.size() - 1];
}

}  // namespace

void Profile::add(const std::vector<Span>& spans, const Tracer& names) {
  // Self time = wall minus the wall of direct children, clamped at zero.
  // (Children of an open span still accrue to it if it closes later in a
  // subsequent add() -- callers should add() after quiescing, which every
  // bench does.)
  std::unordered_map<std::uint64_t, std::uint64_t> children_ns;
  children_ns.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.open() || s.parent == 0) continue;
    children_ns[s.parent] += s.wall_ns();
  }
  for (const Span& s : spans) {
    if (s.open()) continue;
    const std::uint64_t wall = s.wall_ns();
    const auto it = children_ns.find(s.id);
    const std::uint64_t child = it != children_ns.end() ? it->second : 0;
    const std::uint64_t self = wall > child ? wall - child : 0;
    if (s.kind == Kind::kEventHandled || s.kind == Kind::kTimerFired) {
      const std::string& name = names.name(s.name);
      Samples& comp = component_[component_of(name)];
      comp.wall.push_back(wall);
      comp.self.push_back(self);
      Samples& h = handler_[name];
      h.wall.push_back(wall);
      h.self.push_back(self);
    } else {
      Samples& k = kind_[std::string(span_kind_name(s.kind))];
      k.wall.push_back(wall);
      k.self.push_back(self);
    }
  }
}

Profile::Stats Profile::finalize(const Samples& s) {
  Stats out;
  out.count = s.wall.size();
  std::vector<std::uint64_t> wall = s.wall;
  std::vector<std::uint64_t> self = s.self;
  std::sort(wall.begin(), wall.end());
  std::sort(self.begin(), self.end());
  for (const auto v : wall) out.wall_total += v;
  for (const auto v : self) out.self_total += v;
  out.wall_p50 = percentile(wall, 0.50);
  out.wall_p95 = percentile(wall, 0.95);
  out.wall_p99 = percentile(wall, 0.99);
  out.wall_max = wall.empty() ? 0 : wall.back();
  out.self_p50 = percentile(self, 0.50);
  out.self_p95 = percentile(self, 0.95);
  out.self_p99 = percentile(self, 0.99);
  out.self_max = self.empty() ? 0 : self.back();
  return out;
}

std::map<std::string, Profile::Stats> Profile::finalize_all(
    const std::map<std::string, Samples>& m) {
  std::map<std::string, Stats> out;
  for (const auto& [key, samples] : m) out.emplace(key, finalize(samples));
  return out;
}

std::map<std::string, Profile::Stats> Profile::by_component() const {
  return finalize_all(component_);
}
std::map<std::string, Profile::Stats> Profile::by_handler() const { return finalize_all(handler_); }
std::map<std::string, Profile::Stats> Profile::by_kind() const { return finalize_all(kind_); }

std::string Profile::to_json() const {
  const auto emit_group = [](std::string& out, const std::map<std::string, Stats>& rows) {
    out += "{";
    bool first = true;
    for (const auto& [key, st] : rows) {
      if (!first) out += ",";
      first = false;
      out += "\n    " + json_str(key) + ": {\"count\":" + std::to_string(st.count) +
             ",\"wall_total_ns\":" + std::to_string(st.wall_total) +
             ",\"wall_p50_ns\":" + std::to_string(st.wall_p50) +
             ",\"wall_p95_ns\":" + std::to_string(st.wall_p95) +
             ",\"wall_p99_ns\":" + std::to_string(st.wall_p99) +
             ",\"wall_max_ns\":" + std::to_string(st.wall_max) +
             ",\"self_total_ns\":" + std::to_string(st.self_total) +
             ",\"self_p50_ns\":" + std::to_string(st.self_p50) +
             ",\"self_p95_ns\":" + std::to_string(st.self_p95) +
             ",\"self_p99_ns\":" + std::to_string(st.self_p99) +
             ",\"self_max_ns\":" + std::to_string(st.self_max) +
             ",\"children_total_ns\":" + std::to_string(st.children_total()) + "}";
    }
    out += "\n  }";
  };
  std::string out = "{\n  \"by_component\": ";
  emit_group(out, by_component());
  out += ",\n  \"by_kind\": ";
  emit_group(out, by_kind());
  out += ",\n  \"by_handler\": ";
  emit_group(out, by_handler());
  out += "\n}";
  return out;
}

}  // namespace ugrpc::obs

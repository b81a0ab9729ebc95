#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace perfbench {

void Outcome::fact(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.6g", value);
  facts.emplace_back(key, text);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

LayerView::LayerView(mts::obs::MetricsSnapshot snapshot) : snapshot_(std::move(snapshot)) {}

double LayerView::counter(const std::string& name) const {
  for (const auto& c : snapshot_.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

namespace {

std::string leaf_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string parent_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

double LayerView::self_seconds(const std::string& leaf) const {
  std::map<std::string, double> children;  // parent path -> summed child time
  for (const auto& p : snapshot_.phases) {
    const std::string parent = parent_of(p.path);
    if (!parent.empty()) children[parent] += p.seconds;
  }
  double total = 0.0;
  for (const auto& p : snapshot_.phases) {
    if (leaf_of(p.path) != leaf) continue;
    const auto it = children.find(p.path);
    total += p.seconds - (it == children.end() ? 0.0 : it->second);
  }
  return total;
}

double LayerView::inclusive_seconds(const std::string& leaf) const {
  double total = 0.0;
  for (const auto& p : snapshot_.phases) {
    if (leaf_of(p.path) == leaf) total += p.seconds;
  }
  return total;
}

TracedPass::TracedPass() {
  mts::obs::MetricsRegistry::instance().reset();
  mts::obs::set_metrics_enabled(true);
}

TracedPass::~TracedPass() {
  if (active_) mts::obs::set_metrics_enabled(false);
}

LayerView TracedPass::stop() {
  mts::obs::set_metrics_enabled(false);
  active_ = false;
  return LayerView(mts::obs::MetricsRegistry::instance().snapshot());
}

void append_registry_layers(const LayerView& view, std::vector<Metric>& layers) {
  // Counters that repeat exactly for a given seed at any thread count (the
  // *.workspace_reuses counters depend on scheduling and are left out).
  static const char* const kCounters[] = {
      "ch.nodes_settled",   "ch.phast_runs",          "ch.sweep_relaxations",
      "ch.recustomizations", "cch.arcs_recomputed",   "cch.queries",
      "dijkstra.runs",      "dijkstra.nodes_settled", "dijkstra.edges_scanned",
      "yen.queries",        "yen.spur_searches",      "yen.spurs_pruned",
      "lp.solves",          "lp.pivots",              "lp.degenerate_pivots",
      "lp.tableau_builds",  "attack.rounds",          "attack.oracle_calls",
      "attack.constraints_generated", "oracle.tie_certifications", "verify.rejections",
  };
  for (const char* name : kCounters) layers.push_back({name, view.counter(name), "count"});
  const double pivots = view.counter("lp.pivots");
  layers.push_back({"cch.arcs_per_recustomization",
                    share(view.counter("cch.arcs_recomputed"), view.counter("ch.recustomizations")),
                    "ratio"});
  layers.push_back({"yen.pruned_share",
                    share(view.counter("yen.spurs_pruned"), view.counter("yen.spur_searches")),
                    "ratio"});
  layers.push_back({"lp.useful_pivot_share",
                    share(pivots - view.counter("lp.degenerate_pivots"), pivots), "ratio"});
  for (const char* leaf : {"cch", "lp", "oracle", "yen", "dijkstra"}) {
    layers.push_back({std::string(leaf) + ".self_s", view.self_seconds(leaf), "s"});
  }
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

}  // namespace perfbench

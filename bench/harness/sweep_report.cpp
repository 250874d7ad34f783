#include "harness/sweep_report.hpp"

namespace ncar::bench {

namespace {

Json count(std::size_t n) { return static_cast<double>(n); }

Json numbers(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(v);
  return out;
}

}  // namespace

Json sweep_report_json(const machines::SweepReport& report) {
  Json j = Json::object();
  j.set("kernel", report.kernel);

  Json base = Json::object();
  base.set("name", report.base.name);
  for (const auto& [key, value] : report.base.entries) base.set(key, value);
  j.set("base", std::move(base));

  Json axes = Json::array();
  for (const auto& axis : report.axes) {
    Json a = Json::object();
    a.set("key", axis.key);
    a.set("values", numbers(axis.values));
    axes.push_back(std::move(a));
  }
  j.set("axes", std::move(axes));

  const std::size_t valid = report.valid_count();
  const std::size_t memory_bound = report.memory_bound_count();
  j.set("grid_size", count(report.points.size()));
  j.set("valid_points", count(valid));
  j.set("memory_bound_points", count(memory_bound));
  j.set("compute_bound_points", count(valid - memory_bound));
  j.set("flip_edges", count(report.flips.size()));
  Json cache = Json::object();
  cache.set("hits", static_cast<double>(report.cache_hits));
  cache.set("misses", static_cast<double>(report.cache_misses));
  j.set("cost_cache", std::move(cache));

  if (const machines::PointResult* best = report.fastest()) {
    Json f = Json::object();
    f.set("index", count(best->index));
    f.set("seconds", best->seconds);
    f.set("hw_mflops", best->hw_mflops);
    j.set("fastest", std::move(f));
  }

  Json flips = Json::array();
  for (const auto& edge : report.flips) {
    Json e = Json::object();
    e.set("from", count(edge.from));
    e.set("to", count(edge.to));
    e.set("axis", edge.axis);
    flips.push_back(std::move(e));
  }
  j.set("flips", std::move(flips));

  Json points = Json::array();
  for (const auto& p : report.points) {
    Json pj = Json::object();
    pj.set("index", count(p.index));
    pj.set("values", numbers(p.values));
    pj.set("valid", p.valid);
    if (!p.valid) {
      pj.set("error", p.error);
    } else {
      pj.set("seconds", p.seconds);
      pj.set("hw_mflops", p.hw_mflops);
      pj.set("memory_gain", p.memory_gain);
      pj.set("compute_gain", p.compute_gain);
      pj.set("memory_bound", p.memory_bound);
    }
    points.push_back(std::move(pj));
  }
  j.set("points", std::move(points));
  return j;
}

}  // namespace ncar::bench

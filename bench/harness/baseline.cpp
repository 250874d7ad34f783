#include "harness/baseline.hpp"

#include <cmath>
#include <stdexcept>

namespace ncar::bench {

const Metric* Baseline::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Json Baseline::to_json() const {
  Json j = Json::object();
  j.set("schema", "sx4ncar-bench-baseline-v1");
  j.set("bench", bench);
  Json ms = Json::object();
  for (const auto& m : metrics) ms.set(m.name, m.value);
  j.set("metrics", std::move(ms));
  Json units = Json::object();
  for (const auto& m : metrics) {
    if (!m.unit.empty()) units.set(m.name, m.unit);
  }
  if (!units.as_object().empty()) j.set("units", std::move(units));
  return j;
}

Baseline Baseline::from_json(const Json& j) {
  Baseline b;
  b.bench = j.at("bench").as_string();
  const Json* units = j.find("units");
  for (const auto& [name, value] : j.at("metrics").as_object()) {
    Metric m;
    m.name = name;
    m.value = value.as_number();
    if (units) {
      if (const Json* u = units->find(name)) m.unit = u->as_string();
    }
    b.metrics.push_back(std::move(m));
  }
  return b;
}

Baseline Baseline::load(const std::string& path) {
  try {
    return from_json(Json::load(path));
  } catch (const std::exception& e) {
    throw std::runtime_error("baseline: " + path + ": " + e.what());
  }
}

void Baseline::save(const std::string& path) const { to_json().save(path); }

CompareResult compare_metrics(const Baseline& baseline,
                              const std::vector<Metric>& actual,
                              double rel_tol) {
  CompareResult r;
  for (const auto& ref : baseline.metrics) {
    MetricDelta d;
    d.name = ref.name;
    d.baseline = ref.value;
    const Metric* got = nullptr;
    for (const auto& m : actual) {
      if (m.name == ref.name) {
        got = &m;
        break;
      }
    }
    if (!got) {
      d.status = MetricDelta::Status::Missing;
      ++r.missing;
      r.deltas.push_back(std::move(d));
      continue;
    }
    d.actual = got->value;
    const double denom = std::fabs(ref.value);
    d.rel_change = denom > 0 ? (got->value - ref.value) / denom
                             : got->value - ref.value;
    if (std::fabs(d.rel_change) > rel_tol) {
      d.status = MetricDelta::Status::Regressed;
      ++r.regressed;
    }
    r.deltas.push_back(std::move(d));
  }
  return r;
}

}  // namespace ncar::bench

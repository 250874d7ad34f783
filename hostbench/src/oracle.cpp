// Verification oracle: stored expected values plus self-consistency checks.
//
// expected.txt holds one "seed N" line and "<size>.<key> <hexfloat>" lines.
// Values are C99 hex floats so the comparison is bit-exact and the file
// round-trips without loss.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace hostbench {

namespace {

constexpr int kMaxReported = 20;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

void Oracle::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key >> value) || (fields >> extra)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected '<key> <value>'");
    }
    char* end = nullptr;
    if (key == "seed") {
      const unsigned long long s = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": malformed seed");
      }
      have_seed_ = true;
      expected_seed_ = s;
      continue;
    }
    const double v = std::strtod(value.c_str(), &end);
    if (*end != '\0' || value.empty()) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed value for " + key);
    }
    if (!expected_.emplace(key, v).second) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": duplicate key " + key);
    }
  }
  if (!have_seed_) throw std::runtime_error(path + ": no 'seed' line");
}

void Oracle::configure(std::uint64_t seed, Size size, bool recording) {
  seed_ = seed;
  prefix_ = std::string(to_string(size)) + ".";
  recording_ = recording;
  exact_ = recording || (have_seed_ && seed == expected_seed_);
}

void Oracle::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reported_++ < kMaxReported) {
    std::cerr << "hostbench: check failed: " << what << "\n";
  }
}

void Oracle::expect(const std::string& key, double actual) {
  if (!exact_) return;
  const std::string full = prefix_ + key;
  if (recording_) {
    const auto [it, fresh] = recorded_.emplace(full, actual);
    // Repeated rounds must reproduce the first observation exactly.
    check(fresh || std::memcmp(&it->second, &actual, sizeof actual) == 0,
          full + " changed between rounds while recording");
    return;
  }
  const auto it = expected_.find(full);
  if (it == expected_.end()) {
    check(false, full + " has no stored expected value");
    return;
  }
  check(std::memcmp(&it->second, &actual, sizeof actual) == 0,
        full + " = " + hex(actual) + ", expected " + hex(it->second));
}

void Oracle::write_recorded(const std::string& path) const {
  std::map<std::string, double> merged;
  {
    Oracle previous;
    std::ifstream probe(path);
    if (probe.good()) {
      previous.load(path);
      if (previous.expected_seed_ == seed_) merged = previous.expected_;
    }
  }
  for (const auto& [k, v] : recorded_) merged[k] = v;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Expected simulated outputs of the host benchmark, recorded with\n"
         "# --record-expected. Keys are <size>.<workload>.<quantity>; values\n"
         "# are hex floats compared bit-exactly when --seed matches.\n";
  out << "seed " << seed_ << "\n";
  for (const auto& [k, v] : merged) out << k << ' ' << hex(v) << "\n";
}

Oracle& oracle() {
  static Oracle o;
  return o;
}

}  // namespace hostbench

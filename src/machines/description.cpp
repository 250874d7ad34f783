#include "machines/description.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/error.hpp"

namespace ncar::machines {

namespace {

// ---------------------------------------------------------------------------
// Schema

const std::vector<KeyInfo>& schema() {
  // Canonical order: general → vector unit → scalar/cache → memory →
  // synchronisation → XMU/IOP/IXS → libm model. to_table() emits set keys
  // in this order, so equality is independent of source-table key order.
  static const std::vector<KeyInfo> kSchema = {
      {"clock_ns", KeyKind::Real},
      {"cpus_per_node", KeyKind::Count},
      {"nodes", KeyKind::Count},
      {"vector_unit", KeyKind::Flag},
      {"vector_length", KeyKind::Count},
      {"pipes_per_group", KeyKind::Count},
      {"vector_issue_clocks", KeyKind::Cycles},
      {"vector_startup_clocks", KeyKind::Cycles},
      {"divide_cycles_per_result", KeyKind::Cycles},
      {"scalar_issue_width", KeyKind::Count},
      {"dcache_bytes", KeyKind::Size},
      {"icache_bytes", KeyKind::Size},
      {"cache_line_bytes", KeyKind::Size},
      {"cache_ways", KeyKind::Count},
      {"cache_miss_clocks", KeyKind::Cycles},
      {"memory_banks", KeyKind::Count},
      {"bank_cycle_clocks", KeyKind::Cycles},
      {"port_bytes_per_clock", KeyKind::Rate},
      {"node_bytes_per_clock", KeyKind::Rate},
      {"gather_port_divisor", KeyKind::Real},
      {"scatter_port_divisor", KeyKind::Real},
      {"strided_port_divisor", KeyKind::Real},
      {"bank_contention_per_cpu", KeyKind::Cycles},
      {"commreg_op_clocks", KeyKind::Cycles},
      {"barrier_base_clocks", KeyKind::Cycles},
      {"barrier_per_cpu_clocks", KeyKind::Cycles},
      {"xmu_bytes_per_clock", KeyKind::Rate},
      {"xmu_capacity_bytes", KeyKind::Size},
      {"iops", KeyKind::Count},
      {"iop_bytes_per_s", KeyKind::Rate},
      {"hippi_bytes_per_s", KeyKind::Rate},
      {"hippi_setup_s", KeyKind::Cycles},
      {"ixs_channel_bytes_per_s", KeyKind::Rate},
      {"ixs_latency_s", KeyKind::Cycles},
      {"ixs_max_nodes", KeyKind::Count},
      {"libm_call_overhead_cycles", KeyKind::Cycles},
      {"vector_libm_multiplier", KeyKind::Real},
  };
  return kSchema;
}

int schema_index(std::string_view key) {
  const auto& s = schema();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (key == s[i].key) return static_cast<int>(i);
  }
  return -1;
}

[[noreturn]] void fail(const std::string& message) {
  throw ncar::config_error(message);
}

/// Check `value` against the key's kind; `context` prefixes the message
/// ("machine 'X': " or "catalog line N: ").
void check_kind(const std::string& context, std::string_view key,
                KeyKind kind, double value) {
  const std::string k(key);
  switch (kind) {
    case KeyKind::Real:
    case KeyKind::Rate:
      if (!(value > 0) || !std::isfinite(value)) {
        fail(context + k + " must be a positive number (got " +
             format_number(value) + ")");
      }
      break;
    case KeyKind::Count:
    case KeyKind::Size:
      if (!(value >= 1) || value != std::floor(value) ||
          !std::isfinite(value)) {
        fail(context + k + " must be a positive integer (got " +
             format_number(value) + ")");
      }
      break;
    case KeyKind::Flag:
      if (value != 0.0 && value != 1.0) {
        fail(context + k + " must be true or false");
      }
      break;
    case KeyKind::Cycles:
      if (!(value >= 0) || !std::isfinite(value)) {
        fail(context + k + " must be a non-negative number (got " +
             format_number(value) + ")");
      }
      break;
  }
}

/// Assign one validated key onto the lowered spec.
void apply_key(Spec& s, std::string_view key, double value) {
  sxs::MachineConfig& c = s.cfg;
  const auto i = [&] { return static_cast<int>(value); };
  const auto z = [&] { return static_cast<std::size_t>(value); };
  if (key == "clock_ns") c.clock_ns = value;
  else if (key == "cpus_per_node") c.cpus_per_node = i();
  else if (key == "nodes") c.nodes = i();
  else if (key == "vector_unit") s.has_vector = value != 0.0;
  else if (key == "vector_length") c.vector_length = i();
  else if (key == "pipes_per_group") c.pipes_per_group = i();
  else if (key == "vector_issue_clocks") c.vector_issue_clocks = value;
  else if (key == "vector_startup_clocks") c.vector_startup_clocks = value;
  else if (key == "divide_cycles_per_result") c.divide_cycles_per_result = value;
  else if (key == "scalar_issue_width") c.scalar_issue_width = i();
  else if (key == "dcache_bytes") c.dcache_bytes = z();
  else if (key == "icache_bytes") c.icache_bytes = z();
  else if (key == "cache_line_bytes") c.cache_line_bytes = z();
  else if (key == "cache_ways") c.cache_ways = i();
  else if (key == "cache_miss_clocks") c.cache_miss_clocks = value;
  else if (key == "memory_banks") c.memory_banks = i();
  else if (key == "bank_cycle_clocks") c.bank_cycle_clocks = value;
  else if (key == "port_bytes_per_clock") c.port_bytes_per_clock = Bytes(value);
  else if (key == "node_bytes_per_clock") c.node_bytes_per_clock = Bytes(value);
  else if (key == "gather_port_divisor") c.gather_port_divisor = value;
  else if (key == "scatter_port_divisor") c.scatter_port_divisor = value;
  else if (key == "strided_port_divisor") c.strided_port_divisor = value;
  else if (key == "bank_contention_per_cpu") c.bank_contention_per_cpu = value;
  else if (key == "commreg_op_clocks") c.commreg_op_clocks = value;
  else if (key == "barrier_base_clocks") c.barrier_base_clocks = value;
  else if (key == "barrier_per_cpu_clocks") c.barrier_per_cpu_clocks = value;
  else if (key == "xmu_bytes_per_clock") c.xmu_bytes_per_clock = Bytes(value);
  else if (key == "xmu_capacity_bytes") c.xmu_capacity_bytes = Bytes(value);
  else if (key == "iops") c.iops = i();
  else if (key == "iop_bytes_per_s") c.iop_bytes_per_s = BytesPerSec(value);
  else if (key == "hippi_bytes_per_s") c.hippi_bytes_per_s = BytesPerSec(value);
  else if (key == "hippi_setup_s") c.hippi_setup_s = value;
  else if (key == "ixs_channel_bytes_per_s")
    c.ixs_channel_bytes_per_s = BytesPerSec(value);
  else if (key == "ixs_latency_s") c.ixs_latency_s = value;
  else if (key == "ixs_max_nodes") c.ixs_max_nodes = i();
  else if (key == "libm_call_overhead_cycles")
    s.libm_call_overhead_cycles = value;
  else if (key == "vector_libm_multiplier") s.vector_libm_multiplier = value;
  else fail("description: unmapped key '" + std::string(key) + "'");
}

// ---------------------------------------------------------------------------
// Parsing

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_number(const std::string& context, std::string_view token) {
  const std::string t(token);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size() || t.empty() || errno == ERANGE ||
      !std::isfinite(v)) {
    fail(context + "malformed number '" + t + "'");
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// MachineDescription

const std::vector<KeyInfo>& description_schema() { return schema(); }

std::string format_number(double v) {
  // Mirrors the bench harness writer (bench/harness/json.cpp): integral
  // values print without a decimal point, everything else via std::to_chars
  // for shortest round-trip form, so parse(to_table()) reproduces the exact
  // double.
  if (!std::isfinite(v)) return "inf";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) fail("description: number format failure");
  return std::string(buf, ptr);
}

bool known_key(std::string_view key) { return schema_index(key) >= 0; }

bool MachineDescription::has(std::string_view key) const {
  for (const auto& [k, v] : entries) {
    if (k == key) return true;
  }
  return false;
}

double MachineDescription::get_or(std::string_view key,
                                  double fallback) const {
  for (const auto& [k, v] : entries) {
    if (k == key) return v;
  }
  return fallback;
}

void MachineDescription::set(std::string_view key, double value) {
  const int idx = schema_index(key);
  if (idx < 0) {
    fail("machine '" + name + "': unknown key '" + std::string(key) + "'");
  }
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = value;
      return;
    }
  }
  // Insert keeping canonical schema order.
  const auto pos = [&] {
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (schema_index(entries[e].first) > idx) return e;
    }
    return entries.size();
  }();
  entries.insert(entries.begin() + static_cast<long>(pos),
                 {std::string(key), value});
}

Spec MachineDescription::lower() const {
  if (name.empty()) fail("machine description has no name");
  const std::string context = "machine '" + name + "': ";
  if (!has("clock_ns")) fail(context + "clock_ns is required");
  Spec s;
  s.name = name;
  s.cfg.name = name;
  for (const auto& [key, value] : entries) {
    const int idx = schema_index(key);
    if (idx < 0) fail(context + "unknown key '" + key + "'");
    check_kind(context, key, schema()[static_cast<std::size_t>(idx)].kind,
               value);
    apply_key(s, key, value);
  }
  try {
    s.cfg.validate();
  } catch (const ncar::config_error& e) {
    fail(context + e.what());
  }
  return s;
}

std::string MachineDescription::to_table() const {
  std::string out = "machine \"" + name + "\"\n";
  for (const auto& [key, value] : entries) {
    out += "  " + key + " = ";
    const int idx = schema_index(key);
    if (idx >= 0 &&
        schema()[static_cast<std::size_t>(idx)].kind == KeyKind::Flag) {
      out += value != 0.0 ? "true" : "false";
    } else {
      out += format_number(value);
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Catalog

const MachineDescription* Catalog::find(std::string_view name) const {
  for (const auto& m : machines) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const MachineDescription& Catalog::at(std::string_view name) const {
  if (const MachineDescription* m = find(name)) return *m;
  std::string known;
  for (const auto& m : machines) {
    known += (known.empty() ? "" : ", ") + m.name;
  }
  fail("no machine named '" + std::string(name) + "' in catalog (known: " +
       known + ")");
}

std::vector<std::string> Catalog::names() const {
  std::vector<std::string> out;
  out.reserve(machines.size());
  for (const auto& m : machines) out.push_back(m.name);
  return out;
}

std::string Catalog::to_table() const {
  std::string out;
  for (const auto& m : machines) {
    if (!out.empty()) out += '\n';
    out += m.to_table();
  }
  return out;
}

Catalog parse_catalog(std::string_view text) {
  Catalog cat;
  MachineDescription* current = nullptr;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view raw =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::string_view line = trim(raw);
    const std::string context =
        "catalog line " + std::to_string(line_no) + ": ";
    if (line.empty() || line.front() == '#') continue;

    if (line.substr(0, 8) == "machine " || line == "machine") {
      const std::string_view rest = trim(line.substr(7));
      if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
        fail(context + "machine header must be: machine \"Name\"");
      }
      const std::string_view mname = rest.substr(1, rest.size() - 2);
      if (mname.empty()) fail(context + "machine name must not be empty");
      if (mname.find('"') != std::string_view::npos) {
        fail(context + "machine name must not contain quotes");
      }
      if (cat.find(mname) != nullptr) {
        fail(context + "duplicate machine name '" + std::string(mname) +
             "'");
      }
      cat.machines.push_back({std::string(mname), {}});
      current = &cat.machines.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(context + "expected `key = value` or `machine \"Name\"`, got '" +
           std::string(line) + "'");
    }
    if (current == nullptr) {
      fail(context + "key before the first machine header");
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string_view value_token = trim(line.substr(eq + 1));
    if (key.empty()) fail(context + "empty key");
    if (value_token.empty()) fail(context + "empty value for '" + key + "'");
    const int idx = schema_index(key);
    if (idx < 0) {
      fail(context + "unknown key '" + key + "' in machine '" +
           current->name + "'");
    }
    if (current->has(key)) {
      fail(context + "duplicate key '" + key + "' in machine '" +
           current->name + "'");
    }
    double value = 0.0;
    if (schema()[static_cast<std::size_t>(idx)].kind == KeyKind::Flag) {
      if (value_token == "true") value = 1.0;
      else if (value_token == "false") value = 0.0;
      else fail(context + key + " must be true or false, got '" +
                std::string(value_token) + "'");
    } else {
      value = parse_number(context, value_token);
    }
    current->set(key, value);
  }
  return cat;
}

// ---------------------------------------------------------------------------
// Builtin catalog

namespace {

// The four 1996 Table 1 comparators (calibration sources in
// comparator.hpp's header comment), the benchmarked single-CPU SX-4, and
// three modern vector design points from PAPERS.md. The 1996 entries are
// pinned bit-identical to the verbatim legacy presets by
// tests/machines/test_golden_descriptions.cpp.
constexpr const char* kBuiltinCatalog = R"(# sx4ncar builtin machine catalog
# Schema: src/machines/description.hpp; lowering rules: DESIGN.md sec. 10.
# Unset keys inherit the SX-4 defaults of sxs::MachineConfig.

machine "SUN Sparc20"
  clock_ns = 16.7
  cpus_per_node = 1
  vector_unit = false
  scalar_issue_width = 2
  dcache_bytes = 16384
  cache_line_bytes = 32
  cache_ways = 4
  cache_miss_clocks = 12
  libm_call_overhead_cycles = 52

machine "IBM RS6000/590"
  clock_ns = 15
  cpus_per_node = 1
  vector_unit = false
  scalar_issue_width = 2
  dcache_bytes = 262144
  cache_line_bytes = 256
  cache_ways = 4
  cache_miss_clocks = 12
  libm_call_overhead_cycles = 42

machine "CRI J90"
  clock_ns = 10
  cpus_per_node = 1
  vector_length = 64
  pipes_per_group = 1
  vector_issue_clocks = 1
  vector_startup_clocks = 28
  divide_cycles_per_result = 6
  scalar_issue_width = 1
  dcache_bytes = 512
  cache_line_bytes = 8
  cache_ways = 1
  cache_miss_clocks = 6
  memory_banks = 256
  port_bytes_per_clock = 8
  node_bytes_per_clock = 8
  gather_port_divisor = 2
  scatter_port_divisor = 2
  vector_libm_multiplier = 2.2

machine "CRI Y-MP"
  clock_ns = 6
  cpus_per_node = 1
  vector_length = 64
  pipes_per_group = 1
  vector_issue_clocks = 1
  vector_startup_clocks = 18
  divide_cycles_per_result = 4
  scalar_issue_width = 1
  dcache_bytes = 512
  cache_line_bytes = 8
  cache_ways = 1
  cache_miss_clocks = 5
  memory_banks = 256
  port_bytes_per_clock = 24
  node_bytes_per_clock = 24
  gather_port_divisor = 2
  scatter_port_divisor = 2
  vector_libm_multiplier = 1.25

machine "NEC SX-4/1"
  clock_ns = 9.2
  cpus_per_node = 1

# --- modern vector design points (ROADMAP: PAPERS.md retrievals) ---------

# NEC SX-Aurora TSUBASA vector engine (arXiv 2304.11921): 1.6 GHz, 256
# double elements per vector register, 32 FMA lanes, HBM2 main memory.
machine "NEC SX-Aurora TSUBASA"
  clock_ns = 0.625
  cpus_per_node = 8
  vector_length = 256
  pipes_per_group = 32
  vector_issue_clocks = 1
  vector_startup_clocks = 14
  divide_cycles_per_result = 2
  scalar_issue_width = 4
  dcache_bytes = 32768
  cache_line_bytes = 128
  cache_ways = 8
  cache_miss_clocks = 60
  memory_banks = 4096
  port_bytes_per_clock = 128
  node_bytes_per_clock = 1024
  gather_port_divisor = 4
  scatter_port_divisor = 4
  vector_libm_multiplier = 1.1

# Fujitsu A64FX with 512-bit SVE (QPACE 4, arXiv 2112.01852): 2.0 GHz,
# two 8-lane FMA pipes per core, short vectors, HBM2.
machine "Fujitsu A64FX"
  clock_ns = 0.5
  cpus_per_node = 48
  vector_length = 16
  pipes_per_group = 8
  vector_issue_clocks = 1
  vector_startup_clocks = 6
  divide_cycles_per_result = 4
  scalar_issue_width = 4
  dcache_bytes = 65536
  cache_line_bytes = 256
  cache_ways = 4
  cache_miss_clocks = 37
  memory_banks = 512
  port_bytes_per_clock = 16
  node_bytes_per_clock = 512
  gather_port_divisor = 8
  scatter_port_divisor = 8
  vector_libm_multiplier = 1.3

# RISC-V RVV long-vector core (Vitruvius-style, arXiv 2111.01949):
# 1.4 GHz, 256 double elements per register over 8 lanes, modest memory.
machine "RISC-V RVV Vitruvius"
  clock_ns = 0.7
  cpus_per_node = 1
  vector_length = 256
  pipes_per_group = 8
  vector_issue_clocks = 2
  vector_startup_clocks = 30
  divide_cycles_per_result = 8
  scalar_issue_width = 2
  dcache_bytes = 32768
  cache_line_bytes = 64
  cache_ways = 4
  cache_miss_clocks = 40
  memory_banks = 256
  port_bytes_per_clock = 32
  node_bytes_per_clock = 64
  gather_port_divisor = 4
  scatter_port_divisor = 4
  vector_libm_multiplier = 1.5
)";

}  // namespace

const Catalog& builtin_catalog() {
  static const Catalog kCatalog = [] {
    Catalog cat = parse_catalog(kBuiltinCatalog);
    // Every builtin entry must lower cleanly; fail at first use, loudly,
    // rather than on some later spec_for() call.
    for (const auto& m : cat.machines) (void)m.lower();
    return cat;
  }();
  return kCatalog;
}

std::vector<std::string> builtin_names() { return builtin_catalog().names(); }

Spec spec_for(std::string_view name) {
  return builtin_catalog().at(name).lower();
}

}  // namespace ncar::machines

// The four workloads of the host benchmark (see notes.json for why each
// exists and which layers it stresses).
//
//   app_steps      real CCM2 + MOM time steps on one SX-4/32 node (numerics)
//   charge_replay  the fig8/table7 processor sweep as charge replays (pricing)
//   design_sweep   machines::run_sweep over three probe kernels (cold pricing)
//   prodload_year  years of the synthetic NQS job mix on the DES kernel

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "ccm2/model.hpp"
#include "common/arena.hpp"
#include "common/array.hpp"
#include "common/error.hpp"
#include "des/rng.hpp"
#include "des/simulation.hpp"
#include "des/workload.hpp"
#include "fft/complex_fft.hpp"
#include "fft/real_fft.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "ocean/mom.hpp"
#include "prodload/node_lp.hpp"
#include "prodload/queue_complex.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/category.hpp"

namespace hostbench {

namespace {

using ncar::Seconds;
using ncar::sxs::ExecutionPolicy;

constexpr int kNodeCpus = 32;
constexpr int kCpuCounts[] = {1, 2, 4, 8, 16, 32};

ncar::des::RngStream seeded_stream(std::uint64_t seed, const char* name) {
  return ncar::des::RngStream(
      name, ncar::des::RngRegistry::derive_key(seed, name));
}

std::unique_ptr<ncar::sxs::Node> make_node(ncar::ThreadPool& pool) {
  auto node = std::make_unique<ncar::sxs::Node>(
      ncar::sxs::MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded);
  node->set_thread_pool(&pool);
  return node;
}

struct CacheCount {
  double hits = 0;
  double misses = 0;
};

void report_cache(Metrics& out, const std::string& workload,
                  const CacheCount& c) {
  out.add("common.cost_cache.hits." + workload, c.hits, "count");
  out.add("common.cost_cache.misses." + workload, c.misses, "count");
  const double total = c.hits + c.misses;
  out.add("common.cost_cache.hit_rate." + workload,
          total > 0 ? c.hits / total : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// app_steps: real CCM2 and MOM steps interleaved on one node. The seed draws
// the initial jet speed and Rossby-wave amplitude, the SOR relaxation factor
// and which model steps first.

class AppSteps final : public Workload {
public:
  explicit AppSteps(const Context& ctx) : ctx_(ctx) {
    const bool tiny = ctx.opt.size == Size::Tiny;
    ncar::des::RngStream rng = seeded_stream(ctx.opt.seed, "app_steps");
    ccm2_cfg_.res = tiny ? ncar::ccm2::t42l18() : ncar::ccm2::t170l18();
    ccm2_cfg_.u0 = rng.uniform(20.0, 30.0);
    ccm2_cfg_.wave_amplitude = rng.uniform(4e-6, 8e-6);
    mom_cfg_ = tiny ? ncar::ocean::MomConfig::low_resolution()
                    : ncar::ocean::MomConfig::high_resolution();
    mom_cfg_.sor_omega = rng.uniform(1.5, 1.8);
    ocean_first_ = rng.next_below(2) == 1;
    steps_ = 2;
    ccm2_s_.reserve(static_cast<std::size_t>(steps_));
    mom_s_.reserve(static_cast<std::size_t>(steps_));
  }

  void setup() override {
    ccm2_.reset();
    mom_.reset();
    node_.reset();
    node_ = make_node(ctx_.pool);
    ccm2_ = std::make_unique<ncar::ccm2::Ccm2>(ccm2_cfg_, *node_);
    mom_ = std::make_unique<ncar::ocean::Mom>(mom_cfg_, *node_);
  }

  void prepare() override {
    node_->reset();
    ccm2_->reset();
    mom_->reset();
  }

  double round() override {
    ccm2_s_.clear();
    mom_s_.clear();
    const double h0 = static_cast<double>(node_->cost_cache_hits());
    const double m0 = static_cast<double>(node_->cost_cache_misses());
    for (int s = 0; s < steps_; ++s) {
      if (ocean_first_) ocean_step();
      ccm2_step();
      if (!ocean_first_) ocean_step();
    }
    cache_.hits += static_cast<double>(node_->cost_cache_hits()) - h0;
    cache_.misses += static_cast<double>(node_->cost_cache_misses()) - m0;
    return 2.0 * steps_;
  }

  void check() override {
    Oracle& o = oracle();
    // The step()/charge_step() bit-identity contract holds from the same
    // node state, so replay the round's whole charge sequence from a reset.
    node_->reset();
    for (int s = 0; s < steps_; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const std::string n = std::to_string(s);
      double mom_replay = 0;
      if (ocean_first_) mom_replay = mom_->charge_step(kNodeCpus, s);
      o.check(ccm2_->charge_step(kNodeCpus).total == ccm2_s_[i],
              "app_steps: ccm2 step " + n + " differs from its charge replay");
      if (!ocean_first_) mom_replay = mom_->charge_step(kNodeCpus, s);
      o.check(mom_replay == mom_s_[i],
              "app_steps: mom step " + n + " differs from its charge replay");
      o.expect("app_steps.ccm2.step" + n + ".s", ccm2_s_[i]);
      o.expect("app_steps.mom.step" + n + ".s", mom_s_[i]);
    }
    const double c1 = ccm2_->checksum(), c2 = mom_->checksum();
    o.check(std::isfinite(c1) && std::isfinite(c2),
            "app_steps: non-finite model checksum");
    o.check(mom_->columns_statically_stable(),
            "app_steps: mom columns statically unstable");
    o.expect("app_steps.ccm2.checksum", c1);
    o.expect("app_steps.mom.checksum", c2);
  }

  std::vector<std::string> layers() const override {
    return {"ccm2", "ocean"};
  }

  void probe(Metrics& out) override {
    out.add("ccm2.step_ms", 1e3 * median(tracer().durations(Op::Ccm2Step)),
            "ms");
    out.add("ocean.step_ms", 1e3 * median(tracer().durations(Op::OceanStep)),
            "ms");
    // Pricing inside one step pair, replayed on the same node after a
    // reset: numerics = (ccm2.step_ms + ocean.step_ms) - this.
    node_->reset();
    out.add("sxs.step_charge_ms", 1e3 * median_time(7, [&] {
                                    (void)ccm2_->charge_step(kNodeCpus);
                                    (void)mom_->charge_step(kNodeCpus, 1);
                                  }),
            "ms");

    const ncar::spectral::ShTransform& sht = ccm2_->transform();
    const auto nlon = static_cast<std::size_t>(sht.nlon());
    const auto nlat = static_cast<std::size_t>(sht.nlat());
    ncar::Array2D<double> grid(nlon, nlat);
    for (std::size_t j = 0; j < nlat; ++j) {
      for (std::size_t i = 0; i < nlon; ++i) {
        grid(i, j) = std::sin(0.05 * static_cast<double>(i)) *
                     std::cos(0.07 * static_cast<double>(j));
      }
    }
    std::vector<std::complex<double>> spec(
        static_cast<std::size_t>(sht.spec_size()));
    out.add("spectral.analysis_ms",
            1e3 * median_time(5, [&] { sht.analysis(grid, spec); }), "ms");
    out.add("spectral.synthesis_ms",
            1e3 * median_time(5, [&] { sht.synthesis(spec, grid); }), "ms");

    // One longitude row of the model grid through the real FFT.
    const long n = sht.nlon();
    const ncar::fft::Plan plan(n);
    std::vector<double> row(nlon);
    for (std::size_t i = 0; i < nlon; ++i) row[i] = grid(i, nlat / 2);
    std::vector<std::complex<double>> bins(
        static_cast<std::size_t>(ncar::fft::spectrum_size(n)));
    ncar::Arena arena(ncar::fft::real_fft_arena_doubles(n));
    constexpr int kCalls = 200;
    out.add("fft.real_forward_us", 1e6 / kCalls * median_time(7, [&] {
                                     for (int c = 0; c < kCalls; ++c) {
                                       ncar::fft::real_forward(plan, row, bins,
                                                               arena);
                                     }
                                   }),
            "us");
    report_cache(out, "app_steps", cache_);
  }

private:
  void ccm2_step() {
    SpanScope span(Op::Ccm2Step);
    ccm2_s_.push_back(ccm2_->step(kNodeCpus).total);
  }
  void ocean_step() {
    SpanScope span(Op::OceanStep);
    mom_s_.push_back(mom_->step(kNodeCpus));
  }

  const Context& ctx_;
  ncar::ccm2::Ccm2Config ccm2_cfg_;
  ncar::ocean::MomConfig mom_cfg_;
  bool ocean_first_ = false;
  int steps_ = 2;
  std::unique_ptr<ncar::sxs::Node> node_;
  std::unique_ptr<ncar::ccm2::Ccm2> ccm2_;
  std::unique_ptr<ncar::ocean::Mom> mom_;
  std::vector<double> ccm2_s_, mom_s_;
  CacheCount cache_;
};

// ---------------------------------------------------------------------------
// charge_replay: the fig8/table7 processor sweep as pure charge replays. The
// seed permutes the order the (model, cpus) points are visited in.

class ChargeReplay final : public Workload {
public:
  static constexpr int kCalls = 10;  // charge_step calls per point

  explicit ChargeReplay(const Context& ctx)
      : ctx_(ctx), rng_(seeded_stream(ctx.opt.seed, "charge_replay")) {
    for (int m = 0; m < kModels; ++m) {
      for (const int p : kCpuCounts) points_.push_back({m, p});
    }
    values_.assign(points_.size(), 0.0);
    for (std::size_t i = 0; i < points_.size(); ++i) order_.push_back(i);
  }

  void setup() override {
    for (auto& m : ccm2_) m.reset();
    mom_.reset();
    node_.reset();
    node_ = make_node(ctx_.pool);
    const ncar::ccm2::Resolution res[] = {
        ncar::ccm2::t42l18(), ncar::ccm2::t106l18(), ncar::ccm2::t170l18()};
    for (int m = 0; m < 3; ++m) {
      ncar::ccm2::Ccm2Config c;
      c.res = res[m];
      c.active_levels = 1;  // charges cover every level regardless
      ccm2_[static_cast<std::size_t>(m)] =
          std::make_unique<ncar::ccm2::Ccm2>(c, *node_);
    }
    mom_ = std::make_unique<ncar::ocean::Mom>(
        ncar::ocean::MomConfig::high_resolution(), *node_);
  }

  void prepare() override {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.next_below(i)]);
    }
  }

  double round() override {
    const double h0 = static_cast<double>(node_->cost_cache_hits());
    const double m0 = static_cast<double>(node_->cost_cache_misses());
    for (const std::size_t i : order_) values_[i] = replay(points_[i]);
    cache_.hits += static_cast<double>(node_->cost_cache_hits()) - h0;
    cache_.misses += static_cast<double>(node_->cost_cache_misses()) - m0;
    return static_cast<double>(points_.size() * kCalls);
  }

  void check() override {
    Oracle& o = oracle();
    if (reference_.empty()) {
      // Canonical visiting order, untimed: every permuted round must match.
      for (const Point& p : points_) reference_.push_back(replay(p));
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::string key = std::string("charge_replay.") +
                              kModelNames[points_[i].model] + ".c" +
                              std::to_string(points_[i].cpus) + ".s";
      o.check(values_[i] == reference_[i],
              key + " depends on the visiting order");
      o.expect(key, values_[i]);
    }
  }

  std::vector<std::string> layers() const override { return {"sxs"}; }

  void probe(Metrics& out) override {
    // Warm per-call pricing cost of one step at 32 CPUs.
    for (int m = 0; m < kModels; ++m) {
      node_->reset();
      const double s = median_time(21, [&] {
        if (m < 3) {
          (void)ccm2_[static_cast<std::size_t>(m)]->charge_step(kNodeCpus);
        } else {
          (void)mom_->charge_step(kNodeCpus, 1);
        }
      });
      out.add(std::string("sxs.charge_us.") + kModelNames[m], 1e6 * s, "us");
    }

    // Host-side dispatch cost of one empty 32-rank parallel region.
    constexpr int kRegions = 100;
    node_->reset();
    out.add("common.thread_pool.dispatch_us",
            1e6 / kRegions * median_time(9, [&] {
              for (int r = 0; r < kRegions; ++r) {
                (void)node_->parallel(kNodeCpus,
                                      [](int, ncar::sxs::Cpu&) {});
              }
            }),
            "us");

    // Tracing-mode cost on the same slice; results stay bit-identical
    // (check() runs after every round).
    const ncar::trace::Mode modes[] = {ncar::trace::Mode::Off,
                                       ncar::trace::Mode::Summary,
                                       ncar::trace::Mode::Full};
    std::vector<double> t[3];
    for (int rep = 0; rep < 5; ++rep) {
      for (int k = 0; k < 3; ++k) {
        ncar::trace::set_mode(modes[k]);
        prepare();
        t[k].push_back(time_of([&] { (void)round(); }));
        check();
      }
    }
    ncar::trace::set_mode(ncar::trace::Mode::Off);
    node_->reset();
    const double off = median(t[0]);
    out.add("trace.overhead.summary", median(t[1]) / off - 1.0, "ratio");
    out.add("trace.overhead.full", median(t[2]) / off - 1.0, "ratio");

    paper_error(out);
    report_cache(out, "charge_replay", cache_);
  }

private:
  static constexpr int kModels = 4;  // T42, T106, T170, MOM
  static constexpr const char* kModelNames[kModels] = {"t42", "t106", "t170",
                                                       "mom"};

  struct Point {
    int model;
    int cpus;
  };

  double replay(const Point& p) {
    {
      SpanScope span(Op::SxsReset);
      node_->reset();
    }
    double total = 0;
    for (int c = 0; c < kCalls; ++c) {
      if (p.model < 3) {
        SpanScope span(Op::Ccm2Charge);
        total +=
            ccm2_[static_cast<std::size_t>(p.model)]->charge_step(p.cpus).total;
      } else {
        SpanScope span(Op::OceanCharge);
        total += mom_->charge_step(p.cpus, c);
      }
    }
    return total;
  }

  /// Relative error of the model against the paper's anchors: Table 7 (MOM
  /// 1 degree x 45 levels, 350 steps) and Figure 8 (T170L18, 32 CPUs).
  void paper_error(Metrics& out) {
    struct Row {
      int cpus;
      double paper_s;
    };
    const Row rows[] = {
        {1, 1861.25}, {4, 696.92}, {8, 519.74}, {16, 331.67}, {32, 226.62}};
    for (const Row& r : rows) {
      node_->reset();
      const double t350 = mom_->measure_charge_seconds(r.cpus, 10) * 350.0;
      out.add("paper.table7_mom.rel_err.c" + std::to_string(r.cpus),
              std::abs(t350 / r.paper_s - 1.0), "ratio");
    }
    node_->reset();
    const double gflops = ccm2_[2]->charge_sustained_equiv_gflops(kNodeCpus, 1);
    out.add("paper.fig8_t170.rel_err.c32", std::abs(gflops / 24.0 - 1.0),
            "ratio");
    node_->reset();
  }

  const Context& ctx_;
  ncar::des::RngStream rng_;
  std::vector<Point> points_;
  std::vector<std::size_t> order_;
  std::vector<double> values_, reference_;
  std::unique_ptr<ncar::sxs::Node> node_;
  std::unique_ptr<ncar::ccm2::Ccm2> ccm2_[3];
  std::unique_ptr<ncar::ocean::Mom> mom_;
  CacheCount cache_;
};

// ---------------------------------------------------------------------------
// design_sweep: run_sweep over the three probe kernels on grids descended
// from "NEC SX-4/1". Each grid's axis values are drawn by the seed from the
// axes bench/design_sweep.cpp sweeps; a round sweeps several such grids.

class DesignSweep final : public Workload {
public:
  explicit DesignSweep(const Context& ctx) : ctx_(ctx) {
    const bool tiny = ctx.opt.size == Size::Tiny;
    ncar::des::RngStream rng = seeded_stream(ctx.opt.seed, "design_sweep");
    struct Candidates {
      const char* key;
      std::vector<double> values;
      int full, tiny;
    };
    // The default axes of bench/design_sweep.cpp (1200 points). Every bank
    // count is always taken: building a config's MemoryModel costs host
    // time in proportion to its bank count, so drawing banks would make
    // the work of a round depend on the seed.
    const Candidates cands[] = {
        {"pipes_per_group", {1, 2, 4, 8, 16, 32}, 4, 2},
        {"vector_length", {32, 64, 128, 256, 512}, 4, 2},
        {"port_bytes_per_clock", {16, 32, 64, 128, 256}, 4, 2},
        {"memory_banks", {256, 512, 1024, 2048}, 4, 2},
        {"clock_ns", {9.2, 8}, 2, 1},
    };
    // Stratified draw: the candidates are cut into `take` runs and one
    // value is drawn from each, so every grid spans the whole range.
    const int grids = tiny ? 1 : kGrids;
    for (int g = 0; g < grids; ++g) {
      std::vector<ncar::machines::Axis> axes;
      for (const Candidates& c : cands) {
        const auto take = static_cast<std::size_t>(tiny ? c.tiny : c.full);
        std::vector<double> values;
        for (std::size_t i = 0; i < take; ++i) {
          const std::size_t lo = i * c.values.size() / take;
          const std::size_t hi = (i + 1) * c.values.size() / take;
          values.push_back(c.values[lo + rng.next_below(hi - lo)]);
        }
        axes.push_back({c.key, values});
      }
      axes_.push_back(std::move(axes));
    }
    sample_rng_ = seeded_stream(ctx.opt.seed, "design_sweep.sample");
    catalog_text_ = ncar::machines::builtin_catalog().to_table();
    kernels_ = ncar::machines::probe_kernels();
    sweep_s_.resize(kernels_.size());
  }

  // Set-up reads the machine catalog from its text form, as the library
  // does once per process for the builtin catalog, and builds the grids.
  // run_sweep records its kernel's probe itself on every call, so probe
  // recording is part of each round, not of set-up.
  void setup() override {
    const ncar::machines::Catalog catalog =
        ncar::machines::parse_catalog(catalog_text_);
    const ncar::machines::MachineDescription& base = catalog.at("NEC SX-4/1");
    grids_.clear();
    for (const auto& axes : axes_) grids_.emplace_back(base, axes);
  }

  int setup_reps() const override { return 2001; }

  double round() override {
    reports_.resize(grids_.size() * kernels_.size());
    double points = 0;
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      ncar::machines::SweepOptions opts;
      opts.kernel = kernels_[k];
      opts.policy = ExecutionPolicy::Threaded;
      opts.pool = &ctx_.pool;
      const auto t0 = Clock::now();
      for (std::size_t g = 0; g < grids_.size(); ++g) {
        ncar::machines::SweepReport& r = reports_[g * kernels_.size() + k];
        {
          SpanScope span(Op::MachinesSweep);
          r = ncar::machines::run_sweep(grids_[g], opts);
        }
        cache_.hits += static_cast<double>(r.cache_hits);
        cache_.misses += static_cast<double>(r.cache_misses);
        points += static_cast<double>(r.points.size());
      }
      sweep_s_[k].push_back(seconds_since(t0));
    }
    return points;
  }

  void check() override {
    Oracle& o = oracle();
    const std::vector<ncar::machines::Probe>& probes = recorded_probes();
    for (std::size_t g = 0; g < grids_.size(); ++g) {
      for (std::size_t k = 0; k < kernels_.size(); ++k) {
        const std::size_t slot = g * kernels_.size() + k;
        const ncar::machines::SweepReport& r = reports_[slot];
        const std::string key =
            "design_sweep.g" + std::to_string(g) + "." + kernels_[k];
        const ncar::machines::PointResult* best = r.fastest();
        o.check(best != nullptr, key + ": no valid design point");
        if (best == nullptr) continue;
        const Summary s{static_cast<double>(best->index), best->seconds,
                        static_cast<double>(r.flips.size()),
                        static_cast<double>(r.valid_count()),
                        static_cast<double>(r.memory_bound_count())};
        if (first_.size() <= slot) first_.push_back(s);
        o.check(s == first_[slot], key + ": result changed between rounds");
        o.expect(key + ".fastest_index", s.fastest_index);
        o.expect(key + ".fastest_s", s.fastest_s);
        o.expect(key + ".flips", s.flips);
        o.expect(key + ".valid", s.valid);
        o.expect(key + ".memory_bound", s.memory_bound);
        // A seeded sample of points must match a direct replay.
        for (int i = 0; i < 4; ++i) {
          const std::size_t idx = sample_rng_.next_below(r.points.size());
          const ncar::machines::PointResult& p = r.points[idx];
          const ncar::machines::MachineDescription d = grids_[g].config(idx);
          bool ok = false;
          try {
            const double direct =
                ncar::machines::replay_probe(probes[k], d.lower()).seconds;
            ok = p.valid && direct == p.seconds;
          } catch (const ncar::config_error&) {
            ok = !p.valid;
          }
          o.check(ok, key + ": point " + std::to_string(idx) +
                          " differs from a direct replay_probe");
        }
      }
    }
  }

  std::vector<std::string> layers() const override { return {"machines"}; }

  void probe(Metrics& out) override {
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      out.add("machines.sweep_s." + kernels_[k], median(sweep_s_[k]), "s");
    }
    out.add("machines.record_probe_ms", 1e3 * median_time(5, [&] {
                                          for (const std::string& k : kernels_)
                                            (void)ncar::machines::record_probe(
                                                k);
                                        }),
            "ms");
    const ncar::machines::Grid& g = grids_.front();
    constexpr int kPoints = 32;
    std::vector<std::size_t> sample;
    for (int i = 0; i < kPoints; ++i) {
      sample.push_back(sample_rng_.next_below(g.size()));
    }
    out.add("machines.lower_us", 1e6 / kPoints * median_time(7, [&] {
                                   for (const std::size_t i : sample) {
                                     try {
                                       (void)g.config(i).lower();
                                     } catch (const ncar::config_error&) {
                                     }
                                   }
                                 }),
            "us");
    std::vector<ncar::machines::Spec> specs;
    for (const std::size_t i : sample) {
      try {
        specs.push_back(g.config(i).lower());
      } catch (const ncar::config_error&) {
      }
    }
    out.add("machines.replay_us",
            specs.empty() ? 0.0
                          : 1e6 / static_cast<double>(specs.size()) *
                                median_time(5, [&] {
                                  for (const auto& s : specs) {
                                    (void)ncar::machines::replay_probe(
                                        recorded_probes()[0], s);
                                  }
                                }),
            "us");
    report_cache(out, "design_sweep", cache_);
  }

private:
  struct Summary {
    double fastest_index, fastest_s, flips, valid, memory_bound;
    bool operator==(const Summary&) const = default;
  };

  // Grids per full-size round: 4 x 512 points for each of three kernels.
  static constexpr int kGrids = 4;

  /// The oracle's own probes, recorded once on first use (untimed).
  const std::vector<ncar::machines::Probe>& recorded_probes() {
    if (probes_.empty()) {
      for (const std::string& k : kernels_) {
        probes_.push_back(ncar::machines::record_probe(k));
      }
    }
    return probes_;
  }

  const Context& ctx_;
  std::vector<std::vector<ncar::machines::Axis>> axes_;
  std::string catalog_text_;
  std::vector<std::string> kernels_;
  std::vector<ncar::machines::Grid> grids_;
  std::vector<ncar::machines::Probe> probes_;
  std::vector<ncar::machines::SweepReport> reports_;
  std::vector<std::vector<double>> sweep_s_;
  std::vector<Summary> first_;
  ncar::des::RngStream sample_rng_;
  CacheCount cache_;
};

// ---------------------------------------------------------------------------
// prodload_year: the prodload_year job mix (Markov classes, MMPP arrivals,
// failure storms) through the NQS queue complex onto prodload::NodeLp, one
// simulated day per run_until. Each round is a fresh replica seeded with
// the run's seed, so every round repeats the same simulated history.

// The job mix of bench/prodload_year.cpp, whose copy is local to that main.
ncar::des::WorkloadConfig year_mix() {
  ncar::des::WorkloadConfig cfg;
  cfg.classes = {
      // name       queue         cpus  mean_s  tail   shape  cap      prio
      {"express", "express", 1, 240.0, 0.05, 1.5, 3600.0, 10},
      {"t42_dev", "regular", 2, 900.0, 0.10, 1.5, 43200.0, 0},
      {"t106_prod", "production", 8, 450.0, 0.10, 1.5, 43200.0, 0},
      {"t170_prod", "production", 16, 150.0, 0.10, 1.5, 21600.0, 5},
  };
  cfg.transition = {
      {0.45, 0.35, 0.12, 0.08},
      {0.40, 0.38, 0.14, 0.08},
      {0.35, 0.33, 0.20, 0.12},
      {0.35, 0.30, 0.15, 0.20},
  };
  return cfg;
}

class ProdloadYear final : public Workload {
public:
  explicit ProdloadYear(const Context& ctx)
      : seed_(ctx.opt.seed),
        horizon_(ctx.opt.size == Size::Tiny ? 30.0 * 86400.0
                                            : 365.0 * 86400.0) {}

  bool setup_each_round() const override { return true; }

  void setup() override {
    replica_.reset();
    replica_ = std::make_unique<Replica>(seed_, year_mix());
  }

  double round() override {
    Replica& r = *replica_;
    {
      SpanScope span(Op::DesStart);
      r.gen.start(horizon_);
    }
    for (double day = 1;; ++day) {
      const double t = std::min(day * 86400.0, horizon_.value());
      {
        SpanScope span(Op::DesRunUntil);
        r.sim.run_until(Seconds(t));
      }
      peak_depth_ = std::max(peak_depth_, r.sim.calendar().size());
      if (t >= horizon_.value()) break;
    }
    {
      SpanScope span(Op::DesRun);  // drain the work in flight at the horizon
      r.sim.run();
    }
    return static_cast<double>(r.sim.events_executed());
  }

  void check() override {
    Oracle& o = oracle();
    const Replica& r = *replica_;
    o.check(r.sim.calendar().empty() && r.nqs.idle() && r.node.idle(),
            "prodload_year: the run did not drain");
    o.check(r.sim.now() >= horizon_, "prodload_year: horizon not covered");
    o.check(r.nqs.jobs_completed() == r.nqs.jobs_submitted() &&
                r.in_flight.empty(),
            "prodload_year: submitted jobs were lost");
    o.check(r.nqs.jobs_submitted() ==
                r.gen.jobs_emitted() + r.gen.retries_emitted(),
            "prodload_year: submissions do not match generated jobs");
    o.check(r.failures == r.gen.retries_emitted() + r.gen.retries_abandoned(),
            "prodload_year: failures not all retried or abandoned");
    const double completed = static_cast<double>(r.nqs.jobs_completed());
    const Result res{static_cast<double>(r.sim.events_executed()), completed,
                     completed > 0 ? r.nqs.total_wait_s() / completed : 0.0,
                     static_cast<double>(r.nqs.max_backlog())};
    if (!first_) first_ = res;
    o.check(res == *first_, "prodload_year: replica differs from the first");
    o.expect("prodload_year.events", res.events);
    o.expect("prodload_year.jobs_completed", res.jobs_completed);
    o.expect("prodload_year.mean_wait_s", res.mean_wait_s);
    o.expect("prodload_year.max_backlog", res.max_backlog);
    last_ = res;
  }

  std::vector<std::string> layers() const override {
    return {"des", "prodload"};
  }

  void probe(Metrics& out) override {
    out.add("des.events", last_.events, "count");
    std::vector<double> days = tracer().durations(Op::DesRunUntil);
    for (double& d : days) d *= 1e3;
    out.add("des.day_ms.p50", percentile(days, 0.5), "ms");
    out.add("des.day_ms.p90", percentile(days, 0.9), "ms");
    out.add("des.calendar.op_ns", calendar_op_ns(), "ns");
    out.add("prodload.jobs_completed", last_.jobs_completed, "count");
    out.add("prodload.max_backlog", last_.max_backlog, "count");
  }

private:
  struct Result {
    double events = 0, jobs_completed = 0, mean_wait_s = 0, max_backlog = 0;
    bool operator==(const Result&) const = default;
  };

  // One simulated center: members are built in order and reference each
  // other, so a Replica never moves.
  struct Replica {
    Replica(std::uint64_t seed, ncar::des::WorkloadConfig mix_cfg)
        : mix(std::move(mix_cfg)),
          sim(seed),
          node(sim, machine.cpus_per_node, machine.bank_contention_per_cpu),
          nqs(sim, node,
              {{"express", 2, 4}, {"regular", 8, 8}, {"production", 16, 4}}),
          gen(sim, mix, [this](const ncar::des::SyntheticJob& job) {
            submit(job);
          }) {
      nqs.set_completion(
          [this](const ncar::prodload::NqsJob& nj, Seconds, Seconds,
                 Seconds) { complete(nj); });
    }
    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    void submit(const ncar::des::SyntheticJob& job) {
      const auto& jc = mix.classes[static_cast<std::size_t>(job.job_class)];
      ncar::prodload::NqsJob nj;
      nj.name = jc.name;
      nj.cpus = jc.cpus;
      nj.service = job.service;
      nj.priority = jc.priority;
      nj.tag = job.id * 8 + static_cast<std::uint64_t>(job.attempt);
      in_flight.emplace(nj.tag, job);
      SpanScope span(Op::ProdloadSubmit);
      nqs.submit(jc.queue, std::move(nj));
    }

    void complete(const ncar::prodload::NqsJob& nj) {
      const auto it = in_flight.find(nj.tag);
      const ncar::des::SyntheticJob job = it->second;
      in_flight.erase(it);
      if (gen.draw_failure()) {
        ++failures;
        SpanScope span(Op::DesFailure);
        gen.report_failure(job);
      }
    }

    const ncar::sxs::MachineConfig machine =
        ncar::sxs::MachineConfig::sx4_benchmarked();
    const ncar::des::WorkloadConfig mix;
    ncar::des::Simulation sim;
    ncar::prodload::NodeLp node;
    ncar::prodload::QueueComplexLp nqs;
    ncar::des::WorkloadGenerator gen;
    std::unordered_map<std::uint64_t, ncar::des::SyntheticJob> in_flight;
    std::uint64_t failures = 0;
  };

  /// Host cost of one schedule + pop pair on a calendar held at the run's
  /// peak sampled depth (one event in, one out, depth constant).
  double calendar_op_ns() const {
    ncar::des::Calendar cal;
    ncar::des::RngStream rng = seeded_stream(seed_, "calendar_probe");
    const std::size_t depth = std::max<std::size_t>(peak_depth_, 1);
    for (std::size_t i = 0; i < depth; ++i) {
      cal.schedule(Seconds(rng.uniform(0.0, 1e6)), [] {});
    }
    constexpr int kOps = 100000;
    const double s = median_time(5, [&] {
      for (int i = 0; i < kOps; ++i) {
        const ncar::des::Event e = cal.pop();
        cal.schedule(e.key.time + Seconds(rng.uniform(0.0, 1e3)), [] {});
      }
    });
    return 1e9 * s / kOps;
  }

  std::uint64_t seed_;
  Seconds horizon_;
  std::unique_ptr<Replica> replica_;
  std::optional<Result> first_;
  Result last_;
  std::size_t peak_depth_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "app_steps", "charge_replay", "design_sweep", "prodload_year"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "app_steps") return std::make_unique<AppSteps>(ctx);
  if (name == "charge_replay") return std::make_unique<ChargeReplay>(ctx);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(ctx);
  if (name == "prodload_year") return std::make_unique<ProdloadYear>(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace hostbench

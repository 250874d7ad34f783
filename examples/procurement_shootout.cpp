// Example: a procurement-style machine comparison — the activity that
// produced the paper. A user-defined kernel (here: a moist-thermodynamics
// column update with the suite's intrinsic mix) is charged against every
// machine model in the library, and the resulting ranking is printed next
// to each machine's HINT score to reproduce the paper's section 3 lesson:
// a single synthetic metric can rank machines opposite to your workload.

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "hint/hint.hpp"
#include "machines/comparator.hpp"
#include "sxs/execution_policy.hpp"

namespace {

/// A user workload: column thermodynamics over ncol columns, nlev levels.
void run_workload(ncar::machines::Comparator& m, long ncol, int nlev) {
  using ncar::sxs::Intrinsic;
  for (int k = 0; k < nlev; ++k) {
    ncar::sxs::VectorOp body;
    body.n = ncol;
    body.flops_per_elem = 18;
    body.load_words = 5;
    body.store_words = 2;
    m.vec(body);
    m.intrinsic(Intrinsic::Exp, ncol);   // saturation vapour pressure
    m.intrinsic(Intrinsic::Log, ncol);   // potential temperature
    m.intrinsic(Intrinsic::Sqrt, ncol);  // stability functions
  }
}

}  // namespace

int main() try {
  using namespace ncar;
  std::cout << "host execution: " << sxs::host_execution_summary()
            << "\n\n";
  using machines::Comparator;

  struct Entry {
    const char* name;
    machines::Spec spec;
  };
  std::vector<Entry> machines = {
      {"NEC SX-4/1", Comparator::nec_sx4_single()},
      {"CRI Y-MP", Comparator::cray_ymp()},
      {"CRI J90", Comparator::cray_j90()},
      {"IBM RS6000/590", Comparator::ibm_rs6000_590()},
      {"SUN Sparc20", Comparator::sun_sparc20()},
  };

  print_banner(std::cout, "Procurement shootout: column thermodynamics");
  Table t({"Machine", "Workload Mflops", "HINT MQUIPS", "Workload rank",
           "HINT rank"});

  struct Score {
    const char* name;
    double mflops;
    double mquips;
  };
  std::vector<Score> scores;
  for (auto& e : machines) {
    Comparator m(e.spec);
    run_workload(m, 2048, 18);
    const double mflops = m.equiv_flops().value() / m.seconds().value() / 1e6;
    Comparator h(e.spec);
    const double mquips = hint::run_hint(h, 50'000).mquips;
    scores.push_back({e.name, mflops, mquips});
  }
  auto rank_of = [&](double v, auto field) {
    int r = 1;
    for (const auto& s : scores) {
      if (field(s) > v) ++r;
    }
    return r;
  };
  for (const auto& s : scores) {
    t.add_row({s.name, format_fixed(s.mflops, 1), format_fixed(s.mquips, 1),
               std::to_string(rank_of(s.mflops, [](const Score& x) { return x.mflops; })),
               std::to_string(rank_of(s.mquips, [](const Score& x) { return x.mquips; }))});
  }
  t.print(std::cout);

  std::printf("\nThe paper's section 3 lesson: the HINT ranking and the\n"
              "workload ranking disagree — benchmark the workload you run.\n");
  return 0;
} catch (const ncar::config_error& e) {
  // A bad SX4NCAR_* knob stops the run naming it, as in the bench mains.
  std::fprintf(stderr, "procurement_shootout: %s\n", e.what());
  return 2;
}

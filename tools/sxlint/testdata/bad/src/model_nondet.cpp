#include <chrono>
#include <cstdlib>
#include <ctime>
#include <sys/resource.h>

namespace bad {

double wall_seed() {
  // Every call below is banned in model code.
  std::srand(42);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(std::time(nullptr)) + std::rand() +
         static_cast<double>(std::clock()) + drand48() +
         static_cast<double>(lrand48() + random());
}

double host_elapsed() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::high_resolution_clock::now();
  const auto t2 = std::chrono::system_clock::now();
  return static_cast<double>((t1 - t0).count() +
                             t2.time_since_epoch().count());
}

}  // namespace bad

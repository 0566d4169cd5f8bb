// The host's speed, measured by the benchmark's own reference kernels.
//
// A shared host runs the benchmark at speeds up to 1.8x apart, in phases of
// seconds to minutes that slow every kind of code alike: identical runs of
// one seed spread by 20-40% on every host timing. The benchmark times the
// reference kernels right before and after each timed span and reports the
// span at the nominal host speed: a span the kernels ran 1.3x slower around
// counts 1/1.3 of its host time.
//
// The kernels are a shared library of their own (see CMakeLists.txt), with
// their data in it: a small hot loop runs up to 30% faster or slower when
// the code around it moves, so the kernels' code and data must sit at the
// same addresses, relative to cache lines and pages, whatever any change
// to the program does to the benchmark binary's layout.

#ifndef MEMGOAL_BENCH_SUITE_HOST_SPEED_H_
#define MEMGOAL_BENCH_SUITE_HOST_SPEED_H_

#include <vector>

namespace memgoal::bench::suite {

class HostSpeed {
 public:
  /// Times the reference kernels; returns how many times slower than
  /// nominal the host runs them now (1 = nominal, 1.5 = host time runs 1.5x
  /// longer).
  double Factor();

  /// Factor() before and after `span` (a callable), combined as their
  /// geometric mean.
  template <typename Span>
  double Around(Span&& span) {
    const double before = Factor();
    span();
    return Combine(before, Factor());
  }

  /// Median of every Factor() so far (1 when none ran).
  double MedianFactor() const;

 private:
  static double Combine(double before, double after);

  std::vector<double> factors_;
};

}  // namespace memgoal::bench::suite

#endif  // MEMGOAL_BENCH_SUITE_HOST_SPEED_H_

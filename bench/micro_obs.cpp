// Microbenchmark for the observability gate with metrics off: what an
// uninstrumented run pays at every obs::add and obs::ScopedPhase site.  No
// programmatic override is set, so the gate answers from the environment
// (run with MTS_METRICS and MTS_TRACE unset).  The 4-thread case shows
// whether the sites contend with each other.
#include <benchmark/benchmark.h>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace {

using namespace mts;

void BM_MetricsOffGate(benchmark::State& state) {
  static const obs::CounterId kCounter = obs::MetricsRegistry::instance().counter("micro.gate");
  if (obs::metrics_enabled()) state.SkipWithError("metrics are on: unset MTS_METRICS/MTS_TRACE");
  for (auto _ : state) {
    const obs::ScopedPhase phase("micro");
    obs::add(kCounter);
  }
}

}  // namespace

BENCHMARK(BM_MetricsOffGate)->Threads(1)->Threads(4);

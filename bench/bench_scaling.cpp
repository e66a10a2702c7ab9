// The §5 scaling claim: "it is easy to see that this complexity is reduced
// since we have a linear behavior (as opposed to exponential) in terms of
// the number of components."
//
// Workload: AFS-2 with n clients, safety property (Afs1').
//  - compositional: n+1 per-component obligations (invariance rule);
//  - service: the genmodel AFS-2 family at n run as one compose job on
//    service::VerificationService — every (module, spec) obligation and
//    every spec on the composition fanned out on the worker pool (one BDD
//    manager per obligation);
//  - monolithic: compose all components and model check AG(Inv) on the
//    product directly (state space grows as ~168^n · 2);
//  - compose sweep: the genmodel AFS-2 job at n = 2..32 as `cmc check
//    --compose --threads 1 --no-cache` runs it (one worker, cold), recorded
//    as the "service-compose-1worker" rows of BENCH_scaling.json with the
//    job's largest attempt peak_live_nodes.  Every composed spec is a
//    global fixpoint here, so this is the curve the preimage frame test
//    (docs/THEORY.md) flattens and the shared composed product lowers.
//
// Expected shape: compositional time grows ~linearly in n; monolithic time
// grows superlinearly (exponential state space, BDD sizes compound), with
// the crossover at small n.  The report prints a per-n table; the
// google-benchmark section gives the precise timings.
#include <algorithm>

#include "afs/afs2.hpp"
#include "afs/verify_afs2.hpp"
#include "bench_common.hpp"
#include "comp/verifier.hpp"
#include "gen/modelgen.hpp"
#include "service/scheduler.hpp"
#include "util/timer.hpp"

using namespace cmc;

namespace {

bool monolithicCheck(int n, std::uint64_t* transNodes) {
  symbolic::Context ctx(1 << 16);
  afs::Afs2Components comps = afs::buildAfs2(ctx, n, /*reflexive=*/true);
  comp::CompositionalVerifier verifier(ctx);
  verifier.addComponent(comps.server.sys);
  for (const smv::ElaboratedModule& client : comps.clients) {
    verifier.addComponent(client.sys);
  }
  const symbolic::SymbolicSystem& whole = verifier.composed();
  if (transNodes != nullptr) *transNodes = whole.transNodeCount();
  symbolic::Checker checker(whole);
  const ctl::Spec spec = afs::afs2SafetySpec(n);
  return checker.holds(spec);
}

/// The genmodel AFS-2 job with n clients, composed, on a fresh uncached
/// service with `threads` workers (0 = every core).
service::JobReport serviceRun(int n, unsigned threads) {
  service::VerificationJob job;
  job.name = "afs2-" + std::to_string(n);
  job.smvText = gen::afs2Model(static_cast<std::size_t>(n));
  job.options.compose = true;
  job.options.engine = symbolic::EngineMode::Auto;
  service::ServiceOptions sopts;
  sopts.threads = threads;
  sopts.cacheEnabled = false;
  service::VerificationService svc(sopts);
  return svc.run(job);
}

/// True iff every obligation of serviceRun(n, threads) holds.
bool serviceCheck(int n, unsigned threads = 0) {
  return serviceRun(n, threads).allHold();
}

/// The compose sweep: one cold one-worker job per size.  Sizes after the
/// first job slower than kSweepBudgetSeconds are skipped, since each
/// doubling of n costs far more on an engine that does not scale.
void composeSweep() {
  constexpr double kSweepBudgetSeconds = 10.0;
  std::printf("== afs2-n --compose, one worker, cold (genmodel) ==\n");
  std::printf("%3s  %10s  %12s  %s\n", "n", "job (s)", "peak nodes",
              "verdict");
  bool skipping = false;
  for (int n : {2, 4, 8, 12, 16, 24, 32}) {
    if (skipping) {
      std::printf("%3d  %10s  %12s  skipped (previous size over %.0f s)\n",
                  n, "-", "-", kSweepBudgetSeconds);
      continue;
    }
    WallTimer timer;
    const service::JobReport report = serviceRun(n, /*threads=*/1);
    const double seconds = timer.seconds();
    const bool ok = report.allHold();
    // The job's largest attempt, as each attempt record counts it: the
    // worker manager's live nodes from the attempt's start.
    std::uint64_t peak = 0;
    for (const service::ObligationOutcome& o : report.obligations) {
      for (const service::AttemptRecord& a : o.attempts) {
        peak = std::max(peak, a.peakLiveNodes);
      }
    }
    std::printf("%3d  %10.4f  %12llu  %s\n", n, seconds,
                static_cast<unsigned long long>(peak),
                ok ? "all hold" : "SOME FAILED");
    bench::JsonEntry e;
    e.model = "afs2-" + std::to_string(n);
    e.spec = "all obligations (--compose)";
    e.holds = ok;
    e.seconds = seconds;
    e.peakLiveNodes = peak;
    e.mode = "service-compose-1worker";
    e.clusterThreshold = 1024;
    bench::recordResult(std::move(e));
    skipping = seconds > kSweepBudgetSeconds;
  }
  std::printf("\n");
}

void report() {
  std::printf(
      "== section 5: compositional (linear) vs monolithic (exponential) ==\n");
  std::printf(
      "%3s  %12s  %10s  %14s  %12s  %16s\n", "n", "states", "comp. (s)",
      "service (s)", "monol. (s)", "monol. T nodes");
  for (int n = 1; n <= 4; ++n) {
    // State count of the composed system.
    double states = 2.0;  // failure
    for (int i = 0; i < n; ++i) states *= 2 * 3 * 2 * 2 * 4 * 3;  // per client+server block
    WallTimer seq;
    const afs::Afs2Report rep = afs::verifyAfs2(n, false);
    const double seqSeconds = seq.seconds();

    WallTimer par;
    const bool serviceOk = serviceCheck(n);
    const double parSeconds = par.seconds();

    double monoSeconds = -1.0;
    std::uint64_t transNodes = 0;
    if (n <= 3) {  // the monolithic check becomes painful quickly
      WallTimer mono;
      const bool ok = monolithicCheck(n, &transNodes);
      monoSeconds = mono.seconds();
      if (!ok) std::printf("  !! monolithic check FAILED at n=%d\n", n);
    }
    if (!rep.safety || !serviceOk) {
      std::printf("  !! compositional check FAILED at n=%d\n", n);
    }
    std::printf("%3d  %12.3g  %10.4f  %14.4f  %12.4f  %16llu\n", n, states,
                seqSeconds, parSeconds, monoSeconds,
                static_cast<unsigned long long>(transNodes));
  }
  std::printf("(monol. -1 = skipped; states = |domain| of the product)\n\n");
  composeSweep();
}

void BM_Compositional(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const afs::Afs2Report rep = afs::verifyAfs2(n, false);
    benchmark::DoNotOptimize(rep.safety);
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_Compositional)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Service(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serviceCheck(n));
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_Service)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Monolithic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(monolithicCheck(n, nullptr));
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_Monolithic)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

CMC_BENCH_MAIN("scaling", report)

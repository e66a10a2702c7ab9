#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bdd/io.hpp"
#include "comp/classify.hpp"
#include "service/obligation_cache.hpp"
#include "service/snapshot.hpp"
#include "smv/fingerprint.hpp"
#include "smv/parser.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/engine_choice.hpp"

namespace perfbench {

namespace {

using namespace cmc;
using Scope = SpanRecorder::Scope;

void addStats(BddTotals& t, const bdd::ManagerStats& s) {
  t.nodesAllocated += s.nodesAllocatedTotal;
  t.peakLiveNodes = std::max(t.peakLiveNodes, s.peakNodes);
  t.cacheLookups += s.cacheLookups;
  t.cacheHits += s.cacheHits;
  t.uniqueLookups += s.uniqueLookups;
  t.gcRuns += s.gcRuns;
  t.gcReclaimed += s.gcReclaimed;
}

/// Mirrors service::buildSnapshot with a span around each layer call.
service::ElaborationSnapshot tracedSnapshot(SpanRecorder& rec,
                                            const service::VerificationJob& job) {
  Scope span(rec, "service.snapshot");
  service::ElaborationSnapshot snap;
  snap.ctx = std::make_unique<symbolic::Context>(1 << 14);
  symbolic::Context& ctx = *snap.ctx;
  std::vector<smv::Module> parsed;
  {
    Scope s(rec, "smv.parse");
    parsed = smv::parseProgram(job.smvText);
  }
  for (const smv::Module& mod : parsed) {
    Scope s(rec, "smv.elaborate");
    snap.modules.push_back(smv::elaborate(ctx, mod));
  }
  if (snap.modules.empty()) throw ModelError("job has no modules");
  for (const smv::ElaboratedModule& mod : snap.modules) {
    Scope s(rec, "smv.canon");
    snap.canon.push_back(smv::canonicalModule(ctx, mod));
  }
  snap.moduleChoice.resize(snap.modules.size());
  if (job.options.engine == symbolic::EngineMode::Auto) {
    for (std::size_t i = 0; i < snap.modules.size(); ++i) {
      Scope s(rec, "symbolic.engine_choice");
      snap.moduleChoice[i] = symbolic::chooseEngine(snap.modules[i].sys);
    }
    if (job.options.compose && snap.modules.size() > 1) {
      std::optional<symbolic::SymbolicSystem> composed;
      {
        Scope s(rec, "symbolic.compose");
        std::vector<symbolic::SymbolicSystem> parts;
        for (const smv::ElaboratedModule& mod : snap.modules) {
          parts.push_back(mod.sys);
          symbolic::addReflexive(parts.back());
        }
        composed = symbolic::composeAll(parts);
      }
      Scope s(rec, "symbolic.engine_choice");
      snap.composedChoice = symbolic::chooseEngine(*composed);
      snap.hasComposedChoice = true;
    }
  }
  ctx.mgr().collectGarbage();
  snap.liveNodes = ctx.mgr().liveNodeCount();
  return snap;
}

/// Builds the Checker and decides the spec, as one fixpoint span: the
/// scheduler's Checker construction (which folds the partition into
/// clusters) followed by Checker::holds.
bool tracedCheck(SpanRecorder& rec, std::optional<symbolic::Checker>& checker,
                 const symbolic::SymbolicSystem& sys,
                 const symbolic::CheckerOptions& copts,
                 const ctl::Spec& spec) {
  Scope s(rec, "symbolic.fixpoint");
  checker.emplace(sys, copts);
  return checker->holds(spec);
}

/// The scheduler's best-effort counterexample for a failing spec
/// (extractCounterexample).
void counterexample(symbolic::Checker& checker, const ctl::Spec& spec) {
  if (!checker.counterexampleTrace(spec.r, spec.f).has_value()) {
    (void)checker.violationWitness(spec.r, spec.f);
  }
}

/// A composed obligation as the scheduler decides one that the classifier
/// rejects: CompositionalVerifier's global check on the product, then a
/// counterexample from a second Checker on the product if it fails.
bool tracedComposed(SpanRecorder& rec, TracedJob& out,
                    const std::vector<smv::ElaboratedModule>& modules,
                    const symbolic::CheckerOptions& copts,
                    const ctl::Spec& spec) {
  comp::PropertyClass cls;
  {
    Scope s(rec, "comp.classify");
    cls = comp::classify(spec);
  }
  // Rules 1-3 are not replayed: no benchmarked spec classifies, so such a
  // replay would be untested.
  if (cls != comp::PropertyClass::Unknown) {
    throw std::runtime_error("the traced job replays only the global check; " +
                             spec.name + " classifies " +
                             comp::toString(cls));
  }
  // The verifier holds its components as long as the product.
  std::vector<symbolic::SymbolicSystem> parts;
  std::optional<symbolic::SymbolicSystem> composed;
  {
    Scope s(rec, "symbolic.compose");
    for (const smv::ElaboratedModule& mod : modules) {
      parts.push_back(mod.sys);
      symbolic::addReflexive(parts.back());
    }
    composed = symbolic::composeAll(parts);
  }
  bool ok = false;
  {
    // CompositionalVerifier's checker is gone before the scheduler builds
    // the counterexample's.
    std::optional<symbolic::Checker> checker;
    ok = tracedCheck(rec, checker, *composed, copts, spec);
  }
  out.transNodes += composed->transNodeCount();
  if (!ok) {
    Scope s(rec, "symbolic.trace");
    symbolic::Checker direct(*composed, copts);
    counterexample(direct, spec);
  }
  return ok;
}

}  // namespace

TracedJob runTracedJob(const service::VerificationJob& job,
                       const std::string& cacheDir) {
  TracedJob out;
  SpanRecorder rec(job.name);
  {
    Scope root(rec, "job");
    std::unique_ptr<service::ObligationCache> cache;
    {
      Scope s(rec, "service.cache_load");
      service::ObligationCache::Options copts;
      copts.dir = cacheDir;
      cache = std::make_unique<service::ObligationCache>(std::move(copts));
    }
    const service::ElaborationSnapshot snap = tracedSnapshot(rec, job);
    std::vector<service::ObligationRef> refs;
    {
      Scope s(rec, "service.fingerprint");
      refs = service::enumerateObligations(snap, job.options);
    }

    for (const service::ObligationRef& ref : refs) {
      Scope obligation(rec, "obligation");
      std::optional<service::CachedVerdict> hit;
      {
        Scope s(rec, "service.cache_lookup");
        hit = cache->lookup(ref.fingerprint);
      }
      if (hit.has_value()) {
        out.verdicts.emplace_back(ref.id, service::toString(hit->verdict));
        continue;
      }
      const symbolic::EngineChoice& choice =
          ref.composed ? snap.composedChoice
                       : snap.moduleChoice.at(ref.moduleIndex);
      symbolic::CheckerOptions copts;
      copts.usePartitionedTrans = choice.usePartitioned;
      copts.clusterThreshold = job.options.clusterThreshold;

      // The worker context outlives every BDD handle built below.
      std::unique_ptr<symbolic::Context> ctx;
      std::vector<smv::ElaboratedModule> modules;
      {
        Scope s(rec, "service.import");
        ctx = std::make_unique<symbolic::Context>(
            service::workerArenaCapacity(snap.liveNodes),
            service::workerCacheCapacity(snap.liveNodes));
        ctx->adoptVariablesFrom(*snap.ctx);
        bdd::Importer imp(ctx->mgr(), snap.ctx->mgr());
        if (!ref.composed) {
          modules.push_back(service::importModule(
              *ctx, imp, snap.modules.at(ref.moduleIndex),
              /*wantMonolithic=*/!choice.usePartitioned));
        } else {
          for (const smv::ElaboratedModule& mod : snap.modules) {
            modules.push_back(
                service::importModule(*ctx, imp, mod, /*wantMonolithic=*/false));
          }
        }
      }

      // As the scheduler does, the attempt's live-node peak starts here, so
      // it covers Checker construction, fixpoint and counterexample.
      ctx->mgr().resetPeakNodes();
      bool holds = false;
      if (!ref.composed) {
        const ctl::Spec& spec = modules.front().specs.at(ref.specIndex);
        // The scheduler derives a component's counterexample from the
        // checker that refuted it, so it outlives the fixpoint span.
        std::optional<symbolic::Checker> checker;
        holds = tracedCheck(rec, checker, modules.front().sys, copts, spec);
        out.transNodes += modules.front().sys.transNodeCount();
        if (!holds) {
          Scope s(rec, "symbolic.trace");
          counterexample(*checker, spec);
        }
      } else {
        const ctl::Spec& spec =
            modules.at(ref.moduleIndex).specs.at(ref.specIndex);
        holds = tracedComposed(rec, out, modules, copts, spec);
      }
      {
        Scope s(rec, "service.cache_insert");
        service::CachedVerdict v;
        v.verdict = holds ? service::Verdict::Holds : service::Verdict::Fails;
        cache->insert(ref.fingerprint, v);
      }
      addStats(out.bdd, ctx->mgr().stats());
      out.verdicts.emplace_back(ref.id, holds ? "Holds" : "Fails");
    }
    out.snapshotNodes = snap.ctx->mgr().stats().nodesAllocatedTotal;
  }
  out.spans = rec.spans();
  out.jobMs = out.spans.front().durationMs();
  return out;
}

}  // namespace perfbench

// Tests for the verification service layer: job expansion, resource
// budgets (deadline and node budget), the engine degradation/retry policy,
// worker quarantine, cooperative cancellation, counterexample text and
// replayed-Fails trace semantics, and the structured run trace / report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <stdexcept>
#include <string>
#include <vector>

#include "afs/smv_sources.hpp"
#include "comp/verifier.hpp"
#include "service/budget.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "util/failpoint.hpp"

namespace cmc::service {
namespace {

/// Three-phase protocol with one trivially true safety spec.
const char* kChainSmv = R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)";

/// Two modules sharing x, both keeping it constant: the universal spec is
/// discharged on the composition by Rule 2 (every expansion satisfies it).
const char* kTwoModuleSmv = R"(
MODULE mA
VAR x : {on, off};
ASSIGN next(x) := x;
SPEC (x = on) -> AX (x = on)
MODULE mB
VAR
  x : {on, off};
  y : {p, q};
ASSIGN
  next(x) := x;
  next(y) := case y = p : q; 1 : p; esac;
SPEC (x = on) -> AX (x = on)
)";

VerificationJob chainJob() {
  VerificationJob job;
  job.name = "chain";
  job.smvText = kChainSmv;
  return job;
}

ServiceOptions withThreads(unsigned n) {
  ServiceOptions opts;
  opts.threads = n;
  return opts;
}

TEST(Service, VerdictAggregationIsWorstOf) {
  EXPECT_EQ(worseVerdict(Verdict::Holds, Verdict::Timeout), Verdict::Timeout);
  EXPECT_EQ(worseVerdict(Verdict::Timeout, Verdict::MemoryOut),
            Verdict::MemoryOut);
  EXPECT_EQ(worseVerdict(Verdict::Inconclusive, Verdict::Fails),
            Verdict::Fails);
  EXPECT_EQ(worseVerdict(Verdict::Fails, Verdict::Error), Verdict::Fails);
  EXPECT_STREQ(toString(Verdict::MemoryOut), "MemoryOut");
}

TEST(Service, HoldingJobProducesReportAndTrace) {
  VerificationService svc(withThreads(2));
  RunTrace trace;
  const JobReport report = svc.run(chainJob(), &trace);

  EXPECT_TRUE(report.allHold());
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Holds);
  EXPECT_EQ(o.rule, "direct");
  EXPECT_EQ(o.target, "chain");
  EXPECT_FALSE(o.retried);
  ASSERT_EQ(o.attempts.size(), 1u);
  EXPECT_EQ(o.attempts.front().engine, "partitioned");

  EXPECT_EQ(trace.countContaining("\"event\": \"job_start\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"obligation_start\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"obligation_end\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 0u);
  EXPECT_EQ(trace.countContaining("\"event\": \"job_end\""), 1u);

  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"verdict\": \"Holds\""), std::string::npos);
  EXPECT_NE(json.find("\"obligation_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"partitioned\""), std::string::npos);
}

TEST(Service, DeadlineExpiryYieldsTimeoutThenInconclusive) {
  VerificationJob job = chainJob();
  job.options.limits.deadlineSeconds = 1e-9;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Both engines ran out of time, so the obligation is Inconclusive and
  // the report records one attempt per engine.
  EXPECT_EQ(o.verdict, Verdict::Inconclusive);
  EXPECT_TRUE(o.retried);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_EQ(o.attempts[0].engine, "partitioned");
  EXPECT_EQ(o.attempts[0].verdict, Verdict::Timeout);
  EXPECT_EQ(o.attempts[1].engine, "monolithic");
  EXPECT_EQ(o.attempts[1].verdict, Verdict::Timeout);

  EXPECT_GE(trace.countContaining("\"verdict\": \"Timeout\""), 2u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 1u);
  EXPECT_EQ(trace.countContaining("\"reason\": \"Timeout\""), 1u);
}

TEST(Service, TinyNodeBudgetOnAfs2YieldsMemoryOutNotAHang) {
  // The ISSUE's acceptance scenario: a deliberately impossible node budget
  // on an AFS-2 model must surface as MemoryOut attempts plus a retry
  // event in the trace — never a crash or hang.
  VerificationJob job;
  job.name = "afs2";
  job.factory = [](symbolic::Context& ctx) {
    return std::vector<smv::ElaboratedModule>{
        smv::elaborateText(ctx, afs::afs2ServerSmv(2))};
  };
  job.options.limits.nodeBudget = 1;

  VerificationService svc(withThreads(2));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  EXPECT_EQ(report.verdict, Verdict::Inconclusive);
  ASSERT_FALSE(report.obligations.empty());
  for (const ObligationOutcome& o : report.obligations) {
    EXPECT_EQ(o.verdict, Verdict::Inconclusive) << o.id;
    EXPECT_TRUE(o.retried) << o.id;
    ASSERT_EQ(o.attempts.size(), 2u) << o.id;
    EXPECT_EQ(o.attempts[0].verdict, Verdict::MemoryOut) << o.id;
    EXPECT_EQ(o.attempts[1].verdict, Verdict::MemoryOut) << o.id;
  }
  EXPECT_GE(trace.countContaining("\"verdict\": \"MemoryOut\""), 2u);
  EXPECT_GE(trace.countContaining("\"event\": \"retry\""), 1u);
  EXPECT_GE(trace.countContaining("\"reason\": \"MemoryOut\""), 1u);
  // The degradation policy goes partitioned -> monolithic by default.
  EXPECT_GE(trace.countContaining("\"from_engine\": \"partitioned\""), 1u);
  EXPECT_GE(trace.countContaining("\"to_engine\": \"monolithic\""), 1u);
}

TEST(Service, RetryDegradesMonolithicToPartitionedToo) {
  VerificationJob job = chainJob();
  job.options.engine = symbolic::EngineMode::Monolithic;
  job.options.limits.nodeBudget = 1;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Inconclusive);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_EQ(o.attempts[0].engine, "monolithic");
  EXPECT_EQ(o.attempts[1].engine, "partitioned");
  EXPECT_GE(trace.countContaining("\"from_engine\": \"monolithic\""), 1u);
  EXPECT_GE(trace.countContaining("\"to_engine\": \"partitioned\""), 1u);
}

TEST(Service, NoRetryKeepsTheSingleAttemptVerdict) {
  VerificationJob job = chainJob();
  job.options.limits.deadlineSeconds = 1e-9;
  job.options.retryOtherEngine = false;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Without the degradation retry the budget verdict itself stands.
  EXPECT_EQ(o.verdict, Verdict::Timeout);
  EXPECT_FALSE(o.retried);
  EXPECT_EQ(o.attempts.size(), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 0u);
}

TEST(Service, ComposedObligationsCarryRuleAndCertificate) {
  VerificationJob job;
  job.name = "twomod";
  job.smvText = kTwoModuleSmv;
  job.options.compose = true;

  VerificationService svc(withThreads(2));
  const JobReport report = svc.run(job);

  EXPECT_TRUE(report.allHold());
  // 2 component obligations + 2 composed ones.
  ASSERT_EQ(report.obligations.size(), 4u);
  std::size_t composed = 0;
  for (const ObligationOutcome& o : report.obligations) {
    EXPECT_EQ(o.verdict, Verdict::Holds) << o.id;
    if (o.target == "composed") {
      ++composed;
      EXPECT_NE(o.rule.find("Rule 2"), std::string::npos) << o.rule;
      EXPECT_FALSE(o.proofJson.empty()) << o.id;
    } else {
      EXPECT_EQ(o.rule, "direct");
      EXPECT_TRUE(o.proofJson.empty());
    }
  }
  EXPECT_EQ(composed, 2u);
  EXPECT_NE(report.toJson().find("\"proof\": ["), std::string::npos);
}

TEST(Service, ElaborationFailureIsAnErrorOutcomeNotACrash) {
  VerificationJob job;
  job.name = "broken";
  job.smvText = "MODULE nonsense\nVAR !!!";

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  EXPECT_EQ(report.verdict, Verdict::Error);
  ASSERT_EQ(report.obligations.size(), 1u);
  // The CLI keys its exit code 2 on this spec name.
  EXPECT_EQ(report.obligations.front().id, "broken/<elaboration>");
  EXPECT_EQ(report.obligations.front().spec, kElaborationSpec);
  EXPECT_FALSE(report.obligations.front().error.empty());
}

TEST(Service, BatchInterleavesJobsAndReportsInOrder) {
  VerificationJob a = chainJob();
  a.name = "first";
  VerificationJob b = chainJob();
  b.name = "second";

  VerificationService svc(withThreads(2));
  RunTrace trace;
  const std::vector<JobReport> reports = svc.runBatch({a, b}, &trace);

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].job, "first");
  EXPECT_EQ(reports[1].job, "second");
  EXPECT_TRUE(reports[0].allHold());
  EXPECT_TRUE(reports[1].allHold());
  EXPECT_EQ(trace.countContaining("\"event\": \"job_end\""), 2u);
}

TEST(Service, JsonEscapingHandlesControlCharacters) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  const std::string obj =
      JsonObject().put("k", "v\t").putUint("n", 3).str();
  EXPECT_EQ(obj, "{\"k\": \"v\\t\", \"n\": 3}");
}

// ---------------------------------------------------------------------------
// Worker quarantine
// ---------------------------------------------------------------------------

/// A job whose factory throws a foreign exception on selected calls.  The
/// scout phase makes the first call; each worker attempt makes one more.
VerificationJob flakyJob(std::shared_ptr<std::atomic<int>> calls,
                         int failFrom, int failTo) {
  VerificationJob job;
  job.name = "flaky";
  job.factory = [calls, failFrom, failTo](symbolic::Context& ctx) {
    const int n = calls->fetch_add(1) + 1;
    if (n >= failFrom && n <= failTo) {
      throw std::runtime_error("simulated transient fault (call " +
                               std::to_string(n) + ")");
    }
    return smv::elaborateProgram(ctx, R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)");
  };
  return job;
}

TEST(ServiceQuarantine, TransientThrowIsRetriedOnAFreshContext) {
  // Call 1 = scout, call 2 = first attempt (throws), call 3 = quarantine
  // retry (succeeds): the obligation must come back Holds.
  auto calls = std::make_shared<std::atomic<int>>(0);
  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(flakyJob(calls, 2, 2), &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Holds);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_EQ(o.attempts[0].verdict, Verdict::Error);
  EXPECT_EQ(o.attempts[1].verdict, Verdict::Holds);
  EXPECT_EQ(trace.countContaining("\"event\": \"quarantine\""), 1u);
  EXPECT_EQ(trace.countContaining("simulated transient fault"), 1u);
}

TEST(ServiceQuarantine, PersistentThrowBecomesErrorWithoutLosingSiblings) {
  // One poisoned obligation (factory throws on every worker call) next to
  // a healthy job in the same batch: the healthy job must be unaffected
  // and the poisoned one must surface as Error with the exception text.
  auto calls = std::make_shared<std::atomic<int>>(0);
  VerificationService svc(withThreads(2));
  RunTrace trace;
  const std::vector<JobReport> reports =
      svc.runBatch({flakyJob(calls, 2, 1000), chainJob()}, &trace);

  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(reports[0].obligations.size(), 1u);
  const ObligationOutcome& bad = reports[0].obligations.front();
  EXPECT_EQ(bad.verdict, Verdict::Error);
  EXPECT_NE(bad.error.find("simulated transient fault"), std::string::npos);
  // One original attempt plus exactly one quarantine retry — no loops.
  EXPECT_EQ(bad.attempts.size(), 2u);
  EXPECT_EQ(reports[0].verdict, Verdict::Error);

  EXPECT_TRUE(reports[1].allHold());
  EXPECT_EQ(trace.countContaining("\"event\": \"quarantine\""), 1u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(ServiceCancel, RaisedFlagDrainsQueuedObligationsAsCancelled) {
  std::atomic<bool> cancel{true};  // raised before the batch even starts
  ServiceOptions opts = withThreads(2);
  opts.cancelFlag = &cancel;
  VerificationService svc(opts);
  EXPECT_TRUE(svc.cancelRequested());

  RunTrace trace;
  const JobReport report = svc.run(chainJob(), &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  EXPECT_EQ(report.obligations.front().verdict, Verdict::Cancelled);
  EXPECT_TRUE(report.obligations.front().attempts.empty());
  EXPECT_EQ(report.verdict, Verdict::Cancelled);
  EXPECT_EQ(trace.countContaining("\"verdict\": \"Cancelled\""), 2u);
}

TEST(ServiceCancel, CancelledRanksBelowErrorAndFails) {
  EXPECT_EQ(worseVerdict(Verdict::Cancelled, Verdict::Error), Verdict::Error);
  EXPECT_EQ(worseVerdict(Verdict::Cancelled, Verdict::Fails), Verdict::Fails);
  EXPECT_EQ(worseVerdict(Verdict::Inconclusive, Verdict::Cancelled),
            Verdict::Cancelled);
  EXPECT_STREQ(toString(Verdict::Cancelled), "Cancelled");
}

// ---------------------------------------------------------------------------
// Counterexamples: the text form, and replayed Fails that stored none
// ---------------------------------------------------------------------------

const char* kFailingSmv = R"(
MODULE stuck
VAR s : {a, b};
ASSIGN next(s) := b;
SPEC AG (s = a)
)";

/// Specs whose failures have no lasso/path trace, so the scheduler falls
/// back to the single violating-state witness.
const char* kWitnessSmv = R"(
MODULE stuck
VAR a : boolean; b : boolean;
ASSIGN next(a) := 0; next(b) := 0;
SPEC EF (b & a)
SPEC EX a
)";

TEST(ServiceCounterexample, EveryFailsCounterexampleEndsInANewline) {
  std::size_t witnesses = 0;
  for (const char* smv : {kFailingSmv, kWitnessSmv}) {
    VerificationJob job;
    job.name = "stuck";
    job.smvText = smv;
    VerificationService svc(withThreads(1));
    const JobReport report = svc.run(job);
    for (const ObligationOutcome& o : report.obligations) {
      ASSERT_EQ(o.verdict, Verdict::Fails) << o.id;
      if (o.counterexample.empty()) continue;
      EXPECT_EQ(o.counterexample.back(), '\n') << o.id;
      if (o.counterexample.rfind("violating state: ", 0) == 0) ++witnesses;
    }
  }
  // The witness form (the one that used to lack the newline) is exercised.
  EXPECT_GT(witnesses, 0u);
}

/// Seed `dir` with a decided Fails for kFailingSmv's one obligation whose
/// counterexample was not stored (an old-format or trimmed cache entry).
void seedCounterexampleFreeFails(const std::filesystem::path& dir,
                                 const JobOptions& options) {
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  job.options = options;
  const SnapshotResult snap = buildSnapshot(job, /*wantCanon=*/true);
  ASSERT_TRUE(snap.snapshot) << snap.error;
  const std::vector<ObligationRef> refs =
      enumerateObligations(*snap.snapshot, job.options);
  ASSERT_EQ(refs.size(), 1u);
  ASSERT_FALSE(refs.front().fingerprint.empty());

  ObligationCache::Options copts;
  copts.dir = dir.string();
  ObligationCache cache(copts);
  CachedVerdict v;
  v.verdict = Verdict::Fails;
  v.rule = "direct";
  v.engine = "partitioned";
  EXPECT_TRUE(cache.insert(refs.front().fingerprint, v));
}

// A replayed Fails without a stored counterexample must be announced in
// the trace instead of silently looking uninvestigable...
TEST(ServiceReplay, CacheServedFailsWithoutCounterexampleIsAnnounced) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "cmc_trace_unavailable";
  fs::remove_all(dir);
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  seedCounterexampleFreeFails(dir, job.options);

  ServiceOptions so = withThreads(1);
  so.cacheDir = dir.string();
  VerificationService svc(so);
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // The verdict is served as stored — but the trace says the
  // counterexample is not reconstructible from the replay.
  EXPECT_EQ(o.verdict, Verdict::Fails);
  EXPECT_EQ(o.verdictSource, "cache");
  EXPECT_TRUE(o.counterexample.empty());
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_unavailable\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_forced_recheck\""),
            0u);
  fs::remove_all(dir);
}

// ...and --trace-force re-checks it to regenerate the trace.
TEST(ServiceReplay, TraceForceRechecksACounterexampleFreeReplay) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "cmc_trace_force";
  fs::remove_all(dir);
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  // traceForce must not change the fingerprint — the seeded entry is
  // written without it and must still be the one the forced run hits.
  seedCounterexampleFreeFails(dir, job.options);
  job.options.traceForce = true;

  ServiceOptions so = withThreads(1);
  so.cacheDir = dir.string();
  VerificationService svc(so);
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Re-checked on demand: same verdict, fresh counterexample.
  EXPECT_EQ(o.verdict, Verdict::Fails);
  EXPECT_EQ(o.verdictSource, "checked");
  EXPECT_FALSE(o.counterexample.empty());
  EXPECT_FALSE(o.attempts.empty());
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_forced_recheck\""),
            1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Budget: the forced-GC recheck
// ---------------------------------------------------------------------------

/// Dead parity-chain prefixes: xor chains over 16 vars allocate hundreds
/// of distinct nodes, all garbage once the scope closes (the manager's
/// auto-GC threshold of 4096 never fires at this scale).
void makeGarbage(bdd::Manager& mgr) {
  bdd::Bdd f = mgr.bddVar(0);
  for (std::uint32_t i = 1; i < 16; ++i) f ^= mgr.bddVar(i);
}

TEST(ServiceBudget, GcRecoveryAvoidsASpuriousMemoryOut) {
  // Dead intermediates push the live count over budget; the token must
  // force a collection and, with the reachable set back under budget,
  // NOT declare MemoryOut.
  bdd::Manager mgr(64);
  const bdd::Bdd keep = mgr.bddVar(0) & mgr.bddVar(1);
  mgr.collectGarbage();
  const std::uint64_t baseline = mgr.liveNodeCount();
  makeGarbage(mgr);

  ObligationLimits limits;
  limits.nodeBudget = baseline + 20;
  ASSERT_GT(mgr.liveNodeCount(), limits.nodeBudget)
      << "test setup: garbage did not exceed the budget";

  BudgetToken token(mgr, limits);
  const std::uint64_t gcBefore = mgr.stats().gcRuns;
  EXPECT_NO_THROW(token.check());
  EXPECT_GT(mgr.stats().gcRuns, gcBefore);  // the recheck collected
  EXPECT_LE(mgr.liveNodeCount(), limits.nodeBudget);
  // Still under budget on the next poll, and the kept function survived.
  EXPECT_NO_THROW(token.check());
  EXPECT_TRUE(mgr.eval(keep, {true, true, false, false, false, false, false,
                              false, false, false, false, false, false,
                              false, false, false}));
}

TEST(ServiceBudget, GenuineExhaustionStillThrowsAfterGc) {
  // Everything stays referenced, so collection cannot help: the recheck
  // must throw CancelledError with the NodeBudget reason.
  bdd::Manager mgr(64);
  std::vector<bdd::Bdd> pinned;
  bdd::Bdd f = mgr.bddVar(0);
  for (std::uint32_t i = 1; i < 16; ++i) {
    f ^= mgr.bddVar(i);
    pinned.push_back(f);
  }
  ObligationLimits limits;
  limits.nodeBudget = 8;
  ASSERT_GT(mgr.liveNodeCount(), limits.nodeBudget);

  BudgetToken token(mgr, limits);
  const std::uint64_t gcBefore = mgr.stats().gcRuns;
  try {
    token.check();
    FAIL() << "exhausted node budget did not throw";
  } catch (const symbolic::CancelledError& e) {
    EXPECT_EQ(e.reason(), symbolic::CancelReason::NodeBudget);
    EXPECT_NE(std::string(e.what()).find("node budget"), std::string::npos);
  }
  // The throw came from the post-collection recheck, not the raw count.
  EXPECT_GT(mgr.stats().gcRuns, gcBefore);
}

// ---------------------------------------------------------------------------
// Shared composed products
// ---------------------------------------------------------------------------

/// Every shipped model except the genmodel afs2-8 and afs2-16, whose
/// monolithic composed product grows without bound.
std::vector<std::filesystem::path> sharedProductModels() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const fs::path& dir :
       {fs::path(CMC_MODELS_DIR), fs::path(CMC_MODELS_DIR) / "gen"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const fs::path& p = entry.path();
      if (p.extension() != ".smv") continue;
      if (p.stem() == "afs2_8" || p.stem() == "afs2_16") continue;
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string readText(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What a composed obligation decides to, keyed by obligation id.
using Decisions =
    std::map<std::string, std::tuple<Verdict, std::string, std::string>>;

/// The composed obligations decided the way every attempt decided one
/// before products were shared: a fresh Context per obligation, with its
/// own elaboration, reflexive closure, verifier and global Checker.  Under
/// reorderBeforeCheck the context imports the snapshot's modules and sifts
/// them, as each attempt did, since the sifted order depends on what the
/// manager holds.
Decisions perObligationProducts(const VerificationJob& job,
                                bool partitioned) {
  const SnapshotResult snap = buildSnapshot(job, /*wantCanon=*/false);
  EXPECT_TRUE(snap.snapshot) << snap.error;
  Decisions out;
  if (!snap.snapshot) return out;
  for (const ObligationRef& ref :
       enumerateObligations(*snap.snapshot, job.options)) {
    if (!ref.composed) continue;
    symbolic::Context ctx(1 << 14);
    std::vector<smv::ElaboratedModule> modules;
    if (job.options.reorderBeforeCheck) {
      ctx.adoptVariablesFrom(*snap.snapshot->ctx);
      bdd::Importer imp(ctx.mgr(), snap.snapshot->ctx->mgr());
      for (const smv::ElaboratedModule& mod : snap.snapshot->modules) {
        modules.push_back(
            importModule(ctx, imp, mod, /*wantMonolithic=*/false));
      }
      ctx.mgr().reorderSift();
    } else {
      modules = smv::elaborateProgram(ctx, job.smvText);
    }
    symbolic::CheckerOptions copts;
    copts.usePartitionedTrans = partitioned;
    comp::CompositionalVerifier verifier(ctx, copts);
    for (const smv::ElaboratedModule& mod : modules) {
      symbolic::SymbolicSystem sys = mod.sys;
      symbolic::addReflexive(sys);
      verifier.addComponent(std::move(sys));
    }
    const ctl::Spec& spec =
        modules.at(ref.moduleIndex).specs.at(ref.specIndex);
    const comp::PropertyClass cls = comp::classify(spec);
    std::string rule = cls == comp::PropertyClass::Universal
                           ? "universal (Rule 2)"
                       : cls == comp::PropertyClass::Existential
                           ? "existential (Rules 1/3)"
                           : "global fallback";
    comp::ProofTree proof;
    bool ok = verifier.verify(spec, proof, /*allowGlobalFallback=*/true);
    if (!ok && cls != comp::PropertyClass::Unknown) {
      ok = verifier.globalChecker().holds(spec);
      rule += " + global fallback";
    }
    std::string cex;
    if (!ok) {
      symbolic::Checker& checker = verifier.globalChecker();
      if (const auto trace = checker.counterexampleTrace(spec.r, spec.f)) {
        cex = *trace;
      } else if (const auto w = checker.violationWitness(spec.r, spec.f)) {
        cex = "violating state: " + *w + "\n";
      }
    }
    out[ref.id] = {ok ? Verdict::Holds : Verdict::Fails, rule, cex};
  }
  return out;
}

TEST(ServiceSharedProduct, VerdictsMatchAFreshProductPerObligation) {
  const std::vector<std::filesystem::path> models = sharedProductModels();
  ASSERT_GE(models.size(), 10u);
  std::size_t composedChecked = 0;
  for (const std::filesystem::path& path : models) {
    SCOPED_TRACE(path.filename().string());
    for (const symbolic::EngineMode engine :
         {symbolic::EngineMode::Auto, symbolic::EngineMode::Partitioned,
          symbolic::EngineMode::Monolithic}) {
      SCOPED_TRACE(symbolic::toString(engine));
      VerificationJob job;
      job.name = path.stem().string();
      job.smvText = readText(path);
      job.options.compose = true;
      job.options.engine = engine;
      std::map<std::string, Decisions> reference;  // per engine lane

      std::vector<JobReport> runs;
      for (const unsigned threads : {1u, 4u}) {
        ServiceOptions opts = withThreads(threads);
        opts.cacheEnabled = false;
        VerificationService svc(opts);
        runs.push_back(svc.run(job));
      }
      // Direct and composed outcomes agree across worker counts.
      ASSERT_EQ(runs[0].obligations.size(), runs[1].obligations.size());
      for (std::size_t k = 0; k < runs[0].obligations.size(); ++k) {
        const ObligationOutcome& a = runs[0].obligations[k];
        const ObligationOutcome& b = runs[1].obligations[k];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.verdict, b.verdict) << a.id;
        EXPECT_EQ(a.rule, b.rule) << a.id;
        EXPECT_EQ(a.counterexample, b.counterexample) << a.id;
        EXPECT_EQ(a.attempts.back().engine, b.attempts.back().engine)
            << a.id;
      }

      // Composed outcomes agree with a fresh product per obligation.
      std::size_t built = 0, composed = 0;
      for (const ObligationOutcome& o : runs[0].obligations) {
        if (o.target != "composed") continue;
        ++composed;
        ASSERT_EQ(o.attempts.size(), 1u) << o.id;
        const AttemptRecord& a = o.attempts.front();
        if (!a.productReused) {
          ++built;
          EXPECT_GT(a.productMs, 0.0) << o.id;
        } else {
          EXPECT_EQ(a.productMs, 0.0) << o.id;
          EXPECT_EQ(a.importMs, 0.0) << o.id;
        }
        Decisions& ref = reference[a.engine];
        if (ref.empty()) {
          ref = perObligationProducts(job, a.engine == "partitioned");
        }
        const auto it = ref.find(o.id);
        ASSERT_NE(it, ref.end()) << o.id;
        EXPECT_EQ(o.verdict, std::get<0>(it->second)) << o.id;
        EXPECT_EQ(o.rule, std::get<1>(it->second)) << o.id;
        EXPECT_EQ(o.counterexample, std::get<2>(it->second)) << o.id;
        ++composedChecked;
      }
      // One worker builds one product and every later composed
      // obligation of the job reuses it.
      if (composed > 0) {
        EXPECT_EQ(built, 1u);
      }
    }
  }
  EXPECT_GT(composedChecked, 100u);
}

TEST(ServiceSharedProduct, SiftedProductsMatchASiftPerObligation) {
  // Under reorderBeforeCheck the product is sifted once, on the freshly
  // imported modules, which is the manager each attempt used to sift: the
  // order, and so every verdict, rule and counterexample, is the same.
  std::size_t composedChecked = 0;
  for (const char* name :
       {"afs1_composed.smv", "afs2_composed.smv", "alternating_bit.smv",
        "figure2_strong_fairness.smv", "token_ring_3.smv", "gen/afs2_3.smv",
        "gen/ring_3.smv"}) {
    SCOPED_TRACE(name);
    VerificationJob job;
    job.name = name;
    job.smvText = readText(std::filesystem::path(CMC_MODELS_DIR) / name);
    job.options.compose = true;
    job.options.engine = symbolic::EngineMode::Auto;
    // The engine probe reads the unsifted product, as without a sift.
    std::map<std::string, std::string> unsiftedChoice;
    {
      ServiceOptions opts = withThreads(1);
      opts.cacheEnabled = false;
      VerificationService svc(opts);
      for (const ObligationOutcome& o : svc.run(job).obligations) {
        unsiftedChoice[o.id] = o.engineChoiceJson;
      }
    }
    job.options.reorderBeforeCheck = true;
    std::map<std::string, Decisions> reference;  // per engine lane
    for (const unsigned threads : {1u, 4u}) {
      ServiceOptions opts = withThreads(threads);
      opts.cacheEnabled = false;
      VerificationService svc(opts);
      const JobReport report = svc.run(job);
      std::size_t built = 0;
      for (const ObligationOutcome& o : report.obligations) {
        EXPECT_EQ(o.engineChoiceJson, unsiftedChoice[o.id]) << o.id;
        if (o.target != "composed") continue;
        ASSERT_EQ(o.attempts.size(), 1u) << o.id;
        const AttemptRecord& a = o.attempts.front();
        if (!a.productReused) ++built;
        Decisions& ref = reference[a.engine];
        if (ref.empty()) {
          ref = perObligationProducts(job, a.engine == "partitioned");
        }
        const auto it = ref.find(o.id);
        ASSERT_NE(it, ref.end()) << o.id;
        EXPECT_EQ(o.verdict, std::get<0>(it->second)) << o.id;
        EXPECT_EQ(o.rule, std::get<1>(it->second)) << o.id;
        EXPECT_EQ(o.counterexample, std::get<2>(it->second)) << o.id;
        ++composedChecked;
      }
      if (threads == 1 && built > 0) {
        EXPECT_EQ(built, 1u);
      }
    }
  }
  EXPECT_GT(composedChecked, 20u);
}

TEST(ServiceSharedProduct, IdleProductsAreDroppedWhenTheirSnapshotIsDone) {
  // One worker runs the composed job's obligations, then the factory
  // job's; by the time the factory job's attempt builds its model, the
  // composed job has finished and its idle product must be gone.
  VerificationJob composed;
  composed.name = "afs2";
  composed.smvText = readText(std::filesystem::path(CMC_MODELS_DIR) /
                              "afs2_composed.smv");
  composed.options.compose = true;
  auto seen = std::make_shared<std::vector<std::size_t>>();
  VerificationJob later;
  later.name = "later";
  later.factory = [seen](symbolic::Context& ctx) {
    seen->push_back(idleComposedProducts());
    return std::vector<smv::ElaboratedModule>{
        smv::elaborateText(ctx, kChainSmv)};
  };

  ServiceOptions opts = withThreads(1);
  opts.cacheEnabled = false;
  VerificationService svc(opts);
  const std::vector<JobReport> reports = svc.runBatch({composed, later});
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_TRUE(reports[0].allHold());
  ASSERT_TRUE(reports[1].allHold());
  std::size_t reused = 0;
  for (const ObligationOutcome& o : reports[0].obligations) {
    if (o.target == "composed" && o.attempts.front().productReused) ++reused;
  }
  EXPECT_GT(reused, 0u);
  // The snapshot build calls the factory too; the attempt's call is last.
  ASSERT_GE(seen->size(), 2u);
  EXPECT_EQ(seen->back(), 0u);
  EXPECT_EQ(idleComposedProducts(), 0u);
}

TEST(ServiceSharedProduct, QuarantineRetryKeepsTheComposedEngineChoice) {
  // Every snapshot import fails, so each first attempt throws before it
  // resolves the composed engine; the quarantine retry rebuilds from the
  // text and must still run on the composed product's probed engine (ring
  // picks monolithic), not the factory-job default.
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  VerificationJob job;
  job.name = "ring";
  job.smvText =
      readText(std::filesystem::path(CMC_MODELS_DIR) / "gen" / "ring_3.smv");
  job.options.compose = true;
  job.options.engine = symbolic::EngineMode::Auto;
  ServiceOptions opts = withThreads(2);
  opts.cacheEnabled = false;
  VerificationService clean(opts);
  const JobReport expected = clean.run(job);

  util::Failpoint::configure("scheduler.import=error");
  VerificationService svc(opts);
  const JobReport got = svc.run(job);
  util::Failpoint::disarmAll();

  ASSERT_EQ(got.obligations.size(), expected.obligations.size());
  std::size_t composed = 0;
  for (std::size_t k = 0; k < got.obligations.size(); ++k) {
    const ObligationOutcome& o = got.obligations[k];
    const ObligationOutcome& e = expected.obligations[k];
    ASSERT_EQ(o.attempts.size(), 2u) << o.id;
    EXPECT_EQ(o.attempts[0].verdict, Verdict::Error) << o.id;
    EXPECT_EQ(o.verdict, e.verdict) << o.id;
    EXPECT_EQ(o.counterexample, e.counterexample) << o.id;
    EXPECT_EQ(o.attempts.back().engine, e.attempts.back().engine) << o.id;
    EXPECT_EQ(o.engineChoiceJson, e.engineChoiceJson) << o.id;
    if (o.target == "composed") {
      ++composed;
      EXPECT_EQ(o.attempts.back().engine, "monolithic") << o.id;
    }
  }
  EXPECT_GT(composed, 0u);
}

TEST(ServiceSharedProduct, UndecidedAttemptsDoNotPoisonTheNextObligation) {
  // Two jobs on the same text share a snapshot, so they would share a
  // product key.  The first job's composed attempts all blow their node
  // budget; their products must be dropped, so the second job builds its
  // own and decides exactly as it does alone.
  VerificationJob starved;
  starved.name = "starved";
  starved.smvText = kTwoModuleSmv;
  starved.options.compose = true;
  starved.options.limits.nodeBudget = 1;
  VerificationJob healthy = starved;
  healthy.name = "healthy";
  healthy.options.limits.nodeBudget = 0;

  ServiceOptions opts = withThreads(1);
  opts.cacheEnabled = false;
  VerificationService alone(opts);
  const JobReport expected = alone.run(healthy);
  ASSERT_TRUE(expected.allHold());

  VerificationService svc(opts);
  const std::vector<JobReport> reports = svc.runBatch({starved, healthy});
  ASSERT_EQ(reports.size(), 2u);
  for (const ObligationOutcome& o : reports[0].obligations) {
    EXPECT_EQ(o.verdict, Verdict::Inconclusive) << o.id;
  }
  const JobReport& got = reports[1];
  ASSERT_EQ(got.obligations.size(), expected.obligations.size());
  bool firstComposed = true;
  for (std::size_t k = 0; k < got.obligations.size(); ++k) {
    const ObligationOutcome& o = got.obligations[k];
    EXPECT_EQ(o.verdict, expected.obligations[k].verdict) << o.id;
    EXPECT_EQ(o.rule, expected.obligations[k].rule) << o.id;
    if (o.target == "composed" && firstComposed) {
      firstComposed = false;
      EXPECT_FALSE(o.attempts.front().productReused) << o.id;
    }
  }
  EXPECT_FALSE(firstComposed);
}

TEST(ServiceSharedProduct, WarmJobRunsNoComposedProbe) {
  VerificationJob job;
  job.name = "afs2";
  job.smvText = readText(std::filesystem::path(CMC_MODELS_DIR) /
                         "afs2_composed.smv");
  job.options.compose = true;
  job.options.engine = symbolic::EngineMode::Auto;

  // The snapshot probes the modules only.
  const SnapshotResult snap = buildSnapshot(job, /*wantCanon=*/true);
  ASSERT_TRUE(snap.snapshot) << snap.error;
  EXPECT_FALSE(snap.snapshot->hasComposedChoice);

  VerificationService svc(withThreads(2));
  RunTrace cold;
  const JobReport first = svc.run(job, &cold);
  ASSERT_TRUE(first.allHold());
  std::size_t composed = 0;
  for (const ObligationOutcome& o : first.obligations) {
    if (o.target != "composed") continue;
    ++composed;
    // The cold run still records the composed engine choice.
    EXPECT_NE(o.engineChoiceJson.find("\"probed\": true"), std::string::npos)
        << o.id;
  }
  ASSERT_GT(composed, 0u);

  RunTrace warm;
  const JobReport second = svc.run(job, &warm);
  ASSERT_TRUE(second.allHold());
  for (const ObligationOutcome& o : second.obligations) {
    EXPECT_EQ(o.verdictSource, "cache") << o.id;
    EXPECT_TRUE(o.attempts.empty()) << o.id;
  }
  EXPECT_EQ(warm.countContaining("\"event\": \"engine_choice\""), 0u);
  EXPECT_EQ(warm.countContaining("\"event\": \"attempt\""), 0u);
}

}  // namespace
}  // namespace cmc::service

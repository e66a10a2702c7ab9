#include "agr/engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "agr/search.hpp"
#include "smv/parser.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/prop.hpp"
#include "symbolic/trace.hpp"
#include "util/timer.hpp"

namespace cmc::agr {

namespace {

/// Thrown through the L* callbacks when a membership query exhausted its
/// budget — learning for this split is abandoned, never guessed.
struct UndecidedQuery {};

std::string joinNames(const std::vector<smv::Module>& mods,
                      const std::vector<std::size_t>& group) {
  std::string out;
  for (std::size_t i : group) {
    if (!out.empty()) out += '+';
    out += mods[i].name;
  }
  return out;
}

// ---- In-process symbolic analysis of one split -----------------------------
//
// Premise 2 (⟨true⟩ G2 ⟨A⟩) and counterexample attribution are relational
// facts about step relations under interleaving — CTL over the composition
// cannot express "every G2 interface step is allowed by R", so these run
// directly on the BDDs in the engine's own context.  Everything else goes
// through the service.
class SplitAnalyzer {
 public:
  SplitAnalyzer(symbolic::Context& ctx,
                const std::vector<symbolic::SymbolicSystem>& closed,
                const Split& split, const Alphabet& alpha,
                const LearnableSpec& lspec)
      : ctx_(ctx), alpha_(alpha), lspec_(lspec) {
    for (const InterfaceVar& v : alpha.vars) {
      ifaceIds_.push_back(ctx.varId(v.name));
    }

    // Cube of every non-interface bit of the whole context, both columns:
    // quantifying it out projects any relation onto interface steps.
    std::vector<std::uint32_t> bddVars;
    const std::set<symbolic::VarId> iface(ifaceIds_.begin(), ifaceIds_.end());
    for (symbolic::VarId v = 0;
         v < static_cast<symbolic::VarId>(ctx.varCount()); ++v) {
      if (iface.count(v) != 0) continue;
      for (std::uint32_t bit : ctx.variable(v).bits) {
        bddVars.push_back(symbolic::Context::bddVarOf(bit, false));
        bddVars.push_back(symbolic::Context::bddVarOf(bit, true));
      }
    }
    nonIfaceCube_ = ctx.mgr().cube(bddVars);

    // Letter predicates in both columns.
    const std::size_t n = alpha.size();
    cur_.reserve(n);
    nxt_.reserve(n);
    for (std::size_t letter = 0; letter < n; ++letter) {
      cur_.push_back(letterBdd(letter, false));
      nxt_.push_back(letterBdd(letter, true));
    }

    // proj(T_G2): the environment's interface-step relation (includes the
    // stutter diagonal — the composition is reflexive).
    std::vector<symbolic::SymbolicSystem> g2parts;
    g2parts.reserve(split.g2.size());
    for (std::size_t i : split.g2) g2parts.push_back(closed[i]);
    s2_ = symbolic::composeAll(g2parts);
    projT2_ = ctx.mgr().exists(s2_.transBdd(), nonIfaceCube_);
    idIface_ = ctx.frameAll(ifaceIds_);

    std::vector<symbolic::SymbolicSystem> g1parts;
    g1parts.reserve(split.g1.size());
    for (std::size_t i : split.g1) g1parts.push_back(closed[i]);
    s1_ = symbolic::composeAll(g1parts);
    std::vector<symbolic::VarId> g1NonIface;
    for (symbolic::VarId v : s1_.vars) {
      if (iface.count(v) == 0) g1NonIface.push_back(v);
    }
    frameG1Rest_ = ctx.frameAll(g1NonIface);
  }

  /// The step relation R of an assumption as a BDD over interface bits.
  bdd::Bdd relationBdd(const Assumption& a) const {
    bdd::Bdd r = ctx_.mgr().bddFalse();
    const std::size_t n = alpha_.size();
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (a.allows(x, y)) r = r | (cur_[x] & nxt_[y]);
      }
    }
    return r;
  }

  /// Premise 2 as containment: proj(T_G2) ⊆ R ∨ Id(Σ_I).  Returns a
  /// violating interface step when the conjecture forbids something the
  /// environment does.
  std::optional<std::pair<std::size_t, std::size_t>> premise2Violation(
      const bdd::Bdd& r) const {
    return decodePair(projT2_.diff(r | idIface_));
  }

  /// Can the environment (or the global stutter) actually take step a→b?
  /// Distinguishes real violations from spurious assumption steps.
  bool environmentCanStep(std::size_t a, std::size_t b) const {
    return !(projT2_ & cur_[a] & nxt_[b]).isFalse();
  }

  /// When premise 1 fails: the interface step of R whose environment move
  /// breaks a step conjunct from an I-state of G1.  (G1's own moves and
  /// props are covered by base safety, so a genuine premise-1 failure is
  /// always attributable to an environment step.)
  std::optional<std::pair<std::size_t, std::size_t>> blamePair(
      const bdd::Bdd& r) const {
    bdd::Bdd initB = lspec_.spec.r.init != nullptr
                         ? symbolic::propositionalBdd(ctx_, lspec_.spec.r.init)
                         : ctx_.mgr().bddTrue();
    initB = initB & s1_.stateDomain();
    // The environment-move track of G1 ∘ A: R on the interface, frame on
    // the rest of Σ(G1).
    const bdd::Bdd envMove = r & frameG1Rest_;
    const std::uint32_t swap = ctx_.swapPermutation();
    for (const auto& [p, q] : lspec_.steps) {
      const bdd::Bdd pB = symbolic::propositionalBdd(ctx_, p);
      const bdd::Bdd qB = symbolic::propositionalBdd(ctx_, q);
      const bdd::Bdd notQNext =
          ctx_.mgr().permute(s1_.stateDomain() & !qB, swap);
      const bdd::Bdd viol = initB & pB & envMove & notQNext;
      if (viol.isFalse()) continue;
      return decodePair(ctx_.mgr().exists(viol, nonIfaceCube_));
    }
    return std::nullopt;
  }

 private:
  bdd::Bdd letterBdd(std::size_t letter, bool next) const {
    const std::vector<std::size_t> digits = alpha_.decode(letter);
    bdd::Bdd acc = ctx_.mgr().bddTrue();
    for (std::size_t i = 0; i < ifaceIds_.size(); ++i) {
      acc = acc & ctx_.varEqIndex(ifaceIds_[i], digits[i], next);
    }
    return acc;
  }

  std::optional<std::pair<std::size_t, std::size_t>> decodePair(
      const bdd::Bdd& pairs) const {
    if (pairs.isFalse()) return std::nullopt;
    const std::size_t n = alpha_.size();
    for (std::size_t a = 0; a < n; ++a) {
      const bdd::Bdd va = pairs & cur_[a];
      if (va.isFalse()) continue;
      for (std::size_t b = 0; b < n; ++b) {
        if (!(va & nxt_[b]).isFalse()) return std::make_pair(a, b);
      }
    }
    return std::nullopt;
  }

  symbolic::Context& ctx_;
  const Alphabet& alpha_;
  const LearnableSpec& lspec_;
  std::vector<symbolic::VarId> ifaceIds_;
  bdd::Bdd nonIfaceCube_;
  std::vector<bdd::Bdd> cur_;
  std::vector<bdd::Bdd> nxt_;
  symbolic::SymbolicSystem s2_;
  bdd::Bdd projT2_;
  bdd::Bdd idIface_;
  symbolic::SymbolicSystem s1_;
  bdd::Bdd frameG1Rest_;
};

// ---- Exact one-step decision on the full composition -----------------------
//
// Real violations are decided (and traced) on the full composition, so a
// learned Fails carries the same kind of concrete counterexample a direct
// check would produce.  For the learnable shapes (props and p ⇒ AX q under
// all-I-states semantics) this evaluation is exact.
class DirectDecider {
 public:
  DirectDecider(symbolic::Context& ctx,
                const std::vector<symbolic::SymbolicSystem>& closed)
      : ctx_(ctx), closed_(closed) {}

  std::pair<service::Verdict, std::string> decide(const LearnableSpec& ls) {
    if (full_ == nullptr) {
      full_ = std::make_unique<symbolic::SymbolicSystem>(
          symbolic::composeAll(closed_));
    }
    bdd::Bdd initB = ls.spec.r.init != nullptr
                         ? symbolic::propositionalBdd(ctx_, ls.spec.r.init)
                         : ctx_.mgr().bddTrue();
    initB = initB & full_->stateDomain();
    symbolic::TraceBuilder tb(*full_);
    for (const ctl::FormulaPtr& c : ls.props) {
      const bdd::Bdd viol = initB.diff(symbolic::propositionalBdd(ctx_, c));
      if (viol.isFalse()) continue;
      symbolic::Trace t;
      t.states.push_back(tb.pickState(viol));
      return {service::Verdict::Fails, t.toString()};
    }
    for (const auto& [p, q] : ls.steps) {
      const bdd::Bdd notQ =
          full_->stateDomain().diff(symbolic::propositionalBdd(ctx_, q));
      const bdd::Bdd viol =
          initB & symbolic::propositionalBdd(ctx_, p) & tb.preimage(notQ);
      if (viol.isFalse()) continue;
      symbolic::Trace t;
      t.states.push_back(tb.pickState(viol));
      const bdd::Bdd succ = tb.image(tb.stateBdd(t.states.front())) & notQ;
      t.states.push_back(tb.pickState(succ));
      return {service::Verdict::Fails, t.toString()};
    }
    return {service::Verdict::Holds, ""};
  }

 private:
  symbolic::Context& ctx_;
  const std::vector<symbolic::SymbolicSystem>& closed_;
  std::unique_ptr<symbolic::SymbolicSystem> full_;
};

// ---- Per-spec learning ----------------------------------------------------

struct LearnSpecResult {
  bool decided = false;
  service::Verdict verdict = service::Verdict::Error;
  std::string counterexample;
  std::string fallbackReason;

  std::size_t assumptionStates = 0;
  std::size_t relationSize = 0;
  std::size_t alphabetLetters = 0;
  std::size_t rounds = 0;
  std::size_t splitsTried = 0;
  std::string interfaceVars;
  std::string partitionG1;
  std::string partitionG2;
  Teacher::Stats stats;
};

void foldStats(Teacher::Stats& into, const Teacher::Stats& from) {
  into.membershipQueries += from.membershipQueries;
  into.pairQueries += from.pairQueries;
  into.candidateQueries += from.candidateQueries;
  into.cacheHits += from.cacheHits;
  into.cacheMisses += from.cacheMisses;
  into.cacheInserts += from.cacheInserts;
}

/// One split's learning loop.  Returns true when the spec was decided
/// (result filled in); false leaves `lastReason` explaining the retreat.
bool tryLearnSplit(Teacher& teacher, const Split& split,
                   symbolic::Context& ctx,
                   const std::vector<symbolic::SymbolicSystem>& closed,
                   const LearnableSpec& lspec, const LearnOptions& lopts,
                   DirectDecider& direct, LearnSpecResult& res,
                   std::string* lastReason) {
  const Alphabet& alpha = teacher.alphabet();

  const auto decideViolation = [&](const Dfa* dfa,
                                   const Assumption* a) -> bool {
    const auto [v, cex] = direct.decide(lspec);
    if (v != service::Verdict::Fails) {
      // The oracle said some step is unsafe but the full composition has
      // no violation — never report a learned verdict we cannot ground.
      *lastReason = "counterexample analysis disagrees with the direct "
                    "decision; refusing the learned verdict";
      return false;
    }
    res.decided = true;
    res.verdict = service::Verdict::Fails;
    res.counterexample = cex;
    if (dfa != nullptr) res.assumptionStates = dfa->states;
    if (a != nullptr) res.relationSize = a->relationSize();
    return true;
  };

  // Base safety — G1's own moves and the stutter — is independent of any
  // assumption; its failure is a real violation, its budget exhaustion
  // dooms every later query.
  switch (teacher.baseSafe()) {
    case QueryVerdict::Undecided:
      *lastReason = "base-safety query exhausted its budget";
      return false;
    case QueryVerdict::Unsafe:
      return decideViolation(nullptr, nullptr);
    case QueryVerdict::Safe:
      break;
  }

  if (alpha.vars.empty()) {
    // No shared variables: the environment cannot move, so base safety
    // alone discharges the composed spec (the trivial assumption).
    res.decided = true;
    res.verdict = service::Verdict::Holds;
    res.assumptionStates = 1;
    res.relationSize = 0;
    return true;
  }

  LStar lstar(alpha.size(), [&teacher](const Word& w) {
    switch (teacher.member(w)) {
      case QueryVerdict::Safe:
        return true;
      case QueryVerdict::Unsafe:
        return false;
      default:
        throw UndecidedQuery{};
    }
  });

  SplitAnalyzer analyzer(ctx, closed, split, alpha, lspec);

  try {
    for (std::size_t round = 1; round <= lopts.maxRounds; ++round) {
      res.rounds = round;
      const Dfa dfa = lstar.conjecture();
      const Assumption assumption = assumptionFromDfa(alpha, dfa);
      const bdd::Bdd r = analyzer.relationBdd(assumption);

      // Premise 2: every environment interface step is allowed by R.
      if (const auto viol = analyzer.premise2Violation(r)) {
        const auto [a, b] = *viol;
        switch (teacher.pairSafe(a, b)) {
          case QueryVerdict::Safe:
            // The conjecture is too strong: the step is safe, admit it.
            lstar.addCounterexample({a, b});
            continue;
          case QueryVerdict::Unsafe:
            // The environment takes a step that breaks P: real violation.
            return decideViolation(&dfa, &assumption);
          default:
            *lastReason = "interface-step query exhausted its budget";
            return false;
        }
      }

      // Premise 1 through the service: ⟨A⟩ G1 ⟨P⟩.
      switch (teacher.premise1(assumption)) {
        case QueryVerdict::Safe:
          res.decided = true;
          res.verdict = service::Verdict::Holds;
          res.assumptionStates = dfa.states;
          res.relationSize = assumption.relationSize();
          return true;
        case QueryVerdict::Undecided:
          *lastReason = "premise-1 query exhausted its budget";
          return false;
        case QueryVerdict::Unsafe:
          break;
      }
      const auto blame = analyzer.blamePair(r);
      if (!blame.has_value()) {
        *lastReason = "premise-1 failure not attributable to an interface "
                      "step";
        return false;
      }
      const auto [a, b] = *blame;
      switch (teacher.pairSafe(a, b)) {
        case QueryVerdict::Safe:
          *lastReason = "oracle inconsistency on interface step " +
                        alpha.letterText(a) + " -> " + alpha.letterText(b);
          return false;
        case QueryVerdict::Undecided:
          *lastReason = "interface-step query exhausted its budget";
          return false;
        case QueryVerdict::Unsafe:
          if (analyzer.environmentCanStep(a, b)) {
            return decideViolation(&dfa, &assumption);
          }
          // The conjecture is too weak: it admits an unsafe step the
          // environment never takes — reject it.
          lstar.addCounterexample({a, b});
          break;
      }
    }
  } catch (const UndecidedQuery&) {
    *lastReason = "membership query exhausted its budget";
    return false;
  }
  *lastReason = "learning did not converge within " +
                std::to_string(lopts.maxRounds) + " rounds";
  return false;
}

LearnSpecResult learnForSpec(
    service::VerificationService& svc, const service::VerificationJob& job,
    const std::shared_ptr<const std::vector<smv::Module>>& parsed,
    symbolic::Context& ctx,
    const std::vector<symbolic::SymbolicSystem>& closed, std::size_t owner,
    const ctl::Spec& spec, const LearnOptions& lopts, DirectDecider& direct,
    service::RunTrace* trace) {
  LearnSpecResult res;
  std::string reason;
  const auto lspec = decomposeLearnable(spec, owner, &reason);
  if (!lspec.has_value()) {
    res.fallbackReason = reason;
    return res;
  }

  std::set<std::string> needed = ctl::collectVariables(spec.f);
  if (spec.r.init != nullptr) {
    const std::set<std::string> iv = ctl::collectVariables(spec.r.init);
    needed.insert(iv.begin(), iv.end());
  }
  const std::vector<Split> splits =
      enumerateSplits(*parsed, needed, lopts.alphabetCap, lopts.maxSplits);
  if (splits.empty()) {
    res.fallbackReason =
        "no 2-way decomposition covers the spec's variables within the "
        "interface-alphabet cap";
    return res;
  }

  std::string lastReason = "no split admitted an interface alphabet";
  for (const Split& split : splits) {
    ++res.splitsTried;
    std::string why;
    const auto alpha = buildAlphabet(*parsed, split.g1, split.g2,
                                     lopts.alphabetCap, &why);
    if (!alpha.has_value()) {
      lastReason = why;
      continue;
    }
    res.interfaceVars = alpha->varsText();
    res.alphabetLetters = alpha->vars.empty() ? 0 : alpha->size();
    res.partitionG1 = joinNames(*parsed, split.g1);
    res.partitionG2 = joinNames(*parsed, split.g2);

    Teacher teacher(svc, parsed, split.g1, *alpha, *lspec, job.options,
                    job.name + "/" + spec.name, trace);
    const bool decided = tryLearnSplit(teacher, split, ctx, closed, *lspec,
                                       lopts, direct, res, &lastReason);
    foldStats(res.stats, teacher.stats());
    if (decided) return res;
  }
  res.fallbackReason = lastReason;
  return res;
}

}  // namespace

service::JobReport runLearnedJob(service::VerificationService& svc,
                                 const service::VerificationJob& job,
                                 const LearnOptions& lopts,
                                 service::RunTrace* trace,
                                 service::MetricsRegistry* metrics) {
  // Learning applies to composed text jobs only; everything else passes
  // straight through to the plain service.
  if (job.factory || !job.options.compose) return svc.run(job, trace);

  const auto directRun = [&]() {
    service::VerificationJob direct = job;
    direct.options.learn = false;
    service::JobReport report = svc.run(direct, trace);
    report.options = job.options;
    return report;
  };

  WallTimer timer;
  std::shared_ptr<const std::vector<smv::Module>> parsed;
  try {
    parsed = std::make_shared<const std::vector<smv::Module>>(
        smv::parseProgram(job.smvText));
  } catch (const std::exception&) {
    return directRun();  // let the service report the parse error
  }
  if (parsed->size() < 2) return directRun();

  // The engine's own context: spec enumeration and the in-process
  // premise-2 / attribution analysis.  Query obligations never touch it —
  // they elaborate fresh snapshots inside the service.
  symbolic::Context ctx(1 << 16);
  std::vector<smv::ElaboratedModule> ems;
  try {
    ems = smv::elaborateProgram(ctx, job.smvText);
  } catch (const std::exception&) {
    return directRun();
  }
  std::vector<symbolic::SymbolicSystem> closed;
  closed.reserve(ems.size());
  for (const smv::ElaboratedModule& em : ems) {
    closed.push_back(em.sys);
    symbolic::addReflexive(closed.back());
  }
  DirectDecider direct(ctx, closed);

  // Component obligations run through the plain service first (same ids,
  // caching, and engines as a direct run).
  service::VerificationJob compJob = job;
  compJob.options.compose = false;
  compJob.options.learn = false;
  service::JobReport out = svc.run(compJob, trace);
  out.options = job.options;

  for (std::size_t i = 0; i < ems.size(); ++i) {
    for (const ctl::Spec& spec : ems[i].specs) {
      WallTimer specTimer;
      LearnSpecResult res = learnForSpec(svc, job, parsed, ctx, closed, i,
                                         spec, lopts, direct, trace);
      if (metrics != nullptr) {
        metrics->counter("learn_membership_queries")
            .inc(res.stats.membershipQueries);
        metrics->counter("learn_pair_queries").inc(res.stats.pairQueries);
        metrics->counter("learn_candidate_queries")
            .inc(res.stats.candidateQueries);
        metrics->counter(res.decided ? "learn_specs_learned"
                                     : "learn_specs_fallback")
            .inc();
      }
      out.cacheHits += res.stats.cacheHits;
      out.cacheMisses += res.stats.cacheMisses;
      out.cacheInserts += res.stats.cacheInserts;

      service::ObligationOutcome o;
      if (res.decided) {
        o.id = "composed/" + spec.name;
        o.target = "composed";
        o.spec = spec.name;
        o.specText = ctl::toString(spec.f);
        o.verdict = res.verdict;
        o.verdictSource = "learned";
        o.rule = "assume-guarantee (learned)";
        o.counterexample = res.counterexample;
        o.seconds = specTimer.seconds();
        o.learnedJson =
            service::JsonObject()
                .putUint("assumption_states", res.assumptionStates)
                .putUint("relation_size", res.relationSize)
                .putUint("alphabet_letters", res.alphabetLetters)
                .put("interface", res.interfaceVars)
                .put("partition_g1", res.partitionG1)
                .put("partition_g2", res.partitionG2)
                .putUint("membership_queries", res.stats.membershipQueries)
                .putUint("pair_queries", res.stats.pairQueries)
                .putUint("candidate_queries", res.stats.candidateQueries)
                .putUint("rounds", res.rounds)
                .putUint("splits_tried", res.splitsTried)
                .str();
      } else {
        // Fall back to the direct composed check of exactly this spec.
        service::VerificationJob fb = job;
        fb.options.learn = false;
        fb.only = "composed/" + spec.name;
        const service::JobReport fr = svc.run(fb, trace);
        out.cacheHits += fr.cacheHits;
        out.cacheMisses += fr.cacheMisses;
        out.cacheInserts += fr.cacheInserts;
        const auto it = std::find_if(
            fr.obligations.begin(), fr.obligations.end(),
            [&](const service::ObligationOutcome& ob) {
              return ob.id == fb.only;
            });
        if (it != fr.obligations.end()) {
          o = *it;
        } else {
          o.id = fb.only;
          o.target = "composed";
          o.spec = spec.name;
          o.specText = ctl::toString(spec.f);
          o.verdict = service::Verdict::Error;
          o.error = "fallback run did not produce the composed obligation";
        }
        o.learnedJson = service::JsonObject()
                            .put("fallback_reason", res.fallbackReason)
                            .str();
      }
      out.verdict = service::worseVerdict(out.verdict, o.verdict);
      out.obligations.push_back(std::move(o));
    }
  }
  out.wallSeconds = timer.seconds();
  return out;
}

}  // namespace cmc::agr

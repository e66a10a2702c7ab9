// `perfbench --self-test`: checks the harness itself.
//  - the tail-percentile rule on synthetic samples;
//  - self-time arithmetic on nested synthetic spans;
//  - the seed permutation and its id mapping;
//  - that the verdict checker rejects a deliberately wrong expected entry;
//  - that kripke::ExplicitChecker, on every component and on the flattened
//    product, agrees with the committed small-n expected tables, so the
//    pattern the large tables encode is confirmed by the explicit oracle.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kripke/explicit_checker.hpp"
#include "service/scheduler.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cmc;

int gFailures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << std::endl;
  if (!ok) ++gFailures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int from, int to) {
  std::vector<double> v;
  for (int i = to; i >= from; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void testTail() {
  const Tail t1000 = tailPercentile(iota(1, 1000));
  expect(t1000.percentile == 99.0 && t1000.value == 990.0 &&
             t1000.beyond == 10 && t1000.samples == 1000,
         "tail of 1..1000 is p99 = 990 with 10 beyond");
  const Tail t100 = tailPercentile(iota(1, 100));
  expect(t100.percentile == 90.0 && t100.value == 90.0 && t100.beyond == 10,
         "tail of 1..100 is p90 = 90 (p95 has only 5 beyond)");
  const Tail t20 = tailPercentile(iota(1, 20));
  expect(t20.percentile == 50.0 && t20.value == 10.0,
         "tail of 20 samples falls back to the median");
  const Tail t20000 = tailPercentile(iota(1, 20000));
  expect(t20000.percentile == 99.9 && t20000.beyond == 20,
         "tail of 20000 samples is p99.9 (p99.99 has 2 beyond)");
  bool threw = false;
  try {
    tailPercentile(iota(1, 19));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "tail of 19 samples is refused");
  expect(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void testSelfTime() {
  // job [0,100] > a [10,40] > a1 [20,30]; job > b [50,70]; job > c [60,80]
  // (b and c overlap: the union 50..80 is covered once).
  const std::vector<Span> spans = {
      {"j", "job", -1, 0, 100}, {"j", "a", 0, 10, 40}, {"j", "a1", 1, 20, 30},
      {"j", "b", 0, 50, 70},    {"j", "c", 0, 60, 80},
  };
  const std::vector<double> self = selfTimesMs(spans);
  expect(near(self[0], 40) && near(self[1], 20) && near(self[2], 10) &&
             near(self[3], 20) && near(self[4], 20),
         "self times of nested and overlapping spans");
  const std::map<std::string, double> byName = selfTimesByName(
      {{"j", "job", -1, 0, 10}, {"j", "x", 0, 1, 3}, {"j", "x", 0, 4, 5}});
  expect(near(byName.at("x"), 3) && near(byName.at("job"), 7),
         "self times summed by name add up to the root");

  SpanRecorder rec("j");
  {
    SpanRecorder::Scope root(rec, "job");
    { SpanRecorder::Scope a(rec, "a"); }
    SpanRecorder::Scope b(rec, "b");
    { SpanRecorder::Scope c(rec, "c"); }
  }
  const std::vector<Span>& s = rec.spans();
  double sum = 0;
  for (double v : selfTimesMs(s)) sum += v;
  expect(s.size() == 4 && s[0].parent == -1 && s[1].parent == 0 &&
             s[2].parent == 0 && s[3].parent == 2 &&
             std::fabs(sum - s[0].durationMs()) < 1e-6,
         "recorded spans nest by scope and self times sum to the root");
}

std::vector<ObservedVerdict> serviceVerdicts(const PermutedText& input) {
  service::VerificationJob job;
  job.name = "selftest";
  job.smvText = input.text;
  job.options.engine = symbolic::EngineMode::Auto;
  job.options.compose = true;
  service::ServiceOptions opts;
  opts.threads = 1;
  service::VerificationService svc(opts);
  std::vector<ObservedVerdict> out;
  for (const service::ObligationOutcome& o : svc.run(job).obligations) {
    out.push_back({originalId(input, o.id), service::toString(o.verdict)});
  }
  return out;
}

std::multiset<std::string> lineSet(const std::string& text) {
  std::multiset<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.insert(line);
  return out;
}

void testSeedAndVerdicts(const std::string& dir) {
  const std::string afs = modelText("afs2", 2, false);
  expect(permuteSpecs(afs, 0).text == afs, "seed 0 keeps the generator text");
  const PermutedText p = permuteSpecs(afs, 7);
  expect(p.text != afs && lineSet(p.text) == lineSet(afs),
         "seed 7 reorders SPEC lines and nothing else");
  std::set<std::string> targets;
  for (const auto& [from, to] : p.toOriginal) targets.insert(to);
  expect(targets.size() == p.toOriginal.size(),
         "the seed's id mapping is a bijection");

  const ExpectedTable afsTable = loadExpected(dir + "/afs2-2.tsv");
  expect(verdictMismatches(afsTable, serviceVerdicts(p)).empty(),
         "service verdicts on seed-7 afs2-2 match the table after mapping");

  const PermutedText ring = permuteSpecs(modelText("ring", 4, true), 0);
  const std::vector<ObservedVerdict> got = serviceVerdicts(ring);
  ExpectedTable table = loadExpected(dir + "/ring-live-4.tsv");
  expect(verdictMismatches(table, got).empty(),
         "service verdicts on ring-live-4 match the table");
  std::string& entry = table.at("composed/station0.SPEC1");
  entry = entry == "Holds" ? "Fails" : "Holds";
  expect(verdictMismatches(table, got).size() == 1,
         "a deliberately wrong expected entry is rejected");
  table.erase("composed/station0.SPEC1");
  expect(verdictMismatches(table, got).size() == 1,
         "an obligation missing from the table is rejected");
}

/// The explicit oracle over one system's enumerated state space.
class Oracle {
 public:
  explicit Oracle(const symbolic::SymbolicSystem& sys)
      : image_(symbolic::explicitFromSymbolic(sys)),
        checker_(image_.sys, image_.semantics) {}

  /// M ⊨_r f over the valid encodings only (the symbolic checker's domain).
  bool holds(const ctl::Spec& spec) {
    const kripke::StateSet init = checker_.sat(
        spec.r.init != nullptr ? spec.r.init : ctl::mkTrue(), spec.r.fairness);
    const kripke::StateSet f = checker_.sat(spec.f, spec.r.fairness);
    for (std::size_t s = 0; s < f.size(); ++s) {
      if (image_.valid[s] && init[s] && !f[s]) return false;
    }
    return true;
  }

 private:
  symbolic::ExplicitImage image_;
  kripke::ExplicitChecker checker_;
};

void testExplicit(const std::string& dir, const std::string& family,
                  std::size_t n, bool live, const std::string& tableFile) {
  symbolic::Context ctx;
  const std::vector<smv::ElaboratedModule> mods =
      smv::elaborateProgram(ctx, modelText(family, n, live));
  std::vector<symbolic::SymbolicSystem> parts;
  for (const smv::ElaboratedModule& m : mods) {
    parts.push_back(m.sys);
    symbolic::addReflexive(parts.back());
  }
  const symbolic::SymbolicSystem flat = symbolic::composeAll(parts);
  Oracle product(flat);
  std::vector<ObservedVerdict> got;
  for (const smv::ElaboratedModule& m : mods) {
    Oracle component(m.sys);
    for (const ctl::Spec& spec : m.specs) {
      got.push_back({m.sys.name + "/" + spec.name,
                     component.holds(spec) ? "Holds" : "Fails"});
      got.push_back({"composed/" + spec.name,
                     product.holds(spec) ? "Holds" : "Fails"});
    }
  }
  const std::vector<std::string> bad =
      verdictMismatches(loadExpected(dir + "/" + tableFile), got);
  for (const std::string& line : bad) std::cout << "      " << line << "\n";
  expect(bad.empty(), "explicit oracle confirms " + tableFile);
}

}  // namespace

int runSelfTest(const std::string& expectedDir) {
  testTail();
  testSelfTime();
  testSeedAndVerdicts(expectedDir);
  testExplicit(expectedDir, "ring", 4, true, "ring-live-4.tsv");
  // afs2-2's product has 2^19 encodings, too many for the explicit image.
  testExplicit(expectedDir, "afs2", 1, false, "afs2-1.tsv");
  std::cout << (gFailures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return gFailures == 0 ? 0 : 1;
}

}  // namespace perfbench

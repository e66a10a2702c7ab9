// The paper's §4.3 case study: AFS-2 with callbacks, updates, failures and
// transmission delay, verified compositionally for n clients.  Also
// discharges the same family through the verification service: every
// (module, spec) obligation and every spec on the composition fans out
// across the worker pool, one BDD manager per obligation.
//
//   $ ./afs2_verification [numClients] [--cross-check]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>

#include "afs/smv_sources.hpp"
#include "afs/verify_afs2.hpp"
#include "gen/modelgen.hpp"
#include "service/scheduler.hpp"

using namespace cmc;

int main(int argc, char** argv) {
  int numClients = 2;
  bool crossCheck = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cross-check") == 0) {
      crossCheck = true;
    } else {
      numClients = std::stoi(argv[i]);
    }
  }

  std::cout << "== AFS-2 with " << numClients << " client(s) ==\n\n";
  std::cout << "generated server model:\n"
            << afs::afs2ServerSmv(std::min(numClients, 1)) << "\n";

  const afs::Afs2Report report = afs::verifyAfs2(numClients, crossCheck);
  std::cout << report.proof.render() << "\n";
  std::cout << "  (Afs1') safety, compositional: "
            << (report.safety ? "proved" : "FAILED") << "\n";
  if (crossCheck) {
    std::cout << "  (Afs1') direct global check:   "
              << (report.safetyCrossCheck ? "confirmed" : "FAILED") << "\n";
  }
  std::cout << "  per-component model checks:    " << report.componentChecks
            << " (linear in the number of clients)\n\n";

  std::cout << "== parallel discharge through the verification service ==\n";
  service::VerificationJob job;
  job.name = "afs2-" + std::to_string(numClients);
  job.smvText = gen::afs2Model(static_cast<std::size_t>(numClients));
  job.options.compose = true;
  job.options.engine = symbolic::EngineMode::Auto;
  service::ServiceOptions sopts;
  sopts.threads = 0;  // hardware concurrency
  sopts.cacheEnabled = false;
  service::VerificationService svc(sopts);
  const service::JobReport parallel = svc.run(job);
  for (const service::ObligationOutcome& o : parallel.obligations) {
    const bool ok = o.verdict == service::Verdict::Holds;
    std::cout << "  " << (ok ? "ok  " : "FAIL") << ' ' << o.id << "  ["
              << o.rule << "] (" << o.seconds << " s)\n";
  }
  std::cout << (parallel.allHold() ? "ALL OK" : "FAILURES") << " ("
            << parallel.obligations.size() << " obligations, "
            << parallel.wallSeconds << " s wall)\n";
  return report.allOk() && parallel.allHold() ? 0 : 1;
}

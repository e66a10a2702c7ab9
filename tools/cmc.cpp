// cmc — the production command-line front end of the verification service.
//
//   cmc check [options] <model.smv> [more.smv ...]
//   cmc serve --socket /path [--tcp PORT] [options]
//   cmc submit --socket /path [options] <model.smv> [more.smv ...]
//   cmc cache compact --cache-dir DIR
//   cmc failpoints | version | help
//
// Each model file becomes one VerificationJob; all jobs run as one batch on
// the service's thread pool, so obligations of different models interleave.
//
// `cmc serve` keeps one VerificationService alive across many requests — a
// persistent daemon speaking newline-delimited JSON (src/net/protocol.hpp)
// over a Unix-domain socket, with admission control (bounded queue, BUSY
// backpressure), per-request CANCEL, live metrics (STATS), and SIGTERM =
// drain-and-exit-0.  `cmc submit` is the matching client.
// Every job writes a JSONL event trace and a summary JSON report (schema in
// README.md) next to its model — override the destinations with --trace and
// --report.  With --cache-dir every decided verdict is appended to a
// crash-safe disk store the moment it is decided; running the same command
// again after a crash or interrupt serves those verdicts and checks the
// rest.
//
//   cmc check --compose --deadline-ms 5000 --node-budget 2000000
//             --report out.json models/*.smv          (one command line)
//
// Exit codes follow the SMV-family convention: verdicts are data, not exit
// status.  0 = verification ran to completion (per-spec verdicts are in the
// output and the report); 2 = usage, I/O or elaboration error; 5 = some
// obligation ended in an Error verdict (exception despite quarantine);
// 128+N = interrupted by signal N after flushing partial results (130 =
// SIGINT, 143 = SIGTERM).  With --strict the verdict is additionally mapped
// onto the exit code for CI gating: 1 = some spec fails, 3 = budget
// exhausted (Timeout / MemoryOut), 4 = Inconclusive on both engines.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/obligation_cache.hpp"
#include "service/scheduler.hpp"
#include "util/failpoint.hpp"
#include "util/version.hpp"

using namespace cmc;

namespace {

constexpr const char* kUsage = R"(usage: cmc <command> [options] <model.smv> [more.smv ...]

commands:
  check       parse, elaborate and verify every SPEC of the given models
  serve       run the persistent verification daemon (wire protocol over a
              Unix-domain socket; see README.md "Server mode")
  submit      client for a serving daemon: submit checks,
              query STATUS/STATS, CANCEL a request, or DRAIN the server
  cache       maintain an on-disk obligation cache: `cmc cache compact`
              deduplicates DIR/obligations.jsonl offline
  failpoints  list the fault-injection sites (see docs/OPERATIONS.md)
  version     print the version string
  help        print this help

cmc check options:
  --compose          also verify each spec on the composition of all modules
                     (compositional rules first, certificate in the report)
  --engine MODE      first-attempt verification engine:
                       auto         probe the monolithic product size per
                                    obligation, pick the cheaper symbolic
                                    engine (default)
                       partitioned  symbolic fixpoints, partitioned relation
                       monolithic   symbolic fixpoints, materialized product
  --no-retry         disable the budget-exhaustion retry on the other engine
  --trace-force      re-check a cache-replayed Fails that stored no
                     counterexample, so the report carries a trace
  --deadline-ms N    per-attempt wall-clock deadline in milliseconds
  --node-budget N    per-attempt budget of live BDD nodes
  --cluster N        partition clustering threshold in nodes (default 1024)
  --reorder          sift variables after elaboration, before checking
  --threads N        worker threads (default: hardware concurrency)
  --cache-dir DIR    persist decided verdicts to DIR/obligations.jsonl and
                     reload them on start-up, so a re-run of an unchanged
                     model serves its verdicts from the cache; this is also
                     how an interrupted run resumes
  --no-cache         disable the content-addressed obligation cache (a usage
                     error together with --cache-dir)
  --report PATH      write one combined summary JSON to PATH
                     (default: <model>.report.json next to each model)
  --trace PATH       write one combined JSONL event trace to PATH
                     (default: <model>.trace.jsonl next to each model)
  --failpoint S=A    arm fault-injection site S with action A (error, throw,
                     delay(ms), 1in(n)); repeatable; needs a build with
                     -DCMC_FAILPOINTS=ON (the CMC_FAILPOINTS env var takes
                     a comma-separated list of the same specs)
  --strict           map the aggregate verdict onto the exit code
                     (1 = some spec fails, 3 = budget exhausted,
                     4 = inconclusive); the default, as in the SMV family,
                     is to exit 0 whenever verification ran to completion
  --quiet            only print the final per-job verdicts

cmc serve options:
  --socket PATH      Unix-domain listener (required; unlinked on shutdown)
  --tcp PORT         also listen on 127.0.0.1:PORT (0 = pick an ephemeral
                     port, printed on start-up)
  --max-inflight N   CHECK requests executing at once (default: worker
                     threads)
  --queue-depth N    admitted CHECKs that may wait for a slot (default 16);
                     one more and the server answers BUSY
  --model-root DIR   resolve request "model" paths under DIR
  --metrics-interval-ms N
                     period of the "metrics" JSONL trace event (default
                     10000; 0 = off)
  plus, as in check: --threads --cache-dir --no-cache --trace --failpoint,
  and the job-option defaults (--compose --engine --no-retry
  --trace-force --deadline-ms --node-budget --cluster --reorder), which
  requests overlay per CHECK.  --threads is how one daemon scales: every
  request's obligations share that worker pool and one cache.
  SIGTERM/SIGINT (or a DRAIN command) drains: in-flight requests finish
  and respond, new CHECKs get DRAINING, then the server exits 0.

cmc submit options:
  --socket PATH      connect to the daemon's Unix-domain socket
  --tcp PORT         connect to 127.0.0.1:PORT instead
  --status | --stats | --drain | --cancel ID
                     control commands (no model arguments); --stats prints
                     the Prometheus-style metrics text
  --id ID            request id (one model) or id prefix (several)
  --name NAME        job name for a single submitted model
  --report PATH      write the returned report JSON (unescaped) to PATH
  --max-retries N    retry a CHECK refused with BUSY/DRAINING, lost to a
                     transport failure, or whose initial dial is refused
                     (a daemon restarting) up to N times (default 0 = fail
                     fast with exit 6 / exit 2, as before)
  --retry-ms N       base of the jittered exponential backoff between
                     retries: attempt k sleeps uniform in [c/2, c],
                     c = N·2^k ms, capped at 30 s (default 200)
  plus the job options above, overriding the server's defaults per CHECK.
  Model text is read client-side and sent inline, so the daemon need not
  share a filesystem with the client.

cmc cache compact options:
  cmc cache compact --cache-dir DIR   (or a positional DIR)
  Rewrite DIR/obligations.jsonl keeping only the last write per
  fingerprint, dropping corrupt lines, under the store's lock with an
  atomic rename.  Offline only: a store locked by a live writer (a running
  serve or check) is refused rather than raced.

exit codes: 0 completed (all hold under --strict); 1 --strict and a spec
fails; 2 usage/I-O/model error; 3 --strict and Timeout/MemoryOut;
4 --strict and Inconclusive; 5 Error verdict; 6 submit refused
(BUSY/DRAINING); 130/143 interrupted (SIGINT/SIGTERM; trace and report
hold the partial results; re-run with the same --cache-dir to finish)
)";

/// --cache-dir names the only durable verdict record; --no-cache would
/// silently drop it, so `check` and `serve` refuse the combination.
constexpr const char* kNoCacheWithDir =
    "--no-cache and --cache-dir contradict each other (the store is the "
    "run's durable record); drop one\n";

struct CliOptions {
  service::JobOptions job;
  unsigned threads = 0;
  std::string reportPath;
  std::string tracePath;
  std::string cacheDir;
  bool cacheEnabled = true;
  bool strict = false;
  bool quiet = false;
  std::vector<std::string> models;
  std::vector<std::string> failpoints;
};

/// Set by the SIGINT/SIGTERM handler; polled by the scheduler (via
/// ServiceOptions::cancelFlag) and by the checker's cancel hook, so a batch
/// winds down cooperatively: running attempts abort as Cancelled, queued
/// obligations drain, and everything decided so far is already in the
/// --cache-dir store.
std::atomic<bool> gCancelRequested{false};
std::atomic<int> gSignal{0};

extern "C" void onSignal(int sig) {
  gCancelRequested.store(true, std::memory_order_relaxed);
  gSignal.store(sig, std::memory_order_relaxed);
  // A second signal falls through to the default action (immediate kill)
  // in case the wind-down itself wedges.
  std::signal(sig, SIG_DFL);
}

std::string basenameStem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() > 4 && name.ends_with(".smv")) {
    name.resize(name.size() - 4);
  }
  return name;
}

std::string siblingPath(const std::string& modelPath, const char* suffix) {
  std::string base = modelPath;
  if (base.size() > 4 && base.ends_with(".smv")) {
    base.resize(base.size() - 4);
  }
  return base + suffix;
}

bool parseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parse an --engine value; prints the usage error itself.
bool parseEngineMode(const char* v, symbolic::EngineMode* out) {
  if (v != nullptr && symbolic::engineModeFromString(v, out)) return true;
  std::cerr << "cmc: --engine must be auto|partitioned|monolithic\n";
  return false;
}

int parseArgs(int argc, char** argv, CliOptions* cli) {
  // The CLI resolves the engine adaptively by default; library embedders
  // keep JobOptions' reproducible Partitioned default.
  cli->job.engine = symbolic::EngineMode::Auto;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--compose") {
      cli->job.compose = true;
    } else if (arg == "--engine") {
      if (!parseEngineMode(next(), &cli->job.engine)) return 2;
    } else if (arg == "--no-retry") {
      cli->job.retryOtherEngine = false;
    } else if (arg == "--trace-force") {
      cli->job.traceForce = true;
    } else if (arg == "--reorder") {
      cli->job.reorderBeforeCheck = true;
    } else if (arg == "--strict") {
      cli->strict = true;
    } else if (arg == "--quiet") {
      cli->quiet = true;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      std::uint64_t ms = 0;
      if (v == nullptr || !parseUint(v, &ms)) return 2;
      cli->job.limits.deadlineSeconds = static_cast<double>(ms) / 1e3;
    } else if (arg == "--node-budget") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &cli->job.limits.nodeBudget)) return 2;
    } else if (arg == "--cluster") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &cli->job.clusterThreshold)) return 2;
    } else if (arg == "--threads") {
      const char* v = next();
      std::uint64_t n = 0;
      if (v == nullptr || !parseUint(v, &n)) return 2;
      cli->threads = static_cast<unsigned>(n);
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->reportPath = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->tracePath = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->cacheDir = v;
    } else if (arg == "--no-cache") {
      cli->cacheEnabled = false;
    } else if (arg == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->failpoints.push_back(v);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc: unknown option " << arg << "\n" << kUsage;
      return 2;
    } else {
      cli->models.push_back(arg);
    }
  }
  if (cli->models.empty()) {
    std::cerr << "cmc: no model files given\n" << kUsage;
    return 2;
  }
  if (!cli->cacheEnabled && !cli->cacheDir.empty()) {
    std::cerr << "cmc: " << kNoCacheWithDir;
    return 2;
  }
  return 0;
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cmc: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

void printReport(const service::JobReport& report, bool quiet) {
  std::cout << "== job " << report.job << " ==\n";
  if (!quiet) {
    for (const service::ObligationOutcome& o : report.obligations) {
      std::string text = o.specText;
      if (text.size() > 56) text = text.substr(0, 53) + "...";
      std::cout << "-- [" << o.target << "] " << o.spec << "  " << text
                << "  : " << service::toString(o.verdict) << " ("
                << (o.rule.empty() ? "" : o.rule + ", ")
                << (o.verdictSource != "checked" ? o.verdictSource + ", "
                                                 : "")
                << (o.retried ? "retried, " : "")
                << service::jsonNumber(o.seconds) << " s)\n";
      if (!o.error.empty()) std::cout << "--   error: " << o.error << "\n";
      if (!o.counterexample.empty()) {
        std::cout << "-- counterexample:\n" << o.counterexample;
      }
    }
  }
  std::cout << "-- verdict: " << service::toString(report.verdict) << " ("
            << report.obligations.size() << " obligations, "
            << service::jsonNumber(report.wallSeconds) << " s wall)\n\n";
}

int armFailpoints(const std::vector<std::string>& specs) {
  if (!util::Failpoint::compiledIn()) {
    // Refuse rather than silently ignore: an operator arming a failpoint
    // against an uninstrumented binary would otherwise believe the fault
    // paths were exercised when nothing fired.
    const char* env = std::getenv("CMC_FAILPOINTS");
    if (!specs.empty()) {
      std::cerr << "cmc: --failpoint needs a build with -DCMC_FAILPOINTS=ON "
                   "(run `cmc failpoints` to see the catalog)\n";
      return 2;
    }
    if (env != nullptr && *env != '\0') {
      std::cerr << "cmc: the CMC_FAILPOINTS env var is set but this build "
                   "has no failpoints; rebuild with -DCMC_FAILPOINTS=ON or "
                   "unset it\n";
      return 2;
    }
  }
  for (const std::string& spec : specs) {
    util::Failpoint::configure(spec);  // throws cmc::Error on a bad spec
  }
  util::Failpoint::configureFromEnv();
  return 0;
}

int runCheck(const CliOptions& cli) {
  if (const int rc = armFailpoints(cli.failpoints); rc != 0) return rc;

  std::vector<service::VerificationJob> jobs;
  for (const std::string& path : cli.models) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cmc: cannot open " << path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    service::VerificationJob job;
    job.name = basenameStem(path);
    job.smvText = buffer.str();
    job.sourcePath = path;
    job.options = cli.job;
    jobs.push_back(std::move(job));
  }

  service::ServiceOptions svcOpts;
  svcOpts.threads = cli.threads;
  svcOpts.cacheEnabled = cli.cacheEnabled;
  svcOpts.cacheDir = cli.cacheDir;
  svcOpts.cancelFlag = &gCancelRequested;
  service::VerificationService svc(svcOpts);
  std::ofstream traceFile;
  if (!cli.tracePath.empty()) {
    traceFile.open(cli.tracePath);
    if (!traceFile) {
      std::cerr << "cmc: cannot write " << cli.tracePath << "\n";
      return 2;
    }
  }
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  // From here on an interrupt must wind the batch down, not kill it: the
  // handler raises the cancel flag the scheduler and checker poll.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const std::vector<service::JobReport> reports = svc.runBatch(jobs, &trace);

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // Default trace destination: <model>.trace.jsonl next to each model
  // (events carry their job name, so the combined stream splits cleanly).
  if (cli.tracePath.empty()) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const std::string needle = "\"job\": \"" + jobs[k].name + "\"";
      std::string lines;
      for (const std::string& line : trace.lines()) {
        if (line.find(needle) != std::string::npos) lines += line + "\n";
      }
      writeFile(siblingPath(cli.models[k], ".trace.jsonl"), lines);
    }
  }

  // Summary reports: one combined file with --report, else one per model.
  if (!cli.reportPath.empty()) {
    std::string combined;
    if (reports.size() == 1) {
      combined = reports.front().toJson() + "\n";
    } else {
      combined = "{\"reports\": [\n";
      for (std::size_t k = 0; k < reports.size(); ++k) {
        combined += reports[k].toJson();
        combined += k + 1 < reports.size() ? ",\n" : "\n";
      }
      combined += "]}\n";
    }
    if (!writeFile(cli.reportPath, combined)) return 2;
  } else {
    for (std::size_t k = 0; k < reports.size(); ++k) {
      writeFile(siblingPath(cli.models[k], ".report.json"),
                reports[k].toJson() + "\n");
    }
  }

  service::Verdict verdict = service::Verdict::Holds;
  bool elaborationFailed = false;
  for (const service::JobReport& report : reports) {
    printReport(report, cli.quiet);
    verdict = service::worseVerdict(verdict, report.verdict);
    for (const service::ObligationOutcome& o : report.obligations) {
      if (o.spec != service::kElaborationSpec) continue;
      // A model error, not a verdict: say so on stderr even under --quiet.
      std::cerr << "cmc: " << report.source << ": " << o.error << "\n";
      elaborationFailed = true;
    }
  }
  if (const service::ObligationCache* cache = svc.cache()) {
    const service::ObligationCacheStats stats = cache->stats();
    std::cout << "== cache: " << stats.hits << " hits, " << stats.misses
              << " misses, " << stats.inserts << " inserts";
    if (stats.loaded > 0) std::cout << ", " << stats.loaded << " loaded";
    if (stats.corruptLines > 0) {
      std::cout << ", " << stats.corruptLines << " corrupt lines skipped";
    }
    std::cout << " (" << cache->size() << " entries) ==\n";
  }

  if (const int sig = gSignal.load(std::memory_order_relaxed); sig != 0) {
    std::cerr << "cmc: interrupted by signal " << sig
              << "; partial results are in the trace and report — "
                 "re-run with the same --cache-dir to finish\n";
    return 128 + sig;
  }
  if (elaborationFailed) return 2;
  // An Error verdict (an exception that survived quarantine) is an
  // operational failure even in the default mode.
  if (verdict == service::Verdict::Error) return 5;
  if (!cli.strict) return 0;
  switch (verdict) {
    case service::Verdict::Holds: return 0;
    case service::Verdict::Fails: return 1;
    case service::Verdict::Inconclusive: return 4;
    default: return 3;  // Timeout / MemoryOut (Cancelled exits above)
  }
}

// ---------------------------------------------------------------------------
// cmc serve

struct ServeOptions {
  net::ServerOptions server;
  unsigned threads = 0;
  std::string cacheDir;
  std::string tracePath;
  bool cacheEnabled = true;
  std::vector<std::string> failpoints;
};

int parseServeArgs(int argc, char** argv, ServeOptions* opts) {
  service::JobOptions& job = opts->server.defaults;
  job.engine = symbolic::EngineMode::Auto;  // CLI default, as in check
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc serve: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const auto nextUint = [&](std::uint64_t* out) {
      const char* v = next();
      return v != nullptr && parseUint(v, out);
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->server.socketPath = v;
    } else if (arg == "--tcp") {
      if (!nextUint(&n) || n > 65535) return 2;
      opts->server.tcpPort = static_cast<int>(n);
    } else if (arg == "--max-inflight") {
      if (!nextUint(&n)) return 2;
      opts->server.maxInFlight = static_cast<unsigned>(n);
    } else if (arg == "--queue-depth") {
      if (!nextUint(&n)) return 2;
      opts->server.queueDepth = static_cast<std::size_t>(n);
    } else if (arg == "--model-root") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->server.modelRoot = v;
    } else if (arg == "--metrics-interval-ms") {
      if (!nextUint(&n)) return 2;
      opts->server.metricsIntervalSeconds = static_cast<double>(n) / 1e3;
    } else if (arg == "--threads") {
      if (!nextUint(&n)) return 2;
      opts->threads = static_cast<unsigned>(n);
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->cacheDir = v;
    } else if (arg == "--no-cache") {
      opts->cacheEnabled = false;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->tracePath = v;
    } else if (arg == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->failpoints.push_back(v);
    } else if (arg == "--compose") {
      job.compose = true;
    } else if (arg == "--engine") {
      if (!parseEngineMode(next(), &job.engine)) return 2;
    } else if (arg == "--no-retry") {
      job.retryOtherEngine = false;
    } else if (arg == "--trace-force") {
      job.traceForce = true;
    } else if (arg == "--reorder") {
      job.reorderBeforeCheck = true;
    } else if (arg == "--deadline-ms") {
      if (!nextUint(&n)) return 2;
      job.limits.deadlineSeconds = static_cast<double>(n) / 1e3;
    } else if (arg == "--node-budget") {
      if (!nextUint(&n)) return 2;
      job.limits.nodeBudget = n;
    } else if (arg == "--cluster") {
      if (!nextUint(&n)) return 2;
      job.clusterThreshold = n;
    } else {
      std::cerr << "cmc serve: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opts->server.socketPath.empty()) {
    std::cerr << "cmc serve: --socket PATH is required\n";
    return 2;
  }
  if (!opts->cacheEnabled && !opts->cacheDir.empty()) {
    std::cerr << "cmc serve: " << kNoCacheWithDir;
    return 2;
  }
  return 0;
}

int runServe(const ServeOptions& opts) {
  if (const int rc = armFailpoints(opts.failpoints); rc != 0) return rc;

  service::MetricsRegistry metrics;
  service::ServiceOptions svcOpts;
  svcOpts.threads = opts.threads;
  svcOpts.cacheEnabled = opts.cacheEnabled;
  svcOpts.cacheDir = opts.cacheDir;
  svcOpts.metrics = &metrics;
  // No service-wide cancel flag: a signal means *drain* (in-flight
  // requests complete and respond), not cancel.  Per-request cancellation
  // arrives through the protocol's CANCEL command instead.
  service::VerificationService svc(svcOpts);

  std::ofstream traceFile;
  if (!opts.tracePath.empty()) {
    traceFile.open(opts.tracePath);
    if (!traceFile) {
      std::cerr << "cmc serve: cannot write " << opts.tracePath << "\n";
      return 2;
    }
  }
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  net::Server server(opts.server, svc, metrics, trace);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "cmc serve: " << err << "\n";
    return 2;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::cout << "cmc serve: listening on " << opts.server.socketPath;
  if (server.boundTcpPort() >= 0) {
    std::cout << " and 127.0.0.1:" << server.boundTcpPort();
  }
  std::cout << " (" << svc.threads() << " workers)" << std::endl;

  // The handlers only set gSignal (async-signal-safe); the main loop turns
  // it into a drain.  A DRAIN protocol command also ends this loop.
  while (gSignal.load(std::memory_order_relaxed) == 0 &&
         !server.drainRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (const int sig = gSignal.load(std::memory_order_relaxed); sig != 0) {
    std::cout << "cmc serve: signal " << sig << "; draining" << std::endl;
  }
  server.requestDrain();
  server.shutdown();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  std::cout << "cmc serve: drained; "
            << metrics.counterValue("checks_completed")
            << " check(s) completed, "
            << metrics.counterValue("checks_rejected_busy") << " busy, "
            << metrics.counterValue("checks_rejected_draining")
            << " refused draining" << std::endl;
  // Drain-and-exit is the *orderly* path, signal or not: exit 0.
  return 0;
}

// ---------------------------------------------------------------------------
// cmc cache

int runCacheCompact(int argc, char** argv) {
  std::string dir;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        std::cerr << "cmc cache compact: --cache-dir requires a value\n";
        return 2;
      }
      dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc cache compact: unknown option " << arg << "\n";
      return 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::cerr << "cmc cache compact: one cache directory only\n";
      return 2;
    }
  }
  if (dir.empty()) {
    std::cerr << "cmc cache compact: need --cache-dir DIR (or a positional "
                 "directory)\n";
    return 2;
  }
  service::CompactionResult result;
  std::string err;
  if (!service::compactObligationStore(dir, &result, &err)) {
    std::cerr << "cmc cache compact: " << err << "\n";
    return 2;
  }
  std::cout << "== cache compact: " << result.entriesBefore << " -> "
            << result.entriesAfter << " entries, " << result.bytesBefore
            << " -> " << result.bytesAfter << " bytes (" << result.duplicates
            << " duplicate(s) dropped, " << result.corrupt
            << " corrupt line(s) dropped) ==\n";
  return 0;
}

// ---------------------------------------------------------------------------
// cmc submit

struct SubmitOptions {
  std::string socketPath;
  int tcpPort = -1;
  bool status = false;
  bool stats = false;
  bool drain = false;
  std::string cancelId;
  std::string id;
  std::string name;
  std::string reportPath;
  bool strict = false;
  bool quiet = false;
  /// CHECK retry on BUSY/DRAINING or transport failure: off by default
  /// (maxRetries 0 keeps the historical fail-fast exit 6).
  int maxRetries = 0;
  int retryMs = 200;
  service::JobOptions job;
  // Only explicitly given options are sent; the server's defaults cover
  // the rest.
  bool setCompose = false, setEngine = false, setNoRetry = false;
  bool setDeadline = false, setNodeBudget = false, setCluster = false;
  bool setReorder = false, setTraceForce = false;
  std::vector<std::string> models;
};

int parseSubmitArgs(int argc, char** argv, SubmitOptions* opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc submit: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->socketPath = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &n) || n > 65535) return 2;
      opts->tcpPort = static_cast<int>(n);
    } else if (arg == "--status") {
      opts->status = true;
    } else if (arg == "--stats") {
      opts->stats = true;
    } else if (arg == "--drain") {
      opts->drain = true;
    } else if (arg == "--cancel") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->cancelId = v;
    } else if (arg == "--id") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->id = v;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->name = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->reportPath = v;
    } else if (arg == "--strict") {
      opts->strict = true;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else if (arg == "--max-retries") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &n)) return 2;
      opts->maxRetries = static_cast<int>(n);
    } else if (arg == "--retry-ms") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &n) || n == 0) return 2;
      opts->retryMs = static_cast<int>(n);
    } else if (arg == "--compose") {
      opts->job.compose = true;
      opts->setCompose = true;
    } else if (arg == "--engine") {
      if (!parseEngineMode(next(), &opts->job.engine)) return 2;
      opts->setEngine = true;
    } else if (arg == "--no-retry") {
      opts->job.retryOtherEngine = false;
      opts->setNoRetry = true;
    } else if (arg == "--trace-force") {
      opts->job.traceForce = true;
      opts->setTraceForce = true;
    } else if (arg == "--reorder") {
      opts->job.reorderBeforeCheck = true;
      opts->setReorder = true;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &n)) return 2;
      opts->job.limits.deadlineSeconds = static_cast<double>(n) / 1e3;
      opts->setDeadline = true;
    } else if (arg == "--node-budget") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &opts->job.limits.nodeBudget))
        return 2;
      opts->setNodeBudget = true;
    } else if (arg == "--cluster") {
      const char* v = next();
      if (v == nullptr || !parseUint(v, &opts->job.clusterThreshold))
        return 2;
      opts->setCluster = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc submit: unknown option " << arg << "\n";
      return 2;
    } else {
      opts->models.push_back(arg);
    }
  }
  if (opts->socketPath.empty() && opts->tcpPort < 0) {
    std::cerr << "cmc submit: need --socket PATH or --tcp PORT\n";
    return 2;
  }
  const bool control = opts->status || opts->stats || opts->drain ||
                       !opts->cancelId.empty();
  if (control && !opts->models.empty()) {
    std::cerr << "cmc submit: control commands take no model arguments\n";
    return 2;
  }
  if (!control && opts->models.empty()) {
    std::cerr << "cmc submit: no model files given\n";
    return 2;
  }
  return 0;
}

std::string buildCheckRequest(const SubmitOptions& opts, const std::string& id,
                              const std::string& name,
                              const std::string& smv) {
  service::JsonObject req;
  req.put("cmd", "CHECK").put("id", id);
  if (!name.empty()) req.put("name", name);
  if (opts.setCompose) req.putBool("compose", opts.job.compose);
  if (opts.setReorder) req.putBool("reorder", opts.job.reorderBeforeCheck);
  if (opts.setNoRetry) req.putBool("no_retry", !opts.job.retryOtherEngine);
  if (opts.setTraceForce) req.putBool("trace_force", opts.job.traceForce);
  if (opts.setEngine) {
    req.put("engine", symbolic::toString(opts.job.engine));
  }
  if (opts.setDeadline) {
    req.putUint("deadline_ms", static_cast<std::uint64_t>(
                                   opts.job.limits.deadlineSeconds * 1e3));
  }
  if (opts.setNodeBudget) req.putUint("node_budget", opts.job.limits.nodeBudget);
  if (opts.setCluster) req.putUint("cluster", opts.job.clusterThreshold);
  // Free text goes last: flat extraction of the typed fields above then
  // never scans across the (escaped) model text.
  req.put("smv", smv);
  return req.str();
}

/// Render one CHECK response; returns the submit exit code contribution
/// (0 ok, 2 bad request or model error, 6 refused) and folds the verdict
/// into *worst.
int renderCheckResponse(const std::string& resp, bool quiet,
                        service::Verdict* worst, std::string* reportOut) {
  bool ok = false;
  service::jsonExtractBool(resp, "ok", &ok);
  std::string id;
  service::jsonExtractString(resp, "id", &id);
  if (!ok) {
    std::string code, message;
    service::jsonExtractString(resp, "code", &code);
    service::jsonExtractString(resp, "error", &message);
    std::cerr << "cmc submit: " << (id.empty() ? "request" : id) << ": "
              << code << ": " << message << "\n";
    return code == net::kBusy || code == net::kDraining ? 6 : 2;
  }
  std::string job, verdictText;
  service::jsonExtractString(resp, "job", &job);
  service::jsonExtractString(resp, "verdict", &verdictText);
  std::uint64_t obligations = 0, holds = 0, fails = 0, cacheHits = 0;
  service::jsonExtractUint(resp, "obligations", &obligations);
  service::jsonExtractUint(resp, "holds", &holds);
  service::jsonExtractUint(resp, "fails", &fails);
  service::jsonExtractUint(resp, "cache_hits", &cacheHits);
  double wall = 0.0, wait = 0.0;
  service::jsonExtractDouble(resp, "wall_seconds", &wall);
  service::jsonExtractDouble(resp, "queue_wait_seconds", &wait);
  std::cout << "== job " << job << ": " << verdictText << " (" << obligations
            << " obligations, " << holds << " hold, " << fails << " fail, "
            << cacheHits << " cache hits, " << service::jsonNumber(wall)
            << " s wall, " << service::jsonNumber(wait) << " s queued) ==\n";
  if (!quiet) {
    bool queueCancelled = false;
    service::jsonExtractBool(resp, "cancelled_in_queue", &queueCancelled);
    if (queueCancelled) std::cout << "-- cancelled while queued --\n";
  }
  service::Verdict verdict = service::Verdict::Error;
  if (service::verdictFromString(verdictText, &verdict)) {
    *worst = service::worseVerdict(*worst, verdict);
  }
  std::string report;
  service::jsonExtractString(resp, "report", &report);
  // A model that does not parse or elaborate is a model error, not a
  // verdict: key on the report's <elaboration> obligation as cmc check
  // does, print its message even under --quiet, and exit 2.  The marker's
  // quotes are unescaped, so it cannot match inside a string value.
  int rc = 0;
  const std::string marker = "\"spec\": \"" +
                             std::string(service::kElaborationSpec) + "\"";
  if (const std::size_t at = report.find(marker); at != std::string::npos) {
    std::string message;
    service::jsonExtractString(report.substr(at), "error", &message);
    std::cerr << "cmc submit: " << job << ": " << message << "\n";
    rc = 2;
  }
  if (reportOut != nullptr) *reportOut = std::move(report);
  return rc;
}

/// Send one CHECK, retrying BUSY/DRAINING refusals and transport failures
/// with jittered exponential backoff when --max-retries is set.  True with
/// *resp filled on any server response (the caller maps refusal codes to
/// exit 6 as before); false with *err after the last transport failure.
bool sendCheckWithRetry(net::Client& client, const SubmitOptions& opts,
                        const std::string& reqLine, std::string* resp,
                        std::string* err) {
  return client.requestWithRetry(
      reqLine, opts.maxRetries, opts.retryMs, resp, err,
      [&opts](const std::string& why, int attempt, int delay) {
        std::cerr << "cmc submit: " << why << "; retry " << attempt << "/"
                  << opts.maxRetries << " in " << delay << " ms\n";
      });
}

int runSubmit(const SubmitOptions& opts) {
  net::Client client;
  std::string err;
  // The initial dial honors the retry budget too: a daemon restarting
  // (connection refused, socket not yet bound) looks exactly
  // like a mid-request transport failure from the caller's side.  The
  // final failure keeps the historical exit 2.
  const auto logRetry = [&opts](const std::string& why, int attempt,
                                int delay) {
    std::cerr << "cmc submit: " << why << "; retry " << attempt << "/"
              << opts.maxRetries << " in " << delay << " ms\n";
  };
  if (!client.connectRetrying(opts.socketPath, opts.tcpPort, opts.maxRetries,
                              opts.retryMs, &err, logRetry)) {
    std::cerr << "cmc submit: " << err << "\n";
    return 2;
  }

  // Control commands: one request, print, done.
  if (opts.status || opts.stats || opts.drain || !opts.cancelId.empty()) {
    service::JsonObject req;
    if (opts.status) req.put("cmd", "STATUS");
    else if (opts.stats) req.put("cmd", "STATS");
    else if (opts.drain) req.put("cmd", "DRAIN");
    else req.put("cmd", "CANCEL").put("id", opts.cancelId);
    std::string resp;
    if (!client.request(req.str(), &resp, &err)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    bool ok = false;
    service::jsonExtractBool(resp, "ok", &ok);
    if (opts.stats && ok) {
      // The greppable rendering: one metric per line.
      std::string text;
      if (service::jsonExtractString(resp, "metrics_text", &text)) {
        std::cout << text;
      }
      double uptime = 0.0;
      std::uint64_t entries = 0;
      service::jsonExtractDouble(resp, "uptime_seconds", &uptime);
      if (service::jsonExtractUint(resp, "cache_entries", &entries)) {
        std::cout << "cache_entries " << entries << "\n";
      }
      std::cout << "uptime_seconds " << service::jsonNumber(uptime) << "\n";
    } else {
      std::cout << resp << "\n";
    }
    return ok ? 0 : 2;
  }

  // CHECK per model, sequentially on this connection (run several submit
  // processes for concurrency; the daemon interleaves them).
  int exitCode = 0;
  service::Verdict worst = service::Verdict::Holds;
  std::vector<std::string> reports;
  for (std::size_t k = 0; k < opts.models.size(); ++k) {
    const std::string& path = opts.models[k];
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cmc submit: cannot open " << path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string id = opts.id;
    if (id.empty()) {
      id = "submit-" + std::to_string(::getpid()) + "-" + std::to_string(k);
    } else if (opts.models.size() > 1) {
      id += "-" + std::to_string(k);
    }
    const std::string name = !opts.name.empty() && opts.models.size() == 1
                                 ? opts.name
                                 : basenameStem(path);
    std::string resp;
    if (!sendCheckWithRetry(client, opts,
                            buildCheckRequest(opts, id, name, buffer.str()),
                            &resp, &err)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    std::string report;
    const int rc = renderCheckResponse(resp, opts.quiet, &worst,
                                       opts.reportPath.empty() ? nullptr
                                                               : &report);
    if (rc != 0) exitCode = rc;
    if (!report.empty()) reports.push_back(std::move(report));
  }

  if (!opts.reportPath.empty() && !reports.empty()) {
    std::string combined;
    if (reports.size() == 1) {
      combined = reports.front() + "\n";
    } else {
      combined = "{\"reports\": [\n";
      for (std::size_t k = 0; k < reports.size(); ++k) {
        combined += reports[k];
        combined += k + 1 < reports.size() ? ",\n" : "\n";
      }
      combined += "]}\n";
    }
    if (!writeFile(opts.reportPath, combined)) return 2;
  }

  if (exitCode != 0) return exitCode;
  if (worst == service::Verdict::Error) return 5;
  if (!opts.strict) return 0;
  switch (worst) {
    case service::Verdict::Holds: return 0;
    case service::Verdict::Fails: return 1;
    case service::Verdict::Inconclusive: return 4;
    default: return 3;
  }
}

int runFailpoints() {
  if (util::Failpoint::compiledIn()) {
    std::cout << "failpoint sites (compiled in; arm with --failpoint or the "
                 "CMC_FAILPOINTS env var):\n";
  } else {
    std::cout << "failpoint sites (NOT compiled into this build; configure "
                 "with -DCMC_FAILPOINTS=ON to arm them):\n";
  }
  for (const util::Failpoint::SiteInfo& s : util::Failpoint::sites()) {
    std::printf("  %-22s %s\n", s.name.c_str(), s.description.c_str());
  }
  std::cout << "actions: error | throw | delay(ms) | 1in(n)   "
               "(see docs/OPERATIONS.md)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "version" || command == "--version") {
    std::cout << "cmc " << util::versionString()
              << " (compositional model checker)\n";
    return 0;
  }
  if (command == "help" || command == "--help") {
    std::cout << kUsage;
    return 0;
  }
  if (command == "failpoints") {
    return runFailpoints();
  }
  try {
    if (command == "check") {
      CliOptions cli;
      if (const int rc = parseArgs(argc, argv, &cli); rc != 0) return rc;
      return runCheck(cli);
    }
    if (command == "serve") {
      ServeOptions opts;
      if (const int rc = parseServeArgs(argc, argv, &opts); rc != 0)
        return rc;
      return runServe(opts);
    }
    if (command == "submit") {
      SubmitOptions opts;
      if (const int rc = parseSubmitArgs(argc, argv, &opts); rc != 0)
        return rc;
      return runSubmit(opts);
    }
    if (command == "cache") {
      if (argc < 3 || std::string(argv[2]) != "compact") {
        std::cerr << "cmc cache: the only subcommand is `compact`\n";
        return 2;
      }
      return runCacheCompact(argc, argv);
    }
  } catch (const Error& e) {
    std::cerr << "cmc: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "cmc: unknown command '" << command << "'\n" << kUsage;
  return 2;
}

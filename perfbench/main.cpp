// perfbench: the repository's end-to-end benchmark of `cmc check` jobs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected-dir DIR] [--work-dir DIR] [--commit ID]
//   perfbench --sweep
//   perfbench --self-test [--expected-dir DIR]
//
// A run sets the workload up (several times, reporting the median), then
// drives a closed loop with one client for S seconds: each job is one
// VerificationService::run call in a fresh service with the CLI's defaults
// (engine auto, retry on, cluster threshold 1024), one worker thread and
// no journal; the next job starts when the previous report is back.
// Every report is checked against the workload's expected-verdict table.
// With --trace 1 the run then makes one traced job (traced.hpp) and
// reports per-layer metrics instead of end-to-end ones.  The last line of
// stdout is the JSON result; a copy with the build stamp and the spans is
// written under the work directory.
#include <malloc.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "service/scheduler.hpp"
#include "traced.hpp"
#include "util/version.hpp"
#include "workloads.hpp"

namespace perfbench {
int runSelfTest(const std::string& expectedDir);
}

namespace {

using namespace perfbench;
using cmc::service::JobReport;
using cmc::service::ObligationOutcome;
using cmc::service::Verdict;
namespace fs = std::filesystem;

#if !defined(__OPTIMIZE__)
constexpr const char* kUnfitBuild = "built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kUnfitBuild = "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kUnfitBuild = "built with a sanitizer";
#else
constexpr const char* kUnfitBuild = nullptr;
#endif
#else
constexpr const char* kUnfitBuild = nullptr;
#endif

struct Args {
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expectedDir = "perfbench/expected";
  std::string workDir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
};

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expected-dir DIR] [--work-dir DIR] "
               "[--commit ID]\n"
               "       perfbench --sweep\n"
               "       perfbench --self-test [--expected-dir DIR]\n";
  return 2;
}

std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The job as `cmc check --compose` builds it.
cmc::service::VerificationJob makeJob(const std::string& name,
                                      const std::string& text,
                                      bool compose) {
  cmc::service::VerificationJob job;
  job.name = name;
  job.smvText = text;
  job.options.engine = cmc::symbolic::EngineMode::Auto;
  job.options.compose = compose;
  return job;
}

cmc::service::ServiceOptions serviceOptions(const std::string& cacheDir) {
  cmc::service::ServiceOptions opts;
  opts.threads = 1;
  opts.cacheDir = cacheDir;
  return opts;
}

bool decided(Verdict v) { return v == Verdict::Holds || v == Verdict::Fails; }

/// Throws when a verdict disagrees with the expected table.
void checkVerdicts(const ExpectedTable& expected, const PermutedText& input,
                   const std::vector<ObservedVerdict>& raw) {
  std::vector<ObservedVerdict> observed;
  for (const ObservedVerdict& o : raw) {
    observed.push_back({originalId(input, o.id), o.verdict});
  }
  const std::vector<std::string> bad = verdictMismatches(expected, observed);
  if (!bad.empty()) {
    std::string msg = "wrong verdicts:";
    for (const std::string& line : bad) msg += "\n  " + line;
    throw std::runtime_error(msg);
  }
}

void checkReport(const ExpectedTable& expected, const PermutedText& input,
                 const JobReport& report) {
  std::vector<ObservedVerdict> raw;
  for (const ObligationOutcome& o : report.obligations) {
    raw.push_back({o.id, cmc::service::toString(o.verdict)});
  }
  checkVerdicts(expected, input, raw);
}

/// Peak resident set since the last resetPeakRss(), in MiB (VmHWM).
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Returns set-up's freed memory to the system and restarts the peak-RSS
/// mark, so the peak covers the measured jobs only.  False when the
/// kernel refuses the reset.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string stampJson(const Args& a, bool rssReset) {
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << quoted(__VERSION__)
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
    << ", \"commit\": " << quoted(a.commit)
    << ", \"cmc_version\": " << quoted(cmc::util::versionString())
    << ", \"peak_rss_reset\": " << (rssReset ? "true" : "false") << "}";
  return s.str();
}

std::string spansJson(const TracedJob& t) {
  const std::vector<double> self = selfTimesMs(t.spans);
  std::string out = "[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (i > 0) out += ",\n  ";
    out += "{\"id\": " + std::to_string(i) + ", \"parent\": " +
           std::to_string(s.parent) + ", \"job\": " + quoted(s.job) +
           ", \"name\": " + quoted(s.name) + ", \"start_ms\": " +
           fmt(s.startMs) + ", \"end_ms\": " + fmt(s.endMs) +
           ", \"self_ms\": " + fmt(self[i]) + "}";
  }
  return out + "]";
}

/// Per-layer metrics: span self times of the traced job, counts of the
/// last measured report, the Manager counters of the traced job, and the
/// tail of ObligationOutcome.seconds over the measured loop.
std::vector<Metric> layerMetrics(const TracedJob& t, const JobReport& last,
                                 double untracedJobS, const Tail& tail) {
  std::map<std::string, double> self = selfTimesByName(t.spans);
  const auto ms = [&](const std::string& span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  double layerSum = 0.0;
  for (const auto& [name, v] : self) {
    if (name != "job" && name != "obligation") layerSum += v;
  }

  double attempts = 0, retries = 0, importMs = 0;
  double composed = 0, fallbacks = 0, ruleDischarged = 0;
  std::vector<double> directMs, composedMs;
  for (const ObligationOutcome& o : last.obligations) {
    attempts += static_cast<double>(o.attempts.size());
    retries += o.retried ? 1 : 0;
    for (const cmc::service::AttemptRecord& a : o.attempts) {
      importMs += a.importMs;
    }
    if (o.target == "composed") {
      composedMs.push_back(o.seconds * 1e3);
      composed += 1;
      if (o.rule.find("global fallback") != std::string::npos) {
        fallbacks += 1;
      } else if (o.rule.find("Rule") != std::string::npos) {
        ruleDischarged += 1;
      }
    } else {
      directMs.push_back(o.seconds * 1e3);
    }
  }
  const double lookups =
      static_cast<double>(last.cacheHits + last.cacheMisses);
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const auto medianOr0 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const BddTotals& b = t.bdd;
  return {
      {"smv.parse_ms", ms("smv.parse"), "ms"},
      {"smv.elaborate_ms", ms("smv.elaborate"), "ms"},
      {"smv.canon_ms", ms("smv.canon"), "ms"},
      {"service.snapshot_ms", ms("service.snapshot"), "ms"},
      {"service.fingerprint_ms", ms("service.fingerprint"), "ms"},
      {"service.cache_load_ms", ms("service.cache_load"), "ms"},
      {"service.cache_lookup_ms", ms("service.cache_lookup"), "ms"},
      {"service.cache_insert_ms", ms("service.cache_insert"), "ms"},
      {"service.import_ms", ms("service.import"), "ms"},
      {"service.unattributed_ms", t.jobMs - layerSum, "ms"},
      {"service.cache_hit_ratio",
       ratio(static_cast<double>(last.cacheHits), lookups), "ratio"},
      {"service.cache_inserts", static_cast<double>(last.cacheInserts),
       "count"},
      {"service.attempts", attempts, "count"},
      {"service.retries", retries, "count"},
      {"service.report_import_ms", importMs, "ms"},
      {"service.obligation_ms_tail", tail.value, "ms"},
      {"service.obligation_tail_percentile", tail.percentile, "percentile"},
      {"service.obligation_tail_samples", static_cast<double>(tail.samples),
       "count"},
      {"service.direct_ms_p50", medianOr0(directMs), "ms"},
      {"service.composed_ms_p50", medianOr0(composedMs), "ms"},
      {"comp.classify_ms", ms("comp.classify"), "ms"},
      {"comp.global_fallbacks", fallbacks, "count"},
      {"comp.rule_ratio", ratio(ruleDischarged, composed), "ratio"},
      {"symbolic.compose_ms", ms("symbolic.compose"), "ms"},
      {"symbolic.engine_choice_ms", ms("symbolic.engine_choice"), "ms"},
      {"symbolic.fixpoint_ms", ms("symbolic.fixpoint"), "ms"},
      {"symbolic.trans_nodes", static_cast<double>(t.transNodes), "count"},
      {"symbolic.trace_ms", ms("symbolic.trace"), "ms"},
      {"bdd.nodes_allocated", static_cast<double>(b.nodesAllocated), "count"},
      {"bdd.peak_live_nodes", static_cast<double>(b.peakLiveNodes), "count"},
      {"bdd.cache_lookups", static_cast<double>(b.cacheLookups), "count"},
      {"bdd.cache_hit_ratio",
       ratio(static_cast<double>(b.cacheHits),
             static_cast<double>(b.cacheLookups)),
       "ratio"},
      {"bdd.unique_lookups", static_cast<double>(b.uniqueLookups), "count"},
      {"bdd.gc_runs", static_cast<double>(b.gcRuns), "count"},
      {"bdd.gc_reclaimed", static_cast<double>(b.gcReclaimed), "count"},
      {"bdd.snapshot_nodes_allocated", static_cast<double>(t.snapshotNodes),
       "count"},
      {"trace.job_ms", t.jobMs, "ms"},
      {"trace.overhead_ratio", t.jobMs / (untracedJobS * 1e3), "ratio"},
  };
}

/// The set-up's priming job: one cold job whose every obligation must be
/// decided and cached.  With a `cacheDir` it writes a fresh disk store.
void primeJob(const cmc::service::VerificationJob& job,
              const std::string& cacheDir, const ExpectedTable& expected,
              const PermutedText& input) {
  if (!cacheDir.empty()) fs::remove_all(cacheDir);
  cmc::service::VerificationService svc(serviceOptions(cacheDir));
  const JobReport report = svc.run(job);
  checkReport(expected, input, report);
  if (report.cacheInserts != report.obligations.size()) {
    throw std::runtime_error("priming job cached " +
                             std::to_string(report.cacheInserts) + " of " +
                             std::to_string(report.obligations.size()) +
                             " obligations");
  }
}

int runWorkload(const Args& a) {
  const Workload& w = findWorkload(a.workload);
  const std::string store =
      (fs::path(a.workDir) / ("store-" + w.name)).string();
  fs::create_directories(a.workDir);

  // Set-up: generation, expected-verdict load and one priming job, which
  // for afs2-warm fills the disk store.  Repeated so the reported time is
  // a median; the priming job also keeps sub-millisecond steps from being
  // the whole of a time that runs are compared on.
  const int setups = 3;
  const std::string cacheDir = w.warm ? store : "";
  std::vector<double> setupS;
  PermutedText input;
  ExpectedTable expected;
  cmc::service::VerificationJob job;
  for (int k = 0; k < setups; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    input = permuteSpecs(workloadText(w), a.seed);
    expected = loadExpected(
        (fs::path(a.expectedDir) / w.expectedFile).string());
    job = makeJob(w.name, input.text, /*compose=*/true);
    primeJob(job, cacheDir, expected, input);
    setupS.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  const bool rssReset = resetPeakRss();

  // Closed loop, one client, tracing off.  Throughput is taken per window
  // of at least one second of the loop (jobs, their checks and service
  // teardown) and reported as the median over windows, so a few slow
  // seconds on a shared host do not set it.
  std::vector<double> jobS;
  std::vector<double> obligationMs;
  std::vector<double> windowRates;
  std::uint64_t attempted = 0;
  std::uint64_t decidedCount = 0;
  std::uint64_t windowDecided = 0;
  JobReport last;
  const auto start = std::chrono::steady_clock::now();
  auto windowStart = start;
  double elapsed = 0.0;
  while (jobS.empty() || elapsed < a.seconds) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      cmc::service::VerificationService svc(serviceOptions(cacheDir));
      last = svc.run(job);
      jobS.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    checkReport(expected, input, last);
    for (const ObligationOutcome& o : last.obligations) {
      ++attempted;
      if (decided(o.verdict)) {
        ++decidedCount;
        ++windowDecided;
      }
      obligationMs.push_back(o.seconds * 1e3);
    }
    const auto now = std::chrono::steady_clock::now();
    elapsed = std::chrono::duration<double>(now - start).count();
    const double window =
        std::chrono::duration<double>(now - windowStart).count();
    if (window >= 1.0) {
      windowRates.push_back(static_cast<double>(windowDecided) / window);
      windowDecided = 0;
      windowStart = now;
    }
  }
  // A run shorter than one window still reports its whole-run rate.
  if (windowRates.empty()) {
    windowRates.push_back(static_cast<double>(decidedCount) / elapsed);
  }
  const double jobP50 = median(jobS);
  const Tail tail = tailPercentile(obligationMs);
  const double rssMb = peakRssMb();

  std::vector<Metric> metrics;
  std::string spans = "[]";
  if (!a.trace) {
    metrics = {
        {"job_s_p50", jobP50, "s"},
        {"obligations_per_s", median(windowRates), "1/s"},
        {"peak_rss_mb", rssMb, "MiB"},
        {"setup_s", median(setupS), "s"},
        {"decided_ratio",
         static_cast<double>(decidedCount) / static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    const TracedJob traced = runTracedJob(job, cacheDir);
    std::vector<ObservedVerdict> raw;
    for (const auto& [id, verdict] : traced.verdicts) {
      raw.push_back({id, verdict});
    }
    checkVerdicts(expected, input, raw);
    metrics = layerMetrics(traced, last, jobP50, tail);
    spans = spansJson(traced);
  }

  const std::string summary =
      "{\"workload\": " + quoted(w.name) + ", \"why\": " + quoted(w.why) +
      ", \"seed\": " + std::to_string(a.seed) +
      ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"seconds\": " + fmt(a.seconds) +
      ", \"jobs\": " + std::to_string(jobS.size()) +
      ", \"tail\": {\"percentile\": " + fmt(tail.percentile) +
      ", \"samples\": " + std::to_string(tail.samples) +
      ", \"beyond\": " + std::to_string(tail.beyond) + "}" +
      ", \"stamp\": " + stampJson(a, rssReset) + "}";
  const std::string result =
      "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(attempted - decidedCount) +
      ", \"metrics\": " + metricsJson(metrics) + "}";

  const fs::path outFile =
      fs::path(a.workDir) / (w.name + "-seed" + std::to_string(a.seed) +
                             "-trace" + (a.trace ? "1" : "0") + ".json");
  std::string jobsJson = "[";
  for (std::size_t i = 0; i < jobS.size(); ++i) {
    jobsJson += (i > 0 ? ", " : "") + fmt(jobS[i]);
  }
  jobsJson += "]";
  std::ofstream(outFile) << "{\"run\": " << summary << ",\n\"result\": "
                         << result << ",\n\"job_s\": " << jobsJson
                         << ",\n\"spans\": " << spans << "}\n";
  std::cout << summary << "\n" << result << std::endl;
  return 0;
}

/// The sweep's per-job deadline.  afs2-16 --compose, the largest afs2 size
/// that finishes, took from 14 s to over 20 s on a shared 4-vCPU host.
constexpr double kSweepDeadlineS = 30.0;

/// One sweep job in a forked child, so a job past the deadline is killed
/// outright (the snapshot build and some fixpoint phases do not poll the
/// cancel flag) and its memory goes with it.  Returns "seconds\tverdict\t
/// obligations", or "-\tTimeout\t-".
std::string sweepJob(const cmc::service::VerificationJob& job) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string line;
    try {
      const auto t0 = std::chrono::steady_clock::now();
      JobReport report;
      {
        cmc::service::VerificationService svc(serviceOptions(""));
        report = svc.run(job);
      }
      line = fmt(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count()) +
             '\t' + cmc::service::toString(report.verdict) + '\t' +
             std::to_string(report.obligations.size());
    } catch (const std::exception& e) {
      line = std::string("-\tError: ") + e.what() + "\t-";
    }
    const ssize_t written = write(fds[1], line.data(), line.size());
    _exit(written == static_cast<ssize_t>(line.size()) ? 0 : 1);
  }
  close(fds[1]);
  std::string line;
  pollfd pfd{fds[0], POLLIN, 0};
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(kSweepDeadlineS);
  bool timedOut = false;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      timedOut = true;
      break;
    }
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) break;  // the child closed its end: it has finished
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (timedOut) kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (timedOut) return "-\tTimeout\t-";
  return line.empty() ? "-\tError: job died\t-" : line;
}

/// Scaling sweep (reporting only): one cold job per (family, mode, n) with
/// a per-job deadline; sizes past a timeout are not run.
int runSweep() {
  const std::size_t sizes[] = {2, 4, 8, 12, 16, 24, 32};
  std::cout << "# per-job deadline " << kSweepDeadlineS << " s; cold service, "
            << "1 worker, engine auto; nproc "
            << std::thread::hardware_concurrency() << "\n"
            << "family\tn\tmode\tseconds\tverdict\tobligations"
            << std::endl;
  for (const std::string family : {"afs2", "ring"}) {
    for (const bool compose : {false, true}) {
      bool timedOut = false;
      for (std::size_t n : sizes) {
        std::string line = "-\tTimeout (not run)\t-";
        if (!timedOut) {
          line = sweepJob(makeJob(family + std::to_string(n),
                                  modelText(family, n, false), compose));
          timedOut = line.find("Timeout") != std::string::npos;
        }
        std::cout << family << '\t' << n << '\t'
                  << (compose ? "compose" : "direct") << '\t' << line
                  << std::endl;
      }
    }
  }
  return 0;
}

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a->workload = value();
    } else if (arg == "--seed") {
      a->seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a->seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (arg == "--expected-dir") {
      a->expectedDir = value();
    } else if (arg == "--work-dir") {
      a->workDir = value();
    } else if (arg == "--commit") {
      a->commit = value();
    } else if (arg == "--sweep") {
      a->mode = "sweep";
    } else if (arg == "--self-test") {
      a->mode = "self-test";
    } else {
      return false;
    }
  }
  return a->mode != "run" || !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parseArgs(argc, argv, &args)) return usage();
    if (args.mode == "self-test") return runSelfTest(args.expectedDir);
    if (kUnfitBuild != nullptr) {
      std::cerr << "perfbench: refusing to measure: this binary was "
                << kUnfitBuild << "\n";
      return 3;
    }
    if (args.mode == "sweep") return runSweep();
    return runWorkload(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

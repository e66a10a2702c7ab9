#include "service/obligation_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "service/trace_log.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/version.hpp"

namespace cmc::service {

namespace {

/// Bumped whenever checker semantics or the canonical serialization
/// change, so a persisted store from an older build can never serve a
/// verdict computed under different semantics.
constexpr const char* kCacheVersion = "cmc-obligation-cache-v2";

constexpr const char* kStoreFile = "obligations.jsonl";

/// The store's header line (framed): "format" gates loading, "cmc_version"
/// stamps the build that created the store so a mixed-version --cache-dir
/// is diagnosable.  Written once, by whichever process first appends to an
/// empty store (under the same flock as the entry append).
std::string storeHeader() {
  return frameLine(JsonObject()
                       .put("format", kCacheVersion)
                       .put("cmc_version", util::versionString())
                       .str());
}

/// Write all of `data`, retrying on short writes and EINTR.
bool writeAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// One store line: the entry object wrapped in the CRC framing
/// (frameLine), so a crash mid-append can never yield a silently
/// half-parsed entry.  The proof certificate is stored as a JSON *string*
/// (escaped), not a nested object, so the tolerant loader never needs to
/// balance braces.
std::string storeLine(const std::string& fingerprint, const CachedVerdict& v) {
  JsonObject obj;
  obj.put("fp", fingerprint)
      .put("verdict", toString(v.verdict))
      .put("rule", v.rule)
      .put("engine", v.engine)
      .putDouble("seconds", v.seconds);
  if (!v.counterexample.empty()) obj.put("counterexample", v.counterexample);
  if (!v.proofJson.empty()) obj.put("proof", v.proofJson);
  return frameLine(obj.str());
}

/// Strict inverse of a storeLine payload; any deviation marks the line
/// corrupt.
bool parseStorePayload(const std::string& line, std::string* fingerprint,
                       CachedVerdict* v) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string verdict;
  if (!jsonExtractString(line, "fp", fingerprint) ||
      !jsonExtractString(line, "verdict", &verdict)) {
    return false;
  }
  if (fingerprint->empty()) return false;
  if (verdict == "Holds") v->verdict = Verdict::Holds;
  else if (verdict == "Fails") v->verdict = Verdict::Fails;
  else return false;  // only decided verdicts belong in the store
  if (!jsonExtractString(line, "rule", &v->rule) ||
      !jsonExtractString(line, "engine", &v->engine) ||
      !jsonExtractDouble(line, "seconds", &v->seconds)) {
    return false;
  }
  jsonExtractString(line, "counterexample", &v->counterexample);
  jsonExtractString(line, "proof", &v->proofJson);
  return true;
}

/// Framed lines are checksummed; bare lines (stores written before the
/// framing existed) fall back to the strict parse alone.
bool parseStoreLine(const std::string& line, std::string* fingerprint,
                    CachedVerdict* v) {
  if (const std::optional<std::string> payload = unframeLine(line)) {
    return parseStorePayload(*payload, fingerprint, v);
  }
  if (line.find("\"crc\": ") != std::string::npos) return false;  // torn
  return parseStorePayload(line, fingerprint, v);
}

}  // namespace

ObligationCache::ObligationCache() : ObligationCache(Options{}) {}

ObligationCache::ObligationCache(Options opts) : dir_(std::move(opts.dir)) {
  const std::size_t capacity = opts.capacity < 1 ? 1 : opts.capacity;
  perShardCapacity_ = (capacity + kShards - 1) / kShards;
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr,
                   "obligation cache: cannot create %s (%s); "
                   "running in-memory only\n",
                   dir_.c_str(), ec.message().c_str());
      dir_.clear();
    } else {
      diskPath_ = (std::filesystem::path(dir_) / kStoreFile).string();
      loadDisk();
    }
  }
}

ObligationCache::Shard& ObligationCache::shardFor(
    const std::string& fingerprint) {
  std::size_t seed = 0;
  for (char c : fingerprint) {
    hashCombine(seed, static_cast<unsigned char>(c));
  }
  return shards_[mix64(seed) % kShards];
}

std::optional<CachedVerdict> ObligationCache::lookup(
    const std::string& fingerprint) {
  Shard& shard = shardFor(fingerprint);
  std::optional<CachedVerdict> result;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(fingerprint);
    if (it != shard.index.end()) {
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      result = it->second->second;
    }
  }
  std::lock_guard<std::mutex> lock(statsMutex_);
  if (result.has_value()) ++stats_.hits;
  else ++stats_.misses;
  return result;
}

bool ObligationCache::insertMemory(const std::string& fingerprint,
                                   const CachedVerdict& v) {
  Shard& shard = shardFor(fingerprint);
  bool isNew = false;
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(fingerprint);
    if (it != shard.index.end()) {
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      it->second->second = v;
    } else {
      shard.order.emplace_front(fingerprint, v);
      shard.index.emplace(fingerprint, shard.order.begin());
      isNew = true;
      while (shard.order.size() > perShardCapacity_) {
        shard.index.erase(shard.order.back().first);
        shard.order.pop_back();
        ++evicted;
      }
    }
  }
  if (isNew || evicted > 0) {
    std::lock_guard<std::mutex> lock(statsMutex_);
    if (isNew) ++stats_.inserts;
    stats_.evictions += evicted;
  }
  return isNew;
}

bool ObligationCache::insert(const std::string& fingerprint,
                             const CachedVerdict& v) {
  if (fingerprint.empty() || !cacheable(v.verdict)) return false;
  const bool isNew = insertMemory(fingerprint, v);
  if (isNew && !diskPath_.empty()) appendDisk(fingerprint, v);
  return isNew;
}

void ObligationCache::loadDisk() {
  std::ifstream in(diskPath_);
  if (!in) return;  // no store yet — first run in this directory
  std::string line;
  std::uint64_t loaded = 0, corrupt = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string fingerprint;
    CachedVerdict v;
    try {
      CMC_FAILPOINT("cache.disk_load");
      if (const std::optional<std::string> payload = unframeLine(line)) {
        std::string format;
        if (jsonExtractString(*payload, "format", &format)) {
          // Header line.  A future-format store must not serve verdicts
          // computed under different semantics: stop loading entirely.
          if (format != kCacheVersion) {
            std::fprintf(stderr,
                         "obligation cache: %s has format '%s' (this build "
                         "writes '%s'); ignoring the store\n",
                         diskPath_.c_str(), format.c_str(), kCacheVersion);
            return;
          }
          continue;
        }
      }
      if (parseStoreLine(line, &fingerprint, &v)) {
        insertMemory(fingerprint, v);
        ++loaded;
      } else {
        ++corrupt;
      }
    } catch (const std::exception&) {
      // An I/O or injected failure costs this line, never the store.
      ++corrupt;
    }
  }
  if (corrupt > 0) {
    std::fprintf(stderr,
                 "obligation cache: skipped %llu corrupt line(s) in %s\n",
                 static_cast<unsigned long long>(corrupt), diskPath_.c_str());
  }
  std::lock_guard<std::mutex> lock(statsMutex_);
  stats_.loaded += loaded;
  stats_.corruptLines += corrupt;
  // Loading is not inserting: report only what the run itself adds.
  stats_.inserts = 0;
  stats_.evictions = 0;
}

void ObligationCache::appendDisk(const std::string& fingerprint,
                                 const CachedVerdict& v) {
  // Disk-tier failures degrade to in-memory caching; they never propagate
  // into the obligation that produced the verdict.
  try {
    std::string data = storeLine(fingerprint, v) + "\n";
    std::lock_guard<std::mutex> lock(diskMutex_);
    CMC_FAILPOINT("cache.disk_append");
    // The diskMutex_ serializes this process's appenders; the flock below
    // serializes *processes* sharing one --cache-dir, so two cmc instances
    // can never interleave bytes mid-line.  Each append is a single
    // write(2) to an O_APPEND descriptor while holding the lock; a reader
    // — or a crash — sees whole lines plus at most one truncated tail,
    // which the checksum rejects on load.
    // O_RDWR, not O_WRONLY: the torn-tail check below reads the last byte.
    const int fd = ::open(diskPath_.c_str(), O_CREAT | O_RDWR | O_APPEND,
                          0644);
    if (fd < 0) throw Error("cannot open " + diskPath_);
    bool ok = false;
    std::string failure;
    if (::flock(fd, LOCK_EX) == 0) {
      // Whichever locked an empty store first prepends the header.  A
      // store whose last append was torn by a crash ends mid-line: start
      // on a fresh line, or this entry would be glued onto the torn tail
      // and fail the checksum with it.
      const off_t size = ::lseek(fd, 0, SEEK_END);
      char last = '\n';
      if (size == 0) {
        data.insert(0, storeHeader() + "\n");
      } else if (::pread(fd, &last, 1, size - 1) == 1 && last != '\n') {
        data.insert(0, "\n");
      }
      ok = writeAll(fd, data);
      if (!ok) failure = "write to " + diskPath_ + " failed";
      ::flock(fd, LOCK_UN);
    } else {
      failure = "flock on " + diskPath_ + " failed";
    }
    ::close(fd);
    if (!ok) throw Error(failure);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obligation cache: append failed: %s\n", e.what());
  }
}

ObligationCacheStats ObligationCache::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

std::size_t ObligationCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.order.size();
  }
  return total;
}

bool compactObligationStore(const std::string& dir, CompactionResult* result,
                            std::string* error) {
  *result = CompactionResult{};
  const std::string path =
      (std::filesystem::path(dir) / kStoreFile).string();
  // O_RDWR (not O_RDONLY): the flock must be the same exclusive lock
  // appenders take, so a concurrent `cmc serve` append waits out the
  // whole rewrite instead of racing the rename.
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  // LOCK_NB: appenders hold the store flock only for the duration of one
  // append, so a lock we cannot take immediately means a live writer is
  // mid-append — refuse rather than silently rewriting a store another
  // process is actively growing.  (A writer that appends *between* our
  // lock and the rename still loses nothing: it waits on the same flock.)
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      *error = path +
               " is locked by a live writer (a running cmc serve or check "
               "is appending); compact when the store is quiescent";
    } else {
      *error = "flock on " + path + " failed: " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  const auto unlockAndClose = [&] {
    ::flock(fd, LOCK_UN);
    ::close(fd);
  };

  std::string contents;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) != 0) {
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = "read " + path + " failed: " + std::strerror(errno);
        unlockAndClose();
        return false;
      }
      contents.append(buf, static_cast<std::size_t>(n));
    }
  }
  result->bytesBefore = contents.size();

  // Last write wins: later occurrences of a fingerprint replace earlier
  // ones in place, keeping first-occurrence order (so a compacted store
  // loads in the same LRU-seeding order as the original).
  std::unordered_map<std::string, std::size_t> slotByFp;
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < contents.size()) {
    std::size_t end = contents.find('\n', at);
    if (end == std::string::npos) end = contents.size();
    std::string line = contents.substr(at, end - at);
    at = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (const std::optional<std::string> payload = unframeLine(line)) {
      std::string format;
      if (jsonExtractString(*payload, "format", &format)) {
        if (format != kCacheVersion) {
          *error = path + " has format '" + format + "' (this build writes '" +
                   kCacheVersion + "'); refusing to compact";
          unlockAndClose();
          return false;
        }
        continue;  // a fresh header is stamped below
      }
    }
    std::string fingerprint;
    CachedVerdict v;
    if (!parseStoreLine(line, &fingerprint, &v)) {
      ++result->corrupt;
      continue;
    }
    ++result->entriesBefore;
    // Keep the surviving line byte-identical when it was already framed;
    // legacy bare lines gain framing here.
    const std::string framed =
        unframeLine(line).has_value() ? line : frameLine(line);
    const auto it = slotByFp.find(fingerprint);
    if (it != slotByFp.end()) {
      ++result->duplicates;
      lines[it->second] = framed;
    } else {
      slotByFp.emplace(fingerprint, lines.size());
      lines.push_back(framed);
    }
  }
  result->entriesAfter = lines.size();

  std::string data = storeHeader() + "\n";
  for (const std::string& line : lines) {
    data += line;
    data += '\n';
  }
  result->bytesAfter = data.size();

  const std::string tmpPath = path + ".compact.tmp";
  const int tmpFd =
      ::open(tmpPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (tmpFd < 0) {
    *error = "cannot create " + tmpPath + ": " + std::strerror(errno);
    unlockAndClose();
    return false;
  }
  const bool wrote = writeAll(tmpFd, data) && ::fsync(tmpFd) == 0;
  ::close(tmpFd);
  // Crash window under test: the temp file exists but the rename has not
  // happened.  The original store must survive untouched and the flock
  // must be released (the error path below does both).
  try {
    CMC_FAILPOINT("cache.compact");
  } catch (const std::exception& e) {
    *error = std::string("compaction aborted: ") + e.what();
    ::unlink(tmpPath.c_str());
    unlockAndClose();
    return false;
  }
  if (!wrote || ::rename(tmpPath.c_str(), path.c_str()) != 0) {
    *error = "rewrite of " + path + " failed: " + std::strerror(errno);
    ::unlink(tmpPath.c_str());
    unlockAndClose();
    return false;
  }
  unlockAndClose();
  return true;
}

std::string obligationFingerprint(const std::vector<std::string>& moduleCanon,
                                  std::size_t moduleIndex, bool composed,
                                  const ctl::Spec& spec,
                                  const JobOptions& options) {
  StableHash128 h;
  h.update(kCacheVersion).sep();
  if (composed) {
    // The composed verdict depends on every component (and on their
    // interleaving order, which fixes the composition's variable set).
    h.update("composed").sep();
    for (const std::string& canon : moduleCanon) {
      h.update(canon).sep();
    }
  } else {
    h.update("component").sep();
    h.update(moduleCanon.at(moduleIndex)).sep();
  }
  // The restriction index r = (I, F): ⊨_r verdicts are not transferable
  // across restrictions, so r must be part of the address (THEORY.md).
  h.update(spec.r.toString()).sep();
  h.update(ctl::toString(spec.f)).sep();
  // Verdict-relevant options.  Engine and clustering do not change Holds /
  // Fails (results are BDD-identical), but keeping them in the key makes
  // every cached verdict attributable to one exact configuration — and a
  // future engine whose semantics drift cannot alias an old entry.
  // EngineMode::Partitioned hashes to "partitioned", so entries written by
  // older builds (which hashed the boolean engine flag) stay addressable.
  h.update(symbolic::toString(options.engine)).sep();
  h.update(std::to_string(options.clusterThreshold)).sep();
  h.update(options.reorderBeforeCheck ? "reorder" : "noreorder").sep();
  // The retired (always empty) assumption digest's field: kept so stored
  // v2 fingerprints stay byte-identical.
  h.update("assume:").sep();
  return h.hex();
}

}  // namespace cmc::service

// Structured run tracing (service layer): a thread-safe JSONL event stream.
//
// Every job emits a sequence of single-line JSON events (job_start,
// obligation_start, attempt, retry, obligation_end, job_end — see
// scheduler.cpp) through a RunTrace.  The trace buffers events in memory
// (so tests can assert on them) and optionally appends each line to an
// ostream sink as it happens, which is how `cmc` streams
// <model>.trace.jsonl while the batch is still running.
//
// JsonObject is the deliberately tiny JSON builder used for both events and
// the summary report: insertion-ordered keys, no nesting except through
// putRaw(), everything serialized eagerly.  The repo has no JSON
// dependency, and the service's output is flat enough not to want one.
//
// The same flat single-line format is what the obligation cache's disk
// store and the wire protocol read back, so the
// reading side lives here too: jsonExtract* pull one field out of a flat
// line, and frameLine/unframeLine add and verify a trailing CRC-32 field.
//
// Framing
//   A framed line is a flat JSON object whose LAST key is "crc":
//     {"fp": "...", ..., "crc": "9a3f12cd"}
//   The checksum covers the payload exactly as serialized (the object with
//   the ", \"crc\": ...\"" suffix removed and the brace restored), so a
//   torn tail, a flipped byte, or an interleaved partial write is detected
//   and the line dropped on load — corruption is counted, never parsed.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

namespace cmc::service {

/// Escape a string for inclusion in a JSON string literal.
std::string jsonEscape(std::string_view s);

/// Serialize a double the way JSON wants it (no inf/nan, %g precision).
std::string jsonNumber(double value);

/// CRC-32 (IEEE 802.3, reflected) — the per-line checksum of framed lines.
std::uint32_t crc32(std::string_view bytes) noexcept;

/// Frame a serialized flat JSON object with a trailing checksum field:
/// {"k": v} -> {"k": v, "crc": "xxxxxxxx"}.  The input must be a
/// non-empty object serialization ({...}).
std::string frameLine(const std::string& payloadJson);

/// Verify and strip the framing checksum.  Returns the payload object, or
/// nullopt for torn, truncated, or corrupted lines.
std::optional<std::string> unframeLine(std::string_view line);

/// Field extraction from the flat single-line JSON written by JsonObject
/// (cache store lines, protocol messages).  Returns false when the key is
/// missing or its value is malformed/truncated.
bool jsonExtractString(const std::string& line, const std::string& key,
                       std::string* out);
bool jsonExtractDouble(const std::string& line, const std::string& key,
                       double* out);
bool jsonExtractUint(const std::string& line, const std::string& key,
                     std::uint64_t* out);
bool jsonExtractBool(const std::string& line, const std::string& key,
                     bool* out);

class JsonObject {
 public:
  JsonObject& put(const std::string& key, std::string_view value);
  JsonObject& put(const std::string& key, const char* value) {
    return put(key, std::string_view(value));
  }
  JsonObject& putBool(const std::string& key, bool value);
  JsonObject& putUint(const std::string& key, std::uint64_t value);
  JsonObject& putDouble(const std::string& key, double value);
  /// Insert a pre-serialized JSON value (object, array, ...) verbatim.
  JsonObject& putRaw(const std::string& key, std::string_view json);

  /// The serialized object, e.g. {"event": "job_start", "t": 0.01}.
  std::string str() const;

 private:
  JsonObject& putSerialized(const std::string& key, std::string value);

  std::string body_;  ///< comma-joined "key": value pairs
};

class RunTrace {
 public:
  /// Tag for a trace that drops every event.  Callers with no trace sink
  /// (batch runs without --trace) use this so the hot path can skip the
  /// JSON serialization entirely — check enabled() before building the
  /// JsonObject, since the argument is evaluated either way.
  struct Disabled {};

  RunTrace() = default;
  /// Events are additionally appended (and flushed) to `sink`; the sink
  /// must outlive the trace.  Pass nullptr for in-memory only.
  explicit RunTrace(std::ostream* sink) : sink_(sink) {}
  explicit RunTrace(Disabled) : enabled_(false) {}

  /// False when this trace discards events: skip building them.
  bool enabled() const { return enabled_; }

  /// Append one event line.  Thread-safe; called from pool workers.
  void emit(const JsonObject& event);

  /// Snapshot of all emitted lines.
  std::vector<std::string> lines() const;

  /// Number of emitted lines containing `needle` (test/assertion helper).
  std::size_t countContaining(std::string_view needle) const;

  /// Seconds since construction; the "t" field of every event.
  double elapsedSeconds() const { return timer_.seconds(); }

 private:
  mutable std::mutex mutex_;
  bool enabled_ = true;
  std::ostream* sink_ = nullptr;
  std::vector<std::string> lines_;
  WallTimer timer_;
};

}  // namespace cmc::service

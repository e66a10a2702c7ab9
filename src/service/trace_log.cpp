#include "service/trace_log.hpp"

#include <array>
#include <cmath>
#include <cstdio>

#include "util/failpoint.hpp"

namespace cmc::service {

namespace {

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// Parse the JSON string literal starting at s[i] (which must be '"').
/// Returns false on malformed or truncated input.
bool parseJsonString(const std::string& s, std::size_t* i, std::string* out) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (c == '\\') {
      if (*i + 1 >= s.size()) return false;
      const char esc = s[*i + 1];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          // jsonEscape only emits \u00XX for control characters.
          if (*i + 5 >= s.size()) return false;
          unsigned code = 0;
          for (int k = 2; k <= 5; ++k) {
            const char h = s[*i + k];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          out->push_back(static_cast<char>(code & 0xff));
          *i += 4;
          break;
        }
        default: return false;
      }
      *i += 2;
      continue;
    }
    out->push_back(c);
    ++*i;
  }
  return false;  // unterminated literal (truncated line)
}

/// Find `"key": ` in the flat object and return the start index of its
/// value, or npos.  All our keys are written by JsonObject in a fixed
/// order before any free-text value, so a key name inside a string value
/// cannot precede the real key.
std::size_t findValue(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

std::string crcHex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xffffffffu;
  for (unsigned char b : bytes) {
    c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string frameLine(const std::string& payloadJson) {
  CMC_ASSERT(payloadJson.size() >= 2 && payloadJson.front() == '{' &&
             payloadJson.back() == '}');
  std::string out = payloadJson;
  out.pop_back();  // drop the closing brace; restored after the crc field
  out += ", \"crc\": \"";
  out += crcHex(crc32(payloadJson));
  out += "\"}";
  return out;
}

std::optional<std::string> unframeLine(std::string_view line) {
  // The framing suffix is fixed-width: `, "crc": "xxxxxxxx"}`.
  static constexpr std::string_view kPrefix = ", \"crc\": \"";
  static constexpr std::size_t kSuffixLen = kPrefix.size() + 8 + 2;
  if (line.size() < kSuffixLen + 2 || line.back() != '}') return std::nullopt;
  const std::size_t at = line.size() - kSuffixLen;
  if (line.substr(at, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string_view hex = line.substr(at + kPrefix.size(), 8);
  if (line.substr(at + kPrefix.size() + 8) != "\"}") return std::nullopt;
  std::uint32_t stored = 0;
  for (char h : hex) {
    stored <<= 4;
    if (h >= '0' && h <= '9') stored |= static_cast<std::uint32_t>(h - '0');
    else if (h >= 'a' && h <= 'f') stored |= static_cast<std::uint32_t>(h - 'a' + 10);
    else return std::nullopt;
  }
  std::string payload(line.substr(0, at));
  payload += '}';
  if (crc32(payload) != stored) return std::nullopt;
  return payload;
}

bool jsonExtractString(const std::string& line, const std::string& key,
                       std::string* out) {
  std::size_t i = findValue(line, key);
  if (i == std::string::npos) return false;
  return parseJsonString(line, &i, out);
}

bool jsonExtractDouble(const std::string& line, const std::string& key,
                       double* out) {
  const std::size_t i = findValue(line, key);
  if (i == std::string::npos) return false;
  try {
    *out = std::stod(line.substr(i));
  } catch (...) {
    return false;
  }
  return true;
}

bool jsonExtractUint(const std::string& line, const std::string& key,
                     std::uint64_t* out) {
  const std::size_t i = findValue(line, key);
  if (i == std::string::npos || i >= line.size()) return false;
  if (line[i] < '0' || line[i] > '9') return false;  // no sign, no quotes
  try {
    *out = std::stoull(line.substr(i));
  } catch (...) {
    return false;
  }
  return true;
}

bool jsonExtractBool(const std::string& line, const std::string& key,
                     bool* out) {
  const std::size_t i = findValue(line, key);
  if (i == std::string::npos) return false;
  if (line.compare(i, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (line.compare(i, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

JsonObject& JsonObject::putSerialized(const std::string& key,
                                      std::string value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += jsonEscape(key);
  body_ += "\": ";
  body_ += value;
  return *this;
}

JsonObject& JsonObject::put(const std::string& key, std::string_view value) {
  return putSerialized(key, '"' + jsonEscape(value) + '"');
}

JsonObject& JsonObject::putBool(const std::string& key, bool value) {
  return putSerialized(key, value ? "true" : "false");
}

JsonObject& JsonObject::putUint(const std::string& key, std::uint64_t value) {
  return putSerialized(key, std::to_string(value));
}

JsonObject& JsonObject::putDouble(const std::string& key, double value) {
  return putSerialized(key, jsonNumber(value));
}

JsonObject& JsonObject::putRaw(const std::string& key,
                               std::string_view json) {
  return putSerialized(key, std::string(json));
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

void RunTrace::emit(const JsonObject& event) {
  if (!enabled_) return;
  const std::string line = event.str();
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(line);
  if (sink_ != nullptr) {
    // A failing sink degrades the trace to in-memory only (warn once):
    // telemetry loss must never take down the batch it narrates.
    try {
      CMC_FAILPOINT("trace.write");
      *sink_ << line << '\n';
      sink_->flush();
      if (!*sink_) throw Error("trace: sink write failed");
    } catch (const std::exception& e) {
      sink_ = nullptr;
      std::fprintf(stderr, "%s; continuing with in-memory trace only\n",
                   e.what());
    }
  }
}

std::vector<std::string> RunTrace::lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

std::size_t RunTrace::countContaining(std::string_view needle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const std::string& line : lines_) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

}  // namespace cmc::service

#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Tail tailPercentile(std::vector<double> samples) {
  static constexpr double kLadder[] = {50.0, 90.0, 95.0, 99.0, 99.9, 99.99};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  Tail best;
  bool found = false;
  for (double p : kLadder) {
    // Nearest rank: the smallest rank whose share of the sample is >= p.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < 10) break;
    best.percentile = p;
    best.value = samples[rank - 1];
    best.samples = n;
    best.beyond = n - rank;
    found = true;
  }
  if (!found) {
    throw std::invalid_argument("too few samples for a tail percentile");
  }
  return best;
}

double SpanRecorder::nowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(const std::string& name) {
  Span s;
  s.job = job_;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.startMs = nowMs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order: " +
                           spans_.at(index).name);
  }
  spans_[index].endMs = nowMs();
  open_.pop_back();
}

std::vector<double> selfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children.at(s.parent).emplace_back(s.startMs, s.endMs);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>>& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = spans[i].startMs;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, reach);
      hi = std::min(hi, spans[i].endMs);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = spans[i].durationMs() - covered;
  }
  return self;
}

std::map<std::string, double> selfTimesByName(const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimesMs(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

ExpectedTable parseExpected(const std::string& text) {
  ExpectedTable table;
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    const std::string verdict =
        tab == std::string::npos ? "" : line.substr(tab + 1);
    if (tab == 0 || (verdict != "Holds" && verdict != "Fails")) {
      throw std::runtime_error("expected-verdict table line " +
                               std::to_string(lineNo) + " is malformed: " +
                               line);
    }
    if (!table.emplace(line.substr(0, tab), verdict).second) {
      throw std::runtime_error("expected-verdict table lists " +
                               line.substr(0, tab) + " twice");
    }
  }
  return table;
}

ExpectedTable loadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parseExpected(buf.str());
}

std::vector<std::string> verdictMismatches(
    const ExpectedTable& expected,
    const std::vector<ObservedVerdict>& observed) {
  std::vector<std::string> out;
  std::map<std::string, int> seen;
  for (const ObservedVerdict& o : observed) {
    ++seen[o.id];
    const bool decided = o.verdict == "Holds" || o.verdict == "Fails";
    const auto it = expected.find(o.id);
    if (it == expected.end()) {
      out.push_back(o.id + ": not in the expected table (got " + o.verdict +
                    ")");
    } else if (decided && it->second != o.verdict) {
      out.push_back(o.id + ": expected " + it->second + ", got " + o.verdict);
    }
  }
  for (const auto& [id, verdict] : expected) {
    const auto it = seen.find(id);
    if (it == seen.end()) {
      out.push_back(id + ": expected " + verdict + ", never reported");
    } else if (it->second > 1) {
      out.push_back(id + ": reported " + std::to_string(it->second) +
                    " times");
    }
  }
  return out;
}

namespace {

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool isContinuation(const std::string& line) {
  return !line.empty() && (line[0] == ' ' || line[0] == '\t');
}

}  // namespace

PermutedText permuteSpecs(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  const bool trailingNewline = !text.empty() && text.back() == '\n';

  // Split into MODULE blocks; inside each, collect SPEC sections.
  struct Section {
    std::size_t first = 0;
    std::size_t last = 0;  ///< one past the section's final line
  };
  PermutedText out;
  std::vector<std::string> result;
  std::mt19937_64 rng(seed);
  std::size_t i = 0;
  while (i < lines.size()) {
    std::size_t blockEnd = i + 1;
    while (blockEnd < lines.size() && !startsWith(lines[blockEnd], "MODULE")) {
      ++blockEnd;
    }
    std::string module;
    if (startsWith(lines[i], "MODULE")) {
      std::istringstream head(lines[i].substr(6));
      head >> module;
    }
    std::vector<Section> sections;
    for (std::size_t k = i; k < blockEnd; ++k) {
      if (!startsWith(lines[k], "SPEC")) continue;
      Section s;
      s.first = k;
      s.last = k + 1;
      while (s.last < blockEnd && isContinuation(lines[s.last])) ++s.last;
      sections.push_back(s);
    }
    // Fisher-Yates over mt19937_64 output, which the standard fixes, so
    // a seed means the same order under every standard library.
    std::vector<std::size_t> order(sections.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    if (seed != 0) {
      for (std::size_t k = order.size(); k > 1; --k) {
        std::swap(order[k - 1], order[rng() % k]);
      }
    }
    std::size_t next = 0;
    for (std::size_t k = i; k < blockEnd;) {
      if (next < sections.size() && k == sections[next].first) {
        const Section& src = sections[order[next]];
        for (std::size_t m = src.first; m < src.last; ++m) {
          result.push_back(lines[m]);
        }
        out.toOriginal[module + ".SPEC" + std::to_string(next + 1)] =
            module + ".SPEC" + std::to_string(order[next] + 1);
        k = sections[next].last;
        ++next;
      } else {
        result.push_back(lines[k]);
        ++k;
      }
    }
    i = blockEnd;
  }
  for (std::size_t k = 0; k < result.size(); ++k) {
    out.text += result[k];
    if (k + 1 < result.size() || trailingNewline) out.text += '\n';
  }
  return out;
}

std::string originalId(const PermutedText& p, const std::string& id) {
  const std::size_t slash = id.find('/');
  if (slash == std::string::npos) return id;
  const auto it = p.toOriginal.find(id.substr(slash + 1));
  return it == p.toOriginal.end() ? id
                                  : id.substr(0, slash + 1) + it->second;
}

}  // namespace perfbench

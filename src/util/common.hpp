// Common definitions shared by every cmc subsystem.
//
// The library never calls std::abort on user error; all recoverable problems
// are reported with cmc::Error (std::runtime_error).  CMC_ASSERT guards
// internal invariants only and is kept enabled in release builds because the
// checker's answers are only as trustworthy as its invariants.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cmc {

/// Base class for every error thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Deepest expression tree the SMV and CTL parsers build, where a node's
/// depth is 1 + its deepest operand (so flat `a & a & ...` chains count)
/// and a parenthesized group nests one level.  Every later pass recurses
/// over these trees, so an unbounded depth would overflow the stack.  The
/// shipped and generated models stay under 100.
constexpr std::size_t kMaxExprDepth = 1000;

/// Thrown on malformed input text (CTL or SMV syntax errors).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int column)
      : Error("parse error at " + std::to_string(line) + ":" +
              std::to_string(column) + ": " + what),
        detail_(what),
        line_(line),
        column_(column) {}

  /// The message without the "parse error at L:C: " prefix.
  const std::string& detail() const noexcept { return detail_; }
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  std::string detail_;
  int line_;
  int column_;
};

/// Thrown when a model is semantically ill-formed (unknown variable, value
/// outside a declared domain, non-total relation where totality is required).
class ModelError : public Error {
 public:
  using Error::Error;
};

[[noreturn]] void assertionFailure(const char* expr, const char* file,
                                   int line);

}  // namespace cmc

#define CMC_ASSERT(expr)                                     \
  do {                                                       \
    if (!(expr)) {                                           \
      ::cmc::assertionFailure(#expr, __FILE__, __LINE__);    \
    }                                                        \
  } while (false)

#include "ctl/parser.hpp"

#include <cctype>

#include "util/common.hpp"

namespace cmc::ctl {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  FormulaPtr parseAll() {
    FormulaPtr f = parseIff();
    skipSpace();
    if (pos_ != text_.size()) {
      fail("unexpected trailing input");
    }
    return f;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { failAt(pos_, what); }

  [[noreturn]] void failAt(std::size_t at, const std::string& what) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < at && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(what, line, col);
  }

  /// One level of recursive descent (a parenthesized group, an until
  /// operand, a prefix operator, the right side of `->`).  Refuses to nest
  /// deeper than kMaxExprDepth, so `((((...))))` is a parse error, not a
  /// stack overflow.
  class Nested {
   public:
    explicit Nested(Parser& p) : p_(p) {
      if (++p_.nesting_ > kMaxExprDepth) {
        p_.fail("formula nests deeper than " +
                std::to_string(kMaxExprDepth) + " levels");
      }
    }
    ~Nested() { --p_.nesting_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& p_;
  };

  /// Refuse a freshly built node deeper than kMaxExprDepth (flat `a & a &
  /// ...` chains are parsed iteratively but still build deep trees); the
  /// error points at the node's operator, at offset `at`.
  FormulaPtr bounded(FormulaPtr f, std::size_t at) const {
    if (f->depth() > kMaxExprDepth) {
      failAt(at, "formula is deeper than " + std::to_string(kMaxExprDepth) +
                     " operators");
    }
    return f;
  }

  /// Offset of the next token (whitespace skipped).
  std::size_t here() {
    skipSpace();
    return pos_;
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(std::string_view token) {
    skipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  char peek() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  static bool isIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool isIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  }

  std::string ident() {
    skipSpace();
    if (pos_ >= text_.size() || !isIdentStart(text_[pos_])) {
      fail("expected identifier");
    }
    std::size_t begin = pos_;
    while (pos_ < text_.size() && isIdentChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(begin, pos_ - begin));
  }

  std::string identOrNumber() {
    skipSpace();
    if (pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      std::size_t begin = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return std::string(text_.substr(begin, pos_ - begin));
    }
    return ident();
  }

  FormulaPtr parseIff() {
    FormulaPtr lhs = parseImplies();
    for (std::size_t at = here(); eat("<->"); at = here()) {
      lhs = bounded(mkIff(lhs, parseImplies()), at);
    }
    return lhs;
  }

  FormulaPtr parseImplies() {
    FormulaPtr lhs = parseOr();
    const std::size_t at = here();
    if (eat("->")) {
      Nested level(*this);
      return bounded(mkImplies(lhs, parseImplies()), at);
    }
    return lhs;
  }

  FormulaPtr parseOr() {
    FormulaPtr lhs = parseAnd();
    for (;;) {
      const std::size_t at = here();
      // '|' but not part of '||' (we accept both spellings).
      if (eat("||") || eat("|")) {
        lhs = bounded(mkOr(lhs, parseAnd()), at);
      } else {
        return lhs;
      }
    }
  }

  FormulaPtr parseAnd() {
    FormulaPtr lhs = parseUnary();
    for (;;) {
      const std::size_t at = here();
      if (eat("&&") || eat("&")) {
        lhs = bounded(mkAnd(lhs, parseUnary()), at);
      } else {
        return lhs;
      }
    }
  }

  /// True when the identifier at pos_ is exactly `kw` (not a prefix of a
  /// longer identifier).
  bool eatKeyword(std::string_view kw) {
    skipSpace();
    if (text_.substr(pos_, kw.size()) != kw) return false;
    const std::size_t after = pos_ + kw.size();
    if (after < text_.size() && isIdentChar(text_[after])) return false;
    pos_ = after;
    return true;
  }

  /// The operand of a prefix operator, one Nested level down.
  FormulaPtr operand() {
    Nested level(*this);
    return parseUnary();
  }

  FormulaPtr parseUnary() {
    const std::size_t at = here();
    if (eat("!")) return bounded(mkNot(operand()), at);
    if (eatKeyword("AX")) return bounded(AX(operand()), at);
    if (eatKeyword("EX")) return bounded(EX(operand()), at);
    if (eatKeyword("AF")) return bounded(AF(operand()), at);
    if (eatKeyword("EF")) return bounded(EF(operand()), at);
    if (eatKeyword("AG")) return bounded(AG(operand()), at);
    if (eatKeyword("EG")) return bounded(EG(operand()), at);
    if (eatKeyword("A")) return parseUntil(/*universal=*/true, at);
    if (eatKeyword("E")) return parseUntil(/*universal=*/false, at);
    if (eatKeyword("TRUE") || eatKeyword("true")) return mkTrue();
    if (eatKeyword("FALSE") || eatKeyword("false")) return mkFalse();
    if (eat("(")) {
      Nested level(*this);
      FormulaPtr f = parseIff();
      if (!eat(")")) fail("expected ')'");
      return f;
    }
    if (peek() == '1' || peek() == '0') {
      const char c = text_[pos_];
      // A bare 0/1 literal only; "0..3" style tokens never reach CTL.
      ++pos_;
      return c == '1' ? mkTrue() : mkFalse();
    }
    return parseAtom();
  }

  FormulaPtr parseUntil(bool universal, std::size_t at) {
    if (!eat("[")) fail("expected '[' after path quantifier");
    Nested level(*this);
    FormulaPtr lhs = parseIff();
    if (!eatKeyword("U")) fail("expected 'U' in until formula");
    FormulaPtr rhs = parseIff();
    if (!eat("]")) fail("expected ']'");
    return bounded(universal ? AU(lhs, rhs) : EU(lhs, rhs), at);
  }

  FormulaPtr parseAtom() {
    std::string name = ident();
    skipSpace();
    if (eat("!=")) {
      return neq(name, identOrNumber());
    }
    if (peek() == '=') {
      // '=' but not '=>' (not in grammar, defensive).
      ++pos_;
      return eq(name, identOrNumber());
    }
    return atom(name);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t nesting_ = 0;  ///< open Nested levels
};

}  // namespace

FormulaPtr parse(std::string_view text) { return Parser(text).parseAll(); }

}  // namespace cmc::ctl

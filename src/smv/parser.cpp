#include "smv/parser.hpp"

#include <charconv>
#include <unordered_set>

#include "ctl/parser.hpp"
#include "smv/lexer.hpp"
#include "util/common.hpp"

namespace cmc::smv {

namespace {

const std::unordered_set<std::string> kSectionKeywords = {
    "MODULE", "VAR", "DEFINE", "ASSIGN", "INIT",
    "TRANS",  "SPEC", "FAIRNESS",
};

class Parser {
 public:
  Parser(std::string_view text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  std::vector<Module> parseProgram() {
    std::vector<Module> modules;
    while (!atEnd()) {
      modules.push_back(parseModule());
    }
    if (modules.empty()) {
      fail(peek(), "expected at least one MODULE");
    }
    return modules;
  }

  Module parseModule() {
    Module mod;
    expectIdent("MODULE");
    mod.name = expectKind(TokenKind::Ident).text;
    while (!atEnd()) {
      if (peek().kind == TokenKind::Ident && peek().text == "MODULE") {
        break;  // next module begins
      }
      const Token& section = expectKind(TokenKind::Ident);
      if (section.text == "VAR") {
        parseVarSection(mod);
      } else if (section.text == "DEFINE") {
        parseDefineSection(mod);
      } else if (section.text == "ASSIGN") {
        parseAssignSection(mod);
      } else if (section.text == "INIT") {
        mod.initConstraints.push_back(parseExpression());
        eatOptionalSemicolon();
      } else if (section.text == "TRANS") {
        mod.transConstraints.push_back(parseExpression());
        eatOptionalSemicolon();
      } else if (section.text == "SPEC") {
        mod.specs.push_back(parseCtlSection());
      } else if (section.text == "FAIRNESS") {
        mod.fairness.push_back(parseCtlSection());
      } else {
        fail(section, "expected a section keyword (VAR, ASSIGN, DEFINE, "
                      "INIT, TRANS, SPEC, FAIRNESS), got '" +
                          section.text + "'");
      }
    }
    return mod;
  }

  ExprPtr parseBareExpression() {
    ExprPtr e = parseExpression();
    if (!atEnd()) fail(peek(), "unexpected trailing input");
    return e;
  }

 private:
  [[noreturn]] void fail(const Token& tok, const std::string& what) const {
    throw ParseError(what, tok.line, tok.column);
  }

  /// One level of recursive descent (a parenthesized group, a set or case
  /// operand, a `!`, the right side of `->`).  Refuses to nest deeper than
  /// kMaxExprDepth, so `((((...))))` is a parse error, not a stack overflow.
  class Nested {
   public:
    Nested(Parser& p, const Token& at) : p_(p) {
      if (++p_.nesting_ > kMaxExprDepth) {
        p_.fail(at, "expression nests deeper than " +
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
  /// ...` chains are parsed iteratively but still build deep trees).
  ExprPtr bounded(ExprPtr e, const Token& at) const {
    if (e->depth > kMaxExprDepth) {
      fail(at, "expression is deeper than " + std::to_string(kMaxExprDepth) +
                   " operators");
    }
    return e;
  }

  /// A range bound: a numeral that fits in a long.
  long parseBound() {
    const Token& tok = expectKind(TokenKind::Number);
    long v = 0;
    const char* end = tok.text.data() + tok.text.size();
    const auto [ptr, ec] = std::from_chars(tok.text.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      fail(tok, "range bound '" + tok.text + "' does not fit in a long");
    }
    return v;
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  bool atEnd() const { return peek().kind == TokenKind::End; }

  const Token& advance() {
    const Token& tok = tokens_[pos_];
    if (tok.kind != TokenKind::End) ++pos_;
    return tok;
  }

  bool eat(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }

  bool eatIdent(const std::string& text) {
    if (peek().kind == TokenKind::Ident && peek().text == text) {
      advance();
      return true;
    }
    return false;
  }

  const Token& expectKind(TokenKind kind) {
    if (peek().kind != kind) {
      fail(peek(), "expected " + tokenKindName(kind) + ", got '" +
                       peek().text + "'");
    }
    return advance();
  }

  void expectIdent(const std::string& text) {
    const Token& tok = expectKind(TokenKind::Ident);
    if (tok.text != text) {
      fail(tok, "expected '" + text + "', got '" + tok.text + "'");
    }
  }

  void eatOptionalSemicolon() { eat(TokenKind::Semicolon); }

  bool atSectionKeyword() const {
    return peek().kind == TokenKind::Ident &&
           kSectionKeywords.count(peek().text) != 0;
  }

  /// A SPEC/FAIRNESS body, parsed by the CTL parser.  Its errors carry
  /// body-relative positions; re-anchor them at the body's place in the
  /// file so the message names the model's line.
  ctl::FormulaPtr parseCtlSection() {
    const Token& start = peek();
    const std::string body = rawSectionBody();
    try {
      return ctl::parse(body);
    } catch (const ParseError& e) {
      throw ParseError(e.detail(), start.line + e.line() - 1,
                       e.line() == 1 ? start.column + e.column() - 1
                                     : e.column());
    }
  }

  /// Raw source span from the current token up to (excluding) the next
  /// top-level section keyword; advances past it.  Used for SPEC/FAIRNESS,
  /// whose bodies use CTL syntax rather than SMV expressions.
  std::string rawSectionBody() {
    const std::size_t begin = peek().offset;
    while (!atEnd() && !atSectionKeyword()) advance();
    const std::size_t end = peek().offset;
    std::string body(text_.substr(begin, end - begin));
    // Strip SMV comments so the CTL parser does not see them.
    std::string clean;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i] == '-' && i + 1 < body.size() && body[i + 1] == '-') {
        while (i < body.size() && body[i] != '\n') ++i;
        if (i < body.size()) clean.push_back('\n');
        continue;
      }
      clean.push_back(body[i]);
    }
    return clean;
  }

  // ---- Sections -----------------------------------------------------------

  void parseVarSection(Module& mod) {
    // VAR entries: ident ':' type ';'  — repeated until a section keyword.
    while (!atEnd() && !atSectionKeyword()) {
      VarDecl decl;
      decl.name = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::Colon);
      decl.type = parseType();
      expectKind(TokenKind::Semicolon);
      mod.vars.push_back(std::move(decl));
    }
  }

  TypeDecl parseType() {
    TypeDecl type;
    if (eatIdent("boolean")) {
      type.kind = TypeDecl::Kind::Bool;
      return type;
    }
    if (eat(TokenKind::LBrace)) {
      type.kind = TypeDecl::Kind::Enum;
      for (;;) {
        const Token& tok = advance();
        if (tok.kind != TokenKind::Ident && tok.kind != TokenKind::Number) {
          fail(tok, "expected enum value");
        }
        type.values.push_back(tok.text);
        if (eat(TokenKind::RBrace)) break;
        expectKind(TokenKind::Comma);
      }
      return type;
    }
    if (peek().kind == TokenKind::Number) {
      const Token& at = peek();
      type.kind = TypeDecl::Kind::Range;
      type.lo = parseBound();
      expectKind(TokenKind::DotDot);
      type.hi = parseBound();
      if (type.hi < type.lo) {
        fail(peek(), "empty range type");
      }
      // hi - lo + 1 values; the unsigned difference cannot overflow.
      if (static_cast<unsigned long>(type.hi) -
              static_cast<unsigned long>(type.lo) >=
          TypeDecl::kMaxRangeValues) {
        fail(at, "range type spans more than " +
                     std::to_string(TypeDecl::kMaxRangeValues) + " values");
      }
      return type;
    }
    fail(peek(), "expected a type (boolean, {..}, or lo..hi)");
  }

  void parseDefineSection(Module& mod) {
    while (!atEnd() && !atSectionKeyword()) {
      Define def;
      def.name = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::Assign);
      def.expr = parseExpression();
      expectKind(TokenKind::Semicolon);
      mod.defines.push_back(std::move(def));
    }
  }

  void parseAssignSection(Module& mod) {
    while (!atEnd() && !atSectionKeyword()) {
      Assign assign;
      if (eatIdent("init")) {
        assign.kind = Assign::Kind::Init;
      } else if (eatIdent("next")) {
        assign.kind = Assign::Kind::Next;
      } else {
        fail(peek(), "expected init(..) or next(..) assignment");
      }
      expectKind(TokenKind::LParen);
      assign.var = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::RParen);
      expectKind(TokenKind::Assign);
      assign.expr = parseExpression();
      expectKind(TokenKind::Semicolon);
      mod.assigns.push_back(std::move(assign));
    }
  }

  // ---- Expressions --------------------------------------------------------

  ExprPtr parseExpression() { return parseIff(); }

  ExprPtr parseIff() {
    ExprPtr lhs = parseImplies();
    while (peek().kind == TokenKind::Iff) {
      const Token& op = advance();
      lhs = bounded(mkBinary(ExprKind::Iff, lhs, parseImplies()), op);
    }
    return lhs;
  }

  ExprPtr parseImplies() {
    ExprPtr lhs = parseOr();
    if (peek().kind == TokenKind::Implies) {
      const Token& op = advance();
      Nested level(*this, op);
      return bounded(mkBinary(ExprKind::Implies, lhs, parseImplies()), op);
    }
    return lhs;
  }

  ExprPtr parseOr() {
    ExprPtr lhs = parseAnd();
    while (peek().kind == TokenKind::Or) {
      const Token& op = advance();
      lhs = bounded(mkBinary(ExprKind::Or, lhs, parseAnd()), op);
    }
    return lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr lhs = parseEquality();
    while (peek().kind == TokenKind::And) {
      const Token& op = advance();
      lhs = bounded(mkBinary(ExprKind::And, lhs, parseEquality()), op);
    }
    return lhs;
  }

  ExprPtr parseEquality() {
    ExprPtr lhs = parseUnary();
    const Token& op = peek();
    if (eat(TokenKind::Eq)) {
      return bounded(mkBinary(ExprKind::Eq, lhs, parseUnary()), op);
    }
    if (eat(TokenKind::Neq)) {
      return bounded(mkBinary(ExprKind::Neq, lhs, parseUnary()), op);
    }
    return lhs;
  }

  ExprPtr parseUnary() {
    const Token& op = peek();
    if (eat(TokenKind::Not)) {
      Nested level(*this, op);
      return bounded(mkUnary(ExprKind::Not, parseUnary()), op);
    }
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    const Token& tok = peek();
    if (eat(TokenKind::LParen)) {
      Nested level(*this, tok);
      ExprPtr e = parseExpression();
      expectKind(TokenKind::RParen);
      return e;
    }
    if (eat(TokenKind::LBrace)) {
      Nested level(*this, tok);
      std::vector<ExprPtr> elems;
      for (;;) {
        elems.push_back(parseExpression());
        if (eat(TokenKind::RBrace)) break;
        expectKind(TokenKind::Comma);
      }
      return bounded(mkSet(std::move(elems)), tok);
    }
    if (tok.kind == TokenKind::Number) {
      advance();
      return mkValue(tok.text);
    }
    if (tok.kind == TokenKind::Ident) {
      if (tok.text == "case") {
        return parseCase();
      }
      if (tok.text == "next" && peek(1).kind == TokenKind::LParen) {
        advance();  // next
        advance();  // (
        const std::string name = expectKind(TokenKind::Ident).text;
        expectKind(TokenKind::RParen);
        return mkNextRef(name);
      }
      advance();
      // Variable, define, or enum literal; resolved during elaboration.
      return mkVarRef(tok.text);
    }
    fail(tok, "expected an expression, got '" + tok.text + "'");
  }

  ExprPtr parseCase() {
    const Token& at = peek();
    expectIdent("case");
    Nested level(*this, at);
    std::vector<CaseBranch> branches;
    while (!eatIdent("esac")) {
      CaseBranch branch;
      branch.cond = parseExpression();
      expectKind(TokenKind::Colon);
      branch.value = parseExpression();
      expectKind(TokenKind::Semicolon);
      branches.push_back(std::move(branch));
    }
    if (branches.empty()) {
      fail(peek(), "empty case expression");
    }
    return bounded(mkCase(std::move(branches)), at);
  }

  std::string_view text_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t nesting_ = 0;  ///< open Nested levels
};

}  // namespace

Module parseModule(std::string_view text) {
  return Parser(text, tokenize(text)).parseModule();
}

std::vector<Module> parseProgram(std::string_view text) {
  return Parser(text, tokenize(text)).parseProgram();
}

ExprPtr parseExpr(std::string_view text) {
  return Parser(text, tokenize(text)).parseBareExpression();
}

}  // namespace cmc::smv

// Tests for the SMV front end: lexer, parser, and elaboration semantics.
#include <gtest/gtest.h>

#include <functional>

#include "ctl/parser.hpp"
#include "smv/elaborate.hpp"
#include "smv/lexer.hpp"
#include "smv/parser.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/encode.hpp"
#include "symbolic/prop.hpp"
#include "util/timer.hpp"

namespace cmc::smv {
namespace {

TEST(SmvLexer, TokensAndComments) {
  const auto tokens = tokenize("next(x) := {a, b}; -- comment\n0..3 != <->");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::Ident, TokenKind::LParen, TokenKind::Ident,
                TokenKind::RParen, TokenKind::Assign, TokenKind::LBrace,
                TokenKind::Ident, TokenKind::Comma, TokenKind::Ident,
                TokenKind::RBrace, TokenKind::Semicolon, TokenKind::Number,
                TokenKind::DotDot, TokenKind::Number, TokenKind::Neq,
                TokenKind::Iff, TokenKind::End}));
}

TEST(SmvLexer, PositionsAndErrors) {
  const auto tokens = tokenize("a\n  b");
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
  EXPECT_THROW(tokenize("a $ b"), ParseError);
}

TEST(SmvLexer, DottedIdentifiers) {
  const auto tokens = tokenize("Server.belief 0..3");
  EXPECT_EQ(tokens[0].text, "Server.belief");
  EXPECT_EQ(tokens[1].kind, TokenKind::Number);
  EXPECT_EQ(tokens[2].kind, TokenKind::DotDot);
}

TEST(SmvParser, VarSection) {
  const Module mod = parseModule(R"(
MODULE main
VAR
  x : boolean;
  s : {a, b, c};
  n : 0..3;
)");
  ASSERT_EQ(mod.vars.size(), 3u);
  EXPECT_EQ(mod.vars[0].type.kind, TypeDecl::Kind::Bool);
  EXPECT_EQ(mod.vars[1].type.expandedValues(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(mod.vars[2].type.expandedValues(),
            (std::vector<std::string>{"0", "1", "2", "3"}));
}

TEST(SmvParser, AssignAndCase) {
  const Module mod = parseModule(R"(
MODULE main
VAR x : {a, b};
ASSIGN
  init(x) := a;
  next(x) :=
    case
      x = a : b;
      1 : x;
    esac;
)");
  ASSERT_EQ(mod.assigns.size(), 2u);
  EXPECT_EQ(mod.assigns[0].kind, Assign::Kind::Init);
  EXPECT_EQ(mod.assigns[1].kind, Assign::Kind::Next);
  EXPECT_EQ(mod.assigns[1].expr->kind, ExprKind::Case);
  EXPECT_EQ(mod.assigns[1].expr->branches.size(), 2u);
}

TEST(SmvParser, SpecAndFairnessDelegateToCtl) {
  const Module mod = parseModule(R"(
MODULE main
VAR x : boolean;
SPEC x -> AX x
FAIRNESS !x
SPEC AG (x -> EX x)
)");
  ASSERT_EQ(mod.specs.size(), 2u);
  ASSERT_EQ(mod.fairness.size(), 1u);
  EXPECT_TRUE(ctl::equal(mod.specs[0],
                         ctl::mkImplies(ctl::atom("x"), ctl::AX(ctl::atom("x")))));
  EXPECT_TRUE(ctl::equal(mod.fairness[0], ctl::mkNot(ctl::atom("x"))));
}

TEST(SmvParser, Errors) {
  EXPECT_THROW(parseModule("VAR x : boolean;"), ParseError);  // no MODULE
  EXPECT_THROW(parseModule("MODULE main VAR x boolean;"), ParseError);
  EXPECT_THROW(parseModule("MODULE main ASSIGN foo(x) := 1;"), ParseError);
  EXPECT_THROW(parseModule("MODULE main VAR x : 3..1;"), ParseError);
  EXPECT_THROW(parseModule("MODULE main VAR x : boolean; ASSIGN next(x) := "
                           "case esac;"),
               ParseError);
}

TEST(SmvParser, ExprPrecedence) {
  const ExprPtr e = parseExpr("a = x & b = y -> c");
  EXPECT_EQ(e->kind, ExprKind::Implies);
  EXPECT_EQ(e->args[0]->kind, ExprKind::And);
  EXPECT_EQ(e->args[0]->args[0]->kind, ExprKind::Eq);
}

/// The line of the ParseError `text` raises, or 0 if it parses.
int parseErrorLine(const std::string& text) {
  try {
    parseProgram(text);
  } catch (const ParseError& e) {
    return e.line();
  }
  return 0;
}

TEST(SmvParser, ExpressionDepthIsCappedInSpecsAndAssigns) {
  // Every shape on line 3; at the cap it parses, one past it is a parse
  // error naming that line (never a stack overflow, however deep).
  const std::string head = "MODULE main\nVAR x : boolean;\n";
  const auto parens = [](std::size_t n) {
    return std::string(n, '(') + "x" + std::string(n, ')');
  };
  const auto chain = [](std::size_t n) {
    std::string out = "x";
    for (std::size_t i = 1; i < n; ++i) out += " & x";
    return out;
  };
  const auto spec = [&](const std::string& e) {
    return head + "SPEC " + e + "\n";
  };
  const auto assign = [&](const std::string& e) {
    return head + "ASSIGN next(x) := " + e + ";\n";
  };
  for (const auto& wrap : {std::function<std::string(const std::string&)>(spec),
                           std::function<std::string(const std::string&)>(assign)}) {
    EXPECT_EQ(parseErrorLine(wrap(parens(kMaxExprDepth))), 0);
    EXPECT_EQ(parseErrorLine(wrap(parens(kMaxExprDepth + 1))), 3);
    EXPECT_EQ(parseErrorLine(wrap(chain(kMaxExprDepth))), 0);
    EXPECT_EQ(parseErrorLine(wrap(chain(kMaxExprDepth + 1))), 3);
    // The shapes that crashed before the cap existed.
    EXPECT_EQ(parseErrorLine(wrap(parens(20000))), 3);
    EXPECT_EQ(parseErrorLine(wrap(chain(50000))), 3);
  }
  const std::vector<Module> ok = parseProgram(spec(chain(kMaxExprDepth)));
  EXPECT_EQ(ok[0].specs[0]->depth(), kMaxExprDepth);
}

TEST(SmvParser, RangeTypesAreBoundedAndFitInALong) {
  const auto var = [](const std::string& type) {
    return "MODULE main\nVAR\n  x : " + type + ";\n";
  };
  const std::string last = std::to_string(TypeDecl::kMaxRangeValues - 1);
  const std::vector<Module> ok = parseProgram(var("0.." + last));
  EXPECT_EQ(ok[0].vars[0].type.expandedValues().size(),
            TypeDecl::kMaxRangeValues);
  EXPECT_EQ(parseErrorLine(var("1.." + std::to_string(
                                           TypeDecl::kMaxRangeValues + 1))),
            3);
  EXPECT_EQ(parseErrorLine(var("0..10000000")), 3);
  // Numerals past LONG_MAX are parse errors, not an escaped std::stol throw.
  EXPECT_EQ(parseErrorLine(var("0..99999999999999999999")), 3);
  EXPECT_EQ(parseErrorLine(var("99999999999999999999..1")), 3);
  try {
    parseProgram(var("0..99999999999999999999"));
    ADD_FAILURE() << "oversized numeral parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("does not fit"), std::string::npos)
        << e.what();
  }
  // A range ending at LONG_MAX expands without overflowing its counter.
  const std::vector<Module> top =
      parseProgram(var("9223372036854775806..9223372036854775807"));
  EXPECT_EQ(top[0].vars[0].type.expandedValues(),
            (std::vector<std::string>{"9223372036854775806",
                                      "9223372036854775807"}));
}

// ---- Elaboration ------------------------------------------------------------

TEST(SmvElaborate, DeterministicNext) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR x : boolean;
ASSIGN next(x) := !x;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("x -> AX !x")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("!x -> AX x")));
}

TEST(SmvElaborate, SetLiteralIsNondeterministic) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR s : {a, b, c};
ASSIGN next(s) := {a, b};
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("EX s=a & EX s=b")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("AX (s=a | s=b)")));
  EXPECT_FALSE(checker.holds(ctl::Restriction::trivial(),
                             ctl::parse("EX s=c")));
}

TEST(SmvElaborate, CaseFirstMatchWins) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR s : {a, b, c};
ASSIGN next(s) :=
  case
    s = a : b;
    s = a : c;  -- dead branch: first match wins
    s = b : c;
    1 : s;
  esac;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=a -> AX s=b")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=b -> AX s=c")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=c -> AX s=c")));
}

TEST(SmvElaborate, NonExhaustiveCaseLeavesFree) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR s : {a, b};
ASSIGN next(s) :=
  case
    s = a : b;
  esac;
)");
  symbolic::Checker checker(mod.sys);
  // From b the case falls through: any next value.
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=b -> EX s=a & EX s=b")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=a -> AX s=b")));
}

TEST(SmvElaborate, UnassignedVariableIsFree) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR x : boolean;
    y : boolean;
ASSIGN next(x) := x;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("EX y & EX !y")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("x -> AX x")));
}

TEST(SmvElaborate, CopyAssignmentAndBooleanExpr) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR x : boolean;
    y : boolean;
ASSIGN
  next(x) := y;
  next(y) := x & !y;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("y -> AX x")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("x & !y -> AX y")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("y -> AX !y")));
}

TEST(SmvElaborate, DefinesExpandAndRejectRecursion) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR s : {a, b};
DEFINE isA := s = a;
ASSIGN next(s) := case isA : b; 1 : a; esac;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("s=a -> AX s=b")));

  symbolic::Context ctx2;
  EXPECT_THROW(elaborateText(ctx2, R"(
MODULE main
VAR x : boolean;
DEFINE loop := loop & x;
ASSIGN next(x) := loop;
)"),
               ModelError);
}

TEST(SmvElaborate, InitFormulaFromAssignsAndInitSections) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR s : {a, b, c};
    x : boolean;
ASSIGN init(s) := {a, b};
INIT !x
)");
  // initFormula should be (s=a | s=b) & !x.
  EXPECT_TRUE(symbolic::propositionallyValid(
      ctx, mod.sys.vars,
      ctl::mkIff(mod.initFormula,
                 ctl::mkAnd(ctl::mkOr(ctl::eq("s", "a"), ctl::eq("s", "b")),
                            ctl::mkNot(ctl::atom("x"))))));
}

TEST(SmvElaborate, TransConstraintWithNext) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR x : boolean;
TRANS !x | next(x) = 0
)");
  symbolic::Checker checker(mod.sys);
  // From x, every transition goes to !x; from !x anything goes.
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("x -> AX !x")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("!x -> EX x")));
}

TEST(SmvElaborate, SharedVariablesReuseDeclaration) {
  symbolic::Context ctx;
  const ElaboratedModule a = elaborateText(ctx, R"(
MODULE a
VAR r : {null, go};
    x : boolean;
ASSIGN next(r) := case x : go; 1 : r; esac;
)");
  const ElaboratedModule b = elaborateText(ctx, R"(
MODULE b
VAR r : {null, go};
    y : boolean;
ASSIGN next(y) := case r = go : 1; 1 : y; esac;
)");
  EXPECT_EQ(ctx.varId("r"), a.sys.vars[0]);
  EXPECT_NE(a.sys.vars, b.sys.vars);
  // Redeclaration with a different domain fails.
  EXPECT_THROW(elaborateText(ctx, R"(
MODULE c
VAR r : {null, go, stop};
)"),
               ModelError);
}

TEST(SmvElaborate, SemanticErrors) {
  symbolic::Context ctx;
  EXPECT_THROW(elaborateText(ctx, R"(
MODULE main
VAR s : {a, b};
ASSIGN next(s) := zz;
)"),
               ModelError);
  symbolic::Context ctx2;
  EXPECT_THROW(elaborateText(ctx2, R"(
MODULE main
VAR x : boolean;
ASSIGN next(y) := 1;
)"),
               ModelError);
  symbolic::Context ctx3;
  EXPECT_THROW(elaborateText(ctx3, R"(
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1; next(x) := 0;
)"),
               ModelError);
  symbolic::Context ctx4;
  // next() outside TRANS is rejected.
  EXPECT_THROW(elaborateText(ctx4, R"(
MODULE main
VAR x : boolean;
ASSIGN next(x) := next(x);
)"),
               ModelError);
}

TEST(SmvElaborate, SpecsCarryModuleRestriction) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := 0;
  next(x) := 1;
FAIRNESS x
SPEC AF x
)");
  ASSERT_EQ(mod.specs.size(), 1u);
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(mod.specs[0]));
  // Without the restriction (trivial r) it would still hold here since
  // next(x):=1 forces progress; weaken the model to see the restriction
  // matter.
  symbolic::Context ctx2;
  const ElaboratedModule lazy = elaborateText(ctx2, R"(
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := 0;
  next(x) := {0, 1};
FAIRNESS x
SPEC AF x
)");
  symbolic::Checker lazyChecker(lazy.sys);
  EXPECT_TRUE(lazyChecker.holds(lazy.specs[0]));  // fair paths must hit x
  EXPECT_FALSE(lazyChecker.holds(ctl::Restriction::trivial(),
                                 ctl::parse("AF x")));
}

TEST(SmvElaborate, RangeTypesCompare) {
  symbolic::Context ctx;
  const ElaboratedModule mod = elaborateText(ctx, R"(
MODULE main
VAR n : 0..3;
ASSIGN next(n) := case n = 0 : 1; n = 1 : 2; n = 2 : 3; 1 : n; esac;
)");
  symbolic::Checker checker(mod.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("n=0 -> AX n=1")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("n=3 -> AX n=3")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("n=0 -> EF n=3")));
}

TEST(SmvElaborate, CopyAssignmentIsLinearInTheValueCount) {
  // The parser caps range width, but a programmatic TypeDecl does not.
  // Matching each value by name made `next(x) := x` quadratic: 65,536
  // values took about 23 s.  With one index map it takes well under a
  // second; the bound is generous for slow and sanitized builds.
  Module mod = parseModule(R"(
MODULE main
VAR x : 0..1;
ASSIGN init(x) := 0; next(x) := x;
)");
  mod.vars.front().type.hi = 65535;
  symbolic::Context ctx;
  WallTimer timer;
  const ElaboratedModule em = elaborate(ctx, mod);
  EXPECT_LT(timer.seconds(), 10.0);
  EXPECT_EQ(ctx.variable(ctx.varId("x")).values.size(), 65536u);
  symbolic::Checker checker(em.sys);
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse("x=65535 -> AX x=65535")));
  EXPECT_FALSE(checker.holds(ctl::Restriction::trivial(),
                             ctl::parse("x=7 -> EX x=8")));
}

}  // namespace
}  // namespace cmc::smv

namespace cmc::smv {
namespace {

TEST(SmvProgram, MultiModuleFilesParseAndShareVariables) {
  const std::vector<Module> modules = parseProgram(R"(
MODULE writer
VAR ch : {empty, full};
    data : boolean;
ASSIGN next(ch) := case ch = empty : full; 1 : ch; esac;
SPEC ch = empty -> EX ch = full

MODULE reader
VAR ch : {empty, full};
    got : boolean;
ASSIGN
  next(ch) := case ch = full : empty; 1 : ch; esac;
  next(got) := case ch = full : 1; 1 : got; esac;
)");
  ASSERT_EQ(modules.size(), 2u);
  EXPECT_EQ(modules[0].name, "writer");
  EXPECT_EQ(modules[1].name, "reader");
  EXPECT_EQ(modules[0].specs.size(), 1u);

  symbolic::Context ctx;
  const std::vector<ElaboratedModule> elaborated = elaborateProgram(ctx, R"(
MODULE writer
VAR ch : {empty, full};
ASSIGN next(ch) := case ch = empty : full; 1 : ch; esac;

MODULE reader
VAR ch : {empty, full};
    got : boolean;
ASSIGN
  next(ch) := case ch = full : empty; 1 : ch; esac;
  next(got) := case ch = full : 1; 1 : got; esac;
)");
  ASSERT_EQ(elaborated.size(), 2u);
  // Shared variable: same id in both components' alphabets.
  EXPECT_EQ(elaborated[0].sys.vars[0], ctx.varId("ch"));
  EXPECT_NE(elaborated[0].sys.vars, elaborated[1].sys.vars);
}

TEST(SmvProgram, EmptyProgramIsRejected) {
  EXPECT_THROW(parseProgram("  -- only a comment\n"), ParseError);
}

}  // namespace
}  // namespace cmc::smv

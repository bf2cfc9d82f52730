#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/compile/disasm.h"
#include "exec/compile/expr_compiler.h"
#include "exec/compile/verifier.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Tests for the bytecode verifier (exec/compile/verifier.h): the stage-1
/// well-formedness checker must reject every structurally broken raw
/// program with an instruction-indexed diagnostic, stage-2 translation
/// validation must reject well-formed programs that compute something other
/// than their source tree (exactly the corruptions the runtime type guards
/// would mask as a silent slowdown-plus-wrong-answer), the mutation harness
/// must show a >= 95% kill rate over single-instruction mutants, and the
/// lowering integration must turn a rejection into interpreter fallback —
/// never into executing the rejected program.

using Op = ExprProgram::Op;
using Insn = ExprProgram::Insn;
using CmpLane = PredicateProgram::CmpLane;
using Conjunct = PredicateProgram::Conjunct;
using Operand = PredicateProgram::Operand;

/// The compile_test.cc fixture layout: two int columns, two double columns,
/// one string column — every lane plus the generic fallback.
class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() {
    a_ = cat_.Add("t.a", DataType::kInt64);
    b_ = cat_.Add("t.b", DataType::kInt64);
    x_ = cat_.Add("t.x", DataType::kDouble);
    y_ = cat_.Add("t.y", DataType::kDouble);
    s_ = cat_.Add("t.s", DataType::kString);
    layout_ = RowLayout({a_, b_, x_, y_, s_});
  }

  ExprProgram MustCompile(const ExprPtr& e) {
    auto prog = ExprProgram::Compile(*e, layout_, cat_);
    EXPECT_OK(prog);
    return std::move(*prog);
  }

  PredicateProgram MustCompile(const std::vector<Predicate>& preds) {
    auto prog = PredicateProgram::Compile(preds, layout_, cat_);
    EXPECT_OK(prog);
    return std::move(*prog);
  }

  Status Validate(const ExprProgram& prog, const ExprPtr& e,
                  const BytecodeVerifyOptions& opts = {}) {
    return ValidateTranslation(prog, *e, layout_, cat_,
                               SeedFactsFromCatalog(layout_, cat_), opts);
  }

  Status Validate(const PredicateProgram& prog,
                  const std::vector<Predicate>& preds,
                  const BytecodeVerifyOptions& opts = {}) {
    return ValidateTranslation(prog, preds, layout_, cat_,
                               SeedFactsFromCatalog(layout_, cat_), opts);
  }

  ColumnCatalog cat_;
  RowLayout layout_;
  ColId a_ = kInvalidColId, b_ = kInvalidColId, x_ = kInvalidColId,
        y_ = kInvalidColId, s_ = kInvalidColId;
};

/// A rejection must name the offending instruction and carry the listing so
/// the corruption is inspectable without a debugger.
void ExpectRejectedAtPc(const Status& s, int pc) {
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(StrFormat("at pc %d", pc)), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("bytecode verifier"), std::string::npos);
}

// ------------------------------------------------- stage 1: well-formedness

TEST_F(VerifierTest, RejectsStackUnderflow) {
  // kAddInt with an empty stack.
  auto prog = ExprProgram::FromRaw({{Op::kAddInt, 0}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(prog, layout_, cat_), 0);

  // One operand where two are needed.
  auto one = ExprProgram::FromRaw({{Op::kLoadCol, 0}, {Op::kMulInt, 0}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(one, layout_, cat_), 1);

  // kPop on an empty stack.
  auto pop = ExprProgram::FromRaw({{Op::kPop, 0}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(pop, layout_, cat_), 0);
}

TEST_F(VerifierTest, RejectsWrongExitStackDepth) {
  // Two values left at exit.
  auto two = ExprProgram::FromRaw({{Op::kLoadCol, 0}, {Op::kLoadCol, 1}}, {});
  auto s = VerifyWellFormed(two, layout_, cat_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("exactly one"), std::string::npos) << s.message();

  // The empty program leaves zero.
  auto empty = ExprProgram::FromRaw({}, {});
  EXPECT_FALSE(VerifyWellFormed(empty, layout_, cat_).ok());
}

TEST_F(VerifierTest, RejectsOutOfBoundsOperands) {
  // Column slot past the layout.
  auto col = ExprProgram::FromRaw({{Op::kLoadCol, 99}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(col, layout_, cat_), 0);
  auto neg = ExprProgram::FromRaw({{Op::kLoadCol, -1}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(neg, layout_, cat_), 0);

  // Constant index past the pool.
  auto con = ExprProgram::FromRaw({{Op::kLoadConst, 2}}, {Value::Int(1)});
  ExpectRejectedAtPc(VerifyWellFormed(con, layout_, cat_), 0);
}

TEST_F(VerifierTest, RejectsMalformedJumps) {
  // Backward jump (the only control-flow op must be strictly forward).
  auto back = ExprProgram::FromRaw(
      {{Op::kLoadCol, 0}, {Op::kJumpIfNotNull, 0}, {Op::kPop, 0},
       {Op::kLoadCol, 1}},
      {});
  ExpectRejectedAtPc(VerifyWellFormed(back, layout_, cat_), 1);

  // Jump past the end of the program.
  auto past = ExprProgram::FromRaw(
      {{Op::kLoadCol, 0}, {Op::kJumpIfNotNull, 9}, {Op::kPop, 0},
       {Op::kLoadCol, 1}},
      {});
  ExpectRejectedAtPc(VerifyWellFormed(past, layout_, cat_), 1);

  // Violates the compiled COALESCE shape: the fall-through instruction after
  // kJumpIfNotNull must be the kPop that discards the NULL.
  auto nopop = ExprProgram::FromRaw(
      {{Op::kLoadCol, 0}, {Op::kJumpIfNotNull, 3}, {Op::kLoadCol, 1},
       {Op::kPop, 0}},
      {});
  ExpectRejectedAtPc(VerifyWellFormed(nopop, layout_, cat_), 1);
}

TEST_F(VerifierTest, RejectsCorruptedOpcodeAndStrayOperandBits) {
  // An opcode byte outside the enum.
  auto bad = ExprProgram::FromRaw({{static_cast<Op>(0xEE), 0}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(bad, layout_, cat_), 0);

  // Operand-less instructions must carry a == 0 (a flipped operand word on
  // an arithmetic op is corruption even though Eval ignores it).
  auto stray = ExprProgram::FromRaw(
      {{Op::kLoadCol, 0}, {Op::kLoadCol, 1}, {Op::kAddInt, 7}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(stray, layout_, cat_), 2);
}

TEST_F(VerifierTest, RejectsNonCanonicalLanes) {
  // Two INT64 columns: the compiler's static lane selection emits kAddInt.
  // kAddDouble and kAddGeneric both *execute* fine (the runtime type guard
  // falls through to the generic path) — which is exactly why the verifier
  // must treat a non-canonical lane as corruption, not tolerate it.
  for (Op op : {Op::kAddDouble, Op::kAddGeneric}) {
    auto prog = ExprProgram::FromRaw(
        {{Op::kLoadCol, 0}, {Op::kLoadCol, 1}, {op, 0}}, {});
    ExpectRejectedAtPc(VerifyWellFormed(prog, layout_, cat_), 2);
  }

  // Division never takes an int lane: over two INT64 columns the canonical
  // opcode is kDivGeneric, so kDivDouble is corruption here...
  auto div = ExprProgram::FromRaw(
      {{Op::kLoadCol, 0}, {Op::kLoadCol, 1}, {Op::kDivDouble, 0}}, {});
  ExpectRejectedAtPc(VerifyWellFormed(div, layout_, cat_), 2);
  // ... while over two DOUBLE columns it is the canonical lane.
  auto dd = ExprProgram::FromRaw(
      {{Op::kLoadCol, 2}, {Op::kLoadCol, 3}, {Op::kDivDouble, 0}}, {});
  EXPECT_OK(VerifyWellFormed(dd, layout_, cat_));
}

TEST_F(VerifierTest, ReportsAbstractShape) {
  ExprProgramShape shape;
  auto prog = MustCompile(Arith(ArithOp::kAdd, Col(a_), Col(b_)));
  ASSERT_OK(VerifyWellFormed(prog, layout_, cat_, &shape));
  EXPECT_EQ(shape.result_type, DataType::kInt64);
  EXPECT_EQ(shape.max_stack_depth, 2);

  auto div = MustCompile(Arith(ArithOp::kDiv, Col(a_), Col(b_)));
  ASSERT_OK(VerifyWellFormed(div, layout_, cat_, &shape));
  EXPECT_EQ(shape.result_type, DataType::kDouble);

  // Nested COALESCE: the abstract result type is the *outermost* inner
  // type, and the shared jump target merges cleanly.
  auto nest = MustCompile(Coalesce(Col(x_), Coalesce(Col(a_), LitInt(0))));
  ASSERT_OK(VerifyWellFormed(nest, layout_, cat_, &shape));
  EXPECT_EQ(shape.result_type, DataType::kDouble);
}

TEST_F(VerifierTest, RejectsBrokenPredicateFrames) {
  // Operand slot outside the layout.
  Conjunct c;
  c.lhs.col = 17;
  c.rhs.constant = Value::Int(3);
  c.op = CompareOp::kLt;
  c.lane = CmpLane::kGeneric;
  auto bad_col = PredicateProgram::FromRaw({c}, {});
  auto s = VerifyWellFormed(bad_col, layout_, cat_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("at conjunct 0"), std::string::npos)
      << s.message();

  // Operand referencing a nested program that does not exist.
  Conjunct p;
  p.lhs.prog = 0;
  p.rhs.constant = Value::Int(3);
  p.op = CompareOp::kLt;
  p.lane = CmpLane::kGeneric;
  EXPECT_FALSE(
      VerifyWellFormed(PredicateProgram::FromRaw({p}, {}), layout_, cat_)
          .ok());

  // Ambiguous operand: both col and prog claim to be active.
  auto good = MustCompile({Cmp(Arith(ArithOp::kAdd, Col(a_), Col(b_)),
                               CompareOp::kGt, LitInt(0))});
  auto conjs = good.conjuncts();
  ASSERT_GE(conjs[0].lhs.prog, 0);
  conjs[0].lhs.col = 0;
  EXPECT_FALSE(VerifyWellFormed(
                   PredicateProgram::FromRaw(conjs, good.programs()),
                   layout_, cat_)
                   .ok());

  // A broken nested program is reported with its index.
  auto nested_bad = PredicateProgram::FromRaw(
      good.conjuncts(), {ExprProgram::FromRaw({{Op::kAddInt, 0}}, {})});
  auto ns = VerifyWellFormed(nested_bad, layout_, cat_);
  ASSERT_FALSE(ns.ok());
  EXPECT_NE(ns.message().find("prog<0>"), std::string::npos) << ns.message();
}

TEST_F(VerifierTest, RejectsNonCanonicalComparisonLanes) {
  // a < b is canonically kInt64; every other lane tag is corruption even
  // though each would evaluate correctly through its runtime guard.
  auto prog = MustCompile({Cmp(Col(a_), CompareOp::kLt, Col(b_))});
  ASSERT_EQ(prog.size(), 1);
  EXPECT_EQ(prog.conjuncts()[0].lane, CmpLane::kInt64);
  for (CmpLane lane : {CmpLane::kGeneric, CmpLane::kDouble, CmpLane::kString,
                       CmpLane::kInt64ColConst, CmpLane::kDoubleColConst}) {
    auto conjs = prog.conjuncts();
    conjs[0].lane = lane;
    auto s = VerifyWellFormed(PredicateProgram::FromRaw(conjs, {}), layout_,
                              cat_);
    EXPECT_FALSE(s.ok()) << "lane " << static_cast<int>(lane);
  }

  // a < 3 promotes to the col-vs-const fast lane; demoting it back to plain
  // kInt64 is equally non-canonical.
  auto fast = MustCompile({Cmp(Col(a_), CompareOp::kLt, LitInt(3))});
  ASSERT_EQ(fast.conjuncts()[0].lane, CmpLane::kInt64ColConst);
  auto demoted = fast.conjuncts();
  demoted[0].lane = CmpLane::kInt64;
  EXPECT_FALSE(
      VerifyWellFormed(PredicateProgram::FromRaw(demoted, {}), layout_, cat_)
          .ok());
}

// ------------------------------------- stage 2: translation validation

TEST_F(VerifierTest, AcceptsEveryCompilerOutput) {
  // The positive battery: everything the real compiler emits over this
  // layout must verify — both stages, default budget.
  std::vector<ExprPtr> exprs;
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    exprs.push_back(Arith(op, Col(a_), Col(b_)));
    exprs.push_back(Arith(op, Col(x_), Col(y_)));
    exprs.push_back(Arith(op, Col(a_), Col(x_)));
    exprs.push_back(Arith(op, Col(a_), LitInt(2)));
    exprs.push_back(Arith(op, Col(x_), LitReal(0.5)));
    exprs.push_back(
        Arith(op, Arith(ArithOp::kAdd, Col(a_), Col(b_)), Col(x_)));
  }
  exprs.push_back(Col(s_));
  exprs.push_back(LitStr("w"));
  exprs.push_back(Coalesce(Col(a_), LitInt(42)));
  exprs.push_back(Coalesce(Col(x_), Col(a_)));
  exprs.push_back(Coalesce(Col(a_), Coalesce(Col(b_), LitInt(0))));
  exprs.push_back(
      Coalesce(Arith(ArithOp::kAdd, Col(a_), Col(b_)), LitInt(-1)));
  for (const ExprPtr& e : exprs) {
    auto prog = MustCompile(e);
    int witnesses = 0;
    BytecodeVerifyOptions opts;
    Status valid = ValidateTranslation(prog, *e, layout_, cat_,
                                       SeedFactsFromCatalog(layout_, cat_),
                                       opts, &witnesses);
    EXPECT_TRUE(valid.ok()) << e->ToString(cat_) << "\n" << valid.message();
    EXPECT_GT(witnesses, 0) << e->ToString(cat_);
  }

  std::vector<std::vector<Predicate>> preds = {
      {Cmp(Col(a_), CompareOp::kLt, Col(b_))},
      {Cmp(Col(x_), CompareOp::kGe, Col(y_))},
      {Cmp(Col(s_), CompareOp::kEq, LitStr("m"))},
      {Cmp(Col(a_), CompareOp::kGt, LitInt(3))},
      {Cmp(Col(x_), CompareOp::kNe, LitInt(2))},
      {Cmp(Arith(ArithOp::kMul, Col(a_), LitInt(2)), CompareOp::kLe, Col(b_)),
       Cmp(Col(s_), CompareOp::kGt, LitStr(""))},
      {},  // the empty conjunction compiles and verifies too
  };
  for (const auto& ps : preds) {
    auto prog = MustCompile(ps);
    EXPECT_OK(Validate(prog, ps));
  }
}

TEST_F(VerifierTest, CatchesGuardMaskedOperatorFlip) {
  // kAddInt -> kSubInt stays perfectly well-formed (same lane family, same
  // stack effect): only co-evaluation against the source tree catches it.
  ExprPtr e = Arith(ArithOp::kAdd, Col(a_), Col(b_));
  auto prog = MustCompile(e);
  auto code = prog.code();
  ASSERT_EQ(code[2].op, Op::kAddInt);
  code[2].op = Op::kSubInt;
  auto mutant = ExprProgram::FromRaw(code, prog.consts());
  ASSERT_OK(VerifyWellFormed(mutant, layout_, cat_));
  auto s = Validate(mutant, e);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("witness divergence"), std::string::npos)
      << s.message();
}

TEST_F(VerifierTest, CatchesSlotRetargeting) {
  // Loading t.b where the source reads t.a: identical types, identical
  // shape, different answer. The per-slot distinguishing witness values
  // must separate them.
  ExprPtr e = Arith(ArithOp::kAdd, Col(a_), LitInt(1));
  auto prog = MustCompile(e);
  auto code = prog.code();
  ASSERT_EQ(code[0].op, Op::kLoadCol);
  ASSERT_EQ(code[0].a, 0);
  code[0].a = 1;
  auto mutant = ExprProgram::FromRaw(code, prog.consts());
  ASSERT_OK(VerifyWellFormed(mutant, layout_, cat_));
  EXPECT_FALSE(Validate(mutant, e).ok());
}

TEST_F(VerifierTest, CatchesConstantRewrite) {
  ExprPtr e = Arith(ArithOp::kMul, Col(a_), LitInt(3));
  auto prog = MustCompile(e);
  auto consts = prog.consts();
  ASSERT_EQ(consts.size(), 1u);
  consts[0] = Value::Int(4);
  auto mutant = ExprProgram::FromRaw(prog.code(), consts);
  ASSERT_OK(VerifyWellFormed(mutant, layout_, cat_));
  EXPECT_FALSE(Validate(mutant, e).ok());
}

TEST_F(VerifierTest, CatchesComparisonFlips) {
  // Every CompareOp replacement on a well-formed conjunct must be caught by
  // witness co-evaluation (boundary values are in the candidate sets, so
  // even kLt -> kLe diverges).
  std::vector<Predicate> ps = {Cmp(Col(a_), CompareOp::kLt, LitInt(3))};
  auto prog = MustCompile(ps);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLe,
                       CompareOp::kGt, CompareOp::kGe}) {
    auto conjs = prog.conjuncts();
    conjs[0].op = op;
    auto mutant = PredicateProgram::FromRaw(conjs, prog.programs());
    ASSERT_OK(VerifyWellFormed(mutant, layout_, cat_));
    EXPECT_FALSE(Validate(mutant, ps).ok())
        << "CompareOp " << static_cast<int>(op) << " not caught";
  }
}

TEST_F(VerifierTest, CatchesDroppedConjunct) {
  std::vector<Predicate> ps = {Cmp(Col(a_), CompareOp::kGt, LitInt(0)),
                               Cmp(Col(b_), CompareOp::kLt, LitInt(9))};
  auto prog = MustCompile(ps);
  ASSERT_EQ(prog.size(), 2);
  auto conjs = prog.conjuncts();
  conjs.pop_back();
  auto mutant = PredicateProgram::FromRaw(conjs, prog.programs());
  auto s = Validate(mutant, ps);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("conjunct count"), std::string::npos)
      << s.message();
}

TEST_F(VerifierTest, ParanoidReproofPinsTheExactListing) {
  // Paranoid mode recompiles the source and requires listing equality; a
  // semantically identical but differently encoded program is rejected.
  ExprPtr e = Coalesce(Col(a_), LitInt(42));
  auto prog = MustCompile(e);
  BytecodeVerifyOptions paranoid = BytecodeVerifyOptions::ForMode(
      BytecodeVerifyMode::kParanoid);
  EXPECT_TRUE(paranoid.reprove);
  EXPECT_OK(Validate(prog, e, paranoid));

  // Append a no-op push/pop pair: same value on every input, different
  // listing. Plain mode accepts it (it *is* faithful); paranoid does not.
  auto code = prog.code();
  code.push_back({Op::kLoadCol, 0});
  code.push_back({Op::kPop, 0});
  auto padded = ExprProgram::FromRaw(code, prog.consts());
  ASSERT_OK(VerifyWellFormed(padded, layout_, cat_));
  EXPECT_OK(Validate(padded, e));
  auto s = Validate(padded, e, paranoid);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("re-proof"), std::string::npos) << s.message();
}

// ----------------------------------------------------------- certificates

TEST_F(VerifierTest, CertificateRecordsShapeAndListing) {
  std::vector<Predicate> ps = {
      Cmp(Arith(ArithOp::kAdd, Col(a_), Col(b_)), CompareOp::kGt, LitInt(0))};
  auto prog = MustCompile(ps);
  CompilationCertificate cert = VerifyPredicateProgram(
      prog, ps, layout_, cat_, BytecodeVerifyMode::kOn, "Filter", "filter");
  EXPECT_TRUE(cert.verified) << cert.rejection;
  EXPECT_EQ(cert.node, "Filter");
  EXPECT_EQ(cert.kind, "filter");
  EXPECT_FALSE(cert.source.empty());
  EXPECT_NE(cert.disassembly.find("add_int"), std::string::npos)
      << cert.disassembly;
  // One conjunct frame plus the nested three-instruction program.
  EXPECT_EQ(cert.instructions, 1 + 3);
  EXPECT_EQ(cert.max_stack_depth, 2);
  EXPECT_GT(cert.witness_rows, 0);
  EXPECT_TRUE(cert.rejection.empty());
}

TEST_F(VerifierTest, CertificateCarriesRejection) {
  std::vector<Predicate> ps = {Cmp(Col(a_), CompareOp::kLt, LitInt(3))};
  auto prog = MustCompile(ps);
  auto conjs = prog.conjuncts();
  conjs[0].op = CompareOp::kGe;
  auto tampered = PredicateProgram::FromRaw(conjs, prog.programs());
  CompilationCertificate cert =
      VerifyPredicateProgram(tampered, ps, layout_, cat_,
                             BytecodeVerifyMode::kOn, "TableScan",
                             "scan-filter");
  EXPECT_FALSE(cert.verified);
  EXPECT_FALSE(cert.rejection.empty());
  EXPECT_FALSE(cert.disassembly.empty());
}

// ------------------------------------------------------- mutation harness

/// Enumerates every single-instruction corruption of a compiled expression
/// program — opcode flips (including out-of-enum bytes), operand tweaks,
/// instruction deletion, constant-pool edits — and counts how many the
/// verifier kills (stage 1 or stage 2). The runtime type guards would
/// *execute* most of these without crashing, which is the gap the verifier
/// exists to close: the kill rate must be at least 95%.
struct MutationStats {
  int total = 0;
  int killed = 0;
  std::vector<std::string> survivors;
};

constexpr int kNumOps = 15;  // kLoadCol .. kPop

void MutateExprProgram(const ExprProgram& prog, const ExprPtr& source,
                       const RowLayout& layout, const ColumnCatalog& cat,
                       MutationStats* stats) {
  auto facts = SeedFactsFromCatalog(layout, cat);
  BytecodeVerifyOptions opts;
  auto check = [&](const ExprProgram& mutant, const std::string& what) {
    ++stats->total;
    Status s = ValidateTranslation(mutant, *source, layout, cat, facts, opts);
    if (!s.ok()) {
      ++stats->killed;
    } else {
      stats->survivors.push_back(what + "\n" + mutant.Disassemble());
    }
  };
  const auto& code = prog.code();
  for (size_t pc = 0; pc < code.size(); ++pc) {
    // Opcode flips: every other value of the enum plus one corrupt byte.
    for (int op = 0; op <= kNumOps; ++op) {
      if (static_cast<Op>(op) == code[pc].op) continue;
      auto mutated = code;
      mutated[pc].op = static_cast<Op>(op);
      check(ExprProgram::FromRaw(mutated, prog.consts()),
            StrFormat("op flip at pc %d -> %d", static_cast<int>(pc), op));
    }
    // Operand tweaks.
    for (int32_t delta : {-1, +1, +7}) {
      auto mutated = code;
      mutated[pc].a += delta;
      check(ExprProgram::FromRaw(mutated, prog.consts()),
            StrFormat("operand %+d at pc %d", delta, static_cast<int>(pc)));
    }
    // Deletion.
    auto removed = code;
    removed.erase(removed.begin() + static_cast<long>(pc));
    check(ExprProgram::FromRaw(removed, prog.consts()),
          StrFormat("delete pc %d", static_cast<int>(pc)));
  }
  // Constant-pool edits (the bytes a bit flip is likeliest to land on).
  for (size_t i = 0; i < prog.consts().size(); ++i) {
    auto consts = prog.consts();
    const Value& v = consts[i];
    consts[i] = v.is_int()      ? Value::Int(v.AsInt() + 1)
                : v.is_double() ? Value::Real(v.AsDouble() + 0.25)
                : v.is_string() ? Value::Str(v.AsString() + "x")
                                : Value::Int(0);
    check(ExprProgram::FromRaw(prog.code(), consts),
          StrFormat("const edit %d", static_cast<int>(i)));
  }
}

TEST_F(VerifierTest, MutationHarnessKillsAtLeast95Percent) {
  std::vector<ExprPtr> corpus = {
      Arith(ArithOp::kAdd, Col(a_), Col(b_)),
      Arith(ArithOp::kSub, Col(a_), LitInt(5)),
      Arith(ArithOp::kMul, Col(x_), Col(y_)),
      Arith(ArithOp::kDiv, Col(a_), Col(b_)),
      Arith(ArithOp::kDiv, Col(x_), LitReal(2.0)),
      Arith(ArithOp::kAdd, Col(a_), Col(x_)),
      Arith(ArithOp::kMul, Arith(ArithOp::kAdd, Col(a_), Col(b_)),
            Arith(ArithOp::kSub, Col(a_), LitInt(1))),
      Coalesce(Col(a_), LitInt(42)),
      Coalesce(Col(x_), Col(y_)),
      Coalesce(Col(a_), Coalesce(Col(b_), LitInt(0))),
      Coalesce(Arith(ArithOp::kAdd, Col(a_), Col(b_)), LitInt(-1)),
  };
  MutationStats stats;
  for (const ExprPtr& e : corpus) {
    MutateExprProgram(MustCompile(e), e, layout_, cat_, &stats);
  }
  ASSERT_GT(stats.total, 500);  // the harness actually enumerated a corpus
  double kill_rate =
      static_cast<double>(stats.killed) / static_cast<double>(stats.total);
  std::string survivors;
  for (const auto& s : stats.survivors) survivors += s + "\n";
  EXPECT_GE(kill_rate, 0.95) << stats.killed << "/" << stats.total
                             << " killed; survivors:\n"
                             << survivors;
}

TEST_F(VerifierTest, PredicateMutationsAreKilled) {
  // The frame-level analogue: lane retags, comparison flips, operand
  // retargeting and constant edits on compiled conjuncts.
  std::vector<std::vector<Predicate>> corpus = {
      {Cmp(Col(a_), CompareOp::kLt, LitInt(3))},
      {Cmp(Col(x_), CompareOp::kGe, LitReal(1.5))},
      {Cmp(Col(s_), CompareOp::kEq, LitStr("m"))},
      {Cmp(Col(a_), CompareOp::kNe, Col(b_))},
      {Cmp(Arith(ArithOp::kAdd, Col(a_), Col(b_)), CompareOp::kGt, LitInt(0)),
       Cmp(Col(x_), CompareOp::kLt, Col(y_))},
  };
  int total = 0, killed = 0;
  std::vector<std::string> survivors;
  auto facts = SeedFactsFromCatalog(layout_, cat_);
  BytecodeVerifyOptions opts;
  for (const auto& ps : corpus) {
    auto prog = MustCompile(ps);
    auto check = [&](const PredicateProgram& mutant, const std::string& what) {
      ++total;
      if (!ValidateTranslation(mutant, ps, layout_, cat_, facts, opts).ok()) {
        ++killed;
      } else {
        survivors.push_back(what + "\n" + mutant.Disassemble());
      }
    };
    for (int ci = 0; ci < prog.size(); ++ci) {
      for (int lane = 0; lane < 6; ++lane) {
        if (static_cast<CmpLane>(lane) == prog.conjuncts()[ci].lane) continue;
        auto conjs = prog.conjuncts();
        conjs[ci].lane = static_cast<CmpLane>(lane);
        check(PredicateProgram::FromRaw(conjs, prog.programs()),
              StrFormat("lane %d at conjunct %d", lane, ci));
      }
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
        if (op == prog.conjuncts()[ci].op) continue;
        auto conjs = prog.conjuncts();
        conjs[ci].op = op;
        check(PredicateProgram::FromRaw(conjs, prog.programs()),
              StrFormat("compare flip at conjunct %d", ci));
      }
      for (Operand Conjunct::* side : {&Conjunct::lhs, &Conjunct::rhs}) {
        const Operand& o = prog.conjuncts()[ci].*side;
        auto conjs = prog.conjuncts();
        if (o.col >= 0) {
          (conjs[ci].*side).col = (o.col + 1) % layout_.size();
          check(PredicateProgram::FromRaw(conjs, prog.programs()),
                StrFormat("slot retarget at conjunct %d", ci));
        } else if (o.prog < 0) {
          const Value& v = o.constant;
          (conjs[ci].*side).constant =
              v.is_int()      ? Value::Int(v.AsInt() + 1)
              : v.is_double() ? Value::Real(v.AsDouble() + 0.25)
              : v.is_string() ? Value::Str(v.AsString() + "x")
                              : Value::Int(0);
          check(PredicateProgram::FromRaw(conjs, prog.programs()),
                StrFormat("const edit at conjunct %d", ci));
        }
      }
    }
  }
  ASSERT_GT(total, 50);
  double kill_rate = static_cast<double>(killed) / static_cast<double>(total);
  std::string all;
  for (const auto& s : survivors) all += s + "\n";
  EXPECT_GE(kill_rate, 0.95) << killed << "/" << total
                             << " killed; survivors:\n"
                             << all;
}

// --------------------------------------------------------- disassembler

TEST_F(VerifierTest, DisassemblyIsInstructionIndexedAndNamesColumns) {
  auto prog = MustCompile(Coalesce(Arith(ArithOp::kAdd, Col(a_), Col(b_)),
                                   LitInt(-1)));
  std::string named = prog.Disassemble(layout_, cat_);
  EXPECT_NE(named.find("t.a"), std::string::npos) << named;
  EXPECT_NE(named.find("add_int"), std::string::npos) << named;
  EXPECT_NE(named.find("jump_if_not_null"), std::string::npos) << named;
  // Without a layout the listing still renders, with raw slot indices.
  std::string raw = prog.Disassemble();
  EXPECT_NE(raw.find("load_col"), std::string::npos) << raw;

  auto pred = MustCompile({Cmp(Col(s_), CompareOp::kLe, LitStr("zz"))});
  std::string listing = pred.Disassemble(layout_, cat_);
  EXPECT_NE(listing.find("t.s"), std::string::npos) << listing;
  EXPECT_NE(listing.find(CmpLaneName(CmpLane::kString)), std::string::npos)
      << listing;
}

// ----------------------------------------- lowering integration, end to end

/// Clears the tamper hook even when an assertion fails out of the test.
struct ScopedTamperHook {
  explicit ScopedTamperHook(PredicateTamperHook hook) {
    SetBytecodeTamperHookForTesting(std::move(hook));
  }
  ~ScopedTamperHook() { SetBytecodeTamperHookForTesting(nullptr); }
};

/// One emp/dept server per backend configuration, same deterministic data.
Result<ServerQuery> PrepareOn(Server* server, const std::string& sql) {
  auto tables = CreateEmpDeptSchema(&server->catalog());
  AGGVIEW_RETURN_NOT_OK(tables.status());
  AGGVIEW_RETURN_NOT_OK(GenerateEmpDeptData(&server->catalog(), *tables, {}));
  return server->Connect().Sql(sql);
}

TEST(VerifierIntegrationTest, TamperedProgramsFallBackToInterpreterSafely) {
  const std::string sql =
      "select e.eno, e.sal from emp e where e.sal > 100 and e.age < 60";

  // Reference: the interpreter, no compilation anywhere.
  Server interpreted{[] {
    ServerOptions o;
    o.backend = ExecBackend::kInterpret;
    return o;
  }()};
  auto ref = PrepareOn(&interpreted, sql);
  ASSERT_OK(ref);
  auto want = ref->Execute();
  ASSERT_OK(want);

  // Compiled server whose every non-empty predicate program is corrupted
  // after compilation and before verification: flip the first conjunct's
  // comparison. The verifier must catch each one and lowering must fall
  // back — the query still answers, correctly.
  ServerOptions opts;
  opts.backend = ExecBackend::kCompiled;
  opts.bytecode_verify = BytecodeVerifyMode::kOn;
  Server compiled(opts);
  auto q = PrepareOn(&compiled, sql);
  ASSERT_OK(q);

  ScopedTamperHook hook([](const PredicateProgram& prog) {
    if (prog.empty()) return prog;
    auto conjs = prog.conjuncts();
    conjs[0].op = conjs[0].op == CompareOp::kLt ? CompareOp::kGe
                                                : CompareOp::kLt;
    return PredicateProgram::FromRaw(std::move(conjs), prog.programs());
  });

  auto got = q->Execute();
  ASSERT_OK(got);
  EXPECT_EQ(got->Fingerprint(), want->Fingerprint())
      << "a tampered program's results leaked into the output";

  // The rejection is visible at every level: per-operator fallback tag...
  auto analyzed = q->ExplainAnalyze();
  ASSERT_OK(analyzed);
  EXPECT_NE(analyzed->find("fallback=verifier-rejected"), std::string::npos)
      << *analyzed;
  // ... the query's certificates...
  int rejected = 0;
  for (const CompilationCertificate& cert : q->compilations()) {
    if (!cert.verified) {
      ++rejected;
      EXPECT_FALSE(cert.rejection.empty());
    }
  }
  EXPECT_GT(rejected, 0);
  // ... and the verbose EXPLAIN ANALYZE rendering.
  auto verbose = q->ExplainAnalyze(/*verbose=*/true);
  ASSERT_OK(verbose);
  EXPECT_NE(verbose->find("REJECTED"), std::string::npos) << *verbose;
}

TEST(VerifierIntegrationTest, EveryCompiledProgramIsVerifiedBeforeUse) {
  // The acceptance property: under the compiled backend every program that
  // executes carries a verified certificate, across plan shapes (fused
  // scan/filter, aggregate over a compiled scan, HAVING, joins with
  // residuals).
  const std::vector<std::string> corpus = {
      "select e.eno, e.sal from emp e where e.sal > 100",
      "select e.dno, count(*), avg(e.sal) from emp e "
      "group by e.dno having count(*) > 2",
      "select e.eno, d.budget from emp e, dept d "
      "where e.dno = d.dno and e.sal > d.budget / 100",
      Example1Sql(),
      Example2Sql(),
  };
  for (const std::string& sql : corpus) {
    ServerOptions opts;
    opts.backend = ExecBackend::kCompiled;
    opts.bytecode_verify = BytecodeVerifyMode::kParanoid;
    Server server(opts);
    SCOPED_TRACE(sql);
    auto q = PrepareOn(&server, sql);
    ASSERT_OK(q);
    ASSERT_OK(q->Execute());
    EXPECT_FALSE(q->compilations().empty()) << sql;
    for (const CompilationCertificate& cert : q->compilations()) {
      EXPECT_TRUE(cert.verified)
          << sql << "\n[" << cert.node << "/" << cert.kind
          << "]: " << cert.rejection;
      EXPECT_FALSE(cert.disassembly.empty());
    }
    // Verbose EXPLAIN ANALYZE renders the certificates.
    auto verbose = q->ExplainAnalyze(/*verbose=*/true);
    ASSERT_OK(verbose);
    EXPECT_NE(verbose->find("compiled program(s)"), std::string::npos)
        << *verbose;
    EXPECT_NE(verbose->find("verified:"), std::string::npos) << *verbose;
  }
}

TEST(VerifierIntegrationTest, VerifyOffSkipsCertificates) {
  // kOff is an escape hatch: no verification, no certificates — and the
  // interpreted backend never compiles at all, so it has none either.
  ServerOptions opts;
  opts.backend = ExecBackend::kCompiled;
  opts.bytecode_verify = BytecodeVerifyMode::kOff;
  Server server(opts);
  auto q = PrepareOn(&server, "select e.eno from emp e where e.sal > 100");
  ASSERT_OK(q);
  ASSERT_OK(q->Execute());
  EXPECT_TRUE(q->compilations().empty());
}

TEST(VerifierIntegrationTest, EnvKnobParsesStrictly) {
  BytecodeVerifyMode out = BytecodeVerifyMode::kOn;
  EXPECT_TRUE(ParseBytecodeVerifyMode("off", &out));
  EXPECT_EQ(out, BytecodeVerifyMode::kOff);
  EXPECT_TRUE(ParseBytecodeVerifyMode("paranoid", &out));
  EXPECT_EQ(out, BytecodeVerifyMode::kParanoid);
  EXPECT_TRUE(ParseBytecodeVerifyMode("on", &out));
  EXPECT_EQ(out, BytecodeVerifyMode::kOn);
  out = BytecodeVerifyMode::kParanoid;
  EXPECT_FALSE(ParseBytecodeVerifyMode(nullptr, &out));
  EXPECT_FALSE(ParseBytecodeVerifyMode("", &out));
  EXPECT_FALSE(ParseBytecodeVerifyMode("Paranoid", &out));
  EXPECT_FALSE(ParseBytecodeVerifyMode("on ", &out));
  EXPECT_EQ(out, BytecodeVerifyMode::kParanoid);
}

}  // namespace
}  // namespace aggview

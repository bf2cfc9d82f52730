#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exec/compile/expr_compiler.h"
#include "exec/operators.h"
#include "test_util.h"

namespace aggview {
namespace {

/// Unit tests for the compiling execution backend: the bytecode
/// expression/predicate compiler must match the tree-walking interpreter
/// value-for-value (including NULL propagation, division by zero, and the
/// int/double result-type rules), and the compiled scan->filter kernel must
/// honor the operator protocol's boundary behaviour and, with the shared
/// operators around it, reproduce interpreted results bit for bit at every
/// batch geometry and thread count.

/// Exact value equality, type included: Int(3) and Real(3.0) compare equal
/// under Value::Compare but fingerprint differently, so the compiled backend
/// must reproduce the interpreter's value *representation*, not just its
/// ordering.
void ExpectSameValue(const Value& want, const Value& got,
                     const std::string& what) {
  EXPECT_EQ(want.is_null(), got.is_null()) << what;
  EXPECT_EQ(want.is_int(), got.is_int()) << what;
  EXPECT_EQ(want.is_double(), got.is_double()) << what;
  EXPECT_EQ(want.is_string(), got.is_string()) << what;
  if (want.is_null() || got.is_null()) return;
  if (want.is_int() && got.is_int()) {
    EXPECT_EQ(want.AsInt(), got.AsInt()) << what;
  } else if (want.is_double() && got.is_double()) {
    EXPECT_EQ(want.AsDouble(), got.AsDouble()) << what;
  } else if (want.is_string() && got.is_string()) {
    EXPECT_EQ(want.AsString(), got.AsString()) << what;
  }
}

/// Two int columns, two double columns, one string column — enough to drive
/// every type-specialized lane plus the generic fallback.
class ExprCompileTest : public ::testing::Test {
 protected:
  ExprCompileTest() {
    a_ = cat_.Add("t.a", DataType::kInt64);
    b_ = cat_.Add("t.b", DataType::kInt64);
    x_ = cat_.Add("t.x", DataType::kDouble);
    y_ = cat_.Add("t.y", DataType::kDouble);
    s_ = cat_.Add("t.s", DataType::kString);
    layout_ = RowLayout({a_, b_, x_, y_, s_});
    rows_ = {
        {Value::Int(7), Value::Int(3), Value::Real(2.5), Value::Real(-0.5),
         Value::Str("m")},
        {Value::Int(-4), Value::Int(0), Value::Real(0.0), Value::Real(1e9),
         Value::Str("")},
        {Value::Null(), Value::Int(5), Value::Real(3.25), Value::Null(),
         Value::Str("zz")},
        {Value::Int(9), Value::Null(), Value::Null(), Value::Real(4.0),
         Value::Str("a")},
        {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
         Value::Str("m")},
    };
  }

  void ExpectExprMatchesInterpreter(const ExprPtr& e) {
    auto prog = ExprProgram::Compile(*e, layout_, cat_);
    ASSERT_OK(prog);
    std::vector<Value> stack;
    for (const Row& row : rows_) {
      Value interpreted = e->Eval(row, layout_);
      Value compiled = prog->Eval(row, &stack);
      ExpectSameValue(interpreted, compiled, e->ToString(cat_));
    }
  }

  void ExpectPredMatchesInterpreter(const Predicate& p) {
    auto prog = PredicateProgram::Compile({p}, layout_, cat_);
    ASSERT_OK(prog);
    EvalScratch scratch;
    for (const Row& row : rows_) {
      bool interpreted = EvalConjunction({p}, row, layout_);
      bool compiled = prog->EvalRow(row, &scratch);
      EXPECT_EQ(interpreted, compiled) << p.ToString(cat_);
    }
  }

  ColumnCatalog cat_;
  RowLayout layout_;
  std::vector<Row> rows_;
  ColId a_ = kInvalidColId, b_ = kInvalidColId, x_ = kInvalidColId,
        y_ = kInvalidColId, s_ = kInvalidColId;
};

TEST_F(ExprCompileTest, EveryArithOpMatchesInterpreterOnEveryTypeMix) {
  for (ArithOp op :
       {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul, ArithOp::kDiv}) {
    // Int lane (rows include b == 0 for kDiv and NULL operands), double
    // lane (rows include x == 0.0), mixed-type generic lane, literal
    // operands, and a nested expression whose inner result feeds the outer
    // op's lane decision.
    ExpectExprMatchesInterpreter(Arith(op, Col(a_), Col(b_)));
    ExpectExprMatchesInterpreter(Arith(op, Col(x_), Col(y_)));
    ExpectExprMatchesInterpreter(Arith(op, Col(a_), Col(x_)));
    ExpectExprMatchesInterpreter(Arith(op, Col(a_), LitInt(2)));
    ExpectExprMatchesInterpreter(Arith(op, Col(a_), LitInt(0)));
    ExpectExprMatchesInterpreter(Arith(op, Col(x_), LitReal(0.0)));
    ExpectExprMatchesInterpreter(Arith(op, Col(y_), LitReal(2.5)));
    ExpectExprMatchesInterpreter(
        Arith(op, Arith(ArithOp::kAdd, Col(a_), Col(b_)), Col(x_)));
    ExpectExprMatchesInterpreter(
        Arith(op, Arith(ArithOp::kMul, Col(a_), LitInt(3)),
              Arith(ArithOp::kSub, Col(b_), LitInt(1))));
  }
}

TEST_F(ExprCompileTest, DivisionIsAlwaysDoubleAndByZeroYieldsZero) {
  // The interpreter's division contract: kDiv never takes the int lane, and
  // a zero divisor yields Real(0.0), not an error or NaN.
  auto prog = ExprProgram::Compile(*Arith(ArithOp::kDiv, Col(a_), Col(b_)),
                                   layout_, cat_);
  ASSERT_OK(prog);
  std::vector<Value> stack;
  Value v = prog->Eval({Value::Int(7), Value::Int(2), Value::Null(),
                        Value::Null(), Value::Str("")},
                       &stack);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
  v = prog->Eval({Value::Int(7), Value::Int(0), Value::Null(), Value::Null(),
                  Value::Str("")},
                 &stack);
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.AsDouble(), 0.0);
}

TEST_F(ExprCompileTest, CoalesceMatchesInterpreter) {
  ExpectExprMatchesInterpreter(Coalesce(Col(a_), LitInt(42)));
  ExpectExprMatchesInterpreter(Coalesce(Col(x_), Col(a_)));
  ExpectExprMatchesInterpreter(Coalesce(Col(s_), LitStr("fallback")));
  // NULL-producing inner arithmetic takes the fallback; non-NULL skips it.
  ExpectExprMatchesInterpreter(
      Coalesce(Arith(ArithOp::kAdd, Col(a_), Col(b_)), LitInt(-1)));
  // Fallback itself may evaluate to NULL.
  ExpectExprMatchesInterpreter(Coalesce(Col(a_), Col(b_)));
  // Nested coalesce.
  ExpectExprMatchesInterpreter(
      Coalesce(Col(a_), Coalesce(Col(b_), LitInt(0))));
}

TEST_F(ExprCompileTest, CompileFailsOnMissingColumn) {
  RowLayout narrow({a_});
  auto prog = ExprProgram::Compile(*Col(s_), narrow, cat_);
  EXPECT_FALSE(prog.ok());
  auto nested = ExprProgram::Compile(*Arith(ArithOp::kAdd, Col(a_), Col(b_)),
                                     narrow, cat_);
  EXPECT_FALSE(nested.ok());
  auto preds = PredicateProgram::Compile(
      {Cmp(Col(a_), CompareOp::kLt, Col(b_))}, narrow, cat_);
  EXPECT_FALSE(preds.ok());
}

TEST_F(ExprCompileTest, EveryCompareOpMatchesInterpreterAcrossTypes) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExpectPredMatchesInterpreter(Cmp(Col(a_), op, Col(b_)));       // int lane
    ExpectPredMatchesInterpreter(Cmp(Col(x_), op, Col(y_)));       // dbl lane
    ExpectPredMatchesInterpreter(Cmp(Col(a_), op, Col(x_)));       // numeric
    ExpectPredMatchesInterpreter(Cmp(Col(s_), op, LitStr("m")));   // string
    ExpectPredMatchesInterpreter(Cmp(Col(a_), op, Col(s_)));       // mixed
    ExpectPredMatchesInterpreter(Cmp(Col(a_), op, LitInt(3)));
    ExpectPredMatchesInterpreter(Cmp(Col(x_), op, LitInt(2)));     // int lit
    // Bytecode-program operands on either side.
    ExpectPredMatchesInterpreter(
        Cmp(Arith(ArithOp::kMul, Col(a_), LitInt(2)), op, Col(b_)));
    ExpectPredMatchesInterpreter(
        Cmp(Col(x_), op, Arith(ArithOp::kDiv, Col(y_), LitReal(2.0))));
  }
}

TEST_F(ExprCompileTest, NullOperandsCompareFalseUnderEveryOp) {
  Row all_null = {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
                  Value::Str("m")};
  EvalScratch scratch;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    auto prog =
        PredicateProgram::Compile({Cmp(Col(a_), op, Col(b_))}, layout_, cat_);
    ASSERT_OK(prog);
    // SQL three-valued logic folded to a filter: NULL never passes — not
    // even NULL != NULL or NULL == NULL.
    EXPECT_FALSE(prog->EvalRow(all_null, &scratch));
  }
}

TEST_F(ExprCompileTest, ConjunctionShortCircuitsAndMatchesInterpreter) {
  std::vector<Predicate> preds = {
      Cmp(Col(a_), CompareOp::kGt, LitInt(0)),
      Cmp(Col(x_), CompareOp::kLt, Col(y_)),
      Cmp(Col(s_), CompareOp::kLe, LitStr("zz")),
  };
  auto prog = PredicateProgram::Compile(preds, layout_, cat_);
  ASSERT_OK(prog);
  EvalScratch scratch;
  for (const Row& row : rows_) {
    EXPECT_EQ(EvalConjunction(preds, row, layout_),
              prog->EvalRow(row, &scratch));
  }
  // The empty conjunction is vacuously true (bare-scan fusion relies on it).
  auto empty = PredicateProgram::Compile({}, layout_, cat_);
  ASSERT_OK(empty);
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(empty->EvalRow(rows_[0], &scratch));
}

// ---------------------------------------------------------------- env knob

/// Saves and restores one environment variable for the duration of a test
/// (CI runs the suite with AGGVIEW_TEST_* already set; the tests below must
/// observe only their own values).
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* ambient = std::getenv(name);
    had_ = ambient != nullptr;
    saved_ = had_ ? ambient : "";
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }
  void Set(const char* value) { setenv(name_, value, /*overwrite=*/1); }
  void Unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

TEST(BackendEnvTest, ParseExecBackendAcceptsExactNamesOnly) {
  ExecBackend out = ExecBackend::kInterpret;
  EXPECT_TRUE(ParseExecBackend("compiled", &out));
  EXPECT_EQ(out, ExecBackend::kCompiled);
  EXPECT_TRUE(ParseExecBackend("interpret", &out));
  EXPECT_EQ(out, ExecBackend::kInterpret);

  out = ExecBackend::kCompiled;
  EXPECT_FALSE(ParseExecBackend(nullptr, &out));
  EXPECT_FALSE(ParseExecBackend("", &out));
  EXPECT_FALSE(ParseExecBackend("COMPILED", &out));
  EXPECT_FALSE(ParseExecBackend("compiled ", &out));
  EXPECT_FALSE(ParseExecBackend("jit", &out));
  // A failed parse leaves the output untouched.
  EXPECT_EQ(out, ExecBackend::kCompiled);
}

TEST(BackendEnvTest, BackendOverrideIsValidated) {
  ScopedEnv env("AGGVIEW_TEST_BACKEND");

  env.Unset();
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kInterpret);
  env.Set("compiled");
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kCompiled);
  env.Set("interpret");
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kInterpret);
  // Garbage falls back to the interpreter instead of crashing or guessing;
  // same validation convention as the numeric knobs.
  env.Set("Compiled");
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kInterpret);
  env.Set("fast");
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kInterpret);
  env.Set("");
  EXPECT_EQ(ExecContext::Default().backend, ExecBackend::kInterpret);
}

TEST(BackendEnvTest, SharedDefaultsFlowIntoSessionAndServerOptions) {
  ScopedEnv env("AGGVIEW_TEST_BACKEND");
  env.Set("compiled");
  // One consolidated env surface: ExecDefaults::FromEnv feeds the exec
  // context and the serving layer alike.
  EXPECT_EQ(ExecDefaults::FromEnv().backend, ExecBackend::kCompiled);
  EXPECT_EQ(ServerOptions::Default().backend, ExecBackend::kCompiled);
  env.Unset();
  EXPECT_EQ(ServerOptions::Default().backend, ExecBackend::kInterpret);
}

// --------------------------------------------- fused operator boundary suite

std::shared_ptr<const PredicateProgram> MustCompile(
    const std::vector<Predicate>& preds, const RowLayout& layout,
    const ColumnCatalog& cat) {
  auto prog = PredicateProgram::Compile(preds, layout, cat);
  EXPECT_OK(prog);
  return std::make_shared<const PredicateProgram>(std::move(*prog));
}

/// The batch_test.cc scan boundary suite, re-run against the compiled
/// scan->filter kernel (a TableScanOp with injected bytecode programs): same
/// protocol edges, compiled evaluation.
class FusedScanBatchTest : public ::testing::Test {
 protected:
  FusedScanBatchTest() : table_(Schema({{"id", DataType::kInt64}})) {
    id_ = cat_.Add("t.id", DataType::kInt64);
    for (int i = 0; i < 10; ++i) table_.AppendUnchecked({Value::Int(i)});
  }

  /// A charged scan of table_ evaluating `scan_filter`, then `residual`, as
  /// bytecode programs compiled against `layout`.
  std::unique_ptr<TableScanOp> CompiledScan(
      const RowLayout& layout, const std::vector<Predicate>& scan_filter,
      const std::vector<Predicate>& residual, IoAccountant* io) {
    auto scan = std::make_unique<TableScanOp>(&table_, layout, scan_filter,
                                              layout, io, /*charge_io=*/true);
    scan->set_compiled_filter(MustCompile(scan_filter, layout, cat_),
                              MustCompile(residual, layout, cat_));
    return scan;
  }

  ColumnCatalog cat_;
  Table table_;
  ColId id_ = -1;
};

TEST_F(FusedScanBatchTest, ExactMultipleCardinalityHasNoPhantomTailBatch) {
  RowLayout layout({id_});
  IoAccountant io;
  auto scan_op = CompiledScan(layout, {}, {}, &io);
  TableScanOp& scan = *scan_op;
  OpStats stats;
  scan.set_stats(&stats);
  ASSERT_OK(scan.Open());

  RowBatch batch(5);
  int64_t rows = 0;
  while (true) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    if (!*more) break;
    EXPECT_FALSE(batch.empty()) << "mid-stream batches are never empty";
    rows += batch.size();
  }
  EXPECT_EQ(rows, 10);
  EXPECT_EQ(stats.batches_produced, 2);
  EXPECT_EQ(stats.next_calls, 3);  // two full batches + end-of-stream

  // Past end-of-stream the operator keeps answering false, safely.
  for (int i = 0; i < 3; ++i) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    EXPECT_FALSE(*more);
    EXPECT_TRUE(batch.empty());
  }
  scan.Close();
}

TEST_F(FusedScanBatchTest, EmptyInputAnswersFalseOnFirstNext) {
  RowLayout layout({id_});
  IoAccountant io;
  auto scan_op = CompiledScan(
      layout, {Cmp(Col(id_), CompareOp::kLt, LitInt(0))}, {}, &io);
  TableScanOp& scan = *scan_op;
  OpStats stats;
  scan.set_stats(&stats);
  ASSERT_OK(scan.Open());
  RowBatch batch(5);
  auto more = scan.Next(&batch);
  ASSERT_OK(more);
  EXPECT_FALSE(*more);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(stats.batches_produced, 0);
  EXPECT_EQ(stats.rows_produced, 0);
  EXPECT_EQ(stats.input_rows, 10);  // the scan still examined every row
  scan.Close();
}

TEST_F(FusedScanBatchTest, InteriorScanStatsSplitAttributionAcrossNodes) {
  // Fusing a filter node over a scan node keeps per-node attribution: the
  // interior block sees what the scan would have reported, the operator's
  // own block what the filter would have.
  RowLayout layout({id_});
  IoAccountant io;
  auto scan_op = CompiledScan(layout,
                              {Cmp(Col(id_), CompareOp::kGe, LitInt(5))},
                              {Cmp(Col(id_), CompareOp::kGe, LitInt(8))}, &io);
  TableScanOp& scan = *scan_op;
  OpStats filter_stats;
  OpStats scan_stats;
  scan.set_stats(&filter_stats);
  scan.set_scan_stats(&scan_stats);
  ASSERT_OK(scan.Open());
  RowBatch batch(1024);
  int64_t rows = 0;
  while (true) {
    auto more = scan.Next(&batch);
    ASSERT_OK(more);
    if (!*more) break;
    rows += batch.size();
  }
  scan.Close();
  EXPECT_EQ(rows, 2);  // ids 8, 9
  EXPECT_EQ(scan_stats.input_rows, 10);    // every row examined
  EXPECT_EQ(scan_stats.rows_produced, 5);  // ids 5..9 pass the scan filter
  EXPECT_EQ(scan_stats.pages_charged, table_.page_count());
  EXPECT_EQ(filter_stats.input_rows, 5);   // rows entering the residual
  EXPECT_EQ(filter_stats.rows_produced, 2);
}

TEST_F(FusedScanBatchTest, ParallelInteriorScanStatsFoldToSerialCounters) {
  // Two workers over 3-row morsels: each clone counts into private blocks
  // (its own and the interior scan block) that the region folds back into
  // the primaries, so both blocks end where a serial run ends.
  RowLayout layout({id_});
  const std::vector<Predicate> scan_filter = {
      Cmp(Col(id_), CompareOp::kGe, LitInt(2))};
  const std::vector<Predicate> residual = {
      Cmp(Col(id_), CompareOp::kLt, LitInt(9))};
  struct Run {
    OpStats filter_stats;
    OpStats scan_stats;
    int64_t rows = 0;
    int64_t io = 0;
  };
  auto run = [&](int threads, Run* out) {
    IoAccountant io;
    auto scan = CompiledScan(layout, scan_filter, residual, &io);
    scan->set_stats(&out->filter_stats);
    scan->set_scan_stats(&out->scan_stats);
    scan->set_exec(std::make_shared<ExecRuntime>(threads, /*morsel_rows=*/3,
                                                 /*external_pool=*/nullptr));
    ASSERT_OK(scan->Open());
    std::vector<int64_t> rows(static_cast<size_t>(threads), 0);
    ASSERT_OK(RunMorselParallel(
        scan.get(), MorselWorkers(*scan), [&](int w, Operator* instance) {
          RowBatch batch(2);
          while (true) {
            auto more = instance->Next(&batch);
            if (!more.ok()) return more.status();
            if (!*more) return Status::OK();
            rows[static_cast<size_t>(w)] += batch.size();
          }
        }));
    scan->Close();
    for (int64_t r : rows) out->rows += r;
    out->io = io.total();
  };
  Run serial, parallel;
  run(1, &serial);
  run(2, &parallel);

  EXPECT_EQ(serial.rows, 7);  // ids 2..8
  EXPECT_EQ(parallel.rows, serial.rows);
  EXPECT_EQ(parallel.io, serial.io);
  for (auto [got, want] :
       {std::pair{&parallel.filter_stats, &serial.filter_stats},
        std::pair{&parallel.scan_stats, &serial.scan_stats}}) {
    EXPECT_EQ(got->rows_produced, want->rows_produced);
    EXPECT_EQ(got->input_rows, want->input_rows);
    EXPECT_EQ(got->pages_charged, want->pages_charged);
  }
  EXPECT_EQ(serial.scan_stats.input_rows, 10);
  EXPECT_EQ(serial.scan_stats.rows_produced, 8);
  EXPECT_EQ(serial.filter_stats.input_rows, 8);
  EXPECT_EQ(serial.filter_stats.rows_produced, 7);
  EXPECT_EQ(parallel.filter_stats.workers, 2);
  EXPECT_EQ(parallel.scan_stats.workers, 2);
}

// ------------------------------------------- end-to-end backend equivalence

/// End-to-end: the same optimized plan executed under the compiled backend
/// must fingerprint identically to the interpreter at every batch size and
/// thread count — compiled scan filters, bytecode HAVING and join residuals
/// and the interpreter are interchangeable implementations of the same
/// semantics.
class CompiledBackendTest : public ::testing::Test {
 protected:
  CompiledBackendTest() : db_(MakeEmpDept()) {}

  void CheckBackendInvariant(const std::string& sql) {
    auto query = ParseAndBind(*db_.catalog, sql);
    ASSERT_OK(query);
    auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
    ASSERT_OK(optimized);

    auto reference = ExecutePlan(optimized->plan, optimized->query,
                                 ExecContext{});
    ASSERT_OK(reference);
    for (int threads : {1, 8}) {
      for (int batch_size : {1, 2, 3, 1024}) {
        auto rerun = ExecutePlan(optimized->plan, optimized->query,
                                 ExecContext{}
                                     .WithBackend(ExecBackend::kCompiled)
                                     .WithThreads(threads)
                                     .WithBatchSize(batch_size));
        ASSERT_OK(rerun);
        EXPECT_EQ(rerun->Fingerprint(), reference->Fingerprint())
            << "compiled backend at threads=" << threads
            << " batch_size=" << batch_size << " changed the result of:\n"
            << sql;
      }
    }
  }

  EmpDeptFixture db_;
};

TEST_F(CompiledBackendTest, AggregateViewQuery) {
  CheckBackendInvariant(Example1Sql());
}

TEST_F(CompiledBackendTest, InvariantGroupingQuery) {
  CheckBackendInvariant(Example2Sql());
}

TEST_F(CompiledBackendTest, ScalarAggregateOverEmptyInput) {
  // The one synthesized row of a scalar aggregate over zero input must
  // appear exactly once over a compiled scan filter too.
  CheckBackendInvariant(
      "select count(*), sum(e.sal) from emp e where e.sal < 0");
}

TEST_F(CompiledBackendTest, GroupByWithHaving) {
  // HAVING runs as a compiled program over HashAggregateOp's output row.
  CheckBackendInvariant(
      "select e.dno, count(*), avg(e.sal) from emp e "
      "group by e.dno having count(*) > 2");
}

TEST_F(CompiledBackendTest, FilterHeavyConjunction) {
  CheckBackendInvariant(
      "select e.eno, e.sal from emp e "
      "where e.sal > 100 and e.age > 20 and e.age < 60 and e.dno > 0");
}

/// NULL grouping keys placed so they straddle batch boundaries, plus a
/// grouping column whose runtime values mix Int and Real: HashAggregateOp's
/// INT64 lane must group NULLs together and must migrate to the generic
/// table on the first non-integer key without splitting the 1 == 1.0 group.
/// Both backends run that lane, so the expected groups are literal answers
/// rather than the interpreter's output.
class CompiledGroupingEdgeTest : public ::testing::Test {
 protected:
  CompiledGroupingEdgeTest() {
    auto tables = CreateEmpDeptSchema(&catalog_);
    EXPECT_OK(tables);
    tables_ = *tables;

    auto emp = std::make_shared<Table>(catalog_.table(tables_.emp).schema);
    for (int i = 0; i < 18; ++i) {
      // Every third dno NULL; every seventh a Real that equals an Int key.
      Value dno = (i % 3 == 2) ? Value::Null()
                 : (i % 7 == 0) ? Value::Real(1.0 + i % 2)
                                : Value::Int(1 + i % 2);
      emp->AppendUnchecked({Value::Int(i), std::move(dno),
                            Value::Real(100.0 * i), Value::Int(25 + i % 10)});
    }
    catalog_.mutable_table(tables_.emp).stats = ComputeStats(*emp);
    catalog_.mutable_table(tables_.emp).data = emp;
  }

  Catalog catalog_;
  EmpDeptTables tables_;
};

TEST_F(CompiledGroupingEdgeTest, NullAndMixedTypeKeysFormLiteralGroups) {
  auto query = ParseAndBind(
      catalog_, "select e.dno, count(*), sum(e.sal) from emp e "
                "group by e.dno");
  ASSERT_OK(query);
  auto optimized = OptimizeQueryWithAggViews(*query, OptimizerOptions{});
  ASSERT_OK(optimized);

  // dno 1 (Real(1.0) at i = 0): i = 0, 4, 6, 10, 12, 16; dno 2 (Real(2.0)
  // at i = 7): i = 1, 3, 7, 9, 13, 15; NULL: i = 2, 5, 8, 11, 14, 17. The
  // fingerprint renders Int(1) and Real(1.0) alike, so either may key the
  // group; a split group or a second NULL group changes the string.
  const std::string want = "\x01NULL|6|5700\n1|6|4800\n2|6|4800\n";
  for (ExecBackend backend :
       {ExecBackend::kInterpret, ExecBackend::kCompiled}) {
    for (int threads : {1, 8}) {
      for (int batch_size : {1, 2, 3, 1024}) {
        // Two-row morsels let several workers claim a share of the 18 rows,
        // so partials can end up in different lanes (a worker that met a
        // Real key migrated, one that did not stayed on the INT64 lane).
        // Whether they do depends on scheduling;
        // OperatorsTest.ParallelAggregateMergesPartialsAcrossLanes pins
        // that merge deterministically.
        for (int64_t morsel_rows : {kDefaultMorselRows, int64_t{2}}) {
          auto result = ExecutePlan(optimized->plan, optimized->query,
                                    ExecContext{}
                                        .WithBackend(backend)
                                        .WithThreads(threads)
                                        .WithBatchSize(batch_size)
                                        .WithMorselRows(morsel_rows));
          ASSERT_OK(result);
          EXPECT_EQ(result->Fingerprint(), want)
              << ExecBackendName(backend) << " threads=" << threads
              << " batch_size=" << batch_size
              << " morsel_rows=" << morsel_rows;
        }
      }
    }
  }
}

// ------------------------------------------------------------ observability

TEST(BackendObservabilityTest, ExplainAnalyzeLabelsBackendPerOperator) {
  ServerOptions compiled_opts;
  compiled_opts.backend = ExecBackend::kCompiled;
  Server compiled(compiled_opts);
  auto tables = CreateEmpDeptSchema(&compiled.catalog());
  ASSERT_OK(tables);
  ASSERT_OK(GenerateEmpDeptData(&compiled.catalog(), *tables, {}));
  auto q = compiled.Connect().Sql(
      "select e.dno, count(*) from emp e where e.sal > 100 group by e.dno");
  ASSERT_OK(q);
  EXPECT_EQ(compiled.options().backend, ExecBackend::kCompiled);
  auto analyzed = q->ExplainAnalyze();
  ASSERT_OK(analyzed);
  // Every executed node is attributed to a backend under the compiled
  // context, and the scan filter actually compiled. The aggregate has no
  // HAVING, so like a hash join without a residual it runs no bytecode and
  // names its native core as the reason.
  EXPECT_NE(analyzed->find("backend=compiled"), std::string::npos)
      << *analyzed;
  EXPECT_NE(analyzed->find("fallback=aggregate-core-interpreted"),
            std::string::npos)
      << *analyzed;

  Server interpreted{[] {
    ServerOptions o;
    o.backend = ExecBackend::kInterpret;
    return o;
  }()};
  auto tables2 = CreateEmpDeptSchema(&interpreted.catalog());
  ASSERT_OK(tables2);
  ASSERT_OK(GenerateEmpDeptData(&interpreted.catalog(), *tables2, {}));
  auto q2 = interpreted.Connect().Sql(
      "select e.dno, count(*) from emp e where e.sal > 100 group by e.dno");
  ASSERT_OK(q2);
  EXPECT_EQ(interpreted.options().backend, ExecBackend::kInterpret);
  auto analyzed2 = q2->ExplainAnalyze();
  ASSERT_OK(analyzed2);
  // The interpreter-only rendering is unchanged: no backend column at all.
  EXPECT_EQ(analyzed2->find("backend="), std::string::npos) << *analyzed2;
}

}  // namespace
}  // namespace aggview

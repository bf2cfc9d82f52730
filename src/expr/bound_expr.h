#ifndef AGGVIEW_EXPR_BOUND_EXPR_H_
#define AGGVIEW_EXPR_BOUND_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/column.h"
#include "common/result.h"
#include "expr/predicate.h"
#include "expr/scalar_expr.h"
#include "types/value.h"

namespace aggview {

/// One row of a column-major store as a cell source for bound evaluation:
/// cells[slot] reads column `slot`'s cell at `row`, in place. `cols` holds
/// one column base pointer per layout slot (a table scan takes them from its
/// Table at Open). A Row is the other cell source: row[slot].
struct ColumnCells {
  const Value* const* cols;
  size_t row;
  const Value& operator[](size_t slot) const { return cols[slot][row]; }
};

/// A ScalarExpr bound once to one RowLayout, the form operators evaluate per
/// row. Column references become row slots (also inside ArithExpr and
/// CoalesceExpr) and literals are held inline, so evaluation does no layout
/// lookup and no virtual dispatch. Results equal ScalarExpr::Eval on every
/// row, NULL propagation and the x / 0 == 0.0 convention included.
///
/// Evaluation is a template over the cell source, instantiated for Row and
/// ColumnCells (bound_expr.cc): one evaluator, whichever store the slots
/// index.
///
/// Immutable after Bind: worker clones of an operator copy it and evaluate
/// concurrently.
class BoundExpr {
 public:
  BoundExpr() = default;

  /// Binds `expr` against `layout`. Fails (Status::Internal) when the
  /// expression references a column the layout does not carry.
  static Result<BoundExpr> Bind(const ScalarExpr& expr,
                                const RowLayout& layout);

  /// Exactly expr.Eval(row, layout).
  Value Eval(const Row& row) const { return Eval<Row>(row); }
  template <typename Cells>
  Value Eval(const Cells& cells) const;

  /// The value of this expression on `cells` without copying: a pointer to
  /// the cell for a bare column, to the inline literal, or to `*tmp`, which
  /// receives the evaluated tree.
  template <typename Cells>
  const Value* Resolve(const Cells& cells, Value* tmp) const;

  /// Row slot of a bare column reference, else -1.
  int slot() const { return slot_; }
  /// True for a bare literal; literal() is then its value.
  bool is_literal() const { return slot_ < 0 && nodes_.empty(); }
  const Value& literal() const { return literal_; }

 private:
  /// One node of a bound tree, stored in post-order (children before their
  /// parent, the root last). kArith reads its operands from nodes lhs/rhs;
  /// kCoalesce takes lhs as the inner expression and rhs as the fallback.
  struct Node {
    ScalarExpr::Kind kind = ScalarExpr::Kind::kLiteral;
    ArithOp op = ArithOp::kAdd;
    int slot = -1;
    size_t lhs = 0;
    size_t rhs = 0;
    Value literal;
  };

  /// Appends `expr`'s subtree to nodes_ and returns its root index.
  Result<size_t> BindNode(const ScalarExpr& expr, const RowLayout& layout);
  template <typename Cells>
  Value EvalNode(size_t i, const Cells& cells) const;
  template <typename Cells>
  const Value* ResolveNode(size_t i, const Cells& cells, Value* tmp) const;

  // Exactly one form is active: a bare column (slot_ >= 0), a bare literal
  // (nodes_ empty), or a tree (nodes_ non-empty).
  int slot_ = -1;
  Value literal_;
  std::vector<Node> nodes_;
};

/// A conjunction of Predicates bound once to one RowLayout. Each comparison
/// runs on a lane chosen from the ColumnCatalog's static types (INT64,
/// DOUBLE or STRING, else generic), and every lane guards the runtime types,
/// falling back to Value::Compare on a mismatch, so results equal
/// Predicate::Eval on every row — including SQL's rule that a comparison
/// with NULL is not true. Conjuncts short-circuit left to right; the empty
/// conjunction is true. Like BoundExpr, evaluation reads a Row or, for a
/// table scan's filter, the table's columns in place (ColumnCells).
///
/// Immutable after Bind, like BoundExpr.
class BoundConjunction {
 public:
  BoundConjunction() = default;

  /// Binds `preds` against `layout`. A conjunct referencing a column the
  /// layout lacks fails with Status::Internal("<op>: predicate column
  /// missing from input layout"), the malformed-plan error operators return
  /// from Open.
  static Result<BoundConjunction> Bind(const std::vector<Predicate>& preds,
                                       const RowLayout& layout,
                                       const ColumnCatalog& columns,
                                       const char* op);

  /// True when `row` satisfies every conjunct.
  bool Eval(const Row& row) const { return Eval<Row>(row); }
  template <typename Cells>
  bool Eval(const Cells& cells) const {
    return conjuncts_.empty() || EvalConjuncts(cells);
  }

 private:
  // kInt64SlotConst / kDoubleSlotConst are the `column op literal` shapes of
  // the typed lanes: lhs is a slot and rhs a non-NULL numeric literal,
  // so evaluation reads one slot and compares against an inline constant.
  enum class Lane : uint8_t {
    kGeneric,
    kInt64,
    kDouble,
    kString,
    kInt64SlotConst,
    kDoubleSlotConst,
  };

  /// The fields the slot-vs-literal lanes read come first, so a conjunct's
  /// hot path stays in one cache line.
  struct Conjunct {
    Lane lane = Lane::kGeneric;
    CompareOp op = CompareOp::kEq;
    /// Slot-vs-literal lanes: lhs's slot, and the literal as INT64
    /// (kInt64SlotConst) or as double (kDoubleSlotConst).
    int slot = -1;
    int64_t rhs_int = 0;
    double rhs_double = 0.0;
    BoundExpr lhs;
    BoundExpr rhs;
  };

  template <typename Cells>
  static bool EvalConjunct(const Conjunct& c, const Cells& cells);
  /// Eval's loop, out of line; the empty conjunction (a scan without a
  /// filter, a join without a residual) never calls it.
  template <typename Cells>
  bool EvalConjuncts(const Cells& cells) const;

  std::vector<Conjunct> conjuncts_;
};

}  // namespace aggview

#endif  // AGGVIEW_EXPR_BOUND_EXPR_H_

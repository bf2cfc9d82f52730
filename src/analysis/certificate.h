#ifndef AGGVIEW_ANALYSIS_CERTIFICATE_H_
#define AGGVIEW_ANALYSIS_CERTIFICATE_H_

#include <set>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "optimizer/plan.h"

namespace aggview {

/// Machine-checkable legality certificates. Every transformation that relies
/// on one of the paper's side conditions emits a certificate stating exactly
/// which condition it relied on and on what evidence; the analyzer
/// (analysis/analyzer.h) re-derives the condition from first principles —
/// catalog keys, predicate-implied functional dependencies, subplan
/// properties — and rejects the transformation when the claim does not hold.
/// Certificates are self-contained: they carry the block state at
/// transformation time so verification needs no replay.

/// One relation of a single-block claim. The verifier re-derives the
/// relation's columns and keys itself: from the catalog for a range variable,
/// from the subplan (via DerivePlanProperties) for a composite input.
struct BlockRelClaim {
  std::string name;
  /// Range-variable id; >= 0 means columns/keys come from the catalog.
  int scan_rel = -1;
  /// Composite input (an already-optimized subplan, e.g. an aggregate view);
  /// columns/keys are derived from the plan itself.
  PlanPtr composite;
};

/// Emitted by PullUpIntoView (Section 3, Definition 1). Claims that the
/// deferred group-by's grouping columns functionally determine a key of
/// every pulled relation within the extended block — i.e. each group
/// contains at most one tuple of each pulled relation, so deferring the
/// aggregation preserves the result.
struct PullUpCertificate {
  size_t view_idx = 0;
  std::set<int> pulled;
  /// Block state after the pull-up.
  std::vector<int> block_rels;
  std::vector<Predicate> block_predicates;
  std::vector<ColId> grouping_before;
  std::vector<ColId> grouping_after;

  /// Per pulled relation: the key columns appended to the grouping (empty
  /// when the key was elided because the join already pins a key).
  struct RelClaim {
    int rel = -1;
    std::vector<ColId> key_added;
    bool used_rowid = false;
  };
  std::vector<RelClaim> rels;

  /// Every query-global column this certificate's claims mention — the
  /// column skeleton of the transformation, consumed by the small-scope
  /// prover (src/verify/skeleton.h) to decide which base-table columns a
  /// bounded counterexample search must vary.
  std::set<ColId> ReferencedColumns() const;
};

/// Emitted when a group-by is moved past relations (invariant grouping,
/// Section 4.1): by ShrinkViewToInvariantSet at the query level and by the
/// enumerator's early invariant placement at the plan level. Claims that for
/// every removed relation (in some elimination order) IG1-IG3 hold: no
/// aggregate argument comes from it, predicates crossing to the retained
/// side touch only grouping columns there, and at most one of its tuples
/// matches each group (so neither values nor row multiplicity change).
struct InvariantCertificate {
  GroupBySpec group_by;
  std::vector<BlockRelClaim> removed;
  std::vector<BlockRelClaim> retained;
  std::vector<Predicate> predicates;

  /// Column skeleton of the claim; see PullUpCertificate::ReferencedColumns.
  std::set<ColId> ReferencedColumns() const;
};

/// Emitted by SplitForCoalescing (Section 4.2). Claims that every aggregate
/// of the original group-by is decomposable, takes its arguments from the
/// pre-aggregation's input, and that the partial/final rewriting is the
/// canonical combine form (SUM of partial SUMs, SUM of partial COUNTs, MIN
/// of MINs, AVG as ratio of partial SUM and COUNT).
struct CoalescingCertificate {
  GroupBySpec original;
  GroupBySpec partial;
  std::vector<AggregateCall> final_aggregates;
  std::set<ColId> below_cols;
  std::set<ColId> carry_cols;

  /// Column skeleton of the claim; see PullUpCertificate::ReferencedColumns.
  std::set<ColId> ReferencedColumns() const;
};

/// Emitted by the materialized-view rewriter (view/rewriter.h) when it
/// answers a block from a view's backing table. Claims that the replaced
/// block's relations biject onto the view definition's FROM list (preserving
/// catalog tables), the block predicates equal the definition's WHERE as a
/// multiset under that mapping, the kept grouping columns are a subset of
/// the view's grouping (so the residual group-by is a legal roll-up over
/// whole view groups — the backing key is exactly the grouping prefix), and
/// every replaced aggregate became its decomposition's combine over the
/// view's partial columns. The verifier re-derives all of this from the
/// stored definition SQL, independent of the rewriter's own matching.
struct ViewRewriteCertificate {
  std::string view_name;
  /// View content epoch at rewrite time (observability; freshness at
  /// execution time is the plan cache's dependency stamps' job).
  int64_t view_epoch = 0;
  /// Range variable scanning the backing table, added by the rewrite.
  int backing_rel = -1;
  /// Replaced range variables, in definition FROM order (the mapping).
  std::vector<int> replaced_rels;
  /// The block predicates the rewrite absorbed (incoming column space).
  std::vector<Predicate> replaced_predicates;
  /// Grouping columns kept by the residual group-by.
  std::vector<ColId> grouping;
  /// Pairwise: the original aggregate call and the combine it became.
  std::vector<AggregateCall> original_aggregates;
  std::vector<AggregateCall> combine_aggregates;

  /// Column skeleton of the claim; see PullUpCertificate::ReferencedColumns.
  std::set<ColId> ReferencedColumns() const;
};

/// Emitted by lowering for every predicate/expression program it compiles
/// under ExecBackend::kCompiled (exec/compile/verifier.h produces it). Unlike
/// the transformation certificates above it records a *machine-code* claim:
/// the bytecode program is well-formed (stack-balanced, forward jumps only,
/// operands in bounds, canonical lanes, documented NULL conventions) and a
/// faithful translation of its source tree (agreeing abstract nullability /
/// value domains, and identical results on every co-evaluated witness row).
/// A certificate with verified == false records a program the verifier
/// rejected — that program never executed; the operator fell back to the
/// interpreter and EXPLAIN ANALYZE shows the fallback reason.
struct CompilationCertificate {
  /// Operator the program was lowered for ("Filter", "TableScan", ...).
  std::string node;
  /// Which program of the operator ("scan-filter", "filter", "having",
  /// "join-residual").
  std::string kind;
  /// Rendering of the source predicate conjunction / expression tree.
  std::string source;
  /// Full bytecode listing (exec/compile/disasm.h), recorded even for
  /// rejected programs so the corruption is inspectable.
  std::string disassembly;
  /// Program shape: conjunct frames plus nested bytecode instructions, and
  /// the deepest abstract stack any nested program reaches.
  int instructions = 0;
  int max_stack_depth = 0;
  /// Witness rows co-evaluated against the source tree in stage 2.
  int witness_rows = 0;
  bool verified = false;
  /// Instruction-indexed verifier diagnostic when !verified.
  std::string rejection;
};

/// Audit trail of one optimization: every certificate the winning rewrite
/// emitted, for observability and post-hoc re-verification.
struct TransformationAudit {
  std::vector<PullUpCertificate> pullups;
  std::vector<InvariantCertificate> invariants;
  std::vector<CoalescingCertificate> coalescings;
  std::vector<ViewRewriteCertificate> view_rewrites;

  int64_t size() const {
    return static_cast<int64_t>(pullups.size() + invariants.size() +
                                coalescings.size() + view_rewrites.size());
  }

  /// Union of the column skeletons of every certificate in the audit.
  std::set<ColId> ReferencedColumns() const;
};

}  // namespace aggview

#endif  // AGGVIEW_ANALYSIS_CERTIFICATE_H_

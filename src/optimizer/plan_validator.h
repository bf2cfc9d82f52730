#ifndef AGGVIEW_OPTIMIZER_PLAN_VALIDATOR_H_
#define AGGVIEW_OPTIMIZER_PLAN_VALIDATOR_H_

#include "optimizer/plan.h"

namespace aggview {

/// Structural validation of a physical plan, independent of execution:
///
///  - every column a node's predicates/aggregates reference is available in
///    the right place (scan filters against the table's columns, join
///    predicates against the concatenated child outputs, HAVING against the
///    group-by's outputs);
///  - every output column is actually produced by the node (scan outputs
///    come from the table, join outputs from the children, group-by outputs
///    from grouping + aggregates);
///  - hash joins have at least one equi-join conjunct;
///  - estimates are sane (non-negative rows, costs monotone along children).
///
/// Used by the test suite after every optimizer invocation; ExecutePlan
/// would also catch most of these, but the validator pinpoints the node and
/// catches latent problems in plans that are costed yet never executed.
Status ValidatePlan(const PlanPtr& plan, const Query& query);

}  // namespace aggview

#endif  // AGGVIEW_OPTIMIZER_PLAN_VALIDATOR_H_

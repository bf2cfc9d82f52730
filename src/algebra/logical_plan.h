#ifndef AGGVIEW_ALGEBRA_LOGICAL_PLAN_H_
#define AGGVIEW_ALGEBRA_LOGICAL_PLAN_H_

#include <set>
#include <utility>
#include <vector>

#include "algebra/query.h"

namespace aggview {

/// Equi-join column pairs between `left_rels`-owned columns and columns of
/// relation `right_rel`, extracted from `preds`. Returns pairs
/// (left_col, right_col).
std::vector<std::pair<ColId, ColId>> EquiJoinPairs(
    const Query& query, const std::vector<Predicate>& preds,
    const std::set<int>& left_rels, int right_rel);

}  // namespace aggview

#endif  // AGGVIEW_ALGEBRA_LOGICAL_PLAN_H_

#include "algebra/logical_plan.h"

#include <unordered_map>

namespace aggview {

std::vector<std::pair<ColId, ColId>> EquiJoinPairs(
    const Query& query, const std::vector<Predicate>& preds,
    const std::set<int>& left_rels, int right_rel) {
  // Owning range variable of every column; aggregate outputs have none.
  std::unordered_map<ColId, int> owners;
  for (int i = 0; i < query.num_range_vars(); ++i) {
    for (ColId c : query.range_var(i).columns) owners[c] = i;
    if (query.range_var(i).rowid != kInvalidColId) {
      owners[query.range_var(i).rowid] = i;
    }
  }
  std::vector<std::pair<ColId, ColId>> pairs;
  for (const Predicate& p : preds) {
    ColId a, b;
    if (!p.AsColumnEquality(&a, &b)) continue;
    auto owner_of = [&](ColId c) -> int {
      auto it = owners.find(c);
      return it == owners.end() ? -1 : it->second;
    };
    int oa = owner_of(a), ob = owner_of(b);
    if (ob == right_rel && oa >= 0 && left_rels.count(oa) > 0) {
      pairs.emplace_back(a, b);
    } else if (oa == right_rel && ob >= 0 && left_rels.count(ob) > 0) {
      pairs.emplace_back(b, a);
    }
  }
  return pairs;
}

}  // namespace aggview

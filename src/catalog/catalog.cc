#include "catalog/catalog.h"

#include <algorithm>
#include <set>

namespace aggview {

namespace {

bool IsSubset(const std::vector<int>& key, const std::vector<int>& columns) {
  for (int k : key) {
    if (std::find(columns.begin(), columns.end(), k) == columns.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool TableDef::CoversKey(const std::vector<int>& columns) const {
  if (!primary_key.empty() && IsSubset(primary_key, columns)) return true;
  for (const auto& uk : unique_keys) {
    if (!uk.empty() && IsSubset(uk, columns)) return true;
  }
  return false;
}

Result<TableId> Catalog::AddTable(TableDef def) {
  for (const auto& t : tables_) {
    if (t->name == def.name) {
      return Status::AlreadyExists("table '" + def.name + "' already exists");
    }
  }
  for (int c : def.primary_key) {
    if (c < 0 || c >= def.schema.num_columns()) {
      return Status::InvalidArgument("primary key column index out of range in '" +
                                     def.name + "'");
    }
  }
  for (const auto& uk : def.unique_keys) {
    for (int c : uk) {
      if (c < 0 || c >= def.schema.num_columns()) {
        return Status::InvalidArgument(
            "unique key column index out of range in '" + def.name + "'");
      }
    }
  }
  TableId id = static_cast<TableId>(tables_.size());
  def.id = id;
  tables_.push_back(std::make_unique<TableDef>(std::move(def)));
  table_epochs_.emplace_back(0);
  BumpStatsEpoch();
  return id;
}

Status Catalog::AddForeignKey(ForeignKey fk) {
  if (fk.referencing_table < 0 || fk.referencing_table >= num_tables() ||
      fk.referenced_table < 0 || fk.referenced_table >= num_tables()) {
    return Status::InvalidArgument("foreign key references unknown table");
  }
  if (fk.referencing_columns.size() != fk.referenced_columns.size() ||
      fk.referencing_columns.empty()) {
    return Status::InvalidArgument("foreign key column lists must match and be non-empty");
  }
  const TableDef& target = table(fk.referenced_table);
  std::vector<int> cols = fk.referenced_columns;
  if (!target.CoversKey(cols)) {
    return Status::InvalidArgument("foreign key must reference a key of '" +
                                   target.name + "'");
  }
  foreign_keys_.push_back(std::move(fk));
  BumpStatsEpoch();
  return Status::OK();
}

Result<TableId> Catalog::FindTable(const std::string& name) const {
  for (const auto& t : tables_) {
    if (t->name == name) return t->id;
  }
  return Status::NotFound("no table named '" + name + "'");
}

Status Catalog::AddView(std::unique_ptr<ViewDefinition> view) {
  if (view == nullptr || view->name.empty()) {
    return Status::InvalidArgument("materialized view needs a name");
  }
  if (FindView(view->name) != nullptr) {
    return Status::AlreadyExists("materialized view '" + view->name +
                                 "' already exists");
  }
  if (FindTable(view->name).ok()) {
    return Status::AlreadyExists("materialized view '" + view->name +
                                 "' shadows a base table");
  }
  views_.push_back(std::move(view));
  return Status::OK();
}

const ViewDefinition* Catalog::FindView(const std::string& name) const {
  for (const auto& v : views_) {
    if (v->name == name) return v.get();
  }
  return nullptr;
}

ViewDefinition* Catalog::FindMutableView(const std::string& name) {
  for (const auto& v : views_) {
    if (v->name == name) return v.get();
  }
  return nullptr;
}

Status Catalog::DropView(const std::string& name) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if ((*it)->name != name) continue;
    TableId backing = (*it)->backing_table;
    views_.erase(it);
    if (backing >= 0 && backing < num_tables()) {
      // Free the backing rows; the positional TableDef slot stays. The
      // epoch bump invalidates any cached plan that scanned the view.
      mutable_table(backing).data.reset();
    }
    return Status::OK();
  }
  return Status::NotFound("no materialized view named '" + name + "'");
}

bool Catalog::IsViewFresh(const ViewDefinition& view) const {
  for (const auto& [base, epoch] : view.synced_base_epochs) {
    if (table_epoch(base) != epoch) return false;
  }
  return !view.synced_base_epochs.empty() || view.base_tables.empty();
}

void Catalog::MarkViewSynced(ViewDefinition* view) {
  view->epoch.fetch_add(1, std::memory_order_acq_rel);
  view->synced_base_epochs.clear();
  std::set<TableId> seen;
  for (TableId t : view->base_tables) {
    if (seen.insert(t).second) {
      view->synced_base_epochs.emplace_back(t, table_epoch(t));
    }
  }
}

bool Catalog::IsForeignKeyJoin(TableId referencing,
                               const std::vector<int>& referencing_cols,
                               TableId referenced,
                               const std::vector<int>& referenced_cols) const {
  if (referencing_cols.size() != referenced_cols.size()) return false;
  for (const ForeignKey& fk : foreign_keys_) {
    if (fk.referencing_table != referencing || fk.referenced_table != referenced) {
      continue;
    }
    if (fk.referencing_columns.size() != referencing_cols.size()) continue;
    // The join must pair exactly the FK columns with the corresponding key
    // columns (in any order of the pair list).
    std::set<std::pair<int, int>> declared;
    for (size_t i = 0; i < fk.referencing_columns.size(); ++i) {
      declared.insert({fk.referencing_columns[i], fk.referenced_columns[i]});
    }
    std::set<std::pair<int, int>> actual;
    for (size_t i = 0; i < referencing_cols.size(); ++i) {
      actual.insert({referencing_cols[i], referenced_cols[i]});
    }
    if (declared == actual) return true;
  }
  return false;
}

}  // namespace aggview

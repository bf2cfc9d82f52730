#include "algebra/query.h"

#include "common/string_util.h"

namespace aggview {

std::vector<ColId> GroupBySpec::OutputColumns() const {
  std::vector<ColId> out = grouping;
  for (const AggregateCall& a : aggregates) out.push_back(a.output);
  return out;
}

std::set<ColId> GroupBySpec::AggOutputSet() const {
  std::set<ColId> out;
  for (const AggregateCall& a : aggregates) out.insert(a.output);
  return out;
}

std::set<ColId> GroupBySpec::AggArgSet() const {
  std::set<ColId> out;
  for (const AggregateCall& a : aggregates) {
    out.insert(a.args.begin(), a.args.end());
  }
  return out;
}

std::string GroupBySpec::ToString(const ColumnCatalog& cat) const {
  std::string out = "group by [";
  for (size_t i = 0; i < grouping.size(); ++i) {
    if (i > 0) out += ", ";
    out += cat.name(grouping[i]);
  }
  out += "] agg [";
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates[i].ToString(cat);
  }
  out += "]";
  if (!having.empty()) {
    out += " having [";
    for (size_t i = 0; i < having.size(); ++i) {
      if (i > 0) out += " and ";
      out += having[i].ToString(cat);
    }
    out += "]";
  }
  return out;
}

int Query::AddRangeVar(TableId table, const std::string& alias) {
  const TableDef& def = catalog_->table(table);
  RangeVar rv;
  rv.id = static_cast<int>(range_vars_.size());
  rv.table = table;
  rv.alias = alias;
  for (int i = 0; i < def.schema.num_columns(); ++i) {
    const ColumnSpec& c = def.schema.column(i);
    rv.columns.push_back(
        columns_.Add(alias + "." + c.name, c.type, c.width));
  }
  // Keyless tables get a synthetic tuple id usable as a key.
  if (def.primary_key.empty() && def.unique_keys.empty()) {
    rv.rowid = columns_.Add(alias + ".$rowid", DataType::kInt64);
  }
  range_vars_.push_back(std::move(rv));
  return range_vars_.back().id;
}

int Query::AddRangeVarWithReuse(TableId table, const std::string& alias,
                                const std::vector<ColId>& reuse) {
  const TableDef& def = catalog_->table(table);
  RangeVar rv;
  rv.id = static_cast<int>(range_vars_.size());
  rv.table = table;
  rv.alias = alias;
  for (int i = 0; i < def.schema.num_columns(); ++i) {
    const ColumnSpec& c = def.schema.column(i);
    ColId reused = i < static_cast<int>(reuse.size())
                       ? reuse[static_cast<size_t>(i)]
                       : kInvalidColId;
    rv.columns.push_back(reused != kInvalidColId
                             ? reused
                             : columns_.Add(alias + "." + c.name, c.type,
                                            c.width));
  }
  if (def.primary_key.empty() && def.unique_keys.empty()) {
    rv.rowid = columns_.Add(alias + ".$rowid", DataType::kInt64);
  }
  range_vars_.push_back(std::move(rv));
  return range_vars_.back().id;
}

Result<ColId> Query::ResolveColumn(const std::string& alias,
                                   const std::string& column_name) const {
  for (const RangeVar& rv : range_vars_) {
    if (rv.alias != alias) continue;
    const TableDef& def = catalog_->table(rv.table);
    int idx = def.schema.FindColumn(column_name);
    if (idx < 0) {
      return Status::BindError("no column '" + column_name + "' in '" + alias +
                               "' (table " + def.name + ")");
    }
    return rv.columns[static_cast<size_t>(idx)];
  }
  return Status::BindError("no range variable named '" + alias + "'");
}

ColId Query::AddAggregateOutput(AggKind kind, const std::vector<ColId>& args,
                                const std::string& display_name,
                                DataType type) {
  (void)args;
  ColId out = columns_.Add(display_name, type);
  // COUNT-family results are never NULL: COUNT/COUNT(*) emit 0 on empty
  // input and the COUNT-combine (kCountSum) sums partial counts starting
  // from 0. Declaring this here lets the dataflow analyzer cross-check the
  // declaration against what the plan provably produces.
  if (kind == AggKind::kCount || kind == AggKind::kCountStar ||
      kind == AggKind::kCountSum) {
    columns_.set_nullable(out, false);
  }
  return out;
}

std::set<ColId> Query::ColumnsOfRels(const std::vector<int>& rel_ids) const {
  std::set<ColId> out;
  for (int id : rel_ids) {
    const RangeVar& rv = range_var(id);
    out.insert(rv.columns.begin(), rv.columns.end());
    if (rv.rowid != kInvalidColId) out.insert(rv.rowid);
  }
  return out;
}

Status Query::Validate() const {
  // Every range variable appears in exactly one block.
  std::vector<int> occurrences(range_vars_.size(), 0);
  for (int id : base_rels_) occurrences[static_cast<size_t>(id)]++;
  for (const AggView& v : views_) {
    for (int id : v.spj.rels) occurrences[static_cast<size_t>(id)]++;
  }
  for (size_t i = 0; i < occurrences.size(); ++i) {
    int expected = range_vars_[i].detached ? 0 : 1;
    if (occurrences[i] != expected) {
      return Status::Internal(StrFormat(
          "range variable %zu ('%s'%s) appears in %d blocks", i,
          range_vars_[i].alias.c_str(),
          range_vars_[i].detached ? ", detached" : "", occurrences[i]));
    }
  }

  // View predicates must be bound by the view's own columns; grouping columns
  // and aggregate args must come from the view's relations; HAVING must be
  // bound by grouping + agg outputs.
  for (const AggView& v : views_) {
    std::set<ColId> inside = ColumnsOfRels(v.spj.rels);
    for (const Predicate& p : v.spj.predicates) {
      if (!p.BoundBy(inside)) {
        return Status::Internal("view '" + v.name +
                                "' has a predicate referencing outside columns: " +
                                p.ToString(columns_));
      }
    }
    for (ColId g : v.group_by.grouping) {
      if (inside.count(g) == 0) {
        return Status::Internal("view '" + v.name +
                                "' groups by a column outside its block: " +
                                columns_.name(g));
      }
    }
    std::set<ColId> visible = inside;  // grouping ⊆ inside
    for (const AggregateCall& a : v.group_by.aggregates) {
      for (ColId arg : a.args) {
        if (inside.count(arg) == 0) {
          return Status::Internal("view '" + v.name +
                                  "' aggregates a column outside its block: " +
                                  columns_.name(arg));
        }
      }
      visible.insert(a.output);
    }
    std::set<ColId> having_visible(v.group_by.grouping.begin(),
                                   v.group_by.grouping.end());
    for (const AggregateCall& a : v.group_by.aggregates) {
      having_visible.insert(a.output);
    }
    for (const Predicate& p : v.group_by.having) {
      if (!p.BoundBy(having_visible)) {
        return Status::Internal("view '" + v.name +
                                "' HAVING references a non-output column: " +
                                p.ToString(columns_));
      }
    }
  }

  // Top block: predicates bound by base columns + view outputs.
  std::set<ColId> top_visible = ColumnsOfRels(base_rels_);
  for (const AggView& v : views_) {
    for (ColId c : v.OutputColumns()) top_visible.insert(c);
  }
  for (const Predicate& p : predicates_) {
    if (!p.BoundBy(top_visible)) {
      return Status::Internal("top-level predicate references invisible column: " +
                              p.ToString(columns_));
    }
  }

  std::set<ColId> select_visible = top_visible;
  if (top_group_by_.has_value()) {
    for (ColId g : top_group_by_->grouping) {
      if (top_visible.count(g) == 0) {
        return Status::Internal("top group-by column not visible: " +
                                columns_.name(g));
      }
    }
    for (const AggregateCall& a : top_group_by_->aggregates) {
      for (ColId arg : a.args) {
        if (top_visible.count(arg) == 0) {
          return Status::Internal("top aggregate argument not visible: " +
                                  columns_.name(arg));
        }
      }
    }
    select_visible = std::set<ColId>(top_group_by_->grouping.begin(),
                                     top_group_by_->grouping.end());
    for (const AggregateCall& a : top_group_by_->aggregates) {
      select_visible.insert(a.output);
    }
    std::set<ColId> having_visible = select_visible;
    for (const Predicate& p : top_group_by_->having) {
      if (!p.BoundBy(having_visible)) {
        return Status::Internal("top HAVING references a non-output column: " +
                                p.ToString(columns_));
      }
    }
  }
  for (ColId c : select_list_) {
    if (select_visible.count(c) == 0) {
      return Status::Internal("select list column not visible at top: " +
                              columns_.name(c));
    }
  }
  for (const OrderKey& key : order_by_) {
    if (select_visible.count(key.column) == 0) {
      return Status::Internal("ORDER BY column not visible at top: " +
                              columns_.name(key.column));
    }
  }
  if (select_list_.empty()) {
    return Status::Internal("empty select list");
  }
  return Status::OK();
}

std::string Query::ToString() const {
  std::string out;
  for (const AggView& v : views_) {
    out += "view " + v.name + ":\n  from [";
    for (size_t i = 0; i < v.spj.rels.size(); ++i) {
      if (i > 0) out += ", ";
      const RangeVar& rv = range_var(v.spj.rels[i]);
      out += catalog_->table(rv.table).name + " " + rv.alias;
    }
    out += "]\n";
    for (const Predicate& p : v.spj.predicates) {
      out += "  where " + p.ToString(columns_) + "\n";
    }
    out += "  " + v.group_by.ToString(columns_) + "\n";
  }
  out += "select [";
  for (size_t i = 0; i < select_list_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_.name(select_list_[i]);
  }
  out += "]\nfrom [";
  bool first = true;
  for (const AggView& v : views_) {
    if (!first) out += ", ";
    out += v.name;
    first = false;
  }
  for (int id : base_rels_) {
    if (!first) out += ", ";
    const RangeVar& rv = range_var(id);
    out += catalog_->table(rv.table).name + " " + rv.alias;
    first = false;
  }
  out += "]\n";
  for (const Predicate& p : predicates_) {
    out += "where " + p.ToString(columns_) + "\n";
  }
  if (top_group_by_.has_value()) {
    out += top_group_by_->ToString(columns_) + "\n";
  }
  return out;
}

}  // namespace aggview

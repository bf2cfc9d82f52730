#include "verify/enumerate.h"

#include <set>
#include <string>
#include <utility>

namespace aggview {

namespace {

/// Typed canonical label for row position `i` (keys and distinct pins).
Value TypedLabel(DataType type, int64_t i) {
  switch (type) {
    case DataType::kInt64:
      return Value::Int(i);
    case DataType::kDouble:
      return Value::Real(static_cast<double>(i));
    case DataType::kString:
      return Value::Str(std::string("k").append(std::to_string(i)));
  }
  return Value::Int(i);
}

/// Candidate values of one column of one table, given the row counts of the
/// already-enumerated (referenced) tables. Key and distinct-pin columns have
/// no candidates — their value is the row position.
struct CellDomain {
  bool positional = false;  // key or pin_distinct: value = TypedLabel(row)
  std::vector<Value> values;
};

std::vector<CellDomain> BuildDomains(const TableSkeleton& ts,
                                     const EnumerationBounds& bounds,
                                     const std::vector<int64_t>& rows_so_far,
                                     const SchemaSkeleton& skeleton) {
  std::vector<CellDomain> domains;
  domains.reserve(ts.columns.size());
  for (const SkeletonColumn& col : ts.columns) {
    CellDomain d;
    if (col.is_key || col.pin_distinct) {
      d.positional = true;
    } else if (!col.relevant) {
      d.values.push_back(col.pinned);
    } else if (col.fk_table >= 0) {
      int ref = skeleton.IndexOf(col.fk_table);
      int64_t ref_rows = rows_so_far[static_cast<size_t>(ref)];
      for (int64_t i = 0; i < ref_rows; ++i) {
        d.values.push_back(TypedLabel(
            skeleton.tables[static_cast<size_t>(ref)]
                .schema.column(skeleton.tables[static_cast<size_t>(ref)]
                                   .key_column)
                .type,
            i));
      }
      if (bounds.with_null || d.values.empty()) {
        d.values.push_back(Value::Null());
      }
    } else {
      d.values = col.domain;
      if (bounds.with_null && col.nullable) d.values.push_back(Value::Null());
    }
    domains.push_back(std::move(d));
  }
  return domains;
}

/// Size of the per-row value-tuple space (product of candidate counts).
int64_t TupleSpace(const std::vector<CellDomain>& domains) {
  int64_t n = 1;
  for (const CellDomain& d : domains) {
    if (!d.positional) n *= static_cast<int64_t>(d.values.size());
  }
  return n;
}

/// Decodes tuple index `t` into row `row_pos` of a table (mixed radix, first
/// column least significant).
Row DecodeRow(const std::vector<CellDomain>& domains, int64_t t,
              int64_t row_pos, const TableSkeleton& ts) {
  Row row;
  row.reserve(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    const CellDomain& d = domains[c];
    if (d.positional) {
      row.push_back(TypedLabel(ts.schema.column(static_cast<int>(c)).type,
                               row_pos));
    } else {
      int64_t size = static_cast<int64_t>(d.values.size());
      row.push_back(d.values[static_cast<size_t>(t % size)]);
      t /= size;
    }
  }
  return row;
}

bool TableSatisfiesUniqueKeys(const TableSkeleton& ts, const Table& table) {
  for (const std::vector<int>& uk : ts.unique_keys) {
    std::set<Row> seen;
    for (int64_t r = 0; r < table.row_count(); ++r) {
      Row key;
      key.reserve(uk.size());
      for (int c : uk) key.push_back(table.at(r, c));
      if (!seen.insert(std::move(key)).second) return false;
    }
  }
  return true;
}

}  // namespace

BoundedDatabase CloneDatabase(const SchemaSkeleton& skeleton,
                              const BoundedDatabase& db) {
  BoundedDatabase out;
  out.tables.reserve(db.tables.size());
  for (size_t i = 0; i < db.tables.size(); ++i) {
    auto copy = std::make_shared<Table>(skeleton.tables[i].schema);
    if (db.tables[i]) {
      copy->Reserve(db.tables[i]->row_count());
      for (int64_t r = 0; r < db.tables[i]->row_count(); ++r) {
        copy->AppendUnchecked(db.tables[i]->row(r));
      }
    }
    out.tables.push_back(std::move(copy));
  }
  return out;
}

bool SatisfiesUniqueKeys(const SchemaSkeleton& skeleton,
                         const BoundedDatabase& db) {
  for (size_t i = 0; i < skeleton.tables.size(); ++i) {
    if (!db.tables[i]) continue;
    if (!TableSatisfiesUniqueKeys(skeleton.tables[i], *db.tables[i])) {
      return false;
    }
  }
  return true;
}

Result<int64_t> ForEachBoundedDatabase(const SchemaSkeleton& skeleton,
                                       const EnumerationBounds& bounds,
                                       const DatabaseCallback& fn) {
  const size_t n = skeleton.tables.size();
  std::vector<int64_t> rows_so_far(n, 0);
  std::vector<std::shared_ptr<Table>> chosen(n);
  int64_t visited = 0;
  bool stop = false;
  Status failure = Status::OK();

  // Recurse over tables in skeleton (FK-topological) order; at each level,
  // pick a row count and a non-decreasing sequence of row-tuple indices.
  std::function<void(size_t)> descend = [&](size_t level) {
    if (stop) return;
    if (level == n) {
      BoundedDatabase db;
      db.tables = chosen;
      ++visited;
      if (bounds.max_databases > 0 && visited > bounds.max_databases) {
        failure = Status::OutOfRange(
            "prover: enumeration exceeded max_databases = " +
            std::to_string(bounds.max_databases));
        stop = true;
        return;
      }
      Result<bool> keep_going = fn(db);
      if (!keep_going.ok()) {
        failure = keep_going.status();
        stop = true;
      } else if (!*keep_going) {
        stop = true;
      }
      return;
    }

    const TableSkeleton& ts = skeleton.tables[level];
    std::vector<CellDomain> domains =
        BuildDomains(ts, bounds, rows_so_far, skeleton);
    int64_t space = TupleSpace(domains);
    if (space > bounds.max_row_tuples) {
      failure = Status::OutOfRange(
          "prover: row-tuple space of '" + ts.name + "' is " +
          std::to_string(space) + " (> max_row_tuples = " +
          std::to_string(bounds.max_row_tuples) + ")");
      stop = true;
      return;
    }

    std::vector<int64_t> tuples;
    std::function<void(int, int64_t)> choose = [&](int remaining,
                                                   int64_t start) {
      if (stop) return;
      if (remaining == 0) {
        auto table = std::make_shared<Table>(ts.schema);
        table->Reserve(static_cast<int64_t>(tuples.size()));
        for (size_t r = 0; r < tuples.size(); ++r) {
          table->AppendUnchecked(
              DecodeRow(domains, tuples[r], static_cast<int64_t>(r), ts));
        }
        if (!TableSatisfiesUniqueKeys(ts, *table)) return;
        chosen[level] = std::move(table);
        rows_so_far[level] = static_cast<int64_t>(tuples.size());
        descend(level + 1);
        return;
      }
      for (int64_t t = start; t < space && !stop; ++t) {
        tuples.push_back(t);
        choose(remaining - 1, t);
        tuples.pop_back();
      }
    };
    for (int r = 0; r <= bounds.max_rows && !stop; ++r) {
      choose(r, 0);
    }
  };

  descend(0);
  if (!failure.ok()) return failure;
  return visited;
}

}  // namespace aggview

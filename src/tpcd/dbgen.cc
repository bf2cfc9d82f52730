#include "tpcd/dbgen.h"

#include "common/random.h"
#include "storage/table.h"

namespace aggview {

namespace {

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kBrands[] = {"Brand#11", "Brand#12", "Brand#21", "Brand#22",
                         "Brand#31", "Brand#32", "Brand#41", "Brand#51"};
const char* kTypes[] = {"ECONOMY ANODIZED STEEL", "STANDARD BRUSHED BRASS",
                        "PROMO POLISHED COPPER",  "SMALL PLATED NICKEL",
                        "MEDIUM BURNISHED TIN",   "LARGE BRUSHED STEEL"};
const char* kStatuses[] = {"O", "F", "P"};

/// ~7 years of day indexes, like the benchmark's 1992-1998 window.
constexpr int64_t kDateRange = 2556;

int64_t FkDraw(Rng* rng, int64_t n, double skew) {
  if (skew <= 0.0) return rng->Uniform(1, n);
  return rng->Zipf(n, skew);
}

void Finalize(Catalog* catalog, TableId id, std::shared_ptr<Table> data) {
  TableDef& def = catalog->mutable_table(id);
  def.stats = ComputeStats(*data);
  def.data = std::move(data);
}

}  // namespace

Status GenerateTpcdData(Catalog* catalog, const TpcdTables& tables,
                        const DbgenOptions& options) {
  Rng rng(options.seed);

  // region
  {
    auto data = std::make_shared<Table>(catalog->table(tables.region).schema);
    data->Reserve(options.regions());
    const char* names[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"};
    for (int64_t i = 1; i <= options.regions(); ++i) {
      data->AppendUnchecked(
          {Value::Int(i), Value::Str(names[(i - 1) % 5])});
    }
    Finalize(catalog, tables.region, std::move(data));
  }

  // nation
  {
    auto data = std::make_shared<Table>(catalog->table(tables.nation).schema);
    data->Reserve(options.nations());
    for (int64_t i = 1; i <= options.nations(); ++i) {
      data->AppendUnchecked({Value::Int(i), Value::Str("NATION_" + std::to_string(i)),
                             Value::Int(1 + (i - 1) % options.regions())});
    }
    Finalize(catalog, tables.nation, std::move(data));
  }

  // supplier
  {
    auto data = std::make_shared<Table>(catalog->table(tables.supplier).schema);
    data->Reserve(options.suppliers());
    for (int64_t i = 1; i <= options.suppliers(); ++i) {
      data->AppendUnchecked({Value::Int(i),
                             Value::Str("Supplier#" + std::to_string(i)),
                             Value::Int(rng.Uniform(1, options.nations())),
                             Value::Real(rng.UniformReal(-999.99, 9999.99))});
    }
    Finalize(catalog, tables.supplier, std::move(data));
  }

  // customer
  {
    auto data = std::make_shared<Table>(catalog->table(tables.customer).schema);
    data->Reserve(options.customers());
    for (int64_t i = 1; i <= options.customers(); ++i) {
      data->AppendUnchecked({Value::Int(i),
                             Value::Str("Customer#" + std::to_string(i)),
                             Value::Int(rng.Uniform(1, options.nations())),
                             Value::Real(rng.UniformReal(-999.99, 9999.99)),
                             Value::Str(kSegments[rng.Uniform(0, 4)])});
    }
    Finalize(catalog, tables.customer, std::move(data));
  }

  // part
  {
    auto data = std::make_shared<Table>(catalog->table(tables.part).schema);
    data->Reserve(options.parts());
    for (int64_t i = 1; i <= options.parts(); ++i) {
      data->AppendUnchecked(
          {Value::Int(i), Value::Str("Part#" + std::to_string(i)),
           Value::Str(kBrands[rng.Uniform(0, 7)]),
           Value::Str(kTypes[rng.Uniform(0, 5)]),
           Value::Int(rng.Uniform(1, 50)),
           Value::Real(900.0 + static_cast<double>(i % 1000))});
    }
    Finalize(catalog, tables.part, std::move(data));
  }

  // partsupp
  {
    auto data = std::make_shared<Table>(catalog->table(tables.partsupp).schema);
    data->Reserve(options.parts() * options.partsupp_per_part());
    int64_t ns = options.suppliers();
    for (int64_t p = 1; p <= options.parts(); ++p) {
      for (int64_t k = 0; k < options.partsupp_per_part(); ++k) {
        int64_t s = 1 + (p + k * (ns / 4 + 1)) % ns;
        data->AppendUnchecked({Value::Int(p), Value::Int(s),
                               Value::Int(rng.Uniform(1, 9999)),
                               Value::Real(rng.UniformReal(1.0, 1000.0))});
      }
    }
    Finalize(catalog, tables.partsupp, std::move(data));
  }

  // orders + lineitem
  {
    auto orders = std::make_shared<Table>(catalog->table(tables.orders).schema);
    auto lineitem =
        std::make_shared<Table>(catalog->table(tables.lineitem).schema);
    orders->Reserve(options.orders());
    // Lines per order are uniform in [1, max]; reserve the upper bound. A
    // reservation the load outgrows doubles every column, while capacity
    // that is never written never becomes resident.
    lineitem->Reserve(options.orders() * options.max_lines_per_order());
    for (int64_t o = 1; o <= options.orders(); ++o) {
      int64_t orderdate = rng.Uniform(0, kDateRange - 1);
      int64_t lines = rng.Uniform(1, options.max_lines_per_order());
      double total = 0.0;
      for (int64_t l = 1; l <= lines; ++l) {
        int64_t part = FkDraw(&rng, options.parts(), options.skew);
        int64_t supp = FkDraw(&rng, options.suppliers(), options.skew);
        double qty = static_cast<double>(rng.Uniform(1, 50));
        double price = qty * (900.0 + static_cast<double>(part % 1000)) / 10.0;
        double discount = static_cast<double>(rng.Uniform(0, 10)) / 100.0;
        int64_t shipdate = std::min<int64_t>(orderdate + rng.Uniform(1, 120),
                                             kDateRange - 1);
        total += price * (1.0 - discount);
        lineitem->AppendUnchecked({Value::Int(o), Value::Int(l),
                                   Value::Int(part), Value::Int(supp),
                                   Value::Real(qty), Value::Real(price),
                                   Value::Real(discount), Value::Int(shipdate)});
      }
      orders->AppendUnchecked(
          {Value::Int(o), Value::Int(FkDraw(&rng, options.customers(), options.skew)),
           Value::Str(kStatuses[rng.Uniform(0, 2)]), Value::Real(total),
           Value::Int(orderdate), Value::Int(rng.Uniform(0, 1))});
    }
    Finalize(catalog, tables.orders, std::move(orders));
    Finalize(catalog, tables.lineitem, std::move(lineitem));
  }

  return Status::OK();
}

Result<EmpDeptTables> CreateEmpDeptSchema(Catalog* catalog) {
  EmpDeptTables t;
  {
    TableDef def;
    def.name = "emp";
    def.schema = Schema({{"eno", DataType::kInt64},
                         {"dno", DataType::kInt64},
                         {"sal", DataType::kDouble},
                         {"age", DataType::kInt64}});
    def.primary_key = {0};
    AGGVIEW_ASSIGN_OR_RETURN(t.emp, catalog->AddTable(std::move(def)));
  }
  {
    TableDef def;
    def.name = "dept";
    def.schema = Schema({{"dno", DataType::kInt64},
                         {"budget", DataType::kDouble}});
    def.primary_key = {0};
    AGGVIEW_ASSIGN_OR_RETURN(t.dept, catalog->AddTable(std::move(def)));
  }
  ForeignKey fk;
  fk.referencing_table = t.emp;
  fk.referencing_columns = {1};
  fk.referenced_table = t.dept;
  fk.referenced_columns = {0};
  AGGVIEW_RETURN_NOT_OK(catalog->AddForeignKey(std::move(fk)));
  return t;
}

Status GenerateEmpDeptData(Catalog* catalog, const EmpDeptTables& tables,
                           const EmpDeptOptions& options) {
  Rng rng(options.seed);

  auto dept = std::make_shared<Table>(catalog->table(tables.dept).schema);
  dept->Reserve(options.num_departments);
  for (int64_t d = 1; d <= options.num_departments; ++d) {
    double budget = rng.Chance(options.budget_below_1m_fraction)
                        ? rng.UniformReal(100'000.0, 999'999.0)
                        : rng.UniformReal(1'000'000.0, 5'000'000.0);
    dept->AppendUnchecked({Value::Int(d), Value::Real(budget)});
  }
  Finalize(catalog, tables.dept, std::move(dept));

  auto emp = std::make_shared<Table>(catalog->table(tables.emp).schema);
  emp->Reserve(options.num_employees);
  for (int64_t e = 1; e <= options.num_employees; ++e) {
    int64_t age = rng.Chance(options.young_fraction) ? rng.Uniform(18, 21)
                                                     : rng.Uniform(22, 65);
    emp->AppendUnchecked({Value::Int(e),
                          Value::Int(rng.Uniform(1, options.num_departments)),
                          Value::Real(rng.UniformReal(20'000.0, 200'000.0)),
                          Value::Int(age)});
  }
  Finalize(catalog, tables.emp, std::move(emp));
  return Status::OK();
}

}  // namespace aggview

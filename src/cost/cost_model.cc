#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "storage/io_accountant.h"

namespace aggview {

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kBlockNestedLoop:
      return "bnl";
    case JoinAlgo::kHash:
      return "hash";
  }
  return "?";
}

double CostModel::Pages(double rows, int64_t row_width) {
  if (rows <= 0.0) return 0.0;
  double per_page = static_cast<double>(RowsPerPage(row_width));
  return std::max(1.0, std::ceil(rows / per_page));
}

double CostModel::ScanCost(double pages) { return pages; }

double CostModel::BnlLocalCost(double outer_pages, double inner_pages) {
  double block = static_cast<double>(kBufferPages - 2);
  double passes = std::max(1.0, std::ceil(outer_pages / block));
  return outer_pages + passes * inner_pages;
}

double CostModel::HashJoinLocalCost(double left_pages, double right_pages) {
  double cost = left_pages + right_pages;
  double smaller = std::min(left_pages, right_pages);
  if (smaller > static_cast<double>(kBufferPages)) {
    cost += 2.0 * (left_pages + right_pages);
  }
  return cost;
}

double CostModel::SortCost(double pages) {
  double b = static_cast<double>(kBufferPages);
  if (pages <= b) return 0.0;
  double runs = std::ceil(pages / b);
  double passes = std::ceil(std::log(runs) / std::log(b - 1.0));
  passes = std::max(passes, 1.0);
  return 2.0 * pages * passes;
}

double CostModel::HashAggLocalCost(double input_pages) {
  if (input_pages <= static_cast<double>(kBufferPages)) return 0.0;
  return 2.0 * input_pages;
}

}  // namespace aggview

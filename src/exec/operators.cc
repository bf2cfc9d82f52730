#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "analysis/dataflow.h"
#include "cost/cost_model.h"
#include "exec/thread_pool.h"
#include "obs/runtime_stats.h"

namespace aggview {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pages occupied by `rows` rows whose layout has `width` bytes.
double ActualPages(int64_t rows, int64_t width) {
  return CostModel::Pages(static_cast<double>(rows), width);
}

/// Concatenated layout of two inputs.
RowLayout ConcatLayouts(const RowLayout& a, const RowLayout& b) {
  std::vector<ColId> cols = a.columns();
  for (ColId c : b.columns()) cols.push_back(c);
  return RowLayout(cols);
}

/// Writes a|b into `out` (assumed empty), reusing its storage.
void ConcatInto(const Row& a, const Row& b, Row* out) {
  out->reserve(a.size() + b.size());
  out->insert(out->end(), a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}

/// Drains `op` batch-by-batch into `rows` (Open-time materialization).
Status Drain(Operator* op, int batch_size, std::vector<Row>* rows) {
  RowBatch batch(batch_size);
  while (true) {
    auto more = op->Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    for (int i = 0; i < batch.size(); ++i) {
      rows->push_back(std::move(batch.row(i)));
    }
  }
}

}  // namespace

// ----------------------------------------------------------------- Operator

Operator::~Operator() = default;

Status Operator::Open() {
  if (stats_ == nullptr) return OpenImpl();
  int64_t t0 = NowNs();
  Status s = OpenImpl();
  stats_->open_ns += NowNs() - t0;
  return s;
}

Result<bool> Operator::Next(RowBatch* out) {
  out->Clear();
  if (stats_ == nullptr && verify_ == nullptr) return NextBatchImpl(out);
  int64_t t0 = stats_ != nullptr ? NowNs() : 0;
  Result<bool> r = NextBatchImpl(out);
  if (stats_ != nullptr) {
    stats_->next_ns += NowNs() - t0;
    ++stats_->next_calls;
    if (r.ok() && *r) {
      ++stats_->batches_produced;
      stats_->rows_produced += out->size();
    }
  }
  if (verify_ != nullptr && r.ok() && *r) {
    AGGVIEW_RETURN_NOT_OK(verify_->CheckBatch(verify_node_, layout_, *out));
  }
  return r;
}

void Operator::Close() { CloseImpl(); }

void Operator::InitWorkerClone(const Operator& primary) {
  layout_ = primary.layout_;
  batch_size_ = primary.batch_size_;
  exec_ = primary.exec_;
  verify_ = primary.verify_;
  verify_node_ = primary.verify_node_;
  stats_ = exec_->WorkerStats(primary.stats_);
}

void Operator::ChargeRead(IoAccountant* io, int64_t pages) {
  if (io != nullptr) io->ChargeRead(pages);
  if (stats_ != nullptr) stats_->pages_charged += pages;
}

void Operator::ChargeWrite(IoAccountant* io, int64_t pages) {
  if (io != nullptr) io->ChargeWrite(pages);
  if (stats_ != nullptr) stats_->pages_charged += pages;
}

void Operator::CountInput(int64_t rows) {
  if (stats_ != nullptr) stats_->input_rows += rows;
}

// -------------------------------------------------- morsel-parallel driving

int MorselWorkers(const Operator& pipeline) {
  ExecRuntime* rt = pipeline.exec_runtime();
  if (rt == nullptr || !rt->parallel()) return 1;
  if (!pipeline.CanRunMorselParallel()) return 1;
  return rt->threads();
}

Status RunMorselParallel(Operator* primary, int workers,
                         const std::function<Status(int, Operator*)>& consume) {
  ExecRuntime* rt = primary->exec_runtime();
  if (workers <= 1 || rt == nullptr || !primary->CanRunMorselParallel()) {
    return consume(0, primary);
  }
  std::vector<OperatorPtr> clones;
  clones.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    clones.push_back(primary->CloneForWorker());
  }
  std::vector<Status> status(static_cast<size_t>(workers), Status::OK());
  rt->pool()->ParallelFor(workers, [&](int w) {
    Operator* instance =
        w == 0 ? primary : clones[static_cast<size_t>(w - 1)].get();
    status[static_cast<size_t>(w)] = consume(w, instance);
  });
  // Fold every clone's counters even on error, so they stay consistent. A
  // failed instance never reached end of stream, so no end-of-stream charge
  // fired for its pipeline. The first worker's error (by index) wins,
  // deterministically.
  rt->FoldWorkerStats();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- TableScan

TableScanOp::TableScanOp(const Table* table, RowLayout table_layout,
                         std::vector<Predicate> filter, RowLayout output,
                         const ColumnCatalog* columns, IoAccountant* io,
                         bool charge_io, ColId rowid_col)
    : table_(table),
      table_layout_(std::move(table_layout)),
      filter_(std::move(filter)),
      columns_(columns),
      io_(io),
      charge_io_(charge_io) {
  layout_ = std::move(output);
  for (ColId c : layout_.columns()) {
    if (rowid_col != kInvalidColId && c == rowid_col) {
      projection_.push_back(kRowIdIndex);
    } else {
      projection_.push_back(table_layout_.IndexOf(c));
    }
  }
}

TableScanOp::TableScanOp(const TableScanOp& primary, WorkerCloneTag)
    : table_(primary.table_),
      table_layout_(primary.table_layout_),
      filter_(primary.filter_),
      bound_filter_(primary.bound_filter_),
      columns_(primary.columns_),
      projection_(primary.projection_),
      io_(primary.io_),
      charge_io_(false),  // the primary charged the table's pages at Open
      morsels_(primary.morsels_) {
  InitWorkerClone(primary);
}

OperatorPtr TableScanOp::CloneForWorker() {
  return OperatorPtr(new TableScanOp(*this, WorkerCloneTag{}));
}

Status TableScanOp::OpenImpl() {
  morsels_ = std::make_shared<MorselDispenser>();
  if (exec_ != nullptr) morsels_->morsel_rows = exec_->morsel_rows();
  pos_ = pos_end_ = 0;
  if (charge_io_) ChargeRead(io_, table_->page_count());
  for (int idx : projection_) {
    if (idx < 0 && idx != kRowIdIndex) {
      return Status::Internal("scan projects a non-table column");
    }
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_filter_,
      BoundConjunction::Bind(filter_, table_layout_, *columns_, "scan"));
  return Status::OK();
}

Result<bool> TableScanOp::NextBatchImpl(RowBatch* out) {
  const int64_t n = table_->row_count();
  int64_t examined = 0;
  while (!out->full()) {
    if (pos_ >= pos_end_) {
      // Claim the next morsel. A lone instance claims every morsel in
      // ascending order — identical row order to the pre-morsel scan.
      int64_t start = morsels_->next.fetch_add(morsels_->morsel_rows,
                                               std::memory_order_relaxed);
      if (start >= n) break;
      pos_ = start;
      pos_end_ = std::min(n, start + morsels_->morsel_rows);
    }
    while (pos_ < pos_end_ && !out->full()) {
      int64_t rowid = pos_;
      const Row& row = table_->row(pos_++);
      ++examined;
      if (!bound_filter_.Eval(row)) continue;
      Row& dst = out->AppendRow();
      dst.reserve(projection_.size());
      for (int idx : projection_) {
        if (idx == kRowIdIndex) {
          dst.push_back(Value::Int(rowid));
        } else {
          dst.push_back(row[static_cast<size_t>(idx)]);
        }
      }
    }
  }
  CountInput(examined);
  return !out->empty();
}

// ------------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child, std::vector<Predicate> preds,
                   const ColumnCatalog* columns)
    : child_(std::move(child)), preds_(std::move(preds)), columns_(columns) {
  layout_ = child_->layout();
}

FilterOp::FilterOp(const FilterOp& primary, OperatorPtr child)
    : child_(std::move(child)),
      preds_(primary.preds_),
      bound_preds_(primary.bound_preds_),
      columns_(primary.columns_) {
  InitWorkerClone(primary);
}

OperatorPtr FilterOp::CloneForWorker() {
  return OperatorPtr(new FilterOp(*this, child_->CloneForWorker()));
}

Status FilterOp::OpenImpl() {
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_preds_,
      BoundConjunction::Bind(preds_, layout_, *columns_, "filter"));
  return child_->Open();
}

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    auto more = child_->Next(out);
    if (!more.ok()) return more.status();
    if (!*more) return false;
    CountInput(out->size());
    // Selection compaction: swap survivors to the front (buffer pointer
    // swaps, no row copies) and truncate.
    int kept = 0;
    for (int i = 0; i < out->size(); ++i) {
      Row& row = out->row(i);
      if (bound_preds_.Eval(row)) {
        if (kept != i) out->row(kept).swap(row);
        ++kept;
      }
    }
    out->Truncate(kept);
    if (!out->empty()) return true;  // else the whole batch was filtered out
  }
}

void FilterOp::CloseImpl() { child_->Close(); }

// ------------------------------------------------------------------ Project

ProjectOp::ProjectOp(OperatorPtr child, RowLayout output)
    : child_(std::move(child)) {
  layout_ = std::move(output);
  for (ColId c : layout_.columns()) {
    projection_.push_back(child_->layout().IndexOf(c));
  }
}

ProjectOp::ProjectOp(const ProjectOp& primary, OperatorPtr child)
    : child_(std::move(child)), projection_(primary.projection_) {
  InitWorkerClone(primary);
}

OperatorPtr ProjectOp::CloneForWorker() {
  return OperatorPtr(new ProjectOp(*this, child_->CloneForWorker()));
}

Status ProjectOp::OpenImpl() {
  for (int idx : projection_) {
    if (idx < 0) return Status::Internal("projection references missing column");
  }
  return child_->Open();
}

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  auto more = child_->Next(out);
  if (!more.ok()) return more.status();
  if (!*more) return false;
  CountInput(out->size());
  // Rewrite each row in place: build the projection in the reused scratch
  // buffer (projection may duplicate columns, so the row itself cannot be
  // the destination), then swap buffers — no allocation in steady state.
  for (int i = 0; i < out->size(); ++i) {
    Row& row = out->row(i);
    scratch_.clear();
    scratch_.reserve(projection_.size());
    for (int idx : projection_) {
      scratch_.push_back(row[static_cast<size_t>(idx)]);
    }
    row.swap(scratch_);
  }
  return true;
}

void ProjectOp::CloseImpl() { child_->Close(); }

// --------------------------------------------------------------------- Join

namespace {

size_t HashKey(const Row& row, const std::vector<int>& idx) {
  size_t h = 1469598103934665603ull;
  for (int i : idx) {
    h ^= row[static_cast<size_t>(i)].Hash();
    h *= 1099511628211ull;
  }
  return h;
}

/// True when any join-key column of `row` is NULL. SQL equality is never
/// true on NULL, so such rows cannot match under any join algorithm.
bool HasNullKey(const Row& row, const std::vector<int>& idx) {
  for (int i : idx) {
    if (row[static_cast<size_t>(i)].is_null()) return true;
  }
  return false;
}

bool KeysEqual(const Row& a, const std::vector<int>& ai, const Row& b,
               const std::vector<int>& bi) {
  for (size_t k = 0; k < ai.size(); ++k) {
    const Value& av = a[static_cast<size_t>(ai[k])];
    const Value& bv = b[static_cast<size_t>(bi[k])];
    // SQL: NULL = NULL is not true, even though the grouping/sorting
    // convention (Value::Compare) treats NULLs as equal.
    if (av.is_null() || bv.is_null()) return false;
    if (av != bv) return false;
  }
  return true;
}

}  // namespace

JoinOp::JoinOp(OperatorPtr left, OperatorPtr right,
               std::vector<Predicate> preds, const ColumnCatalog* columns,
               IoAccountant* io, JoinCharge charge, bool left_outer,
               bool hold_left)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer),
      hold_left_(hold_left && !left_outer),
      charge_(charge),
      columns_(columns),
      io_(io) {
  const RowLayout& l = left_->layout();
  const RowLayout& r = right_->layout();
  layout_ = ConcatLayouts(l, r);
  left_width_ = l.RowWidth(*columns_);
  right_width_ = r.RowWidth(*columns_);
  JoinPredicates split = SplitJoinPredicates(preds, l, r);
  residual_ = std::move(split.residual);
  for (const auto& [lc, rc] : split.keys) {
    left_key_idx_.push_back(l.IndexOf(lc));
    right_key_idx_.push_back(r.IndexOf(rc));
  }
}

JoinOp::JoinOp(const JoinOp& primary, OperatorPtr streamed)
    : left_outer_(primary.left_outer_),
      hold_left_(primary.hold_left_),
      charge_(primary.charge_),
      residual_(primary.residual_),
      bound_residual_(primary.bound_residual_),
      columns_(primary.columns_),
      io_(primary.io_),
      left_width_(primary.left_width_),
      right_width_(primary.right_width_),
      left_key_idx_(primary.left_key_idx_),
      right_key_idx_(primary.right_key_idx_),
      build_(primary.build_) {
  // The held side was drained once, by the primary.
  (hold_left_ ? right_ : left_) = std::move(streamed);
  InitWorkerClone(primary);
  probe_ = RowBatch(batch_size_);
  // Runs on the driver before the region starts: one more instance must
  // finish its probe before the join charges.
  ++build_->live_probes;
}

OperatorPtr JoinOp::CloneForWorker() {
  return OperatorPtr(new JoinOp(*this, streamed()->CloneForWorker()));
}

Status JoinOp::BuildSerial() {
  build_->parts.resize(1);
  std::vector<Row> rows;
  AGGVIEW_RETURN_NOT_OK(Drain(held(), batch_size_, &rows));
  build_->drained_rows = static_cast<int64_t>(rows.size());
  const std::vector<int>& key_idx = held_key_idx();
  for (Row& r : rows) {
    // A NULL-keyed held row can never be matched; keep it out of the table.
    if (HasNullKey(r, key_idx)) continue;
    size_t h = HashKey(r, key_idx);
    build_->parts[0].emplace(h, std::move(r));
  }
  return Status::OK();
}

Status JoinOp::BuildParallel(int workers) {
  // Phase 1: worker pipelines drain the held side morsel-parallel into
  // thread-local (hash, row) spools; NULL-keyed rows are dropped here (they
  // can never match) but still counted toward the drained cardinality.
  struct Spool {
    std::vector<std::pair<size_t, Row>> rows;
    int64_t drained = 0;
  };
  std::vector<Spool> spools(static_cast<size_t>(workers));
  const std::vector<int>& key_idx = held_key_idx();
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      held(), workers, [&](int w, Operator* src) -> Status {
        Spool& spool = spools[static_cast<size_t>(w)];
        RowBatch batch(batch_size_);
        while (true) {
          auto more = src->Next(&batch);
          if (!more.ok()) return more.status();
          if (!*more) return Status::OK();
          spool.drained += batch.size();
          for (int i = 0; i < batch.size(); ++i) {
            Row& row = batch.row(i);
            if (HasNullKey(row, key_idx)) continue;
            size_t h = HashKey(row, key_idx);
            spool.rows.emplace_back(h, std::move(row));
          }
        }
      }));
  build_->drained_rows = 0;
  for (const Spool& s : spools) build_->drained_rows += s.drained;

  // Phase 2: partition by hash modulus, one hash table per worker. Each
  // partition task scans every spool but moves only the rows whose hash
  // lands in its partition — disjoint elements, so no synchronization.
  const size_t parts = static_cast<size_t>(workers);
  build_->parts.resize(parts);
  exec_->pool()->ParallelFor(workers, [&](int p) {
    auto& part = build_->parts[static_cast<size_t>(p)];
    for (Spool& s : spools) {
      for (auto& [h, row] : s.rows) {
        if (h % parts == static_cast<size_t>(p)) part.emplace(h, std::move(row));
      }
    }
  });
  return Status::OK();
}

Status JoinOp::OpenImpl() {
  const std::string name =
      charge_.block_nested_loop ? "nested-loop join" : "hash join";
  // SplitJoinPredicates keys only columns both layouts contain, so every
  // key index is valid; a hash join needs at least one.
  if (!charge_.block_nested_loop && left_key_idx_.empty()) {
    return Status::Internal(name +
                            ": no equi-join conjunct between its inputs");
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_residual_,
      BoundConjunction::Bind(residual_, layout_, *columns_, name.c_str()));
  AGGVIEW_RETURN_NOT_OK(left_->Open());
  AGGVIEW_RETURN_NOT_OK(right_->Open());
  build_ = std::make_shared<JoinBuildTable>();
  int workers = MorselWorkers(*held());
  if (workers > 1) {
    AGGVIEW_RETURN_NOT_OK(BuildParallel(workers));
  } else {
    AGGVIEW_RETURN_NOT_OK(BuildSerial());
  }
  CountInput(build_->drained_rows);
  build_->pages = ActualPages(build_->drained_rows,
                              hold_left_ ? left_width_ : right_width_);
  if (stats_ != nullptr) {
    stats_->hash_build_rows = build_->rows();
  }
  probe_ = RowBatch(batch_size_);
  probe_pos_ = 0;
  current_ = nullptr;
  streamed_rows_ = 0;
  probe_done_ = false;
  return Status::OK();
}

void JoinOp::FinishProbe() {
  if (probe_done_) return;
  probe_done_ = true;
  build_->probe_rows += streamed_rows_;
  // Every instance adds its rows before it leaves, so the one that takes
  // the live count to zero sees the full total.
  if (--build_->live_probes == 0) ChargeAtProbeEos(build_->probe_rows);
}

void JoinOp::ChargeAtProbeEos(int64_t streamed_rows) {
  // Same formulas as the cost model, on actual sizes. In a parallel probe
  // this runs once, in the last instance to finish, on every instance's
  // streamed rows summed — so the charge is byte-identical to the serial
  // engine's.
  double streamed_pages =
      ActualPages(streamed_rows, hold_left_ ? right_width_ : left_width_);
  double lp = hold_left_ ? build_->pages : streamed_pages;
  double rp = hold_left_ ? streamed_pages : build_->pages;
  if (charge_.block_nested_loop) {
    if (charge_.materialize_inner) ChargeWrite(io_, static_cast<int64_t>(rp));
    double per_pass = charge_.inner_pages_per_pass > 0.0
                          ? charge_.inner_pages_per_pass
                          : rp;
    ChargeRead(io_,
               static_cast<int64_t>(CostModel::BnlLocalCost(lp, per_pass)));
    return;
  }
  ChargeRead(io_, static_cast<int64_t>(lp + rp));
  double spill = CostModel::HashJoinLocalCost(lp, rp) - (lp + rp);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
  }
}

Result<bool> JoinOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    // Emit the pending matches of the current streamed row, then its outer
    // padding if nothing matched. current_ points into probe_, which stays
    // untouched until every pending emission has drained.
    if (current_ != nullptr) {
      while (match_pos_ < matches_.size()) {
        if (out->full()) return true;
        Row& dst = out->AppendRow();
        const Row& held_row = *matches_[match_pos_++];
        if (hold_left_) {
          ConcatInto(held_row, *current_, &dst);
        } else {
          ConcatInto(*current_, held_row, &dst);
        }
        if (bound_residual_.Eval(dst)) {
          emitted_for_current_ = true;
        } else {
          out->PopRow();
        }
      }
      if (left_outer_ && !emitted_for_current_ && !padded_for_current_) {
        if (out->full()) return true;
        padded_for_current_ = true;
        Row& dst = out->AppendRow();
        dst = *current_;
        dst.resize(static_cast<size_t>(layout_.size()), Value::Null());
      }
      current_ = nullptr;
    }
    // Advance to the next streamed row, pulling a fresh batch when this one
    // is spent; one virtual dispatch brings in batch_size_ streamed rows.
    if (probe_pos_ >= probe_.size()) {
      auto more = streamed()->Next(&probe_);
      if (!more.ok()) return more.status();
      if (!*more) {
        FinishProbe();
        return !out->empty();
      }
      streamed_rows_ += probe_.size();
      CountInput(probe_.size());
      probe_pos_ = 0;
    }
    current_ = &probe_.row(probe_pos_++);
    emitted_for_current_ = false;
    padded_for_current_ = false;
    matches_.clear();
    match_pos_ = 0;
    // SQL: a NULL key matches nothing (in outer mode the row still surfaces
    // as a padded row via the emission branch above).
    const std::vector<int>& key_idx = streamed_key_idx();
    if (HasNullKey(*current_, key_idx)) continue;
    if (stats_ != nullptr) ++stats_->hash_probes;
    size_t h = HashKey(*current_, key_idx);
    const auto& part = build_->parts[h % build_->parts.size()];
    auto [begin, end] = part.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      if (KeysEqual(*current_, key_idx, it->second, held_key_idx())) {
        matches_.push_back(&it->second);
      }
    }
  }
}

void JoinOp::CloseImpl() {
  if (left_ != nullptr) left_->Close();
  if (right_ != nullptr) right_->Close();
  build_.reset();
}

// --------------------------------------------------------------------- Sort

SortOp::SortOp(OperatorPtr child, std::vector<OrderKey> keys,
               const ColumnCatalog* columns, IoAccountant* io)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      columns_(columns),
      io_(io) {
  layout_ = child_->layout();
  for (const OrderKey& key : keys_) {
    key_idx_.push_back(layout_.IndexOf(key.column));
  }
}

Status SortOp::OpenImpl() {
  for (int idx : key_idx_) {
    if (idx < 0) return Status::Internal("sort key column missing from input");
  }
  AGGVIEW_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  AGGVIEW_RETURN_NOT_OK(Drain(child_.get(), batch_size_, &rows_));
  CountInput(static_cast<int64_t>(rows_.size()));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (size_t k = 0; k < keys_.size(); ++k) {
                       size_t i = static_cast<size_t>(key_idx_[k]);
                       int c = a[i].Compare(b[i]);
                       if (c != 0) return keys_[k].descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  double pages = ActualPages(static_cast<int64_t>(rows_.size()),
                             layout_.RowWidth(*columns_));
  double sort_io = CostModel::SortCost(pages);
  ChargeWrite(io_, static_cast<int64_t>(sort_io / 2.0));
  ChargeRead(io_, static_cast<int64_t>(sort_io / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(sort_io / 2.0) * 2;
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < rows_.size() && !out->full()) {
    out->AppendRow() = rows_[pos_++];
  }
  return !out->empty();
}

void SortOp::CloseImpl() {
  child_->Close();
  rows_.clear();
}

// ------------------------------------------------------------ HashAggregate

HashAggregateOp::HashAggregateOp(OperatorPtr child, GroupBySpec spec,
                                 const ColumnCatalog* columns,
                                 IoAccountant* io)
    : child_(std::move(child)),
      spec_(std::move(spec)),
      columns_(columns),
      io_(io) {
  layout_ = RowLayout(spec_.OutputColumns());
}

void HashAggregateOp::GroupTable::MigrateToGeneric() {
  rows.reserve(ints.size() + 1);
  for (auto& [k, g] : ints) rows.emplace(Row{Value::Int(k)}, std::move(g));
  if (null_group.has_value()) {
    rows.emplace(Row{Value::Null()}, std::move(*null_group));
  }
  ints.clear();
  null_group.reset();
  int_lane = false;
}

int64_t HashAggregateOp::GroupTable::size() const {
  return static_cast<int64_t>(ints.size() + rows.size()) +
         (null_group.has_value() ? 1 : 0);
}

HashAggregateOp::Group HashAggregateOp::NewGroup() const {
  Group g;
  g.accs.reserve(spec_.aggregates.size());
  for (const AggregateCall& a : spec_.aggregates) g.accs.emplace_back(a.kind);
  return g;
}

HashAggregateOp::Group& HashAggregateOp::FindGroup(
    const Row& row, const std::vector<int>& group_idx, GroupTable* table,
    Row* key) const {
  if (table->int_lane) {
    const Value& k = row[static_cast<size_t>(group_idx[0])];
    if (k.is_int()) {
      auto [it, inserted] = table->ints.try_emplace(k.AsInt());
      if (inserted) it->second = NewGroup();
      return it->second;
    }
    if (k.is_null()) {
      if (!table->null_group.has_value()) table->null_group = NewGroup();
      return *table->null_group;
    }
    table->MigrateToGeneric();
  }
  key->clear();
  for (int idx : group_idx) key->push_back(row[static_cast<size_t>(idx)]);
  auto it = table->rows.find(*key);
  if (it == table->rows.end()) it = table->rows.emplace(*key, NewGroup()).first;
  return it->second;
}

Status HashAggregateOp::Accumulate(Operator* src,
                                   const std::vector<int>& group_idx,
                                   const std::vector<std::vector<int>>& arg_idx,
                                   GroupTable* table, int64_t* input_rows) {
  // A whole input batch is accumulated per child dispatch; the group key
  // buffer is reused across rows. In a parallel drain this runs once per
  // worker against a thread-local table and must not touch the operator's
  // shared stats block — the caller counts the summed input.
  RowBatch batch(batch_size_);
  Row key;
  while (true) {
    auto more = src->Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    *input_rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      Group& g = FindGroup(row, group_idx, table, &key);
      for (size_t a = 0; a < arg_idx.size(); ++a) {
        const std::vector<int>& idxs = arg_idx[a];
        switch (idxs.size()) {
          case 0:
            g.accs[a].Add0();
            break;
          case 1:
            g.accs[a].Add1(row[static_cast<size_t>(idxs[0])]);
            break;
          default:
            g.accs[a].Add2(row[static_cast<size_t>(idxs[0])],
                           row[static_cast<size_t>(idxs[1])]);
            break;
        }
      }
    }
  }
}

void HashAggregateOp::MergePartials(std::vector<GroupTable>* partials) {
  // Lanes must agree before groups can meet: Int(3) in one partial's lane
  // and Real(3.0) in another's generic map are the same group.
  bool generic = std::any_of(partials->begin(), partials->end(),
                             [](const GroupTable& t) { return !t.int_lane; });
  if (generic) {
    for (GroupTable& t : *partials) {
      if (t.int_lane) t.MigrateToGeneric();
    }
  }
  auto merge_group = [](Group* into, const Group& from) {
    for (size_t a = 0; a < from.accs.size(); ++a) {
      into->accs[a].Merge(from.accs[a]);
    }
  };
  auto merge_map = [&](auto* into, auto* from) {
    for (auto& [key, group] : *from) {
      auto [it, inserted] = into->try_emplace(key, std::move(group));
      if (!inserted) merge_group(&it->second, group);
    }
  };
  GroupTable& out = (*partials)[0];
  for (size_t w = 1; w < partials->size(); ++w) {
    GroupTable& part = (*partials)[w];
    merge_map(&out.rows, &part.rows);
    merge_map(&out.ints, &part.ints);
    if (part.null_group.has_value()) {
      if (out.null_group.has_value()) {
        merge_group(&*out.null_group, *part.null_group);
      } else {
        out.null_group = std::move(part.null_group);
      }
    }
  }
}

Status HashAggregateOp::OpenImpl() {
  AGGVIEW_ASSIGN_OR_RETURN(
      BoundConjunction having,
      BoundConjunction::Bind(spec_.having, layout_, *columns_, "having"));
  AGGVIEW_RETURN_NOT_OK(child_->Open());
  const RowLayout& in = child_->layout();

  std::vector<int> group_idx;
  for (ColId g : spec_.grouping) {
    int idx = in.IndexOf(g);
    if (idx < 0) return Status::Internal("group-by column missing from input");
    group_idx.push_back(idx);
  }
  std::vector<std::vector<int>> arg_idx;
  for (const AggregateCall& a : spec_.aggregates) {
    std::vector<int> idxs;
    for (ColId arg : a.args) {
      int idx = in.IndexOf(arg);
      if (idx < 0) return Status::Internal("aggregate argument missing from input");
      idxs.push_back(idx);
    }
    arg_idx.push_back(std::move(idxs));
  }

  GroupTable fresh;
  fresh.int_lane = group_idx.size() == 1;
  int workers = MorselWorkers(*child_);
  // Thread-local partial aggregation when workers > 1: every worker folds
  // its morsels into a private group table, then the partials merge on the
  // driver in worker order — AggAccumulator::Merge is the decomposable-
  // aggregate combine (and MEDIAN's exact sample concatenation), so the
  // merged state is the state a serial run would have reached.
  std::vector<GroupTable> partials(static_cast<size_t>(workers), fresh);
  std::vector<int64_t> counts(static_cast<size_t>(workers), 0);
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      child_.get(), workers, [&](int w, Operator* src) {
        return Accumulate(src, group_idx, arg_idx,
                          &partials[static_cast<size_t>(w)],
                          &counts[static_cast<size_t>(w)]);
      }));
  MergePartials(&partials);
  GroupTable& groups = partials[0];
  int64_t input_rows = 0;
  for (int64_t c : counts) input_rows += c;
  if (workers > 1 && stats_ != nullptr) stats_->workers = workers;
  CountInput(input_rows);

  // SQL: a scalar aggregate (no GROUP BY) over zero input rows yields
  // exactly one row — COUNT = 0, SUM/MIN/MAX/AVG = NULL. Grouped queries
  // correctly yield no rows.
  if (groups.size() == 0 && spec_.grouping.empty()) {
    groups.rows.emplace(Row{}, NewGroup());
  }

  double in_pages = ActualPages(input_rows, in.RowWidth(*columns_));
  double spill = CostModel::HashAggLocalCost(in_pages);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
    stats_->hash_build_rows = groups.size();
  }

  results_.clear();
  auto emit = [&](Row out, Group* group) {
    for (AggAccumulator& acc : group->accs) out.push_back(acc.Finish());
    if (having.Eval(out)) results_.push_back(std::move(out));
  };
  for (auto& [k, group] : groups.ints) emit(Row{Value::Int(k)}, &group);
  if (groups.null_group.has_value()) {
    emit(Row{Value::Null()}, &*groups.null_group);
  }
  for (auto& [group_key, group] : groups.rows) emit(group_key, &group);
  pos_ = 0;
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < results_.size() && !out->full()) {
    out->AppendRow() = results_[pos_++];
  }
  return !out->empty();
}

void HashAggregateOp::CloseImpl() {
  child_->Close();
  results_.clear();
}

}  // namespace aggview

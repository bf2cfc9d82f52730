#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>

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
      columns_base_(primary.columns_base_),
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
  if (table_layout_.size() > table_->schema().num_columns()) {
    return Status::Internal("scan layout is wider than its table");
  }
  for (int idx : projection_) {
    if (idx < 0 && idx != kRowIdIndex) {
      return Status::Internal("scan projects a non-table column");
    }
  }
  AGGVIEW_ASSIGN_OR_RETURN(
      bound_filter_,
      BoundConjunction::Bind(filter_, table_layout_, *columns_, "scan"));
  columns_base_.clear();
  for (int c = 0; c < table_layout_.size(); ++c) {
    columns_base_.push_back(table_->column(c).data());
  }
  return Status::OK();
}

Result<bool> TableScanOp::NextBatchImpl(RowBatch* out) {
  const int64_t n = table_->row_count();
  const Value* const* cols = columns_base_.data();
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
      const size_t rowid = static_cast<size_t>(pos_++);
      ++examined;
      if (!bound_filter_.Eval(ColumnCells{cols, rowid})) continue;
      Row& dst = out->AppendRow();
      dst.reserve(projection_.size());
      for (int idx : projection_) {
        if (idx == kRowIdIndex) {
          dst.push_back(Value::Int(static_cast<int64_t>(rowid)));
        } else {
          dst.push_back(cols[idx][rowid]);
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

namespace {

/// log2 of the radix partitions of a parallel aggregate's worker tables.
/// Sixteen partitions keep every thread of a 4- or 8-thread pool busy
/// through the merge, and a 10k-group partition stays cache-sized.
constexpr int kAggPartitionBits = 4;

/// MurmurHash3's 64-bit finalizer over HashRow, whose low and high bits
/// are not mixed on every platform: every input bit reaches every output
/// bit, so the high bits can choose a partition and the low bits a slot.
uint64_t RowKeyHash(const Row& key) {
  uint64_t h = HashRow(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Fibonacci hashing folded onto the low half: the product's high bits
/// choose a partition, the fold gives the low bits a slot. Both steps are
/// bijections, so two INT64 keys share a hash only when they are equal.
uint64_t IntKeyHash(int64_t k) {
  uint64_t h = static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}
/// The INT64 lane's NULL key. An INT64 key may share this hash; the lookup
/// tells the two apart by `null_group`.
constexpr uint64_t kNullKeyHash = 0x9e3779b97f4a7c15ULL;

}  // namespace

/// One flat group table. An open-addressing index (linear probing, at most
/// half full) maps a key hash to a dense group number; groups are numbered
/// in first-seen order. Group g's hash is hashes[g], its key int_keys[g] on
/// the INT64 lane (NULL when g == null_group) or row_keys[g] on the generic
/// lane, and its accumulators the n_aggs entries of `accs` from g * n_aggs.
struct HashAggregateOp::GroupTable {
  struct Slot {
    uint64_t hash = 0;
    int32_t group = -1;  // -1: empty
  };

  std::vector<Slot> slots = std::vector<Slot>(16);
  std::vector<uint64_t> hashes;
  std::vector<int64_t> int_keys;
  std::vector<Row> row_keys;
  int32_t null_group = -1;
  std::vector<AggAccumulator> accs;

  size_t size() const { return hashes.size(); }

  /// The group with hash `h` for which `same(g)` holds, or -1 with `*slot`
  /// set to the empty slot where such a group belongs.
  template <typename Same>
  int32_t Find(uint64_t h, const Same& same, size_t* slot) const {
    const size_t mask = slots.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots[i];
      if (s.group < 0) {
        *slot = i;
        return -1;
      }
      if (s.hash == h && same(s.group)) return s.group;
    }
  }
  /// INT64 lane: IntKeyHash is a bijection, so equal hashes mean equal
  /// keys unless one side is the NULL group.
  int32_t FindInt(bool null, uint64_t h, size_t* slot) const {
    return Find(h, [&](int32_t g) { return (g == null_group) == null; },
                slot);
  }
  int32_t FindRow(const Row& key, uint64_t h, size_t* slot) const {
    return Find(h, [&](int32_t g) { return RowEq()(row_keys[g], key); },
                slot);
  }

  /// Number a new group and index it at `slot` (from Find). The caller
  /// appends its accumulators.
  int32_t AddInt(int64_t k, bool null, uint64_t h, size_t slot) {
    if (null) null_group = static_cast<int32_t>(size());
    int_keys.push_back(k);
    return Add(h, slot);
  }
  int32_t AddRow(Row key, uint64_t h, size_t slot) {
    row_keys.push_back(std::move(key));
    return Add(h, slot);
  }

 private:
  int32_t Add(uint64_t h, size_t slot) {
    int32_t g = static_cast<int32_t>(size());
    hashes.push_back(h);
    slots[slot] = Slot{h, g};
    if (2 * size() > slots.size()) Grow();
    return g;
  }
  void Grow() {
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    const size_t mask = slots.size() - 1;
    for (const Slot& s : old) {
      if (s.group < 0) continue;
      size_t i = s.hash & mask;
      while (slots[i].group >= 0) i = (i + 1) & mask;
      slots[i] = s;
    }
  }
};

/// One worker's groups (or the serial run's), split into radix partitions by
/// the high bits of the key hash. The lane is per worker: migrating it
/// re-partitions every group by the generic hash.
struct HashAggregateOp::WorkerGroups {
  bool int_lane = false;
  std::vector<GroupTable> parts;

  GroupTable& PartOf(uint64_t h) {
    return parts[(h >> (64 - kAggPartitionBits)) & (parts.size() - 1)];
  }

  /// Re-keys every INT64-lane group as the one-column Row the generic lane
  /// would have built for its input rows (Int(k), or NULL) and leaves the
  /// lane. Distinct lane keys stay distinct Rows.
  void MigrateToGeneric(size_t n_aggs) {
    std::vector<GroupTable> old = std::move(parts);
    parts = std::vector<GroupTable>(old.size());
    int_lane = false;
    for (GroupTable& from : old) {
      for (size_t g = 0; g < from.size(); ++g) {
        Row key(1, Value::Null());
        if (static_cast<int32_t>(g) != from.null_group) {
          key[0] = Value::Int(from.int_keys[g]);
        }
        uint64_t h = RowKeyHash(key);
        GroupTable& into = PartOf(h);
        size_t slot = 0;
        into.FindRow(key, h, &slot);
        into.AddRow(std::move(key), h, slot);
        auto first = from.accs.begin() + static_cast<ptrdiff_t>(g * n_aggs);
        into.accs.insert(into.accs.end(), std::make_move_iterator(first),
                         std::make_move_iterator(first + n_aggs));
      }
    }
  }
};

HashAggregateOp::HashAggregateOp(OperatorPtr child, GroupBySpec spec,
                                 const ColumnCatalog* columns,
                                 IoAccountant* io)
    : child_(std::move(child)),
      spec_(std::move(spec)),
      columns_(columns),
      io_(io) {
  layout_ = RowLayout(spec_.OutputColumns());
}

HashAggregateOp::WorkerGroups HashAggregateOp::NewWorkerGroups(
    size_t parts) const {
  WorkerGroups groups;
  groups.int_lane = group_idx_.size() == 1;
  groups.parts.resize(parts);
  if (group_idx_.empty()) {
    GroupTable& table = groups.parts[0];
    const uint64_t h = RowKeyHash(Row{});
    size_t slot = 0;
    table.FindRow(Row{}, h, &slot);
    NewGroup(&table, table.AddRow(Row{}, h, slot));
  }
  return groups;
}

AggAccumulator* HashAggregateOp::NewGroup(GroupTable* table,
                                          int32_t g) const {
  for (const AggregateCall& a : spec_.aggregates) {
    table->accs.emplace_back(a.kind);
  }
  return table->accs.data() + static_cast<size_t>(g) * n_aggs_;
}

inline AggAccumulator* HashAggregateOp::GroupOf(const Row& row,
                                                WorkerGroups* groups,
                                                Row* key) const {
  // The hot path: an existing group of an INT64 key on the INT64 lane.
  // Everything else stays out of line, so this path saves no registers.
  if (groups->int_lane) {
    const Value& k = row[static_cast<size_t>(group_idx_[0])];
    if (k.is_int()) {
      uint64_t h = IntKeyHash(k.AsInt());
      GroupTable& table = groups->PartOf(h);
      size_t slot = 0;
      int32_t g = table.FindInt(/*null=*/false, h, &slot);
      if (g >= 0) return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
    }
  }
  return OtherGroupOf(row, groups, key);
}

AggAccumulator* HashAggregateOp::OtherGroupOf(const Row& row,
                                              WorkerGroups* groups,
                                              Row* key) const {
  size_t slot = 0;
  if (groups->int_lane) {
    const Value& k = row[static_cast<size_t>(group_idx_[0])];
    if (k.is_int() || k.is_null()) {
      bool null = k.is_null();
      uint64_t h = null ? kNullKeyHash : IntKeyHash(k.AsInt());
      GroupTable& table = groups->PartOf(h);
      int32_t g = table.FindInt(null, h, &slot);
      if (g < 0) {
        return NewGroup(&table,
                        table.AddInt(null ? 0 : k.AsInt(), null, h, slot));
      }
      return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
    }
    groups->MigrateToGeneric(n_aggs_);
  }
  key->clear();
  for (int idx : group_idx_) key->push_back(row[static_cast<size_t>(idx)]);
  uint64_t h = RowKeyHash(*key);
  GroupTable& table = groups->PartOf(h);
  int32_t g = table.FindRow(*key, h, &slot);
  if (g < 0) return NewGroup(&table, table.AddRow(*key, h, slot));
  return table.accs.data() + static_cast<size_t>(g) * n_aggs_;
}

Status HashAggregateOp::Accumulate(Operator* src, WorkerGroups* groups,
                                   int64_t* input_rows) const {
  // A whole input batch is accumulated per child dispatch; the generic
  // lane's key buffer is reused across rows. In a parallel drain this runs
  // once per worker against a thread-local table and must not touch the
  // operator's shared stats block — the caller counts the summed input.
  const size_t n_aggs = n_aggs_;
  // A scalar aggregate's one group never moves: the arena is never resized.
  AggAccumulator* scalar =
      group_idx_.empty() ? groups->parts[0].accs.data() : nullptr;
  RowBatch batch(batch_size_);
  Row key;
  while (true) {
    auto more = src->Next(&batch);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    *input_rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      AggAccumulator* accs =
          scalar != nullptr ? scalar : GroupOf(row, groups, &key);
      for (size_t a = 0; a < n_aggs; ++a) {
        const AggArgs& args = args_[a];
        switch (args.arity) {
          case 0:
            accs[a].Add0();
            break;
          case 1:
            accs[a].Add1(row[static_cast<size_t>(args.idx[0])]);
            break;
          default:
            accs[a].Add2(row[static_cast<size_t>(args.idx[0])],
                         row[static_cast<size_t>(args.idx[1])]);
            break;
        }
      }
    }
  }
}

void HashAggregateOp::MergeAndFinish(std::vector<WorkerGroups>* workers,
                                     size_t part,
                                     const BoundConjunction& having,
                                     std::vector<Row>* out) const {
  const size_t n_aggs = n_aggs_;
  const bool int_lane = (*workers)[0].int_lane;
  GroupTable& into = (*workers)[0].parts[part];
  for (size_t w = 1; w < workers->size(); ++w) {
    GroupTable& from = (*workers)[w].parts[part];
    for (size_t g = 0; g < from.size(); ++g) {
      uint64_t h = from.hashes[g];
      size_t slot = 0;
      int32_t mine;
      if (int_lane) {
        bool null = static_cast<int32_t>(g) == from.null_group;
        mine = into.FindInt(null, h, &slot);
        if (mine < 0) mine = into.AddInt(from.int_keys[g], null, h, slot);
      } else {
        mine = into.FindRow(from.row_keys[g], h, &slot);
        if (mine < 0) mine = into.AddRow(std::move(from.row_keys[g]), h, slot);
      }
      auto theirs = from.accs.begin() + static_cast<ptrdiff_t>(g * n_aggs);
      size_t first = static_cast<size_t>(mine) * n_aggs;
      if (first == into.accs.size()) {
        into.accs.insert(into.accs.end(), std::make_move_iterator(theirs),
                         std::make_move_iterator(theirs + n_aggs));
      } else {
        for (size_t a = 0; a < n_aggs; ++a) {
          into.accs[first + a].Merge(theirs[a]);
        }
      }
    }
    from = GroupTable();
  }
  out->reserve(into.size());
  for (size_t g = 0; g < into.size(); ++g) {
    Row row;
    row.reserve(group_idx_.size() + n_aggs);
    if (int_lane) {
      row.push_back(static_cast<int32_t>(g) == into.null_group
                        ? Value::Null()
                        : Value::Int(into.int_keys[g]));
    } else {
      for (Value& v : into.row_keys[g]) row.push_back(std::move(v));
    }
    for (size_t a = 0; a < n_aggs; ++a) {
      row.push_back(into.accs[g * n_aggs + a].Finish());
    }
    if (having.Eval(row)) out->push_back(std::move(row));
  }
}

Status HashAggregateOp::OpenImpl() {
  AGGVIEW_ASSIGN_OR_RETURN(
      BoundConjunction having,
      BoundConjunction::Bind(spec_.having, layout_, *columns_, "having"));
  AGGVIEW_RETURN_NOT_OK(child_->Open());
  const RowLayout& in = child_->layout();

  group_idx_.clear();
  for (ColId g : spec_.grouping) {
    int idx = in.IndexOf(g);
    if (idx < 0) return Status::Internal("group-by column missing from input");
    group_idx_.push_back(idx);
  }
  args_.clear();
  n_aggs_ = spec_.aggregates.size();
  for (const AggregateCall& a : spec_.aggregates) {
    AggArgs args;
    if (a.args.size() > args.idx.size()) {
      return Status::Internal("aggregate with more than two arguments");
    }
    for (ColId arg : a.args) {
      int idx = in.IndexOf(arg);
      if (idx < 0) return Status::Internal("aggregate argument missing from input");
      args.idx[args.arity++] = idx;
    }
    args_.push_back(args);
  }

  // Thread-local partial aggregation when workers > 1: every worker folds
  // its morsels into private radix-partitioned tables; a scalar aggregate
  // has one group and so one partition.
  int workers = MorselWorkers(*child_);
  size_t parts = workers > 1 && !group_idx_.empty()
                     ? size_t{1} << kAggPartitionBits
                     : 1;
  std::vector<WorkerGroups> groups;
  groups.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) groups.push_back(NewWorkerGroups(parts));
  std::vector<int64_t> counts(static_cast<size_t>(workers), 0);
  AGGVIEW_RETURN_NOT_OK(RunMorselParallel(
      child_.get(), workers, [&](int w, Operator* src) {
        return Accumulate(src, &groups[static_cast<size_t>(w)],
                          &counts[static_cast<size_t>(w)]);
      }));
  int64_t input_rows = 0;
  for (int64_t c : counts) input_rows += c;
  if (workers > 1 && stats_ != nullptr) stats_->workers = workers;
  CountInput(input_rows);

  // Lanes must agree before groups can meet: Int(3) in one worker's lane and
  // Real(3.0) in another's generic table are the same group.
  if (std::any_of(groups.begin(), groups.end(),
                  [](const WorkerGroups& g) { return !g.int_lane; })) {
    for (WorkerGroups& g : groups) {
      if (g.int_lane) g.MigrateToGeneric(n_aggs_);
    }
  }
  // Partitions are disjoint, so each merges and finalizes on its own.
  std::vector<std::vector<Row>> outs(parts);
  std::vector<int64_t> part_groups(parts, 0);
  auto finish_part = [&](int p) {
    size_t i = static_cast<size_t>(p);
    MergeAndFinish(&groups, i, having, &outs[i]);
    part_groups[i] = static_cast<int64_t>(groups[0].parts[i].size());
    groups[0].parts[i] = GroupTable();
  };
  if (parts > 1) {
    exec_->pool()->ParallelFor(static_cast<int>(parts), finish_part);
  } else {
    finish_part(0);
  }
  int64_t num_groups = 0;
  for (int64_t n : part_groups) num_groups += n;

  double in_pages = ActualPages(input_rows, in.RowWidth(*columns_));
  double spill = CostModel::HashAggLocalCost(in_pages);
  ChargeWrite(io_, static_cast<int64_t>(spill / 2.0));
  ChargeRead(io_, static_cast<int64_t>(spill / 2.0));
  if (stats_ != nullptr) {
    stats_->spill_pages += static_cast<int64_t>(spill / 2.0) * 2;
    stats_->hash_build_rows = num_groups;
  }

  results_.clear();
  for (std::vector<Row>& rows : outs) {
    std::move(rows.begin(), rows.end(), std::back_inserter(results_));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < results_.size() && !out->full()) {
    out->AppendRow() = std::move(results_[pos_++]);
  }
  return !out->empty();
}

void HashAggregateOp::CloseImpl() {
  child_->Close();
  results_.clear();
}

}  // namespace aggview

#include "harness.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "engine/plan_cache.h"
#include "exec/plan_profile.h"
#include "expr/binder.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "util/metrics.h"

namespace perfbench {

using relopt::QueryResult;
using relopt::Result;
using relopt::Session;
using relopt::Status;

// --- small shared helpers ---------------------------------------------------

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const relopt::Tuple& row : result.rows) {
    std::string rendered;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      rendered += row.At(i).ToString();
      rendered += '|';
    }
    rows.push_back(std::move(rendered));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t ResultChecksum(const QueryResult& result) {
  uint64_t sum = 0;
  std::hash<std::string> hasher;
  for (const std::string& row : SortedRows(result)) sum += hasher(row);
  return sum;
}

size_t HeapPages(relopt::Database* db) {
  size_t pages = 0;
  for (const std::string& name : db->catalog()->TableNames()) {
    auto table = db->catalog()->GetTable(name);
    if (table.ok()) pages += (*table)->heap()->NumPages();
  }
  return pages;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Exec(Session* session, const std::string& sql) { return session->Execute(sql).status(); }

// --- engine counters ----------------------------------------------------------

EngineCounters EngineCounters::Snapshot() {
  const relopt::EngineMetrics& m = relopt::EngineMetrics::Get();
  EngineCounters c;
  c.disk_page_reads = m.disk_page_reads->value();
  c.pool_hits = m.pool_hits->value();
  c.pool_misses = m.pool_misses->value();
  c.pool_evictions = m.pool_evictions->value();
  c.pool_dirty_writebacks = m.pool_dirty_writebacks->value();
  c.pool_latch_waits = m.pool_latch_waits->value();
  c.threadpool_tasks_run = m.threadpool_tasks_run->value();
  c.threadpool_busy_nanos = m.threadpool_busy_nanos->value();
  c.plan_cache_hits = m.optimizer_plan_cache_hits->value();
  c.plan_cache_evictions = m.optimizer_plan_cache_evictions->value();
  c.join_enum_joins_costed = m.join_enum_joins_costed->value();
  c.join_enum_dp_entries = m.join_enum_dp_entries->value();
  c.join_enum_subsets_visited = m.join_enum_subsets_visited->value();
  c.join_enum_csg_cmp_pairs = m.join_enum_csg_cmp_pairs->value();
  return c;
}

EngineCounters EngineCounters::operator-(const EngineCounters& b) const {
  EngineCounters d;
  d.disk_page_reads = disk_page_reads - b.disk_page_reads;
  d.pool_hits = pool_hits - b.pool_hits;
  d.pool_misses = pool_misses - b.pool_misses;
  d.pool_evictions = pool_evictions - b.pool_evictions;
  d.pool_dirty_writebacks = pool_dirty_writebacks - b.pool_dirty_writebacks;
  d.pool_latch_waits = pool_latch_waits - b.pool_latch_waits;
  d.threadpool_tasks_run = threadpool_tasks_run - b.threadpool_tasks_run;
  d.threadpool_busy_nanos = threadpool_busy_nanos - b.threadpool_busy_nanos;
  d.plan_cache_hits = plan_cache_hits - b.plan_cache_hits;
  d.plan_cache_evictions = plan_cache_evictions - b.plan_cache_evictions;
  d.join_enum_joins_costed = join_enum_joins_costed - b.join_enum_joins_costed;
  d.join_enum_dp_entries = join_enum_dp_entries - b.join_enum_dp_entries;
  d.join_enum_subsets_visited = join_enum_subsets_visited - b.join_enum_subsets_visited;
  d.join_enum_csg_cmp_pairs = join_enum_csg_cmp_pairs - b.join_enum_csg_cmp_pairs;
  return d;
}

void EnumTotals::Add(const relopt::JoinEnumStats& s) {
  if (!s.enumerated) return;  // the engine counts only join searches that ran
  joins_costed += s.joins_costed;
  dp_entries += s.dp_entries;
  subsets_visited += s.subsets_visited;
  csg_cmp_pairs += s.csg_cmp_pairs;
}

void EnumTotals::Add(const EnumTotals& o) {
  optimizations += o.optimizations;
  joins_costed += o.joins_costed;
  dp_entries += o.dp_entries;
  subsets_visited += o.subsets_visited;
  csg_cmp_pairs += o.csg_cmp_pairs;
}

void LayerSamples::Add(const LayerSamples& o) {
  io_qerror.insert(io_qerror.end(), o.io_qerror.begin(), o.io_qerror.end());
  card_qerror.insert(card_qerror.end(), o.card_qerror.begin(), o.card_qerror.end());
  lookups += o.lookups;
  hits += o.hits;
  enumeration.Add(o.enumeration);
  tuples_processed += o.tuples_processed;
  op_rows += o.op_rows;
  op_batches += o.op_batches;
  op_fallback_rows += o.op_fallback_rows;
}

// --- spans --------------------------------------------------------------------

namespace {

constexpr size_t kMaxErrors = 5;

const char* const kSpanNames[] = {"statement", "parse",   "plan_cache.lookup", "plan_cache.insert",
                                  "bind",      "optimize", "execute",           "dml",
                                  "statement_lock"};

int64_t NanosSince(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

/// Records the spans of one client; single-threaded.
class Tracer {
 public:
  Tracer(std::vector<Span>* spans, std::chrono::steady_clock::time_point origin, uint16_t client)
      : spans_(spans), origin_(origin), client_(client) {}

  void StartStatement(uint64_t stmt, bool measured) {
    stmt_ = stmt;
    measured_ = measured;
  }

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(uint16_t name) {
    Span s;
    s.stmt = stmt_;
    s.start = NanosSince(origin_);
    s.parent = open_.empty() ? -1 : open_.back();
    s.name = name;
    s.client = client_;
    s.measured = measured_;
    spans_->push_back(s);
    open_.push_back(static_cast<int32_t>(spans_->size() - 1));
    return open_.back();
  }

  void End() {
    (*spans_)[static_cast<size_t>(open_.back())].end = NanosSince(origin_);
    open_.pop_back();
  }

  /// Adds one span per operator of `node` under `parent`, placed from the
  /// operator's first start (relative to `exec_start`) and inclusive time.
  void AddOperators(const relopt::OperatorProfile& node, int32_t parent, int64_t exec_start) {
    Span s;
    s.stmt = stmt_;
    s.start = exec_start + static_cast<int64_t>(node.stats.first_start_nanos);
    s.end = s.start + static_cast<int64_t>(node.stats.wall_nanos);
    s.parent = parent;
    s.name = static_cast<uint16_t>(kOperatorBase + OperatorKind(node.op));
    s.client = client_;
    s.measured = measured_;
    spans_->push_back(s);
    const int32_t self = static_cast<int32_t>(spans_->size() - 1);
    for (const relopt::OperatorProfile& child : node.children) {
      AddOperators(child, self, exec_start);
    }
  }

  int64_t start_of(int32_t span) const { return (*spans_)[static_cast<size_t>(span)].start; }

 private:
  static uint16_t OperatorKind(const std::string& op) {
    for (uint16_t k = 0;; ++k) {
      const char* name = relopt::PhysicalNodeKindToString(static_cast<relopt::PhysicalNodeKind>(k));
      if (op == name || std::string(name) == "?") return k;
    }
  }

  std::vector<Span>* spans_;
  std::chrono::steady_clock::time_point origin_;
  uint16_t client_;
  uint64_t stmt_ = 0;
  bool measured_ = false;
  std::vector<int32_t> open_;
};

/// Hash of the plan's operator tree as the profile shows it.
uint64_t PlanSignature(const relopt::OperatorProfile& node) {
  std::hash<std::string> hasher;
  uint64_t h = hasher(node.op + "|" + node.describe);
  for (const relopt::OperatorProfile& child : node.children) {
    h = h * 1099511628211ULL + PlanSignature(child);
  }
  return h;
}

void CollectOperators(const relopt::OperatorProfile& node, LayerSamples* out) {
  out->card_qerror.push_back(node.q_error());
  out->op_rows += node.stats.rows_produced;
  out->op_batches += node.stats.batches_produced;
  out->op_fallback_rows += node.stats.fallback_rows;
  for (const relopt::OperatorProfile& child : node.children) CollectOperators(child, out);
}

struct TracedRead {
  bool cache_hit = false;
  relopt::JoinEnumStats enum_stats;
  bool optimized = false;
  uint64_t optimizer_page_reads = 0;  ///< engine page reads during Optimize
};

/// The engine's SELECT path, rebuilt from its public calls so each step gets a
/// span: ParseStatement, PlanCacheKey + PlanCache::Lookup/Insert,
/// Binder::BindSelect, Optimizer::Optimize with the session's optimizer
/// options, Session::ExecutePlan. The engine's statement lock is private, so
/// `statement_lock` stands in for it: held shared from the cache lookup to
/// the end of execution, as Session::RunSelect holds the engine's, while
/// writes hold it exclusively.
Result<QueryResult> TracedSelect(relopt::Database* db, Session* session, const std::string& sql,
                                 std::shared_mutex* statement_lock, Tracer* tracer,
                                 TracedRead* out) {
  tracer->Begin(kSpanParse);
  Result<relopt::StatementPtr> parsed = relopt::ParseStatement(sql);
  tracer->End();
  RELOPT_RETURN_NOT_OK(parsed.status());
  relopt::StatementPtr stmt = std::move(parsed).ValueOrDie();
  if (stmt->kind != relopt::StatementKind::kSelect) {
    return Status::InvalidArgument("traced read is not a SELECT: " + sql);
  }
  // The same options Session::RunSelect plans with (feedback is off).
  relopt::OptimizerOptions options = session->options().optimizer;
  options.buffer_pages = db->pool()->capacity();
  options.vectorized = session->options().vectorized;
  options.feedback = nullptr;

  tracer->Begin(kSpanLockWait);
  std::shared_lock<std::shared_mutex> lock(*statement_lock);
  tracer->End();
  const uint64_t version = db->catalog()->version();
  tracer->Begin(kSpanCacheLookup);
  const std::string key = relopt::PlanCacheKey(stmt->text, options);
  std::shared_ptr<const relopt::PhysicalNode> plan = db->plan_cache()->Lookup(key, version);
  tracer->End();
  out->cache_hit = plan != nullptr;
  if (plan == nullptr) {
    tracer->Begin(kSpanBind);
    relopt::Binder binder(db->catalog());
    Result<relopt::LogicalPtr> logical =
        binder.BindSelect(static_cast<relopt::SelectStmt*>(stmt.get()));
    tracer->End();
    RELOPT_RETURN_NOT_OK(logical.status());

    tracer->Begin(kSpanOptimize);
    const relopt::MetricCounter* disk_reads = relopt::EngineMetrics::Get().disk_page_reads;
    const uint64_t reads_before = disk_reads->value();
    relopt::OptimizeInfo info;
    relopt::Optimizer optimizer(db->catalog(), options);
    Result<relopt::PhysicalPtr> optimized =
        optimizer.Optimize(std::move(logical).ValueOrDie(), &info);
    out->optimizer_page_reads = disk_reads->value() - reads_before;
    tracer->End();
    RELOPT_RETURN_NOT_OK(optimized.status());
    out->optimized = true;
    out->enum_stats = info.enum_stats;
    plan = std::shared_ptr<const relopt::PhysicalNode>(std::move(optimized).ValueOrDie());

    tracer->Begin(kSpanCacheInsert);
    db->plan_cache()->Insert(key, version, plan);
    tracer->End();
  }

  const int32_t exec_span = tracer->Begin(kSpanExecute);
  Result<QueryResult> result = session->ExecutePlan(*plan);
  tracer->End();
  const relopt::PlanProfile& profile = session->last_profile();
  if (profile.valid) tracer->AddOperators(profile.root, exec_span, tracer->start_of(exec_span));
  return result;
}

}  // namespace

std::string SpanNameString(uint16_t name) {
  if (name < kOperatorBase) return kSpanNames[name];
  const auto kind = static_cast<relopt::PhysicalNodeKind>(name - kOperatorBase);
  return std::string("op.") + relopt::PhysicalNodeKindToString(kind);
}

// --- windows --------------------------------------------------------------------

WindowResult RunWindow(Workload* workload, relopt::Database* db,
                       const std::vector<Session*>& sessions, const WindowOptions& options) {
  using Clock = std::chrono::steady_clock;
  const size_t clients = sessions.size();
  db->plan_cache()->Clear();

  // Each client fills the per-client fields of its own WindowResult (its
  // signatures and spans as the single entry of those lists); they are merged
  // into one result after the threads join.
  std::vector<WindowResult> per_client(clients);
  const EngineCounters before = EngineCounters::Snapshot();
  const Clock::time_point origin = Clock::now();
  const Clock::time_point measure_from =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.warmup_s));
  const Clock::time_point until =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::vector<Clock::time_point> last_end(clients, measure_from);
  std::shared_mutex statement_lock;  // traced windows only; see TracedSelect

  auto client_loop = [&](size_t c) {
    Session* session = sessions[c];
    WindowResult& out = per_client[c];
    out.signatures.resize(1);
    std::vector<Span> spans;
    Tracer tracer(&spans, origin, static_cast<uint16_t>(c));
    for (uint64_t i = 0;; ++i) {
      const Stmt st = workload->Next(c, i);
      const Clock::time_point start = Clock::now();
      if (start >= until) break;
      const bool measured = start >= measure_from;
      tracer.StartStatement((static_cast<uint64_t>(c) << 40) | i, measured);

      Result<QueryResult> result = Status::Internal("statement did not run");
      TracedRead traced;
      if (!options.traced) {
        result = session->Execute(st.sql);
      } else {
        tracer.Begin(kSpanStatement);
        if (st.write) {
          tracer.Begin(kSpanDml);
          std::unique_lock<std::shared_mutex> lock(statement_lock);
          result = session->Execute(st.sql);
          lock.unlock();
          tracer.End();
        } else {
          result = TracedSelect(db, session, st.sql, &statement_lock, &tracer, &traced);
        }
        tracer.End();
      }
      const Clock::time_point end = Clock::now();
      const double ms = std::chrono::duration<double, std::milli>(end - start).count();

      const relopt::ExecutionMetrics& metrics = session->last_metrics();
      const relopt::PlanProfile& profile = session->last_profile();
      bool ok = result.ok();
      if (ok && !st.write) ok = workload->CheckRead(st, *result);
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        if (out.errors.size() < kMaxErrors) {
          const std::string why = result.ok() ? "wrong result" : result.status().ToString();
          out.errors.push_back(why + ": " + st.sql.substr(0, 160));
        }
      } else if (st.write) {
        if (out.writes_by_kind.size() <= static_cast<size_t>(st.kind)) {
          out.writes_by_kind.resize(static_cast<size_t>(st.kind) + 1);
        }
        ++out.writes_by_kind[static_cast<size_t>(st.kind)];
      }
      const bool read_ok = ok && !st.write;
      out.signatures[0].emplace_back(read_ok && profile.valid ? PlanSignature(profile.root) : 0,
                                     read_ok ? ResultChecksum(*result) : 0);
      const bool hit = options.traced ? traced.cache_hit : metrics.plan_cache_hit;
      if (!st.write) {
        out.harness_cache_hits += hit ? 1 : 0;
        const relopt::JoinEnumStats& es = options.traced ? traced.enum_stats : metrics.enum_stats;
        out.harness_enumeration.Add(es);
      }
      out.harness_page_reads += metrics.io.page_reads;
      out.optimizer_page_reads += traced.optimizer_page_reads;

      if (!measured) continue;
      last_end[c] = end;
      ++out.measured;
      if (!ok) ++out.measured_failed;
      out.measured_page_reads += metrics.io.page_reads;
      if (st.write) {
        out.write_ms.push_back(ms);
        continue;
      }
      out.read_ms.push_back(ms);
      if (out.ms_by_kind.size() <= static_cast<size_t>(st.kind)) {
        out.ms_by_kind.resize(static_cast<size_t>(st.kind) + 1);
      }
      out.ms_by_kind[static_cast<size_t>(st.kind)].push_back(ms);
      ++out.measured_reads;
      out.layers.io_qerror.push_back(
          relopt::QError(metrics.est_cost.page_ios, static_cast<double>(metrics.io.page_reads)));
      if (options.traced) {
        LayerSamples& l = out.layers;
        ++l.lookups;
        l.hits += traced.cache_hit ? 1 : 0;
        if (traced.optimized) {
          ++l.enumeration.optimizations;
          l.enumeration.Add(traced.enum_stats);
        }
        l.tuples_processed += metrics.tuples_processed;
        if (profile.valid) CollectOperators(profile.root, &l);
      }
    }
    out.spans.push_back(std::move(spans));
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  std::this_thread::sleep_until(measure_from);
  const EngineCounters at_measure_start = EngineCounters::Snapshot();
  for (std::thread& t : threads) t.join();
  const EngineCounters at_measure_end = EngineCounters::Snapshot();

  WindowResult w;
  w.engine = at_measure_end - before;
  w.measured_engine = at_measure_end - at_measure_start;
  Clock::time_point final_end = measure_from;
  for (const Clock::time_point& e : last_end) final_end = std::max(final_end, e);
  w.measured_seconds = std::chrono::duration<double>(final_end - measure_from).count();
  for (WindowResult& c : per_client) {
    w.attempted += c.attempted;
    w.failed += c.failed;
    for (std::string& e : c.errors) {
      if (w.errors.size() < kMaxErrors) w.errors.push_back(std::move(e));
    }
    if (w.writes_by_kind.size() < c.writes_by_kind.size()) {
      w.writes_by_kind.resize(c.writes_by_kind.size());
    }
    for (size_t k = 0; k < c.writes_by_kind.size(); ++k) w.writes_by_kind[k] += c.writes_by_kind[k];
    w.signatures.push_back(std::move(c.signatures[0]));
    w.harness_cache_hits += c.harness_cache_hits;
    w.harness_page_reads += c.harness_page_reads;
    w.optimizer_page_reads += c.optimizer_page_reads;
    if (w.ms_by_kind.size() < c.ms_by_kind.size()) w.ms_by_kind.resize(c.ms_by_kind.size());
    for (size_t k = 0; k < c.ms_by_kind.size(); ++k) {
      w.ms_by_kind[k].insert(w.ms_by_kind[k].end(), c.ms_by_kind[k].begin(), c.ms_by_kind[k].end());
    }
    w.harness_enumeration.Add(c.harness_enumeration);
    w.measured += c.measured;
    w.measured_failed += c.measured_failed;
    w.measured_page_reads += c.measured_page_reads;
    w.measured_reads += c.measured_reads;
    w.read_ms.insert(w.read_ms.end(), c.read_ms.begin(), c.read_ms.end());
    w.write_ms.insert(w.write_ms.end(), c.write_ms.begin(), c.write_ms.end());
    w.layers.Add(c.layers);
    if (options.traced) w.spans.push_back(std::move(c.spans[0]));
  }
  return w;
}

std::vector<std::vector<int64_t>> SelfTimes(const WindowResult& window) {
  std::vector<std::vector<int64_t>> self(window.spans.size());
  for (size_t c = 0; c < window.spans.size(); ++c) {
    const std::vector<Span>& spans = window.spans[c];
    self[c].resize(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) self[c][i] = spans[i].end - spans[i].start;
    for (const Span& s : spans) {
      if (s.parent >= 0) self[c][static_cast<size_t>(s.parent)] -= s.end - s.start;
    }
    // Operators merged from parallel workers sum their workers' time, which
    // can exceed the parent's wall time; self time never goes below zero.
    for (int64_t& v : self[c]) v = std::max<int64_t>(v, 0);
  }
  return self;
}

Status WriteChromeTrace(const WindowResult& window, const std::string& path,
                        uint64_t max_statements) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const std::vector<Span>& spans : window.spans) {
    for (const Span& s : spans) {
      if ((s.stmt & ((uint64_t{1} << 40) - 1)) >= max_statements) break;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"stmt\":%llu}}",
                    first ? "" : ",\n", SpanNameString(s.name).c_str(), s.start / 1000.0,
                    (s.end - s.start) / 1000.0, static_cast<unsigned>(s.client),
                    static_cast<unsigned long long>(s.stmt));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  out.close();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

}  // namespace perfbench

// relopt_perfbench: the repository benchmark.
//
//   relopt_perfbench --workload serve|analytics|join_order --seed N
//                    --seconds S --trace 0|1 [--size full|smoke]
//                    [--out-dir DIR] [--source-id ID]
//
// Builds the workload's database through the engine (several times; set-up
// time is the median), computes reference answers, then runs timed windows:
//  --trace 0: one untraced window; prints the end-to-end metrics.
//  --trace 1: an untraced window, then a traced window over the same statement
//             streams; prints the per-layer metrics, writes a Chrome trace.
// Every result is checked. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "exec/plan_profile.h"
#include "harness.h"
#include "plan/physical_plan.h"

namespace perfbench {
namespace {

using relopt::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") return false;
      args->size = value == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// --- statistics ---------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The quantile if at least 10 samples lie beyond it, else 0 (not reported).
double TailQuantile(const std::vector<double>& v, double q) {
  return static_cast<double>(v.size()) * (1 - q) >= 10 ? Quantile(v, q) : 0;
}

/// The highest of p99.9/p99/p90/p50 with at least 10 samples beyond it.
double HighestTail(const std::vector<double>& v, std::string* label) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (static_cast<double>(v.size()) * (1 - q) >= 10) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "p%g", q * 100);
      *label = buf;
      return Quantile(v, q);
    }
  }
  *label = "n/a";
  return 0;
}

/// num / den, or 0 when den is 0.
template <typename Num, typename Den>
double Ratio(Num num, Den den) {
  const double d = static_cast<double>(den);
  return d > 0 ? static_cast<double>(num) / d : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-34s %16s %-8s %9s  %s\n", "metric", "value", "unit", "samples", "note");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %-8s %9llu  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --- checks -------------------------------------------------------------------------

/// Cross-checks the harness's own counts against the engine's counters.
void CrossCheck(const char* window, const WindowResult& w, bool single_session, bool traced,
                std::vector<std::string>* failures) {
  auto expect = [&](const char* what, uint64_t harness, uint64_t engine) {
    const bool ok = harness == engine;
    std::printf("# cross-check %-8s %-34s harness=%llu engine=%llu %s\n", window, what,
                static_cast<unsigned long long>(harness), static_cast<unsigned long long>(engine),
                ok ? "ok" : "MISMATCH");
    if (!ok) failures->push_back(std::string(window) + " " + what);
  };
  expect("plan_cache.hits", w.harness_cache_hits, w.engine.plan_cache_hits);
  expect("join_enum.joins_costed", w.harness_enumeration.joins_costed,
         w.engine.join_enum_joins_costed);
  expect("join_enum.dp_entries", w.harness_enumeration.dp_entries, w.engine.join_enum_dp_entries);
  expect("join_enum.subsets_visited", w.harness_enumeration.subsets_visited,
         w.engine.join_enum_subsets_visited);
  expect("join_enum.csg_cmp_pairs", w.harness_enumeration.csg_cmp_pairs,
         w.engine.join_enum_csg_cmp_pairs);
  if (!single_session) return;
  if (traced) {
    // The traced path also counts the reads made while optimizing, which
    // ExecutionMetrics (execution only) leaves out.
    expect("disk.page_reads (execute+optimize)", w.harness_page_reads + w.optimizer_page_reads,
           w.engine.disk_page_reads);
  } else {
    std::printf("# cross-check %-8s %-34s harness=%llu engine=%llu (%lld read outside "
                "ExecutionMetrics, i.e. while optimizing)\n",
                window, "disk.page_reads (execute)",
                static_cast<unsigned long long>(w.harness_page_reads),
                static_cast<unsigned long long>(w.engine.disk_page_reads),
                static_cast<long long>(w.engine.disk_page_reads - w.harness_page_reads));
  }
}

/// Median and p90 latency of each statement shape, as a printed line.
void PrintShapes(const WindowResult& w) {
  for (size_t k = 0; k < w.ms_by_kind.size(); ++k) {
    if (w.ms_by_kind[k].empty()) continue;
    std::printf("# shape %zu: n=%zu p50=%.3f ms p90=%.3f ms\n", k, w.ms_by_kind[k].size(),
                Quantile(w.ms_by_kind[k], 0.5), Quantile(w.ms_by_kind[k], 0.9));
  }
}

/// The traced window must choose the same plans and return the same results
/// as the untraced one, statement by statement.
void CompareWindows(const WindowResult& untraced, const WindowResult& traced,
                    std::vector<std::string>* failures) {
  uint64_t compared = 0;
  uint64_t differing = 0;
  for (size_t c = 0; c < untraced.signatures.size() && c < traced.signatures.size(); ++c) {
    const auto& a = untraced.signatures[c];
    const auto& b = traced.signatures[c];
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      ++compared;
      if (a[i] != b[i]) ++differing;
    }
  }
  std::printf("# traced vs untraced: %llu statements compared, %llu differ in plan or result\n",
              static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(differing));
  if (differing > 0 || compared == 0) failures->push_back("traced run differs from untraced run");
}

// --- metrics --------------------------------------------------------------------------

double Qps(const WindowResult& w) { return Ratio(w.measured, w.measured_seconds); }

std::vector<Metric> EndToEnd(const WindowResult& w, double setup_s, uint64_t setup_reps) {
  std::vector<Metric> m;
  const uint64_t reads = w.read_ms.size();
  m.push_back({"setup_s", setup_s, "s", setup_reps, "median of set-up repetitions"});
  m.push_back({"throughput_qps", Qps(w), "1/s", w.measured, "reads and writes"});
  m.push_back({"latency_p50_ms", Quantile(w.read_ms, 0.5), "ms", reads, "reads"});
  m.push_back({"latency_p90_ms", Quantile(w.read_ms, 0.9), "ms", reads, "reads"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB", 1, "whole process"});
  return m;
}

/// End-to-end figures that exist only on some workloads (so they cannot be
/// bounded metrics of every workload); reported with their sample counts.
std::vector<Metric> WorkloadSpecific(const WindowResult& w) {
  std::vector<Metric> m;
  std::string tail;
  const double tail_ms = HighestTail(w.read_ms, &tail);
  m.push_back({"latency_tail_ms", tail_ms, "ms", w.read_ms.size(),
               "reads, highest percentile with >=10 samples beyond: " + tail});
  m.push_back({"latency_p99_ms", TailQuantile(w.read_ms, 0.99), "ms", w.read_ms.size(),
               "reads; 0 if fewer than 1000 samples"});
  m.push_back({"write_latency_p50_ms", Quantile(w.write_ms, 0.5), "ms", w.write_ms.size(),
               "writes; 0 if none"});
  m.push_back({"write_latency_p99_ms", TailQuantile(w.write_ms, 0.99), "ms", w.write_ms.size(),
               "writes; 0 if fewer than 1000 samples"});
  m.push_back({"page_reads_per_stmt", Ratio(w.measured_page_reads, w.measured), "pages",
               w.measured, "physical page reads, exact"});
  m.push_back({"failed_frac", Ratio(w.measured_failed, w.measured), "ratio", w.measured,
               "failed or wrong / attempted"});
  return m;
}

struct SpanStats {
  std::vector<double> us;  ///< duration of each measured span
  double self_us = 0;      ///< summed self time of measured spans
};

std::vector<Metric> PerLayer(const WindowResult& untraced, const WindowResult& traced,
                             const SetupTimes& setup, size_t threads,
                             std::map<uint16_t, SpanStats>* spans_out) {
  std::map<uint16_t, SpanStats>& spans = *spans_out;
  const std::vector<std::vector<int64_t>> self = SelfTimes(traced);
  for (size_t c = 0; c < traced.spans.size(); ++c) {
    for (size_t i = 0; i < traced.spans[c].size(); ++i) {
      const Span& s = traced.spans[c][i];
      if (!s.measured) continue;
      spans[s.name].us.push_back(static_cast<double>(s.end - s.start) / 1000.0);
      spans[s.name].self_us += static_cast<double>(self[c][i]) / 1000.0;
    }
  }
  auto median_us = [&](uint16_t name) { return Quantile(spans[name].us, 0.5); };
  auto count = [&](uint16_t name) { return static_cast<uint64_t>(spans[name].us.size()); };

  const LayerSamples& l = traced.layers;
  const EnumTotals& en = l.enumeration;
  const EngineCounters& e = traced.measured_engine;
  const uint64_t stmts = traced.measured;
  const uint64_t reads = traced.measured_reads;
  double exec_s = 0;
  for (double us : spans[kSpanExecute].us) exec_s += us / 1e6;
  const double busy_s = static_cast<double>(e.threadpool_busy_nanos) / 1e9;
  const double max_qerror =
      l.card_qerror.empty() ? 0 : *std::max_element(l.card_qerror.begin(), l.card_qerror.end());

  std::vector<Metric> m = {
      {"parser.parse_us", median_us(kSpanParse), "us", count(kSpanParse), "median"},
      {"plan_cache.lookup_us", median_us(kSpanCacheLookup), "us", count(kSpanCacheLookup),
       "median, key + Lookup"},
      {"plan_cache.hit_ratio", Ratio(l.hits, l.lookups), "ratio", l.lookups, "hits / lookups"},
      {"plan_cache.evictions_per_1k", 1000 * Ratio(e.plan_cache_evictions, l.lookups),
       "1/klookup", l.lookups, "engine counter"},
      {"binder.bind_us", median_us(kSpanBind), "us", count(kSpanBind), "median, misses"},
      {"engine.dml_us", median_us(kSpanDml), "us", count(kSpanDml),
       "median Session::Execute of a write, lock wait included"},
      {"optimizer.optimize_us", median_us(kSpanOptimize), "us", count(kSpanOptimize), "median"},
      {"optimizer.joins_costed", Ratio(en.joins_costed, en.optimizations), "count",
       en.optimizations, "per optimization"},
      {"optimizer.subsets_visited", Ratio(en.subsets_visited, en.optimizations), "count",
       en.optimizations, "per optimization"},
      {"optimizer.csg_cmp_pairs", Ratio(en.csg_cmp_pairs, en.optimizations), "count",
       en.optimizations, "per optimization"},
      {"optimizer.dp_entries", Ratio(en.dp_entries, en.optimizations), "count",
       en.optimizations, "per optimization"},
      {"optimizer.plans_kept_ratio", Ratio(en.dp_entries, en.joins_costed), "ratio",
       en.optimizations, "plans kept / joins costed"},
      {"optimizer.io_qerror_p50", Quantile(l.io_qerror, 0.5), "ratio", l.io_qerror.size(),
       "estimated vs actual page I/O, per read"},
      {"optimizer.card_qerror_p50", Quantile(l.card_qerror, 0.5), "ratio", l.card_qerror.size(),
       "per operator"},
      {"optimizer.card_qerror_max", max_qerror, "ratio", l.card_qerror.size(), "per operator"},
      {"exec.execute_us", median_us(kSpanExecute), "us", count(kSpanExecute), "median"},
  };
  for (relopt::PhysicalNodeKind kind :
       {relopt::PhysicalNodeKind::kSeqScan, relopt::PhysicalNodeKind::kIndexScan,
        relopt::PhysicalNodeKind::kFilter, relopt::PhysicalNodeKind::kProject,
        relopt::PhysicalNodeKind::kHashJoin, relopt::PhysicalNodeKind::kIndexNestedLoopJoin,
        relopt::PhysicalNodeKind::kAggregate, relopt::PhysicalNodeKind::kSort,
        relopt::PhysicalNodeKind::kLimit}) {
    const uint16_t name = static_cast<uint16_t>(kOperatorBase + static_cast<uint16_t>(kind));
    m.push_back({std::string("exec.self_us.") + relopt::PhysicalNodeKindToString(kind),
                 Ratio(spans[name].self_us, reads), "us/stmt", count(name),
                 "operator self time per read"});
  }
  const std::vector<Metric> rest = {
      {"exec.rows_per_s", Ratio(l.tuples_processed, exec_s), "1/s", reads,
       "tuples processed / execute time"},
      {"exec.rows_per_batch", Ratio(l.op_rows, l.op_batches), "rows", l.op_batches,
       "operator rows / batches"},
      {"exec.fallback_rows_ratio", Ratio(l.op_fallback_rows, l.op_rows), "ratio", l.op_rows,
       "row-loop fallback rows / operator rows"},
      {"storage.pool_hit_ratio", Ratio(e.pool_hits, e.pool_hits + e.pool_misses), "ratio",
       e.pool_hits + e.pool_misses, "engine counter"},
      {"storage.pool_misses_per_stmt", Ratio(e.pool_misses, stmts), "1/stmt", stmts,
       "engine counter"},
      {"storage.evictions_per_stmt", Ratio(e.pool_evictions, stmts), "1/stmt", stmts,
       "engine counter"},
      {"storage.dirty_writebacks", Ratio(e.pool_dirty_writebacks, stmts), "1/stmt", stmts,
       "engine counter"},
      {"storage.latch_waits", Ratio(e.pool_latch_waits, stmts), "1/stmt", stmts,
       "engine counter"},
      {"threadpool.busy_frac",
       threads > 1 ? Ratio(busy_s, traced.measured_seconds * static_cast<double>(threads)) : 0,
       "ratio", threads, "busy / (wall x pool threads)"},
      {"threadpool.tasks_per_stmt", Ratio(e.threadpool_tasks_run, stmts), "1/stmt", stmts,
       "engine counter"},
      {"setup.load_s", setup.load_s, "s", 1, "median"},
      {"setup.index_s", setup.index_s, "s", 1, "median"},
      {"setup.analyze_s", setup.analyze_s, "s", 1, "median"},
      {"trace.overhead_frac", 1 - Ratio(Qps(traced), Qps(untraced)), "ratio", stmts,
       "1 - traced / untraced throughput"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (Metric& extra : WorkloadSpecific(untraced)) {
    if (extra.name != "latency_tail_ms") m.push_back(std::move(extra));
  }
  return m;
}

/// Where statement time went: each stage's inclusive time as a share of all
/// statement time, then each operator's self time as a share of execute time.
void PrintSpanSummary(std::map<uint16_t, SpanStats>& spans) {
  auto total_ms = [&](uint16_t name) {
    double sum = 0;
    for (double us : spans[name].us) sum += us;
    return sum / 1000;
  };
  const double statement_ms = total_ms(kSpanStatement);
  const double execute_ms = total_ms(kSpanExecute);
  std::printf("# %-20s %9s %12s %12s %8s\n", "stage", "count", "median_us", "total_ms",
              "share");
  for (uint16_t name : {kSpanParse, kSpanLockWait, kSpanCacheLookup, kSpanBind, kSpanOptimize,
                        kSpanCacheInsert, kSpanExecute, kSpanDml}) {
    std::printf("# %-20s %9zu %12.2f %12.2f %7.1f%%\n", SpanNameString(name).c_str(),
                spans[name].us.size(), Quantile(spans[name].us, 0.5), total_ms(name),
                100 * Ratio(total_ms(name), statement_ms));
  }
  std::printf("# %-20s %9s %12s %12s %8s\n", "operator", "count", "", "self_ms", "share");
  for (const auto& [name, s] : spans) {
    if (name < kOperatorBase || s.us.empty()) continue;
    std::printf("# %-20s %9zu %12s %12.2f %7.1f%%\n", SpanNameString(name).c_str(), s.us.size(),
                "", s.self_us / 1000, 100 * Ratio(s.self_us / 1000, execute_ms));
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Size size) {
  if (name == "serve") return MakeServe(seed, size);
  if (name == "analytics") return MakeAnalytics(seed, size);
  if (name == "join_order") return MakeJoinOrder(seed, size);
  return nullptr;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, args.size);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool smoke = args.size == Size::kSmoke;
  std::printf("# perfbench workload=%s seed=%llu size=%s seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              smoke ? "smoke" : "full", args.seconds, args.trace ? 1 : 0);
  std::printf("# host nproc=%u compiler=\"%s\" build=%s source=%s\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              args.source_id.c_str());

  // Set-up: build the database at least 3 times and until 3 s are spent (at
  // most 100 times), so short set-ups are sampled over seconds of host time;
  // keep the last database.
  std::vector<SetupTimes> times;
  std::unique_ptr<relopt::Database> db;
  double spent = 0;
  while (times.empty() || (!smoke && (times.size() < 3 || (spent < 3 && times.size() < 100)))) {
    db.reset();
    db = std::make_unique<relopt::Database>(workload->options());
    SetupTimes t;
    Status st = workload->Build(db.get(), &t);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    times.push_back(t);
    spent += t.total();
  }
  const uint64_t reps = times.size();
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : times) totals.push_back(t.total());
  const double setup_s = Quantile(totals, 0.5);
  SetupTimes setup;
  setup.load_s = median_of(&SetupTimes::load_s);
  setup.index_s = median_of(&SetupTimes::index_s);
  setup.analyze_s = median_of(&SetupTimes::analyze_s);
  std::printf("# fixture: %s\n", workload->Describe(db.get()).c_str());
  std::printf("# peak rss after set-up: %.1f MiB\n", PeakRssMb());

  Status st = workload->Prepare(db.get());
  if (!st.ok()) {
    std::fprintf(stderr, "reference answers failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("# peak rss after reference answers: %.1f MiB\n", PeakRssMb());
  std::vector<relopt::Session*> sessions;
  for (size_t c = 0; c < workload->clients(); ++c) {
    sessions.push_back(db->CreateSession(workload->options()));
  }
  const bool single_session = sessions.size() == 1;

  WindowOptions window;
  window.seconds = args.seconds;
  window.warmup_s = std::min(1.0, args.seconds / 4);
  std::vector<std::string> failures;
  std::vector<WindowResult> windows;
  windows.push_back(RunWindow(workload.get(), db.get(), sessions, window));
  CrossCheck("untraced", windows[0], single_session, false, &failures);
  PrintShapes(windows[0]);
  if (args.trace) {
    window.traced = true;
    windows.push_back(RunWindow(workload.get(), db.get(), sessions, window));
    CrossCheck("traced", windows[1], single_session, true, &failures);
    CompareWindows(windows[0], windows[1], &failures);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> writes_by_kind;
  for (const WindowResult& w : windows) {
    attempted += w.attempted;
    failed += w.failed;
    for (const std::string& e : w.errors) std::printf("# FAILED: %s\n", e.c_str());
    writes_by_kind.resize(std::max(writes_by_kind.size(), w.writes_by_kind.size()));
    for (size_t k = 0; k < w.writes_by_kind.size(); ++k) writes_by_kind[k] += w.writes_by_kind[k];
  }
  if (failed > 0) failures.push_back(std::to_string(failed) + " statements failed or were wrong");
  st = workload->CheckFinalState(db.get(), writes_by_kind);
  std::printf("# final state: %s\n", st.ok() ? "ok" : st.ToString().c_str());
  if (!st.ok()) failures.push_back("final state");

  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  if (!args.trace) {
    metrics = EndToEnd(windows[0], setup_s, reps);
    std::printf("# set-up: median of %llu builds\n", static_cast<unsigned long long>(reps));
    detail = WorkloadSpecific(windows[0]);
  } else {
    std::map<uint16_t, SpanStats> spans;
    metrics = PerLayer(windows[0], windows[1], setup, workload->options().parallelism, &spans);
    PrintSpanSummary(spans);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      st = WriteChromeTrace(windows[1], path, 200);
      std::printf("# chrome trace: %s\n", st.ok() ? path.c_str() : st.ToString().c_str());
    }
  }
  PrintTable(metrics);
  if (!detail.empty()) PrintTable(detail);
  for (const std::string& f : failures) std::printf("# CHECK FAILED: %s\n", f.c_str());

  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: relopt_perfbench --workload serve|analytics|join_order --seed N "
                 "--seconds S --trace 0|1 [--size full|smoke] [--out-dir DIR] "
                 "[--source-id ID]\n");
    return 2;
  }
  return perfbench::Run(args);
}

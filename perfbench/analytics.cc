// analytics: one client session at parallelism 4 over a fact table several
// times larger than the default 256-page buffer pool.
//
// The loop repeats four shapes: scan+filter+SUM, hash join + low-cardinality
// GROUP BY, high-cardinality (Zipf) GROUP BY, and filter+ORDER BY+LIMIT. Each
// shape cycles through two or three literals, so the statement set is small
// and stays in the plan cache. Every result must be bag-equal to a reference run at
// parallelism 1 and batch size 1, made before any timed window.
#include <map>

#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using relopt::QueryResult;
using relopt::Status;

enum Kind { kScanSum, kJoinGroup, kWideGroup, kTopN, kNumKinds };

class Analytics final : public Workload {
 public:
  Analytics(uint64_t seed, Size size)
      : seed_(seed),
        fact_rows_(size == Size::kFull ? 300000 : 6000),
        dim_rows_(size == Size::kFull ? 1000 : 100),
        customers_(size == Size::kFull ? 5000 : 500) {}

  size_t clients() const override { return 1; }

  relopt::SessionOptions options() const override {
    relopt::SessionOptions o;  // default 256-page pool, batch 1024
    o.parallelism = 4;
    return o;
  }

  Status Build(relopt::Database* db, SetupTimes* times) override {
    relopt::Session* s = db->default_session();
    const double t0 = NowSeconds();
    RELOPT_RETURN_NOT_OK(
        Exec(s, "CREATE TABLE fact (id INT, dim_id INT, cust INT, qty INT, amount INT)"));
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE TABLE dim (id INT, region INT, dname TEXT)"));
    relopt::Rng rng(seed_);
    relopt::ZipfGenerator cust(static_cast<uint64_t>(customers_), 1.0);
    std::string sql;
    for (int64_t i = 0; i < fact_rows_; ++i) {
      sql += sql.empty() ? "INSERT INTO fact VALUES (" : ", (";
      sql += std::to_string(i) + ", " + std::to_string(rng.UniformInt(0, dim_rows_ - 1)) + ", " +
             std::to_string(cust.Next(&rng)) + ", " + std::to_string(rng.UniformInt(1, 100)) +
             ", " + std::to_string(rng.UniformInt(1, 10000)) + ")";
      if ((i + 1) % 1000 == 0 || i + 1 == fact_rows_) {
        RELOPT_RETURN_NOT_OK(Exec(s, sql));
        sql.clear();
      }
    }
    for (int64_t d = 0; d < dim_rows_; ++d) {
      sql += sql.empty() ? "INSERT INTO dim VALUES (" : ", (";
      sql += std::to_string(d) + ", " + std::to_string(rng.UniformInt(0, 9)) + ", 'dim" +
             std::to_string(d) + "')";
    }
    RELOPT_RETURN_NOT_OK(Exec(s, sql));
    const double t1 = NowSeconds();
    RELOPT_RETURN_NOT_OK(Exec(s, "CREATE INDEX dim_id ON dim (id)"));
    const double t2 = NowSeconds();
    RELOPT_RETURN_NOT_OK(Exec(s, "ANALYZE"));
    const double t3 = NowSeconds();
    times->load_s = t1 - t0;
    times->index_s = t2 - t1;
    times->analyze_s = t3 - t2;
    return Status::OK();
  }

  Status Prepare(relopt::Database* db) override {
    // The reference: every distinct statement once, serial and one row per
    // batch, on a session of its own.
    relopt::SessionOptions ref_options = options();
    ref_options.parallelism = 1;
    ref_options.batch_size = 1;
    relopt::Session* ref = db->CreateSession(ref_options);
    for (int kind = 0; kind < kNumKinds; ++kind) {
      for (int64_t p : Params(kind)) {
        const std::string sql = Sql(kind, p);
        RELOPT_ASSIGN_OR_RETURN(QueryResult result, ref->Execute(sql));
        if (result.rows.empty()) return Status::Internal("empty reference result: " + sql);
        reference_[sql] = SortedRows(result);
      }
    }
    return Status::OK();
  }

  Stmt Next(size_t client, uint64_t i) const override {
    (void)client;
    // Shapes and literals cycle in a fixed order, so every run measures the
    // same mix; the data comes from the seed.
    Stmt st;
    st.kind = static_cast<int>(i % kNumKinds);
    const std::vector<int64_t> params = Params(st.kind);
    st.a = params[(i / kNumKinds) % params.size()];
    st.sql = Sql(st.kind, st.a);
    return st;
  }

  bool CheckRead(const Stmt& st, const QueryResult& result) const override {
    auto it = reference_.find(st.sql);
    return it != reference_.end() && it->second == SortedRows(result);
  }

  std::string Describe(relopt::Database* db) const override {
    return "fact=" + std::to_string(fact_rows_) + " rows, dim=" + std::to_string(dim_rows_) +
           " rows, customers=" + std::to_string(customers_) + " (zipf 1.0), heap=" +
           std::to_string(HeapPages(db)) + " pages, pool=" +
           std::to_string(db->pool()->capacity()) + " pages";
  }

 private:
  static std::vector<int64_t> Params(int kind) {
    switch (kind) {
      case kScanSum:
        return {20, 50, 80};
      case kJoinGroup:
        return {5, 10};
      case kWideGroup:
        return {1000, 5000};
      default:
        return {10, 50};
    }
  }

  static std::string Sql(int kind, int64_t p) {
    const std::string v = std::to_string(p);
    switch (kind) {
      case kScanSum:
        return "SELECT count(*), sum(amount) FROM fact WHERE qty > " + v;
      case kJoinGroup:
        return "SELECT d.region, count(*), sum(f.amount) FROM fact f, dim d "
               "WHERE f.dim_id = d.id AND d.region < " +
               v + " GROUP BY d.region";
      case kWideGroup:
        return "SELECT cust, count(*), sum(qty) FROM fact WHERE amount > " + v +
               " GROUP BY cust";
      default:
        return "SELECT id, amount FROM fact WHERE qty < " + v +
               " ORDER BY amount DESC, id LIMIT 20";
    }
  }

  const uint64_t seed_;
  const int64_t fact_rows_;
  const int64_t dim_rows_;
  const int64_t customers_;
  std::map<std::string, std::vector<std::string>> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics(uint64_t seed, Size size) {
  return std::make_unique<Analytics>(seed, size);
}

}  // namespace perfbench

// join_order: one serial client session planning generated join queries.
//
// The tables and join queries come from the engine's own generators
// (workload/queries.h): chain-12, cycle-10, star-10, random-10 and random-8
// topologies over small tables with Zipf-skewed foreign keys and no indexes.
// Each statement adds a filter on the first relation and a literal that is new
// for every statement (an always-true `id > -k`), so the plan cache never hits
// and every statement pays a full optimization. Every count(*) must equal a
// reference computed, before any timed window, through plans ordered by the
// greedy strategy instead of DP.
//
// The random generator draws both the graph and the data from its seed, and
// many of its graphs make count(*) explode (execution then dominates, as with
// cliques). The two random graphs therefore use fixed generator seeds whose
// results stay small; the other topologies take their data from the workload
// seed.
#include <iterator>
#include <map>

#include "workload.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using relopt::JoinTopology;
using relopt::QueryResult;
using relopt::Status;

struct Topology {
  JoinTopology topology;
  relopt::JoinWorkloadSpec spec;
  std::string filter_table;  ///< relation the per-statement filter applies to
  std::string sql;           ///< generated join query (filled by Build)
};

class JoinOrder final : public Workload {
 public:
  JoinOrder(uint64_t seed, Size size) : seed_(seed) {
    const bool full = size == Size::kFull;
    Add(JoinTopology::kChain, "c", full ? 12 : 5, full ? 100 : 20, 1.15, seed_ * 101);
    Add(JoinTopology::kCycle, "y", full ? 10 : 4, full ? 100 : 20, 1.2, seed_ * 101 + 1);
    Add(JoinTopology::kStar, "s", full ? 10 : 4, full ? 500 : 40, 1.3, seed_ * 101 + 2);
    Add(JoinTopology::kRandom, "q", full ? 10 : 5, full ? 100 : 20, 1.2, 13);
    Add(JoinTopology::kRandom, "p", full ? 8 : 4, full ? 100 : 20, 1.2, 10);
  }

  size_t clients() const override { return 1; }
  relopt::SessionOptions options() const override { return relopt::SessionOptions{}; }

  Status Build(relopt::Database* db, SetupTimes* times) override {
    const double t0 = NowSeconds();
    for (Topology& t : topologies_) {
      RELOPT_ASSIGN_OR_RETURN(t.sql, relopt::BuildJoinWorkload(db, t.topology, t.spec));
    }
    // No CREATE INDEX: index access paths would multiply the plans costed
    // per join without adding to what this workload measures.
    const double t1 = NowSeconds();
    RELOPT_RETURN_NOT_OK(Exec(db->default_session(), "ANALYZE"));
    const double t2 = NowSeconds();
    times->load_s = t1 - t0;
    times->analyze_s = t2 - t1;
    return Status::OK();
  }

  Status Prepare(relopt::Database* db) override {
    relopt::SessionOptions greedy = options();
    greedy.optimizer.join.algorithm = relopt::JoinEnumAlgorithm::kGreedy;
    relopt::Session* ref = db->CreateSession(greedy);
    for (size_t t = 0; t < topologies_.size(); ++t) {
      for (int64_t v : kFilterValues) {
        RELOPT_ASSIGN_OR_RETURN(QueryResult result, ref->Execute(Sql(t, v, 1)));
        if (result.rows.size() != 1) return Status::Internal("count(*) returned no row");
        reference_[{t, v}] = result.rows[0].At(0).AsInt();
      }
    }
    return Status::OK();
  }

  Stmt Next(size_t client, uint64_t i) const override {
    (void)client;
    // Topologies and filter values cycle in a fixed order, so every run
    // measures the same mix.
    const size_t shapes = topologies_.size();
    Stmt st;
    st.kind = static_cast<int>(i % shapes);
    st.a = kFilterValues[(i / shapes) % std::size(kFilterValues)];
    st.sql = Sql(static_cast<size_t>(st.kind), st.a, (seed_ % 1000) * 1000000 + i + 1);
    return st;
  }

  bool CheckRead(const Stmt& st, const QueryResult& result) const override {
    auto it = reference_.find({static_cast<size_t>(st.kind), st.a});
    return it != reference_.end() && result.rows.size() == 1 &&
           result.rows[0].NumValues() == 1 && result.rows[0].At(0).AsInt() == it->second;
  }

  std::string Describe(relopt::Database* db) const override {
    std::string out;
    for (const Topology& t : topologies_) {
      out += std::string(relopt::JoinTopologyToString(t.topology)) + "-" +
             std::to_string(t.spec.num_relations) + " ";
    }
    return out + "(zipf fk 1.0), tables=" + std::to_string(db->catalog()->TableNames().size()) +
           ", heap=" + std::to_string(HeapPages(db)) + " pages, pool=" +
           std::to_string(db->pool()->capacity()) + " pages";
  }

 private:
  static constexpr int64_t kFilterValues[] = {250, 500, 750, 1000};

  void Add(JoinTopology topology, const std::string& prefix, int relations, uint64_t rows,
           double growth, uint64_t generator_seed) {
    Topology t;
    t.topology = topology;
    t.spec.num_relations = relations;
    t.spec.base_rows = rows;
    t.spec.dim_rows = rows / 10;
    t.spec.growth = growth;
    t.spec.seed = generator_seed;
    t.spec.prefix = prefix;
    t.spec.fk_skew = 1.0;
    t.filter_table = topology == JoinTopology::kStar ? prefix + "_fact" : prefix + "0";
    topologies_.push_back(std::move(t));
  }

  std::string Sql(size_t topology, int64_t filter, uint64_t unique) const {
    const Topology& t = topologies_[topology];
    return t.sql + " AND " + t.filter_table + ".val < " + std::to_string(filter) + " AND " +
           t.filter_table + ".id > -" + std::to_string(unique);
  }

  const uint64_t seed_;
  std::vector<Topology> topologies_;
  std::map<std::pair<size_t, int64_t>, int64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinOrder(uint64_t seed, Size size) {
  return std::make_unique<JoinOrder>(seed, size);
}

}  // namespace perfbench

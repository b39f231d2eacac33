// Workload tests: TPC-C semantics, CH-benCHmark footprints, BusTracker
// shapes and mixes, SEATS, and the Table I statistics they produce.

#include <gtest/gtest.h>

#include <set>

#include "aets/workload/bustracker.h"
#include "aets/workload/chbenchmark.h"
#include "aets/workload/driver.h"
#include "aets/workload/seats.h"
#include "aets/workload/tpcc.h"
#include "aets/workload/workload_stats.h"

namespace aets {
namespace {

TpccConfig SmallTpcc() {
  TpccConfig config;
  config.warehouses = 1;
  config.items = 50;
  config.customers_per_district = 5;
  config.init_orders_per_district = 2;
  return config;
}

TEST(TpccTest, CatalogHasNineTables) {
  TpccWorkload tpcc(SmallTpcc());
  EXPECT_EQ(tpcc.catalog().num_tables(), 9u);
  EXPECT_EQ(*tpcc.catalog().GetTableId("order_line"), tpcc.orderline());
  EXPECT_EQ(*tpcc.catalog().GetTableId("stock"), tpcc.stock());
}

TEST(TpccTest, LoadPopulatesExpectedCardinalities) {
  TpccWorkload tpcc(SmallTpcc());
  LogicalClock clock;
  PrimaryDb db(&tpcc.catalog(), &clock);
  Rng rng(1);
  tpcc.Load(&db, &rng);
  Timestamp ts = db.last_commit_ts();
  const TableStore& store = db.store();
  EXPECT_EQ(store.GetTable(tpcc.warehouse())->VisibleRowCount(ts), 1u);
  EXPECT_EQ(store.GetTable(tpcc.district())->VisibleRowCount(ts), 10u);
  EXPECT_EQ(store.GetTable(tpcc.customer())->VisibleRowCount(ts), 50u);
  EXPECT_EQ(store.GetTable(tpcc.item())->VisibleRowCount(ts), 50u);
  EXPECT_EQ(store.GetTable(tpcc.stock())->VisibleRowCount(ts), 50u);
  EXPECT_EQ(store.GetTable(tpcc.orders())->VisibleRowCount(ts), 20u);
  EXPECT_EQ(store.GetTable(tpcc.neworder())->VisibleRowCount(ts), 20u);
}

TEST(TpccTest, NewOrderWritesExpectedTables) {
  TpccWorkload tpcc(SmallTpcc());
  LogicalClock clock;
  PrimaryDb db(&tpcc.catalog(), &clock);
  Rng rng(2);
  tpcc.Load(&db, &rng);
  auto before = db.DmlCountsByTable();
  ASSERT_TRUE(tpcc.RunNewOrder(&db, &rng).ok());
  auto after = db.DmlCountsByTable();
  EXPECT_EQ(after[tpcc.district()] - before[tpcc.district()], 1u);
  EXPECT_EQ(after[tpcc.orders()] - before[tpcc.orders()], 1u);
  EXPECT_EQ(after[tpcc.neworder()] - before[tpcc.neworder()], 1u);
  uint64_t lines = after[tpcc.orderline()] - before[tpcc.orderline()];
  EXPECT_GE(lines, 5u);
  EXPECT_LE(lines, 15u);
  EXPECT_EQ(after[tpcc.stock()] - before[tpcc.stock()], lines);
}

TEST(TpccTest, PaymentWritesExpectedTables) {
  TpccWorkload tpcc(SmallTpcc());
  LogicalClock clock;
  PrimaryDb db(&tpcc.catalog(), &clock);
  Rng rng(3);
  tpcc.Load(&db, &rng);
  auto before = db.DmlCountsByTable();
  ASSERT_TRUE(tpcc.RunPayment(&db, &rng).ok());
  auto after = db.DmlCountsByTable();
  EXPECT_EQ(after[tpcc.warehouse()] - before[tpcc.warehouse()], 1u);
  EXPECT_EQ(after[tpcc.district()] - before[tpcc.district()], 1u);
  EXPECT_EQ(after[tpcc.customer()] - before[tpcc.customer()], 1u);
  EXPECT_EQ(after[tpcc.history()] - before[tpcc.history()], 1u);
}

TEST(TpccTest, DeliveryConsumesBacklog) {
  TpccWorkload tpcc(SmallTpcc());
  LogicalClock clock;
  PrimaryDb db(&tpcc.catalog(), &clock);
  Rng rng(4);
  tpcc.Load(&db, &rng);
  auto before = db.DmlCountsByTable();
  ASSERT_TRUE(tpcc.RunDelivery(&db, &rng).ok());
  auto after = db.DmlCountsByTable();
  // One order delivered per district: 10 neworder deletes + 10 order
  // updates + per-order line updates + 10 customer updates.
  EXPECT_EQ(after[tpcc.neworder()] - before[tpcc.neworder()], 10u);
  EXPECT_EQ(after[tpcc.orders()] - before[tpcc.orders()], 10u);
  EXPECT_GE(after[tpcc.orderline()] - before[tpcc.orderline()], 50u);
}

TEST(TpccTest, HotGroupConfigurationMatchesPaper) {
  TpccWorkload tpcc(SmallTpcc());
  auto groups = tpcc.DefaultHotGroups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<TableId>{tpcc.district(), tpcc.stock(),
                                             tpcc.customer(), tpcc.orders()}));
  EXPECT_EQ(groups[1], (std::vector<TableId>{tpcc.orderline()}));
  // order_line appears in both analytic queries -> twice the access rate.
  int orderline_refs = 0;
  for (const auto& q : tpcc.analytic_queries()) {
    for (TableId t : q.tables) {
      if (t == tpcc.orderline()) ++orderline_refs;
    }
  }
  EXPECT_EQ(orderline_refs, 2);
}

TEST(TpccTest, TableOneStatistics) {
  TpccWorkload tpcc(SmallTpcc());
  WorkloadStats stats = MeasureWorkloadStats(&tpcc, /*num_txns=*/600);
  EXPECT_EQ(stats.num_written_tables, 8u);   // paper: num(T)=8
  EXPECT_EQ(stats.num_accessed_tables, 5u);  // paper: num(A)=5
  EXPECT_EQ(stats.num_hot_tables, 5u);       // paper: num(A∩T)=5
  // Paper reports 90.98%; our scaled mix lands in the high-80s/low-90s.
  EXPECT_GT(stats.hot_log_ratio, 0.80);
  EXPECT_LT(stats.hot_log_ratio, 0.97);
}

TEST(ChBenchmarkTest, TwentyTwoQueriesOverTwelveTables) {
  TpccConfig config = SmallTpcc();
  ChBenchmarkWorkload ch(config);
  EXPECT_EQ(ch.catalog().num_tables(), 12u);
  EXPECT_EQ(ch.analytic_queries().size(), 22u);
  for (const auto& q : ch.analytic_queries()) {
    EXPECT_FALSE(q.tables.empty()) << q.name;
    std::set<TableId> unique(q.tables.begin(), q.tables.end());
    EXPECT_EQ(unique.size(), q.tables.size()) << q.name << " has duplicates";
    for (TableId t : q.tables) EXPECT_LT(t, ch.catalog().num_tables());
  }
}

TEST(ChBenchmarkTest, TableIdsAlignWithEmbeddedTpcc) {
  ChBenchmarkWorkload ch(SmallTpcc());
  EXPECT_EQ(*ch.catalog().GetTableId("order_line"), ch.tpcc().orderline());
  EXPECT_EQ(*ch.catalog().GetTableId("supplier"), ch.supplier());
}

TEST(ChBenchmarkTest, Q1RatioTracksOrderLineShare) {
  ChBenchmarkWorkload ch(SmallTpcc());
  // Q1 reads only order_line; its hot ratio is order_line's log share,
  // which dominates the TPC-C mix (paper: 60.83%).
  double ratio = HotRatioForTables(&ch, 400,
                                   ch.analytic_queries()[0].tables);
  EXPECT_GT(ratio, 0.30);
  EXPECT_LT(ratio, 0.75);
}

TEST(ChBenchmarkTest, OltpRunsAndReadOnlyTablesStayClean) {
  ChBenchmarkWorkload ch(SmallTpcc());
  LogicalClock clock;
  PrimaryDb db(&ch.catalog(), &clock);
  Rng rng(5);
  ch.Load(&db, &rng);
  OltpDriver driver(&ch, &db);
  driver.Run(100);
  EXPECT_EQ(driver.txns_committed(), 100u);
  auto counts = db.DmlCountsByTable();
  EXPECT_EQ(counts.count(ch.supplier()) ? 0 : 0, 0);  // loaded once
  // supplier/nation/region receive only their load-phase inserts.
  EXPECT_EQ(counts[ch.supplier()], 100u);
  EXPECT_EQ(counts[ch.nation()], 25u);
  EXPECT_EQ(counts[ch.region()], 5u);
}

TEST(BusTrackerTest, CatalogShape) {
  BusTrackerWorkload bus;
  EXPECT_EQ(bus.catalog().num_tables(), 65u);
  EXPECT_EQ(bus.hot_tables().size(), 14u);
  EXPECT_TRUE(bus.catalog().GetTableId("m.trip").ok());
  EXPECT_TRUE(bus.catalog().GetTableId("m.app_state_log").ok());
}

TEST(BusTrackerTest, HotRatioNearPaper) {
  BusTrackerConfig config;
  config.rows_per_table = 20;
  BusTrackerWorkload bus(config);
  WorkloadStats stats = MeasureWorkloadStats(&bus, /*num_txns=*/3000);
  EXPECT_EQ(stats.num_hot_tables, 14u);  // paper: 14 hot tables
  // Paper: 37.12% of log entries on hot tables.
  EXPECT_NEAR(stats.hot_log_ratio, 0.3712, 0.03);
}

TEST(BusTrackerTest, RatesVaryOverTimeAndColdStayZero) {
  BusTrackerWorkload bus;
  TableId hot = bus.hot_tables().front();
  double r0 = bus.TrueRate(hot, 0);
  bool varies = false;
  for (int s = 1; s < 48; ++s) {
    if (std::abs(bus.TrueRate(hot, s) - r0) > 1.0) varies = true;
    EXPECT_GE(bus.TrueRate(hot, s), 0.0);
  }
  EXPECT_TRUE(varies);
  // Cold tables never accessed.
  TableId cold = *bus.catalog().GetTableId("m.app_state_log");
  for (int s = 0; s < 48; ++s) EXPECT_EQ(bus.TrueRate(cold, s), 0.0);
}

TEST(BusTrackerTest, GeneratedSeriesIsDeterministicPerSeed) {
  BusTrackerWorkload bus;
  auto a = bus.GenerateRateSeries(50, 0.1, 7);
  auto b = bus.GenerateRateSeries(50, 0.1, 7);
  auto c = bus.GenerateRateSeries(50, 0.1, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(a.front().size(), 65u);
}

TEST(BusTrackerTest, QuerySamplingFollowsPhase) {
  BusTrackerWorkload bus;
  Rng rng(3);
  // Sampling should produce valid indices and favor high-rate tables.
  std::vector<int> counts(bus.analytic_queries().size(), 0);
  for (int i = 0; i < 2000; ++i) {
    size_t q = bus.SampleQuery(&rng, 0.25);
    ASSERT_LT(q, bus.analytic_queries().size());
    counts[q]++;
  }
  int max_count = *std::max_element(counts.begin(), counts.end());
  int min_count = *std::min_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, min_count);  // non-uniform by construction
}

TEST(SeatsTest, TableOneStatistics) {
  SeatsWorkload seats;
  WorkloadStats stats = MeasureWorkloadStats(&seats, /*num_txns=*/4000);
  EXPECT_EQ(stats.num_written_tables, 4u);   // paper: num(T)=4
  EXPECT_EQ(stats.num_accessed_tables, 8u);  // paper: num(A)=8
  EXPECT_EQ(stats.num_hot_tables, 2u);       // paper: num(A∩T)=2
  // Paper: 38.08%.
  EXPECT_NEAR(stats.hot_log_ratio, 0.3808, 0.06);
}

TEST(WorkloadStatsTest, HotTablesAreIntersection) {
  TpccWorkload tpcc(SmallTpcc());
  auto hot = tpcc.HotTables();
  std::set<TableId> hot_set(hot.begin(), hot.end());
  EXPECT_EQ(hot_set, (std::set<TableId>{tpcc.district(), tpcc.customer(),
                                        tpcc.orders(), tpcc.orderline(),
                                        tpcc.stock()}));
}

}  // namespace
}  // namespace aets

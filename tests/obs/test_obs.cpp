// Observability subsystem tests: metrics registry (sharded accumulation,
// snapshot merging, thread safety under parallel_for), the forwarding-event
// tracer (ring bounds, per-flow filter), the JSON builder and the artifact
// writers.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/thread_pool.hpp"
#include "obs/artifact.hpp"
#include "obs/exposition.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mifo::obs {
namespace {

// --- Registry ---------------------------------------------------------------

TEST(Registry, CounterAccumulatesAcrossShards) {
  Registry reg;
  const MetricId c = reg.counter("test.count");
  Registry::Shard& s1 = reg.create_shard();
  Registry::Shard& s2 = reg.create_shard();
  s1.add(c);
  s1.add(c, 2.0);
  s2.add(c, 4.0);
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("test.count", -1.0), 7.0);
}

TEST(Registry, SameNameAndLabelsShareAnId) {
  Registry reg;
  const MetricId a = reg.counter("x", "k=1");
  const MetricId b = reg.counter("x", "k=1");
  const MetricId c = reg.counter("x", "k=2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(Registry, LabelsKeepFamiliesApartInSnapshots) {
  Registry reg;
  const MetricId a = reg.counter("dp.drops", "reason=valley");
  const MetricId b = reg.counter("dp.drops", "reason=ttl");
  Registry::Shard& s = reg.create_shard();
  s.add(a, 3.0);
  s.add(b, 5.0);
  const Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("dp.drops", -1.0, "reason=valley"), 3.0);
  EXPECT_DOUBLE_EQ(snap.value_or("dp.drops", -1.0, "reason=ttl"), 5.0);
  EXPECT_EQ(snap.find("dp.drops", "reason=nope"), nullptr);
}

TEST(Registry, GaugeSetAndSnapshot) {
  Registry reg;
  const MetricId g = reg.gauge("test.level");
  Registry::Shard& s = reg.create_shard();
  s.set(g, 2.5);
  s.set(g, 4.5);  // last write wins within a shard
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("test.level", -1.0), 4.5);
}

TEST(Registry, HistogramObserveMergesBins) {
  Registry reg;
  const MetricId h = reg.histogram("test.lat", 0.0, 10.0, 5);
  Registry::Shard& s1 = reg.create_shard();
  Registry::Shard& s2 = reg.create_shard();
  s1.observe(h, 1.0);   // bin 0
  s2.observe(h, 9.0);   // bin 4
  s2.observe(h, 99.0);  // clamps to bin 4
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const Histogram& hist = snap.histograms[0].hist;
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.bin_count(0), 1u);
  EXPECT_EQ(hist.bin_count(4), 2u);
}

TEST(Registry, MetricRegisteredAfterShardCreationStillCounts) {
  Registry reg;
  Registry::Shard& s = reg.create_shard();
  const MetricId late = reg.counter("test.late");
  s.add(late, 2.0);  // shard grows lazily to fit the new id
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("test.late", -1.0), 2.0);
}

TEST(Registry, OneShardPerWorkerUnderParallelFor) {
  // The intended concurrent pattern: workers register their shard up front
  // and accumulate without synchronization; snapshot() after the join sees
  // every increment exactly once.
  Registry reg;
  const MetricId c = reg.counter("par.count");
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kPerWorker = 10000;
  std::vector<Registry::Shard*> shards;
  shards.reserve(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    shards.push_back(&reg.create_shard());
  }
  ThreadPool pool(kWorkers);
  parallel_for(pool, kWorkers, [&](std::size_t w) {
    for (std::size_t i = 0; i < kPerWorker; ++i) shards[w]->add(c);
  });
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("par.count", -1.0),
                   static_cast<double>(kWorkers * kPerWorker));
}

TEST(Registry, ConcurrentRegistrationAndShardCreationIsSafe) {
  // Arms registering their own labelled metrics mid-flight (the bench
  // pattern) must not race; every arm's count survives.
  Registry reg;
  constexpr std::size_t kArms = 8;
  ThreadPool pool(kArms);
  parallel_for(pool, kArms, [&](std::size_t a) {
    const MetricId id =
        reg.counter("arm.count", "arm=" + std::to_string(a));
    Registry::Shard& s = reg.create_shard();
    for (int i = 0; i < 1000; ++i) s.add(id);
  });
  const Snapshot snap = reg.snapshot();
  for (std::size_t a = 0; a < kArms; ++a) {
    EXPECT_DOUBLE_EQ(
        snap.value_or("arm.count", -1.0, "arm=" + std::to_string(a)), 1000.0);
  }
}

// --- Tracer -----------------------------------------------------------------

TraceEvent ev_for_flow(std::uint64_t flow) {
  TraceEvent ev;
  ev.kind = TraceKind::Forward;
  ev.flow = flow;
  return ev;
}

TEST(Tracer, RecordsInOrder) {
  Tracer tr(8);
  for (std::uint64_t i = 0; i < 5; ++i) tr.record(ev_for_flow(i));
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(evs[i].flow, i);
  EXPECT_EQ(tr.overwritten(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCounts) {
  Tracer tr(4);
  for (std::uint64_t i = 0; i < 10; ++i) tr.record(ev_for_flow(i));
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-to-newest: 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].flow, 6 + i);
  EXPECT_EQ(tr.overwritten(), 6u);
}

TEST(Tracer, FlowFilter) {
  Tracer tr(16);
  EXPECT_TRUE(tr.wants(1));
  EXPECT_TRUE(tr.wants(2));
  tr.set_flow_filter(1);
  EXPECT_TRUE(tr.wants(1));
  EXPECT_FALSE(tr.wants(2));
  EXPECT_TRUE(tr.wants(kNoTraceFlow));  // control-plane events always pass
  tr.clear_flow_filter();
  EXPECT_TRUE(tr.wants(2));
}

TEST(Tracer, ClearResets) {
  Tracer tr(4);
  for (int i = 0; i < 6; ++i) tr.record(ev_for_flow(1));
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.overwritten(), 0u);
}

TEST(Tracer, DescribeMentionsTheKind) {
  TraceEvent ev;
  ev.kind = TraceKind::TagCheckFail;
  ev.tag = false;
  ev.rel = topo::Rel::Peer;
  const std::string s = Tracer::describe(ev);
  EXPECT_NE(s.find("tag-check-FAIL"), std::string::npos) << s;
  ev.kind = TraceKind::ReturnDetected;
  EXPECT_NE(Tracer::describe(ev).find("return-detected"), std::string::npos);
}

// --- Json -------------------------------------------------------------------

TEST(Json, DumpCompact) {
  Json root = Json::object();
  root.set("a", Json::num(std::uint64_t{1}));
  root.set("b", Json::str("x\"y"));
  root.set("c", Json::boolean(true));
  Json arr = Json::array();
  arr.push(Json::num(1.5));
  arr.push(Json());
  root.set("d", std::move(arr));
  EXPECT_EQ(root.dump(), R"({"a":1,"b":"x\"y","c":true,"d":[1.5,null]})");
}

TEST(Json, KeyOrderIsInsertionOrder) {
  Json root = Json::object();
  root.set("zzz", Json::num(std::uint64_t{1}));
  root.set("aaa", Json::num(std::uint64_t{2}));
  const std::string s = root.dump();
  EXPECT_LT(s.find("zzz"), s.find("aaa"));
}

TEST(Json, IndentedDumpIsValidShape) {
  Json root = Json::object();
  root.set("k", Json::num(42.0));
  const std::string s = root.dump(2);
  EXPECT_NE(s.find("{\n  \"k\": 42\n}"), std::string::npos) << s;
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json::num(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

// --- artifact writers -------------------------------------------------------

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "mifo_obs_artifacts";
    std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    ::setenv("MIFO_ARTIFACT_DIR", dir_.c_str(), 1);
  }
  void TearDown() override { ::unsetenv("MIFO_ARTIFACT_DIR"); }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
};

TEST_F(ArtifactTest, WriteArtifactRoundTrips) {
  Json root = Json::object();
  root.set("schema", Json::str("mifo.run_artifact.v1"));
  root.set("n", Json::num(std::uint64_t{3}));
  const std::string path = write_artifact("unit_test_artifact", root);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir_ + "/unit_test_artifact.json");
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\": \"mifo.run_artifact.v1\""),
            std::string::npos);
  EXPECT_NE(body.find("\"n\": 3"), std::string::npos);
}

TEST_F(ArtifactTest, WriteCsvEmitsHeaderAndRows) {
  const std::string path =
      write_csv("unit_test_series", {"t", "v"}, {{0.5, 1.0}, {1.0, 2.5}});
  ASSERT_FALSE(path.empty());
  const std::string body = slurp(path);
  EXPECT_EQ(body, "t,v\n0.5,1\n1,2.5\n");
}

TEST_F(ArtifactTest, DashDisablesEmission) {
  ::setenv("MIFO_ARTIFACT_DIR", "-", 1);
  EXPECT_TRUE(artifact_dir().empty());
  EXPECT_TRUE(write_artifact("nope", Json::object()).empty());
  EXPECT_TRUE(write_csv("nope", {"a"}, {}).empty());
}

TEST_F(ArtifactTest, SnapshotToJsonCarriesLabelsAndKinds) {
  Registry reg;
  const MetricId c = reg.counter("x", "k=v");
  reg.create_shard().add(c, 2.0);
  const std::string s = to_json(reg.snapshot()).dump();
  EXPECT_NE(s.find("\"labels\":\"k=v\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"kind\":\"counter\""), std::string::npos) << s;
}

// --- explicit-bounds histograms ---------------------------------------------

TEST(Histogram, ExplicitEdgesBinValues) {
  Histogram h(std::vector<double>{0.0, 0.01, 0.1, 1.0});
  h.add(0.005);  // bin 0
  h.add(0.05);   // bin 1
  h.add(0.5);    // bin 2
  h.add(5.0);    // clamps into the last bin
  h.add(-1.0);   // clamps into the first bin
  EXPECT_EQ(h.bins(), 3u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 2u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 0.01);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 0.1);
}

TEST(Histogram, ExplicitEdgesBoundaryGoesToUpperBin) {
  // upper_bound semantics: a value exactly on an interior edge lands in the
  // bin whose low edge it is.
  Histogram h(std::vector<double>{0.0, 1.0, 2.0});
  h.add(1.0);
  EXPECT_EQ(h.bin_count(0), 0u);
  EXPECT_EQ(h.bin_count(1), 1u);
}

TEST(Histogram, ExplicitEdgesMerge) {
  Histogram a(std::vector<double>{0.0, 0.5, 1.0});
  Histogram b(std::vector<double>{0.0, 0.5, 1.0});
  a.add(0.25);
  b.add(0.75);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.bin_count(0), 1u);
  EXPECT_EQ(a.bin_count(1), 1u);
}

TEST(Registry, ExplicitBoundsHistogramObserveAndSnapshot) {
  Registry reg;
  const MetricId h =
      reg.histogram("test.rec", {0.0, 0.01, 0.1, 1.0}, "k=v");
  Registry::Shard& s = reg.create_shard();
  s.observe(h, 0.05);
  s.observe(h, 0.5);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const Histogram& hist = snap.histograms[0].hist;
  EXPECT_EQ(hist.bins(), 3u);
  EXPECT_EQ(hist.bin_count(1), 1u);
  EXPECT_EQ(hist.bin_count(2), 1u);
  // The snapshot JSON carries the explicit bounds for schema consumers.
  const std::string js = to_json(snap).dump();
  EXPECT_NE(js.find("\"bounds\""), std::string::npos) << js;
}

TEST(Registry, SetHistogramReplacesInsteadOfAccumulating) {
  // The exactly-once publish contract: re-publishing a snapshot-style
  // histogram must not double its counts (satellite fix for snapshot racing
  // a barrier rendezvous republish).
  Registry reg;
  const MetricId id = reg.histogram("test.win", {0.0, 1.0, 2.0});
  Registry::Shard& s = reg.create_shard();
  Histogram h(std::vector<double>{0.0, 1.0, 2.0});
  h.add(0.5);
  h.add(1.5);
  s.set_histogram(id, h);
  s.set_histogram(id, h);  // idempotent re-publish
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.total(), 2u);
}

TEST(Registry, MergeHistogramAccumulatesAcrossCalls) {
  Registry reg;
  const MetricId id = reg.histogram("test.acc", {0.0, 1.0, 2.0});
  Registry::Shard& s = reg.create_shard();
  Histogram h(std::vector<double>{0.0, 1.0, 2.0});
  h.add(0.5);
  s.merge_histogram(id, h);
  s.merge_histogram(id, h);
  EXPECT_EQ(reg.snapshot().histograms[0].hist.total(), 2u);
}

// --- flight-recorder trace context ------------------------------------------

TEST(Tracer, StampsShardEpochAndSeq) {
  Tracer tr(8);
  tr.set_shard(3);
  tr.set_epoch(7);
  tr.record(ev_for_flow(1));
  tr.set_epoch(8);
  tr.record(ev_for_flow(2));
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].shard, 3u);
  EXPECT_EQ(evs[0].epoch, 7u);
  EXPECT_EQ(evs[0].seq, 0u);
  EXPECT_EQ(evs[1].epoch, 8u);
  EXPECT_EQ(evs[1].seq, 1u);
}

TEST(Tracer, SeqSurvivesRingWraparound) {
  Tracer tr(4);
  for (std::uint64_t i = 0; i < 10; ++i) tr.record(ev_for_flow(i));
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // seq is the per-tracer recording ordinal, not a ring slot index.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].seq, 6 + i);
}

TEST(Tracer, SpareAdvertSuppression) {
  Tracer tr(8);
  tr.set_keep_spare_adverts(false);
  TraceEvent sa;
  sa.kind = TraceKind::SpareAdvert;
  tr.record(sa);
  tr.record(ev_for_flow(1));
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, TraceKind::Forward);
}

TEST(TimelineMerge, EpochMajorOrderAcrossTracers) {
  // Tracer A records epochs {0, 2}, tracer B epoch 1 with an *earlier*
  // sim time: the merge must still be epoch-major (the conservative-window
  // guarantee makes epoch the causal unit, not raw t).
  Tracer a(8);
  Tracer b(8);
  a.set_shard(0);
  b.set_shard(1);
  TraceEvent ev;
  ev.kind = TraceKind::Forward;
  ev.flow = 1;
  ev.t = 1.0;
  a.set_epoch(0);
  a.record(ev);
  ev.t = 0.5;
  b.set_epoch(1);
  b.record(ev);
  ev.t = 2.0;
  a.set_epoch(2);
  a.record(ev);
  const Timeline tl = merge_timelines({&a, &b});
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_TRUE(tl.epoch_monotone());
  EXPECT_EQ(tl.events[0].epoch, 0u);
  EXPECT_EQ(tl.events[1].epoch, 1u);
  EXPECT_EQ(tl.events[1].shard, 1u);
  EXPECT_EQ(tl.events[2].epoch, 2u);
}

TEST(TimelineMerge, SameEpochTieBreaksOnTimeThenRouter) {
  Tracer a(8);
  Tracer b(8);
  b.set_shard(1);
  TraceEvent ev;
  ev.kind = TraceKind::Forward;
  ev.flow = 1;
  ev.t = 2.0;
  ev.router = 9;
  a.record(ev);
  ev.t = 2.0;
  ev.router = 4;
  b.record(ev);
  ev.t = 1.0;
  ev.router = 30;
  b.record(ev);
  const Timeline tl = merge_timelines({&a, &b});
  ASSERT_EQ(tl.events.size(), 3u);
  EXPECT_DOUBLE_EQ(tl.events[0].t, 1.0);
  EXPECT_EQ(tl.events[1].router, 4u);  // same t: lower router first
  EXPECT_EQ(tl.events[2].router, 9u);
}

TEST(TimelineMerge, ConcurrentAppendUnderParallelForStaysOrdered) {
  // Satellite coverage for the TSan leg: one tracer per worker (the
  // single-writer contract), concurrent appends with ring wraparound, then
  // a snapshot merge. The merged timeline must be deterministically ordered
  // and account for every overwrite.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kPerWorker = 1000;
  constexpr std::size_t kCapacity = 256;  // forces wraparound
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    tracers.push_back(std::make_unique<Tracer>(kCapacity));
    tracers.back()->set_shard(static_cast<std::uint32_t>(w));
  }
  ThreadPool pool(kWorkers);
  parallel_for(pool, kWorkers, [&](std::size_t w) {
    for (std::size_t i = 0; i < kPerWorker; ++i) {
      TraceEvent ev;
      ev.kind = TraceKind::Forward;
      ev.flow = w;
      ev.t = static_cast<SimTime>(i);
      ev.router = static_cast<std::uint32_t>(w);
      tracers[w]->set_epoch(i / 100);
      tracers[w]->record(ev);
    }
  });
  std::vector<const Tracer*> ptrs;
  for (const auto& tr : tracers) ptrs.push_back(tr.get());
  const Timeline tl = merge_timelines(ptrs);
  EXPECT_EQ(tl.events.size(), kWorkers * kCapacity);
  EXPECT_EQ(tl.overwritten, kWorkers * (kPerWorker - kCapacity));
  EXPECT_TRUE(tl.epoch_monotone());
  for (std::size_t i = 1; i < tl.events.size(); ++i) {
    EXPECT_FALSE(trace_order(tl.events[i], tl.events[i - 1]))
        << "order violated at " << i;
  }
}

// --- Json parser -------------------------------------------------------------

TEST(Json, ParseRoundTripsDump) {
  Json root = Json::object();
  root.set("a", Json::num(std::uint64_t{42}));
  root.set("b", Json::str("x\"\\y"));
  root.set("c", Json::boolean(false));
  Json arr = Json::array();
  arr.push(Json::num(1.5));
  arr.push(Json());
  root.set("d", std::move(arr));
  const auto parsed = Json::parse(root.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), root.dump());
  ASSERT_NE(parsed->find("a"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->find("a")->number(), 42.0);
  EXPECT_EQ(parsed->find("b")->text(), "x\"\\y");
  EXPECT_FALSE(parsed->find("c")->truth());
  EXPECT_TRUE(parsed->find("d")->items()[1].is_null());
}

TEST(Json, ParseRejectsMalformedAndTrailingGarbage) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{} trailing").has_value());
  EXPECT_FALSE(Json::parse("").has_value());
}

TEST(Json, ParseUnicodeEscape) {
  const auto parsed = Json::parse(R"(["Aé"])");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->items()[0].text(), "A\xc3\xa9");
}

// --- text exposition ---------------------------------------------------------

TEST(Exposition, RendersCounterWithLabels) {
  Registry reg;
  const MetricId c = reg.counter("dp.drops", "reason=valley");
  reg.create_shard().add(c, 3.0);
  const std::string text = text_exposition(reg.snapshot());
  EXPECT_NE(text.find("# TYPE dp_drops counter"), std::string::npos) << text;
  EXPECT_NE(text.find("dp_drops{reason=\"valley\"} 3"), std::string::npos)
      << text;
}

TEST(Exposition, HistogramBucketsAreCumulative) {
  Registry reg;
  const MetricId h = reg.histogram("test.lat", {0.0, 1.0, 2.0});
  Registry::Shard& s = reg.create_shard();
  s.observe(h, 0.5);
  s.observe(h, 1.5);
  const std::string text = text_exposition(reg.snapshot());
  EXPECT_NE(text.find("test_lat_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_bucket{le=\"2\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_bucket{le=\"+Inf\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_lat_count 2"), std::string::npos) << text;
}

TEST(Exposition, DumpServiceConsumesRequests) {
  Registry reg;
  reg.create_shard().add(reg.counter("x"), 1.0);
  DumpService ds(reg);
  EXPECT_FALSE(ds.service());  // nothing requested
  request_dump();
  EXPECT_TRUE(dump_requested());
  EXPECT_TRUE(ds.service());   // consumed...
  EXPECT_FALSE(ds.service());  // ...exactly once
}

}  // namespace
}  // namespace mifo::obs

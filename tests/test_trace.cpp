// Tests for the virtual-time tracer: recording, ordering, CSV output, label
// rendering, and the Device charge, message and DMA intervals it receives
// as a probe.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using obs::TraceEvent;
using obs::TraceRecorder;
using tilesim::Device;
using tilesim::Tile;
using tilesim::TraceKind;

TEST(Trace, RecordAndSortedRetrieval) {
  TraceRecorder rec(4);
  rec.record(2, TraceKind::kCopy, 100, 200, "b");
  rec.record(0, TraceKind::kCompute, 50, 80, "a");
  rec.record(1, TraceKind::kCompute, 100, 150, "c");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].label, "a");        // earliest begin first
  EXPECT_EQ(events[1].tile, 1);           // tie on begin: lower tile first
  EXPECT_EQ(events[2].tile, 2);
  EXPECT_EQ(rec.event_count(), 3u);
}

TEST(Trace, Validation) {
  EXPECT_THROW(TraceRecorder{0}, std::invalid_argument);
  TraceRecorder rec(2);
  EXPECT_THROW(rec.record(2, TraceKind::kCopy, 0, 1), std::out_of_range);
  EXPECT_THROW(rec.record(-1, TraceKind::kCopy, 0, 1), std::out_of_range);
}

TEST(Trace, CsvFormat) {
  TraceRecorder rec(1);
  rec.record(0, TraceKind::kCopy, 10, 30, "memcpy");
  std::ostringstream os;
  rec.dump_csv(os);
  EXPECT_EQ(os.str(),
            "tile,kind,begin_ps,end_ps,duration_ps,label\n"
            "0,copy,10,30,20,memcpy\n");
}

TEST(Trace, CsvEscapingRfc4180) {
  // Plain fields pass through untouched.
  EXPECT_EQ(obs::csv_escape("memcpy"), "memcpy");
  EXPECT_EQ(obs::csv_escape(""), "");
  // Separators, quotes, and line breaks force quoting; embedded quotes
  // are doubled.
  EXPECT_EQ(obs::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(obs::csv_escape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(obs::csv_escape("cr\rhere"), "\"cr\rhere\"");

  TraceRecorder rec(1);
  rec.record(0, TraceKind::kCustom, 0, 5, "put, pe=1 \"bounce\"");
  std::ostringstream os;
  rec.dump_csv(os);
  EXPECT_EQ(os.str(),
            "tile,kind,begin_ps,end_ps,duration_ps,label\n"
            "0,custom,0,5,5,\"put, pe=1 \"\"bounce\"\"\"\n");
}

TEST(Trace, KindNames) {
  EXPECT_STREQ(tilesim::to_string(TraceKind::kCompute), "compute");
  EXPECT_STREQ(tilesim::to_string(TraceKind::kCopy), "copy");
  EXPECT_STREQ(tilesim::to_string(TraceKind::kMessage), "message");
  EXPECT_STREQ(tilesim::to_string(TraceKind::kBarrier), "barrier");
  EXPECT_STREQ(tilesim::to_string(TraceKind::kCollective), "collective");
  EXPECT_STREQ(tilesim::to_string(TraceKind::kCustom), "custom");
}

TEST(Trace, DeviceChargesAreRecordedWhileAttached) {
  Device device(tilesim::tile_gx36());
  TraceRecorder rec(device.tile_count());
  device.attach_probe(&rec);
  device.run(2, [&](Tile& tile) {
    tile.charge_int_ops(100);
    tilesim::CopyRequest req;
    req.bytes = 4096;
    tile.charge_copy(req);
  });
  device.detach_probe(&rec);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);  // 2 tiles x (compute + copy)
  int computes = 0, copies = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GT(e.end_ps, e.begin_ps);
    computes += e.kind == TraceKind::kCompute;
    copies += e.kind == TraceKind::kCopy;
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(copies, 2);
  // Detached: no further recording.
  device.run(1, [&](Tile& tile) { tile.charge_int_ops(5); });
  EXPECT_EQ(rec.event_count(), 4u);
}

TEST(Trace, IntervalLabelsAreRenderedBySite) {
  TraceRecorder rec(1);
  rec.on_interval(0, TraceKind::kCompute, 0, 1, nullptr, -1, -1);
  rec.on_interval(0, TraceKind::kMessage, 1, 2, "udn", 3, 5);
  rec.on_interval(0, TraceKind::kCopy, 2, 3, "dma put", -1, 2);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].label, "");
  EXPECT_EQ(events[1].label, "udn q3 from 5");
  EXPECT_EQ(events[2].label, "dma put pe2");
}

TEST(Trace, TshmemJobProducesTimeline) {
  tshmem::Runtime rt(tilesim::tile_gx36());
  TraceRecorder rec(rt.device().tile_count());
  rt.device().attach_probe(&rec);
  rt.run(4, [](tshmem::Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(1024);
    ctx.barrier_all();
    ctx.put(buf, buf, 1024 * sizeof(int), (ctx.my_pe() + 1) % 4);
    ctx.barrier_all();
    ctx.shfree(buf);
  });
  rt.device().detach_probe(&rec);
  EXPECT_GE(rec.event_count(), 4u);  // at least each PE's put copy
  bool saw_copy = false;
  bool saw_message = false;  // barrier tokens ride the UDN
  for (const TraceEvent& e : rec.events()) {
    saw_copy |= e.kind == TraceKind::kCopy;
    saw_message |= e.kind == TraceKind::kMessage;
  }
  EXPECT_TRUE(saw_copy);
  EXPECT_TRUE(saw_message);
}

TEST(Trace, NbiTransferRecordsTheDmaInterval) {
  tshmem::Runtime rt(tilesim::tile_gx36());
  TraceRecorder rec(rt.device().tile_count());
  rt.device().attach_probe(&rec);
  rt.run(2, [](tshmem::Context& ctx) {
    long* buf = ctx.shmalloc_n<long>(512);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.put_nbi(buf, buf, 512 * sizeof(long), 1);
      ctx.quiet();
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
  rt.device().detach_probe(&rec);
  int dma = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.label != "dma put pe1") continue;
    ++dma;
    EXPECT_EQ(e.tile, 0);
    EXPECT_EQ(e.kind, TraceKind::kCopy);
    EXPECT_GT(e.end_ps, e.begin_ps);
  }
  EXPECT_EQ(dma, 1);
}

}  // namespace

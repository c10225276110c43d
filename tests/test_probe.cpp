// Tests for the Device probe list (sim/probe.hpp): several probes attached
// together each see exactly what they see alone, a probe hears only its
// channels, a detached probe hears nothing, double attachment is rejected,
// and the DMA flight events that Context::transfer_nbi / Context::quiet
// emit carry the engine's times.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "sim/probe.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tilesim::FlightKind;
using tilesim::Probe;
using tshmem::Context;

// Spans, wait edges, flight events, trace intervals and rendezvous: a
// pull-style exchange, NBI traffic, a broadcast and barriers on 4 PEs.
void workload(Context& ctx) {
  long* buf = ctx.shmalloc_n<long>(256);
  long* src = ctx.shmalloc_n<long>(256);
  for (int i = 0; i < 256; ++i) src[i] = ctx.my_pe() * 1000 + i;
  ctx.barrier_all();
  const int peer = (ctx.my_pe() + 1) % ctx.num_pes();
  ctx.get(buf, src, 64 * sizeof(long), peer);
  ctx.put_nbi(buf + 64, src, 64 * sizeof(long), peer);
  ctx.tile().charge_fp_ops(1000);
  ctx.quiet();
  ctx.barrier_all();
  ctx.broadcast(buf + 128, src, 64 * sizeof(long), 0, ctx.world());
  ctx.barrier_all();
  ctx.shfree(src);
  ctx.shfree(buf);
}

struct Outputs {
  std::string profile;
  std::string ring;
  std::string trace;
};

// Runs the workload with the named probes attached; empty fields for the
// probes left out.
Outputs run_with(bool profiler, bool flight, bool trace) {
  tshmem::Runtime rt(tilesim::tile_gx36());
  tilesim::Device& device = rt.device();
  obs::Profiler prof(device);
  obs::FlightRecorder fr(device, 4096);
  obs::TraceRecorder tr(device.tile_count());
  if (profiler) device.attach_probe(&prof);
  if (flight) device.attach_probe(&fr);
  if (trace) device.attach_probe(&tr);
  rt.run(4, workload);
  Outputs out;
  if (profiler) {
    device.detach_probe(&prof);
    std::ostringstream os;
    obs::write_profile_json(os, prof.report());
    out.profile = os.str();
  }
  if (flight) {
    device.detach_probe(&fr);
    std::ostringstream os;
    for (const obs::FrEvent& e : fr.merged()) {
      os << e.vt << ' ' << e.pe << ' ' << e.seq << ' '
         << tilesim::fr_kind_name(e.kind) << ' ' << e.site << ' ' << e.peer
         << ' ' << e.bytes << ' ' << e.errc << '\n';
    }
    out.ring = os.str();
  }
  if (trace) {
    device.detach_probe(&tr);
    std::ostringstream os;
    tr.dump_csv(os);
    out.trace = os.str();
  }
  return out;
}

TEST(Probe, FanOutMatchesEachProbeAlone) {
  const Outputs prof_alone = run_with(true, false, false);
  const Outputs fr_alone = run_with(false, true, false);
  const Outputs tr_alone = run_with(false, false, true);
  const Outputs all = run_with(true, true, true);
  ASSERT_FALSE(prof_alone.profile.empty());
  ASSERT_FALSE(fr_alone.ring.empty());
  ASSERT_FALSE(tr_alone.trace.empty());
  EXPECT_EQ(all.profile, prof_alone.profile);
  EXPECT_EQ(all.ring, fr_alone.ring);
  EXPECT_EQ(all.trace, tr_alone.trace);
}

// Counts the callbacks it receives (from every tile thread).
class CountingProbe final : public Probe {
 public:
  CountingProbe()
      : Probe({tilesim::kSpanChannel, tilesim::kFlightChannel,
               tilesim::kIntervalChannel, tilesim::kRendezvousChannel}) {}
  explicit CountingProbe(tilesim::ProbeChannel only) : Probe({only}) {}
  std::atomic<int> calls{0};
  std::atomic<int> flights{0};
  std::atomic<int> resets{0};
  void on_span_begin(int, tilesim::ProfPhase, const char*,
                     tilesim::ps_t) override {
    ++calls;
  }
  void on_span_end(int, tilesim::ps_t) override { ++calls; }
  void on_flight_event(int, FlightKind, const char*, tilesim::ps_t, int,
                       std::uint64_t, int, std::uint64_t) override {
    ++calls;
    ++flights;
  }
  void on_interval(int, tilesim::TraceKind, tilesim::ps_t, tilesim::ps_t,
                   const char*, int, int) override {
    ++calls;
  }
  void on_rendezvous_arrive(const void*, std::uint64_t, int) override {
    ++calls;
  }
  void on_clock_reset() override {
    ++calls;
    ++resets;
  }
};

// A probe hears only the channels it names (plus clock resets).
TEST(Probe, ChannelMaskSkipsOtherCallbacks) {
  tshmem::Runtime rt(tilesim::tile_gx36());
  CountingProbe all;
  CountingProbe flight_only(tilesim::kFlightChannel);
  rt.device().attach_probe(&all);
  rt.device().attach_probe(&flight_only);
  rt.run(4, workload);
  ASSERT_GT(flight_only.flights, 0);
  EXPECT_EQ(flight_only.flights, all.flights);
  EXPECT_EQ(flight_only.resets, all.resets);
  EXPECT_EQ(flight_only.calls, flight_only.flights + flight_only.resets);
  EXPECT_GT(all.calls, all.flights + all.resets);
}

TEST(Probe, DetachedProbeReceivesNoCallbacks) {
  tshmem::Runtime rt(tilesim::tile_gx36());
  tilesim::Device& device = rt.device();
  CountingProbe a;
  CountingProbe b;
  device.attach_probe(&a);
  device.attach_probe(&b);
  rt.run(4, workload);
  ASSERT_GT(a.calls, 0);
  EXPECT_EQ(a.calls, b.calls);

  // Detaching one of two leaves the other attached.
  device.detach_probe(&a);
  const int a_before = a.calls;
  const int b_before = b.calls;
  rt.run(4, workload);
  EXPECT_EQ(a.calls, a_before);
  EXPECT_GT(b.calls, b_before);

  device.detach_probe(&b);
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[0], nullptr);
  const int b_detached = b.calls;
  rt.run(4, workload);
  device.reset_clocks();
  EXPECT_EQ(a.calls, a_before);
  EXPECT_EQ(b.calls, b_detached);
}

TEST(Probe, AttachingTwiceIsRejected) {
  tilesim::Device device(tilesim::tile_gx36());
  CountingProbe p;
  CountingProbe q;
  device.attach_probe(&p);
  EXPECT_THROW(device.attach_probe(&p), std::invalid_argument);
  EXPECT_THROW(device.attach_probe(nullptr), std::invalid_argument);
  device.attach_probe(&q);
  EXPECT_THROW(device.attach_probe(&q), std::invalid_argument);
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[0], &p);  // rejected attaches changed nothing
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[1], &q);
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[2], nullptr);
  device.reset_clocks();
  EXPECT_EQ(p.calls, 1);
  EXPECT_EQ(q.calls, 1);
  device.detach_probe(&p);
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[0], &q);
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[1], nullptr);
  device.detach_probe(&p);  // not attached: ignored
  EXPECT_EQ(device.probes(tilesim::kAnyChannel)[0], &q);

  // The list is bounded; a full list rejects one more.
  std::vector<CountingProbe> more(tilesim::Device::kMaxProbes);
  for (std::size_t i = 0; i + 1 < more.size(); ++i) {
    device.attach_probe(&more[i]);
  }
  EXPECT_THROW(device.attach_probe(&more.back()), std::invalid_argument);
}

// dma_issue / dma_drain are emitted by the Context around the engine
// calls, stamped with the descriptor's issue and completion times.
TEST(Probe, NbiDmaEventsCarryTheEngineTimes) {
  tshmem::RuntimeOptions opts;
  opts.flightrec = true;
  tshmem::Runtime rt(tilesim::tile_gx36(), opts);
  tilesim::DmaDescriptor desc;
  rt.run(2, [&](Context& ctx) {
    long* buf = ctx.shmalloc_n<long>(1024);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.put_nbi(buf, buf, 1024 * sizeof(long), 1);
      desc = ctx.tile().dma().pending_snapshot().at(0);
      ctx.quiet();
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
  std::vector<obs::FrEvent> issue;
  std::vector<obs::FrEvent> drain;
  std::uint64_t put_nbi_seq = 0;
  std::uint64_t quiet_seq = 0;
  for (const obs::FrEvent& e : rt.flightrec()->snapshot(0)) {
    if (e.kind == FlightKind::kDmaIssue) issue.push_back(e);
    if (e.kind == FlightKind::kDmaDrain) drain.push_back(e);
    if (e.kind == FlightKind::kPutNbi) put_nbi_seq = e.seq;
    if (e.kind == FlightKind::kQuiet && drain.size() == 1 && quiet_seq == 0) {
      quiet_seq = e.seq;
    }
  }
  ASSERT_EQ(issue.size(), 1u);
  ASSERT_EQ(drain.size(), 1u);
  EXPECT_EQ(issue[0].vt, desc.issue_ps);
  EXPECT_STREQ(issue[0].site, "dma_put");
  EXPECT_EQ(issue[0].peer, 1);
  EXPECT_EQ(issue[0].bytes, 1024 * sizeof(long));
  EXPECT_LT(issue[0].seq, put_nbi_seq);  // reported before the put_nbi
  EXPECT_EQ(drain[0].vt, desc.complete_ps);
  EXPECT_STREQ(drain[0].site, "dma_drain");
  EXPECT_EQ(drain[0].bytes, 1u);  // retired-descriptor count
  EXPECT_LT(drain[0].seq, quiet_seq);
}

}  // namespace

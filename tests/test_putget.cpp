// Tests for the put/get engine: every dynamic/static pairing of paper
// §IV-B (Figs 6-7), elementals, strided transfers (one engine call charged
// exactly like the element-wise p/g loop), cost-model ordering, and the
// TILEPro restriction on static transfers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "tshmem/api.hpp"
#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"
#include "util/error.hpp"

namespace {

using tshmem::Context;
using tshmem::Runtime;
using tshmem::RuntimeOptions;
using tilesim::ps_t;
namespace api = tshmem::api;

class PutGetTest : public ::testing::Test {
 protected:
  Runtime rt_{tilesim::tile_gx36()};
};

TEST_F(PutGetTest, DynamicDynamicPut) {
  rt_.run(4, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(256);
    for (int i = 0; i < 256; ++i) buf[i] = -1;
    ctx.barrier_all();
    std::vector<int> src(256);
    std::iota(src.begin(), src.end(), ctx.my_pe() * 1000);
    ctx.put(buf, src.data(), 256 * sizeof(int), (ctx.my_pe() + 1) % 4);
    ctx.barrier_all();
    const int writer = (ctx.my_pe() + 3) % 4;
    for (int i = 0; i < 256; ++i) EXPECT_EQ(buf[i], writer * 1000 + i);
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, DynamicDynamicGet) {
  rt_.run(4, [](Context& ctx) {
    double* buf = ctx.shmalloc_n<double>(64);
    for (int i = 0; i < 64; ++i) buf[i] = ctx.my_pe() + i * 0.5;
    ctx.barrier_all();
    double* dst = ctx.shmalloc_n<double>(64);
    const int src_pe = (ctx.my_pe() + 2) % 4;
    ctx.get(dst, buf, 64 * sizeof(double), src_pe);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(dst[i], src_pe + i * 0.5);
    ctx.barrier_all();
    ctx.shfree(dst);
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, SelfPutAndGet) {
  rt_.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(8);
    int local[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ctx.put(buf, local, sizeof(local), ctx.my_pe());
    int back[8] = {};
    ctx.get(back, buf, sizeof(back), ctx.my_pe());
    EXPECT_EQ(0, std::memcmp(local, back, sizeof(local)));
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, NonSymmetricSourceForPutIsAllowed) {
  // Paper §IV-B2: "any source variable may be used (symmetric or otherwise)
  // if the target variable is dynamic."
  rt_.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(4);
    ctx.barrier_all();
    int stack_src[4] = {9, 8, 7, 6};
    ctx.put(buf, stack_src, sizeof(stack_src), 1 - ctx.my_pe());
    ctx.barrier_all();
    EXPECT_EQ(buf[0], 9);
    EXPECT_EQ(buf[3], 6);
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, NonSymmetricRemoteTargetThrows) {
  rt_.run(2, [](Context& ctx) {
    int stack_target[4];
    int src[4] = {};
    if (ctx.my_pe() == 0) {
      EXPECT_THROW(ctx.put(stack_target, src, sizeof(src), 1),
                   std::invalid_argument);
      EXPECT_THROW(ctx.get(src, stack_target, sizeof(src), 1),
                   std::invalid_argument);
    }
    // A PE targeting itself is serviced directly, with no sink attached
    // here: the one-call strided path must still reject the address.
    const int me = ctx.my_pe();
    EXPECT_THROW(ctx.put(stack_target, src, sizeof(src), me),
                 std::invalid_argument);
    EXPECT_THROW(ctx.get(src, stack_target, sizeof(src), me),
                 std::invalid_argument);
    EXPECT_THROW(ctx.p(stack_target, 7, me), std::invalid_argument);
    EXPECT_THROW((void)ctx.g(stack_target, me), std::invalid_argument);
    EXPECT_THROW(ctx.iput(stack_target, src, 2, 1, 2, me),
                 std::invalid_argument);
    EXPECT_THROW(ctx.iget(src, stack_target, 1, 2, 2, me),
                 std::invalid_argument);
    ctx.barrier_all();
  });
}

TEST_F(PutGetTest, PeOutOfRangeThrows) {
  rt_.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(1);
    int v = 0;
    EXPECT_THROW(ctx.put(buf, &v, 4, 5), std::out_of_range);
    EXPECT_THROW(ctx.get(&v, buf, 4, -1), std::out_of_range);
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, ZeroByteTransferIsNoop) {
  rt_.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(1);
    *buf = 77;
    ctx.barrier_all();
    ctx.put(buf, nullptr, 0, 1 - ctx.my_pe());
    ctx.barrier_all();
    EXPECT_EQ(*buf, 77);
    ctx.shfree(buf);
  });
}

// --- static symmetric paths (Fig 7, TILE-Gx only) ----------------------------

TEST_F(PutGetTest, StaticDynamicPutViaInterrupt) {
  // Put into a remote *static* target from a dynamic source: the remote
  // tile services it over a UDN interrupt.
  rt_.run(2, [](Context& ctx) {
    int* stat = ctx.static_sym<int>("sd_put_target", 16);
    int* dyn = ctx.shmalloc_n<int>(16);
    for (int i = 0; i < 16; ++i) {
      stat[i] = -1;
      dyn[i] = ctx.my_pe() * 100 + i;
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.put(stat, dyn, 16 * sizeof(int), 1);
      EXPECT_EQ(ctx.runtime().interrupts().serviced(1), 1u);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (int i = 0; i < 16; ++i) EXPECT_EQ(stat[i], i);  // PE 0's dyn
    } else {
      for (int i = 0; i < 16; ++i) EXPECT_EQ(stat[i], -1);  // untouched
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

TEST_F(PutGetTest, DynamicStaticGetViaInterrupt) {
  // Get from a remote static source into my dynamic target.
  rt_.run(2, [](Context& ctx) {
    int* stat = ctx.static_sym<int>("ds_get_source", 8);
    int* dyn = ctx.shmalloc_n<int>(8);
    for (int i = 0; i < 8; ++i) stat[i] = ctx.my_pe() * 10 + i;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.get(dyn, stat, 8 * sizeof(int), 1);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(dyn[i], 10 + i);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

TEST_F(PutGetTest, StaticStaticViaBounceBuffer) {
  rt_.run(2, [](Context& ctx) {
    int* stat = ctx.static_sym<int>("ss_buf", 32);
    for (int i = 0; i < 32; ++i) stat[i] = ctx.my_pe() * 1000 + i;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      // Put my static array into PE 1's static array.
      ctx.put(stat, stat, 32 * sizeof(int), 1);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (int i = 0; i < 32; ++i) EXPECT_EQ(stat[i], i);  // PE 0's values
    }
    ctx.barrier_all();
    // And a static-static get in the other direction.
    if (ctx.my_pe() == 0) {
      int* dst = ctx.static_sym<int>("ss_buf2", 32);
      ctx.get(dst, stat, 32 * sizeof(int), 1);
      for (int i = 0; i < 32; ++i) EXPECT_EQ(dst[i], i);
    } else {
      (void)ctx.static_sym<int>("ss_buf2", 32);
    }
    ctx.barrier_all();
  });
}

TEST_F(PutGetTest, StaticLocalSelfTransferNeedsNoInterrupt) {
  rt_.run(2, [](Context& ctx) {
    int* stat = ctx.static_sym<int>("self_static", 4);
    int local[4] = {5, 6, 7, 8};
    ctx.put(stat, local, sizeof(local), ctx.my_pe());
    EXPECT_EQ(stat[2], 7);
    EXPECT_EQ(ctx.runtime().interrupts().serviced(ctx.my_pe()), 0u);
    ctx.barrier_all();
  });
}

TEST(PutGetPro64, StaticTransfersUnsupported) {
  // Paper §IV-B2: "Static symmetric variable transfers in TSHMEM are not
  // currently supported on the TILEPro architecture due to lack of support
  // for UDN interrupts."
  Runtime rt(tilesim::tile_pro64());
  rt.run(2, [](Context& ctx) {
    int* stat = ctx.static_sym<int>("pro_static", 4);
    int* dyn = ctx.shmalloc_n<int>(4);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      EXPECT_THROW(ctx.put(stat, dyn, 16, 1), std::runtime_error);
      EXPECT_THROW(ctx.get(dyn, stat, 16, 1), std::runtime_error);
      // Dynamic transfers still work fine.
      ctx.put(dyn, dyn, 16, 1);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

// --- elementals --------------------------------------------------------------

TEST_F(PutGetTest, ElementalRoundTripAllTypes) {
  rt_.run(2, [](Context& ctx) {
    struct Syms {
      short* s;
      int* i;
      long* l;
      long long* ll;
      float* f;
      double* d;
    } syms{ctx.shmalloc_n<short>(1), ctx.shmalloc_n<int>(1),
           ctx.shmalloc_n<long>(1),  ctx.shmalloc_n<long long>(1),
           ctx.shmalloc_n<float>(1), ctx.shmalloc_n<double>(1)};
    ctx.barrier_all();
    const int other = 1 - ctx.my_pe();
    ctx.p(syms.s, static_cast<short>(7), other);
    ctx.p(syms.i, 42, other);
    ctx.p(syms.l, 43L, other);
    ctx.p(syms.ll, 44LL, other);
    ctx.p(syms.f, 1.5f, other);
    ctx.p(syms.d, 2.5, other);
    ctx.barrier_all();
    EXPECT_EQ(*syms.s, 7);
    EXPECT_EQ(*syms.i, 42);
    EXPECT_EQ(*syms.l, 43L);
    EXPECT_EQ(*syms.ll, 44LL);
    EXPECT_EQ(*syms.f, 1.5f);
    EXPECT_EQ(*syms.d, 2.5);
    EXPECT_EQ(ctx.g(syms.i, other), 42);
    EXPECT_EQ(ctx.g(syms.d, other), 2.5);
    ctx.barrier_all();
    ctx.shfree(syms.d);
    ctx.shfree(syms.f);
    ctx.shfree(syms.ll);
    ctx.shfree(syms.l);
    ctx.shfree(syms.i);
    ctx.shfree(syms.s);
  });
}

// --- strided -----------------------------------------------------------------

TEST_F(PutGetTest, StridedIputScattersCorrectly) {
  rt_.run(2, [](Context& ctx) {
    int* buf = ctx.shmalloc_n<int>(32);
    for (int i = 0; i < 32; ++i) buf[i] = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      int src[8];
      for (int i = 0; i < 8; ++i) src[i] = i + 1;
      // Every 4th element on the target, contiguous source.
      ctx.iput(buf, src, 4, 1, 8, 1);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(buf[i * 4], i + 1);
        EXPECT_EQ(buf[i * 4 + 1], 0);
      }
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

TEST_F(PutGetTest, StridedIgetGathersCorrectly) {
  rt_.run(2, [](Context& ctx) {
    double* buf = ctx.shmalloc_n<double>(24);
    for (int i = 0; i < 24; ++i) buf[i] = ctx.my_pe() * 100.0 + i;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      double dst[8] = {};
      ctx.iget(dst, buf, 1, 3, 8, 1);  // every 3rd remote element
      for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], 100.0 + i * 3);
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

// --- strided engine: one call vs the element-wise loop ----------------------

struct alignas(16) Word128 {
  std::uint64_t lo, hi;
};

constexpr std::ptrdiff_t kRemoteStride = 3;
constexpr std::ptrdiff_t kLocalStride = 2;
constexpr std::size_t kMaxElems = 257;

// What one strided transfer from PE 0 against PE 1 leaves behind.
struct StridedOutcome {
  ps_t before = 0;                   // PE 0's clock right before the transfer
  ps_t now = 0, busy = 0, idle = 0;  // ... and right after it
  ps_t delivered = 0;                // last_delivery(1) right after it
  std::vector<std::uint8_t> remote;  // PE 1's symmetric buffer afterwards
  std::vector<std::uint8_t> local;   // PE 0's local buffer afterwards
  obs::MetricsSnapshot metrics;
  std::vector<std::string> flight;
  std::map<std::string, ps_t> folded;
};

// One call through the shmem_iput/iget{32,64,128} API, or the element-wise
// p/g loop the engine must be indistinguishable from.
template <typename W>
void strided_op(W* remote, W* local, std::size_t nelems, bool is_put,
                bool one_call, Context& ctx) {
  constexpr bool k4 = sizeof(W) == 4, k8 = sizeof(W) == 8;
  if (one_call) {
    if (is_put) {
      (k4 ? api::shmem_iput32 : k8 ? api::shmem_iput64 : api::shmem_iput128)(
          remote, local, kRemoteStride, kLocalStride, nelems, 1);
    } else {
      (k4 ? api::shmem_iget32 : k8 ? api::shmem_iget64 : api::shmem_iget128)(
          local, remote, kLocalStride, kRemoteStride, nelems, 1);
    }
    return;
  }
  for (std::size_t i = 0; i < nelems; ++i) {
    const auto k = static_cast<std::ptrdiff_t>(i);
    if (is_put) {
      ctx.p(remote + k * kRemoteStride, local[k * kLocalStride], 1);
    } else {
      local[k * kLocalStride] = ctx.g(remote + k * kRemoteStride, 1);
    }
  }
}

template <typename W>
StridedOutcome run_strided(std::size_t nelems, bool is_put, bool one_call,
                           bool sinks) {
  RuntimeOptions opts;
  opts.metrics = sinks;
  opts.profile = sinks;
  opts.flightrec = sinks;
  opts.flightrec_capacity = 4096;
  Runtime rt(tilesim::tile_gx36(), opts);
  StridedOutcome out;
  rt.run(2, [&](Context& ctx) {
    const std::size_t count = kMaxElems * kRemoteStride;
    W* remote = ctx.shmalloc_n<W>(count);
    auto* rbytes = reinterpret_cast<std::uint8_t*>(remote);
    for (std::size_t i = 0; i < count * sizeof(W); ++i) {
      rbytes[i] = static_cast<std::uint8_t>(i * 7 + 31 * ctx.my_pe());
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      // The local side is plain (non-symmetric) memory, like the stack
      // value of p/g, so both forms charge the same copy.
      std::vector<W> local(kMaxElems * kLocalStride);
      auto* lbytes = reinterpret_cast<std::uint8_t*>(local.data());
      for (std::size_t i = 0; i < local.size() * sizeof(W); ++i) {
        lbytes[i] = static_cast<std::uint8_t>(i * 13 + 5);
      }
      out.before = ctx.clock().now();
      strided_op(remote, local.data(), nelems, is_put, one_call, ctx);
      out.now = ctx.clock().now();
      out.busy = ctx.clock().busy_ps();
      out.idle = ctx.clock().idle_ps();
      out.delivered = ctx.runtime().last_delivery(1);
      out.local.assign(lbytes, lbytes + local.size() * sizeof(W));
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) out.remote.assign(rbytes, rbytes + count * sizeof(W));
    ctx.barrier_all();
    ctx.shfree(remote);
  });
  if (sinks) {
    out.metrics = rt.metrics();
    for (const obs::FrEvent& e : rt.flightrec()->merged()) {
      std::ostringstream os;
      os << e.vt << " " << e.pe << " " << e.seq << " "
         << tilesim::fr_kind_name(e.kind) << " " << e.site << " " << e.peer
         << " " << e.bytes << " " << e.errc;
      out.flight.push_back(os.str());
    }
    out.folded = rt.profiler()->report().folded;
  }
  return out;
}

// (element bytes, nelems, is_put)
class StridedEngineTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, bool>> {
 protected:
  StridedOutcome run(bool one_call, bool sinks) const {
    const auto [elem, nelems, is_put] = GetParam();
    switch (elem) {
      case 4:
        return run_strided<std::uint32_t>(nelems, is_put, one_call, sinks);
      case 8:
        return run_strided<std::uint64_t>(nelems, is_put, one_call, sinks);
      default:
        return run_strided<Word128>(nelems, is_put, one_call, sinks);
    }
  }
};

void expect_same_transfer(const StridedOutcome& a, const StridedOutcome& b) {
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.remote, b.remote);
  EXPECT_EQ(a.local, b.local);
}

TEST_P(StridedEngineTest, OneCallChargesLikeElementWiseLoop) {
  const auto [elem, nelems, is_put] = GetParam();
  const StridedOutcome loop = run(/*one_call=*/false, /*sinks=*/false);
  const StridedOutcome call = run(/*one_call=*/true, /*sinks=*/false);
  expect_same_transfer(call, loop);
  if (nelems == 0) {
    EXPECT_EQ(call.now, call.before);  // nelems == 0 charges nothing
  } else {
    EXPECT_GT(call.now, call.before);
  }
  // A put's last element is delivered when the call returns.
  EXPECT_EQ(call.delivered, is_put && nelems > 0 ? call.now : 0u);
}

TEST_P(StridedEngineTest, SinksSeeElementWiseEvents) {
  const StridedOutcome bare = run(/*one_call=*/true, /*sinks=*/false);
  const StridedOutcome loop = run(/*one_call=*/false, /*sinks=*/true);
  const StridedOutcome call = run(/*one_call=*/true, /*sinks=*/true);
  expect_same_transfer(call, loop);
  expect_same_transfer(call, bare);  // sinks never move virtual time
  EXPECT_EQ(call.metrics, loop.metrics);
  EXPECT_EQ(call.flight, loop.flight);
  EXPECT_EQ(call.folded, loop.folded);
  // ... and they are one put/get per element, not one per call.
  const auto [elem, nelems, is_put] = GetParam();
  const std::string op = is_put ? "put" : "get";
  std::uint64_t calls = 0, bytes = 0;
  for (const obs::CounterSample& c : call.metrics.counters) {
    if (c.pe != 0) continue;
    if (c.name == "shmem." + op + ".calls") calls = c.value;
    if (c.name == "shmem." + op + ".bytes") bytes = c.value;
  }
  EXPECT_EQ(calls, nelems);
  EXPECT_EQ(bytes, nelems * static_cast<std::size_t>(elem));
  std::size_t events = 0;
  for (const std::string& line : call.flight) {
    if (line.find(" " + op + " shmem_" + op + " 1 ") != std::string::npos) {
      ++events;
    }
  }
  EXPECT_EQ(events, nelems);
}

std::string strided_case_name(
    const ::testing::TestParamInfo<StridedEngineTest::ParamType>& info) {
  const auto [elem, nelems, is_put] = info.param;
  return std::string(is_put ? "iput" : "iget") + std::to_string(elem * 8) +
         "_n" + std::to_string(nelems);
}

INSTANTIATE_TEST_SUITE_P(
    Strided, StridedEngineTest,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         kMaxElems),
                       ::testing::Bool()),
    strided_case_name);

// Each sink attached on its own must see one event per element: the
// one-call fast path runs only while no sink at all is attached.
enum class Sink { kMetrics, kProfile, kFlightrec, kTrace, kRacecheck };

// What `sink` recorded of a 5-element iput from PE 0 into PE 1 that races
// with PE 1's unsynchronised read of the first element.
std::vector<std::string> sink_record(Sink sink, bool one_call) {
  constexpr std::size_t kN = 5;
  RuntimeOptions opts;
  opts.metrics = sink == Sink::kMetrics;
  opts.profile = sink == Sink::kProfile;
  opts.flightrec = sink == Sink::kFlightrec;
  opts.racecheck = sink == Sink::kRacecheck ? tshmem::analysis::RaceMode::kReport
                                            : tshmem::analysis::RaceMode::kOff;
  Runtime rt(tilesim::tile_gx36(), opts);
  obs::TraceRecorder trace(rt.device().tile_count());
  if (sink == Sink::kTrace) rt.device().attach_probe(&trace);
  std::atomic<int> token{0};
  rt.run(2, [&](Context& ctx) {
    auto* buf = ctx.shmalloc_n<std::uint64_t>(kN * kRemoteStride);
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<std::uint64_t> local(kN * kLocalStride, 9);
      strided_op(buf, local.data(), kN, /*is_put=*/true, one_call, ctx);
      token.store(1, std::memory_order_release);
    } else {
      while (token.load(std::memory_order_acquire) == 0) {
      }
      (void)ctx.sym_load(&buf[0]);
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
  if (sink == Sink::kTrace) rt.device().detach_probe(&trace);

  std::vector<std::string> out;
  switch (sink) {
    case Sink::kMetrics:
      for (const obs::CounterSample& c : rt.metrics().counters) {
        if (c.name.rfind("shmem.put.", 0) == 0 && c.pe == 0) {
          out.push_back(c.name + " " + std::to_string(c.value));
        }
      }
      EXPECT_NE(std::find(out.begin(), out.end(),
                          "shmem.put.calls " + std::to_string(kN)),
                out.end());
      break;
    case Sink::kProfile:
      for (const auto& [stack, ps] : rt.profiler()->report().folded) {
        out.push_back(stack + " " + std::to_string(ps));
      }
      EXPECT_TRUE(std::any_of(out.begin(), out.end(), [](const auto& line) {
        return line.find("shmem_put") != std::string::npos;
      }));
      break;
    case Sink::kFlightrec:
      for (const obs::FrEvent& e : rt.flightrec()->merged()) {
        if (e.kind != tilesim::FlightKind::kPut) continue;
        out.push_back(std::to_string(e.vt) + " " + std::to_string(e.bytes));
      }
      EXPECT_EQ(out.size(), kN);
      break;
    case Sink::kTrace:
      for (const obs::TraceEvent& e : trace.events()) {
        if (e.tile != 0 || e.kind != tilesim::TraceKind::kCopy) continue;
        out.push_back(std::to_string(e.begin_ps) + " " +
                      std::to_string(e.end_ps));
      }
      EXPECT_EQ(out.size(), kN);
      break;
    case Sink::kRacecheck:
      for (const tshmem::analysis::RaceReport& r : rt.race_reports()) {
        out.push_back(r.describe());
      }
      break;
  }
  return out;
}

TEST(StridedEngine, EachSinkAloneSeesElementWiseEvents) {
  const std::pair<Sink, const char*> sinks[] = {
      {Sink::kMetrics, "metrics"},     {Sink::kProfile, "profile"},
      {Sink::kFlightrec, "flightrec"}, {Sink::kTrace, "trace"},
      {Sink::kRacecheck, "racecheck"},
  };
  for (const auto& [sink, name] : sinks) {
    SCOPED_TRACE(name);
    const std::vector<std::string> call = sink_record(sink, true);
    EXPECT_FALSE(call.empty());
    EXPECT_EQ(call, sink_record(sink, false));
  }
}

// Debug validation checks the whole strided extent before anything moves or
// is charged: an element past the allocation fails the call up front.
TEST(StridedEngine, OutOfBoundsStrideFailsBeforeAnyElementMoves) {
  RuntimeOptions opts;
  opts.debug_validation = true;
  Runtime rt(tilesim::tile_gx36(), opts);
  rt.run(2, [](Context& ctx) {
    long* buf = ctx.shmalloc_n<long>(16);
    for (int i = 0; i < 16; ++i) buf[i] = 100 + i;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      std::vector<long> local(16, -1);
      const ps_t t0 = ctx.clock().now();
      const ps_t busy0 = ctx.clock().busy_ps();
      auto expect_code = [&](auto&& fn, tshmem::Errc code) {
        try {
          fn();
          ADD_FAILURE() << "strided transfer did not throw";
        } catch (const tshmem::Error& e) {
          EXPECT_EQ(e.code(), code) << e.what();
        }
        EXPECT_EQ(ctx.clock().now(), t0);
        EXPECT_EQ(ctx.clock().busy_ps(), busy0);
      };
      // Elements 0..7 are in bounds; element 8 (index 16) is not.
      expect_code([&] { ctx.iget(local.data(), buf, 1, 2, 9, 1); },
                  tshmem::Errc::kOutOfBounds);
      expect_code([&] { ctx.iput(buf, local.data(), 2, 1, 9, 1); },
                  tshmem::Errc::kOutOfBounds);
      // A negative stride that walks below the allocation.
      expect_code([&] { ctx.iget(local.data(), buf + 3, 1, -1, 5, 1); },
                  tshmem::Errc::kOutOfBounds);
      expect_code([&] { ctx.iget(local.data(), buf, 1, 1, 4, 2); },
                  tshmem::Errc::kInvalidPe);
      expect_code([&] { ctx.iput(buf, local.data(), 1, 1, 4, -1); },
                  tshmem::Errc::kInvalidPe);
      for (long v : local) EXPECT_EQ(v, -1);  // nothing was gathered
      EXPECT_EQ(ctx.runtime().last_delivery(1), 0u);
      // In-bounds strided transfers, negative stride included, still pass.
      ctx.iget(local.data(), buf + 15, 1, -2, 8, 1);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(local[i], 115 - 2 * i);
    }
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 100 + i);  // no put
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

// Strided transfers against a static (private-arena) remote object keep the
// interrupt path per element and cost exactly what the element-wise loop
// costs.
TEST(StridedEngine, StaticRemoteTakesInterruptPathPerElement) {
  struct Outcome {
    ps_t now = 0, busy = 0, idle = 0;
    std::uint64_t interrupts = 0;
    std::vector<int> remote, local;
  };
  auto run = [](bool is_put, bool one_call) {
    Runtime rt(tilesim::tile_gx36());
    Outcome out;
    rt.run(2, [&](Context& ctx) {
      int* stat = ctx.static_sym<int>(is_put ? "strided_put" : "strided_get",
                                      24);
      int* dyn = ctx.shmalloc_n<int>(8);
      for (int i = 0; i < 24; ++i) stat[i] = ctx.my_pe() * 1000 + i;
      for (int i = 0; i < 8; ++i) dyn[i] = -i;
      ctx.barrier_all();
      if (ctx.my_pe() == 0) {
        constexpr std::size_t kN = 8;
        if (one_call) {
          if (is_put) {
            ctx.iput(stat, dyn, 3, 1, kN, 1);
          } else {
            ctx.iget(dyn, stat, 1, 3, kN, 1);
          }
        } else {
          // put/get rather than p/g: the local side stays the dynamic
          // dyn[i], where p/g's stack value would take the bounce path.
          for (std::size_t i = 0; i < kN; ++i) {
            if (is_put) {
              ctx.put(stat + 3 * i, dyn + i, sizeof(int), 1);
            } else {
              ctx.get(dyn + i, stat + 3 * i, sizeof(int), 1);
            }
          }
        }
        out.now = ctx.clock().now();
        out.busy = ctx.clock().busy_ps();
        out.idle = ctx.clock().idle_ps();
        out.interrupts = ctx.runtime().interrupts().serviced(1);
        out.local.assign(dyn, dyn + 8);
      }
      ctx.barrier_all();
      if (ctx.my_pe() == 1) out.remote.assign(stat, stat + 24);
      ctx.barrier_all();
      ctx.shfree(dyn);
    });
    return out;
  };
  for (const bool is_put : {true, false}) {
    SCOPED_TRACE(is_put ? "iput" : "iget");
    const Outcome loop = run(is_put, false);
    const Outcome call = run(is_put, true);
    EXPECT_EQ(call.now, loop.now);
    EXPECT_EQ(call.busy, loop.busy);
    EXPECT_EQ(call.idle, loop.idle);
    EXPECT_EQ(call.interrupts, 8u);  // one serviced interrupt per element
    EXPECT_EQ(call.interrupts, loop.interrupts);
    EXPECT_EQ(call.remote, loop.remote);
    EXPECT_EQ(call.local, loop.local);
  }
}

// --- cost-model ordering (Fig 6/7 relationships) -----------------------------

TEST_F(PutGetTest, VirtualCostsOrderAcrossPaths) {
  rt_.run(2, [](Context& ctx) {
    constexpr std::size_t kBytes = 64 * 1024;
    int* dyn = ctx.shmalloc_n<int>(kBytes / sizeof(int));
    int* stat = ctx.static_sym<int>("cost_static", kBytes / sizeof(int));
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      auto timed = [&](auto&& fn) {
        const auto t0 = ctx.clock().now();
        fn();
        return ctx.clock().now() - t0;
      };
      const auto t_dd = timed([&] { ctx.put(dyn, dyn, kBytes, 1); });
      const auto t_ds = timed([&] { ctx.put(dyn, stat, kBytes, 1); });
      const auto t_sd = timed([&] { ctx.put(stat, dyn, kBytes, 1); });
      const auto t_ss = timed([&] { ctx.put(stat, stat, kBytes, 1); });
      // Fig 7: dynamic-target puts are equally fast regardless of source;
      // static-target puts pay the interrupt; static-static pays the
      // interrupt plus a bounce-buffer copy.
      EXPECT_NEAR(static_cast<double>(t_ds), static_cast<double>(t_dd),
                  0.15 * static_cast<double>(t_dd));
      EXPECT_GT(t_sd, t_dd);
      EXPECT_GT(t_ss, t_sd);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

// Parameterized sweep: put/get round trips preserve data across sizes
// (including non-power-of-two and sub-word sizes).
class TransferSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransferSizeTest, RoundTripPreservesBytes) {
  const std::size_t bytes = GetParam();
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [&](Context& ctx) {
    auto* buf = static_cast<std::uint8_t*>(ctx.shmalloc(bytes + 16));
    std::vector<std::uint8_t> src(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      src[i] = static_cast<std::uint8_t>((i * 131 + ctx.my_pe()) & 0xff);
    }
    ctx.barrier_all();
    ctx.put(buf, src.data(), bytes, 1 - ctx.my_pe());
    ctx.barrier_all();
    std::vector<std::uint8_t> back(bytes);
    ctx.get(back.data(), buf, bytes, ctx.my_pe());
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ(back[i],
                static_cast<std::uint8_t>((i * 131 + (1 - ctx.my_pe())) & 0xff));
    }
    ctx.barrier_all();
    ctx.shfree(buf);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 13, 64, 100, 1024,
                                           4096, 65537, 1 << 20));

}  // namespace

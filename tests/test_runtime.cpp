// Tests for the TSHMEM runtime: launching, partitions, static registry,
// shmalloc family semantics, address classification, and finalize.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "tshmem/context.hpp"
#include "tshmem/runtime.hpp"

namespace {

using tshmem::AddrClass;
using tshmem::Context;
using tshmem::Runtime;
using tshmem::RuntimeOptions;
using tshmem::StaticRegistry;

TEST(StaticRegistry, StableOffsetsAndAlignment) {
  StaticRegistry reg(1 << 20);
  const auto a = reg.reserve("counter", 8, 8);
  const auto b = reg.reserve("array", 1000, 64);
  EXPECT_EQ(a.offset % 8, 0u);
  EXPECT_EQ(b.offset % 64, 0u);
  EXPECT_GE(b.offset, a.offset + a.bytes);
  // Idempotent lookup.
  EXPECT_EQ(reg.reserve("counter", 8, 8).offset, a.offset);
  EXPECT_EQ(reg.object_count(), 2u);
}

TEST(StaticRegistry, SizeConflictThrows) {
  StaticRegistry reg(1 << 20);
  (void)reg.reserve("x", 8, 8);
  EXPECT_THROW((void)reg.reserve("x", 16, 8), std::invalid_argument);
}

TEST(StaticRegistry, ExhaustionThrows) {
  StaticRegistry reg(128);
  (void)reg.reserve("a", 100, 16);
  EXPECT_THROW((void)reg.reserve("b", 100, 16), std::runtime_error);
}

TEST(StaticRegistry, Validation) {
  StaticRegistry reg(1024);
  EXPECT_THROW((void)reg.reserve("z", 0, 8), std::invalid_argument);
  EXPECT_THROW((void)reg.reserve("z", 8, 3), std::invalid_argument);
}

TEST(Runtime, RejectsBadNpes) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(0, [](Context&) {}), std::invalid_argument);
  EXPECT_THROW(rt.run(37, [](Context&) {}), std::invalid_argument);
}

TEST(Runtime, Pro64Allows64Pes) {
  RuntimeOptions opts;
  opts.heap_per_pe = 1 << 20;  // keep the arena small for 64 PEs
  Runtime rt(tilesim::tile_pro64(), opts);
  std::atomic<int> count{0};
  rt.run(64, [&](Context& ctx) {
    count.fetch_add(1);
    ctx.barrier_all();
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(Runtime, ExceptionInOnePePropagates) {
  Runtime rt(tilesim::tile_gx36());
  EXPECT_THROW(rt.run(4,
                      [](Context& ctx) {
                        if (ctx.my_pe() == 2) {
                          throw std::runtime_error("boom");
                        }
                      }),
               std::runtime_error);
  // Runtime must be reusable after a failed job.
  rt.run(2, [](Context& ctx) { ctx.barrier_all(); });
}

TEST(Runtime, PartitionsAreDisjointPerPe) {
  Runtime rt(tilesim::tile_gx36());
  std::mutex mu;
  std::set<void*> bases;
  rt.run(6, [&](Context& ctx) {
    void* p = ctx.shmalloc(64);
    {
      std::scoped_lock lk(mu);
      bases.insert(p);
    }
    ctx.barrier_all();
    ctx.shfree(p);
  });
  EXPECT_EQ(bases.size(), 6u);  // same offset, different partitions
}

TEST(Runtime, ShmallocOffsetsAreSymmetric) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    void* a = ctx.shmalloc(100);
    void* b = ctx.shmalloc(200);
    // Identical allocation sequences give identical partition offsets, so
    // remote_addr on b must land at b's offset in every partition.
    for (int pe = 0; pe < ctx.num_pes(); ++pe) {
      auto* mine = static_cast<std::byte*>(b);
      auto* theirs = static_cast<std::byte*>(ctx.remote_addr(b, pe));
      auto* my_base = static_cast<std::byte*>(ctx.remote_addr(a, ctx.my_pe()));
      auto* their_base = static_cast<std::byte*>(ctx.remote_addr(a, pe));
      EXPECT_EQ(mine - my_base, theirs - their_base);
    }
    ctx.shfree(b);
    ctx.shfree(a);
  });
}

TEST(Runtime, ClassifyAddressKinds) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    void* dyn = ctx.shmalloc(64);
    int* stat = ctx.static_sym<int>("classify_test", 4);
    int local = 0;
    EXPECT_EQ(ctx.classify(dyn), AddrClass::kDynamic);
    EXPECT_EQ(ctx.classify(stat), AddrClass::kStatic);
    EXPECT_EQ(ctx.classify(&local), AddrClass::kOther);
    ctx.shfree(dyn);
  });
}

TEST(Runtime, StaticSymSameOffsetPrivateStorage) {
  Runtime rt(tilesim::tile_gx36());
  std::mutex mu;
  std::vector<std::pair<int, int*>> ptrs;
  rt.run(4, [&](Context& ctx) {
    int* p = ctx.static_sym<int>("per_pe_counter");
    *p = ctx.my_pe() * 11;
    ctx.barrier_all();
    {
      std::scoped_lock lk(mu);
      ptrs.emplace_back(ctx.my_pe(), p);
    }
    ctx.barrier_all();
    // My write must not have been clobbered: storage is private per PE.
    EXPECT_EQ(*p, ctx.my_pe() * 11);
  });
  std::set<int*> unique;
  for (const auto& [pe, p] : ptrs) unique.insert(p);
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Runtime, ShmemPtrOnlyForDynamic) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    int* dyn = ctx.shmalloc_n<int>(1);
    int* stat = ctx.static_sym<int>("ptr_test");
    EXPECT_NE(ctx.ptr(dyn, 1 - ctx.my_pe()), nullptr);
    EXPECT_EQ(ctx.ptr(stat, 1 - ctx.my_pe()), nullptr);
    EXPECT_EQ(ctx.ptr(dyn, 99), nullptr);
    // shmem_ptr gives a direct load/store path to the remote object.
    if (ctx.my_pe() == 0) *dyn = 123;
    ctx.barrier_all();
    if (ctx.my_pe() == 1) {
      const int* remote = static_cast<int*>(ctx.ptr(dyn, 0));
      EXPECT_EQ(*remote, 123);
    }
    ctx.barrier_all();
    ctx.shfree(dyn);
  });
}

TEST(Runtime, AccessibilityQueries) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(3, [](Context& ctx) {
    int* dyn = ctx.shmalloc_n<int>(1);
    int local = 0;
    EXPECT_TRUE(ctx.pe_accessible(0));
    EXPECT_TRUE(ctx.pe_accessible(2));
    EXPECT_FALSE(ctx.pe_accessible(3));
    EXPECT_FALSE(ctx.pe_accessible(-1));
    EXPECT_TRUE(ctx.addr_accessible(dyn, 1));
    EXPECT_FALSE(ctx.addr_accessible(&local, 1));
    ctx.shfree(dyn);
  });
}

TEST(Runtime, ShreallocPreservesData) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    int* p = ctx.shmalloc_n<int>(4);
    for (int i = 0; i < 4; ++i) p[i] = i + ctx.my_pe();
    int* q = static_cast<int*>(ctx.shrealloc(p, 64 * sizeof(int)));
    ASSERT_NE(q, nullptr);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(q[i], i + ctx.my_pe());
    ctx.shfree(q);
  });
}

TEST(Runtime, ShmemalignAllocatesAligned) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    void* p = ctx.shmemalign(4096, 100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 4096, 0u);
    EXPECT_EQ(ctx.classify(p), AddrClass::kDynamic);
    ctx.shfree(p);
  });
}

TEST(Runtime, FinalizeValidatesAndRejectsDoubleCall) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    ctx.barrier_all();
    ctx.finalize();
    EXPECT_TRUE(ctx.finalized());
    EXPECT_THROW(ctx.finalize(), std::logic_error);
  });
}

TEST(Runtime, DeliveryClockMonotone) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* slot = ctx.shmalloc_n<long>(1);
    *slot = 0;
    ctx.barrier_all();
    if (ctx.my_pe() == 0) {
      ctx.p(slot, 1L, 1);
      const auto after_first = ctx.runtime().last_delivery(1);
      EXPECT_GT(after_first, 0u);
      ctx.p(slot, 2L, 1);
      EXPECT_GE(ctx.runtime().last_delivery(1), after_first);
    }
    ctx.barrier_all();
    ctx.shfree(slot);
  });
}

TEST(Runtime, RunSpmdHelper) {
  std::atomic<int> hits{0};
  tshmem::run_spmd(tilesim::tile_pro64(), 3,
                   [&](Context& ctx) { hits.fetch_add(1 + ctx.my_pe()); });
  EXPECT_EQ(hits.load(), 6);
}

TEST(Runtime, CurrentContextOnlyInsideRun) {
  EXPECT_EQ(Runtime::current(), nullptr);
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    EXPECT_EQ(Runtime::current(), &ctx);
  });
  EXPECT_EQ(Runtime::current(), nullptr);
}

// --- Job lifecycle: private arenas persist across run() -------------------

// Reads `n` longs of a static object and reports whether all are zero.
bool all_zero(const long* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

TEST(RuntimeLifecycle, DirtiedStaticReadsZeroInNextJob) {
  constexpr std::size_t kN = 512;  // spans a page boundary
  Runtime rt(tilesim::tile_gx36());
  for (int job = 0; job < 3; ++job) {
    rt.run(4, [&](Context& ctx) {
      long* s = ctx.static_sym<long>("lifecycle_dirty", kN);
      EXPECT_TRUE(all_zero(s, kN)) << "job " << job << " PE " << ctx.my_pe();
      for (std::size_t i = 0; i < kN; ++i) {
        s[i] = static_cast<long>(i) + 1 + ctx.my_pe();
      }
      ctx.barrier_all();
    });
  }
}

TEST(RuntimeLifecycle, IdleArenaReadsZeroWhenPeReturns) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(4, [](Context& ctx) {
    long* s = ctx.static_sym<long>("lifecycle_idle", 16);
    for (int i = 0; i < 16; ++i) s[i] = -1 - ctx.my_pe();
    ctx.barrier_all();
  });
  rt.run(2, [](Context& ctx) {
    long* s = ctx.static_sym<long>("lifecycle_idle", 16);
    EXPECT_TRUE(all_zero(s, 16)) << "PE " << ctx.my_pe();
    ctx.barrier_all();
  });
  rt.run(4, [](Context& ctx) {
    // PE 3 was dirtied in job 1 and sat out job 2.
    long* s = ctx.static_sym<long>("lifecycle_idle", 16);
    EXPECT_TRUE(all_zero(s, 16)) << "PE " << ctx.my_pe();
    ctx.barrier_all();
  });
}

TEST(RuntimeLifecycle, StaticFirstRegisteredInLaterJobReadsZero) {
  Runtime rt(tilesim::tile_gx36());
  rt.run(2, [](Context& ctx) {
    long* early = ctx.static_sym<long>("lifecycle_early", 8);
    for (int i = 0; i < 8; ++i) early[i] = 7;
    ctx.barrier_all();
  });
  rt.run(4, [](Context& ctx) {
    long* late = ctx.static_sym<long>("lifecycle_late", 1024);
    EXPECT_TRUE(all_zero(late, 1024)) << "PE " << ctx.my_pe();
    for (int i = 0; i < 1024; ++i) late[i] = 9;
    ctx.barrier_all();
  });
  rt.run(4, [](Context& ctx) {
    EXPECT_TRUE(all_zero(ctx.static_sym<long>("lifecycle_early", 8), 8));
    EXPECT_TRUE(all_zero(ctx.static_sym<long>("lifecycle_late", 1024), 1024));
    ctx.barrier_all();
  });
}

TEST(RuntimeLifecycle, ArenaAndStaticAddressesStableAcrossJobs) {
  constexpr int kPes = 4;
  Runtime rt(tilesim::tile_gx36());
  std::vector<std::vector<void*>> bases(3), statics(3);
  for (int job = 0; job < 3; ++job) {
    bases[job].assign(kPes, nullptr);
    statics[job].assign(kPes, nullptr);
    rt.run(kPes, [&](Context& ctx) {
      const auto me = static_cast<std::size_t>(ctx.my_pe());
      bases[job][me] = ctx.runtime().private_base(ctx.my_pe());
      statics[job][me] = ctx.static_sym<long>("lifecycle_stable", 4);
      ctx.barrier_all();
    });
  }
  for (int job = 1; job < 3; ++job) {
    EXPECT_EQ(bases[job], bases[0]);
    EXPECT_EQ(statics[job], statics[0]);
  }
}

// A waiter that observes a put's store must also observe its delivery
// time: the waiter's clock after wait_until may never trail the virtual
// time at which the store was delivered. Covers the three directly
// addressable delivery paths — blocking put, DMA put_nbi, and a remote
// atomic. Even PEs send to their odd neighbour; more PEs than host cores
// make it likely that a sender is descheduled between the two steps.
TEST(RuntimeLifecycle, WaitUntilMergesDeliveryOfObservedStore) {
  constexpr int kPes = 8;
  constexpr int kRounds = 1500;
  Runtime rt(tilesim::tile_gx36());
  // One slot per (round, receiver): a sender may already be in the next
  // round when its receiver reads this one after the barrier.
  std::vector<tilesim::ps_t> sent(kRounds * kPes, 0);
  std::atomic<int> behind{0};
  rt.run(kPes, [&](Context& ctx) {
    const int me = ctx.my_pe();
    long* flag = ctx.shmalloc_n<long>(1);
    *flag = 0;
    ctx.barrier_all();
    for (long r = 1; r <= kRounds; ++r) {
      const auto slot = static_cast<std::size_t>((r - 1) * kPes + (me | 1));
      if (me % 2 == 0) {
        long v = r;
        switch (r % 3) {
          case 0: ctx.p(flag, r, me + 1); break;
          case 1: ctx.put_nbi(flag, &v, sizeof v, me + 1); break;
          default: (void)ctx.swap(flag, r, me + 1); break;
        }
        // Only this PE delivers into its neighbour, so the slot now holds
        // exactly this store's delivery time.
        sent[slot] = ctx.runtime().last_delivery(me + 1);
        ctx.quiet();
      }
      tilesim::ps_t woke = 0;
      if (me % 2 == 1) {
        ctx.wait_until(flag, tshmem::Cmp::kEq, r);
        woke = ctx.clock().now();
      }
      ctx.barrier_all();
      if (me % 2 == 1 && woke < sent[slot]) behind.fetch_add(1);
    }
    ctx.shfree(flag);
  });
  EXPECT_EQ(behind.load(), 0);
}

}  // namespace

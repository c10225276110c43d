#include "sim/device.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/probe.hpp"

namespace tilesim {

namespace {
thread_local Tile* g_current_tile = nullptr;
}  // namespace

Tile::Tile(Device& device, int id)
    : device_(&device),
      id_(id),
      dma_(std::make_unique<DmaEngine>(device.config(), id)) {}

void Tile::charge_int_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.int_op_ps);
  trace_interval(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_fp_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.fp_op_ps);
  trace_interval(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_mem_ops(std::uint64_t n) {
  const ps_t t0 = clock_.now();
  clock_.advance(n * device_->config().compute.mem_op_ps);
  trace_interval(*device_, id_, TraceKind::kCompute, t0, clock_.now());
}

void Tile::charge_calls(std::uint64_t n) {
  clock_.advance(n * device_->config().compute.call_ps);
}

void Tile::charge_copy(const CopyRequest& req) {
  const ps_t t0 = clock_.now();
  clock_.advance(device_->mem_model().copy_cost_ps(req));
  trace_interval(*device_, id_, TraceKind::kCopy, t0, clock_.now());
  if (probe_) {
    std::scoped_lock lk(probe_mu_);
    std::uint64_t src = req.src_addr;
    std::uint64_t dst = req.dst_addr;
    if (src == 0 && dst == 0) {
      // No endpoint addresses supplied: walk a synthetic fresh-address
      // stream (conservative — counts as streaming new memory).
      src = probe_cursor_;
      dst = probe_cursor_ + req.bytes;
      probe_cursor_ += 2 * req.bytes;
    }
    probe_->observe_copy(src, dst, req.bytes, req.homing);
  }
}

Device::Device(const DeviceConfig& cfg)
    : cfg_(&cfg), topo_(cfg), mem_(cfg) {
  tiles_.reserve(static_cast<std::size_t>(cfg.tile_count()));
  for (int i = 0; i < cfg.tile_count(); ++i) {
    tiles_.push_back(std::make_unique<Tile>(*this, i));
  }
}

Device::~Device() = default;

Tile& Device::tile(int id) {
  if (id < 0 || id >= tile_count()) {
    throw std::out_of_range("tile id out of range");
  }
  return *tiles_[static_cast<std::size_t>(id)];
}

const Tile& Device::tile(int id) const {
  if (id < 0 || id >= tile_count()) {
    throw std::out_of_range("tile id out of range");
  }
  return *tiles_[static_cast<std::size_t>(id)];
}

Tile* Device::current() noexcept { return g_current_tile; }

void Device::attach_probe(Probe* probe) {
  auto& all = probes_[kAnyChannel];
  const auto last = all.end() - 1;  // the terminator stays null
  const auto free = std::find(all.begin(), last, nullptr);
  if (probe == nullptr || free == last ||
      std::find(all.begin(), free, probe) != free) {
    throw std::invalid_argument(
        "Device::attach_probe: null or already attached probe, or "
        "kMaxProbes attached");
  }
  // Every channel list is a subset of the kAnyChannel list, so it has room.
  for (std::size_t c = 0; c < probes_.size(); ++c) {
    if (probe->consumes(static_cast<ProbeChannel>(c))) {
      *std::find(probes_[c].begin(), probes_[c].end(), nullptr) = probe;
    }
  }
}

void Device::detach_probe(Probe* probe) noexcept {
  for (auto& list : probes_) {
    std::fill(std::remove(list.begin(), list.end(), probe), list.end(),
              nullptr);
  }
}

void Device::enable_cache_probes() {
  if (cache_probes_) return;
  for (auto& t : tiles_) {
    t->probe_ = std::make_unique<CacheSim>(*cfg_);
  }
  cache_probes_ = true;
}

void Device::reset_clocks() {
  // Epoch boundary for the probes: reset_clocks() is only legal from
  // single-threaded safe points, so a probe may read every tile's final
  // clock value here, before anything is zeroed.
  for (Probe* const* p = probes(kAnyChannel); *p != nullptr; ++p) {
    (*p)->on_clock_reset();  // tshmem-lint: allow(R006) the attach point
  }
  // DMA engines first: an engine with in-flight transfers must fail the
  // reset *before* any clock is zeroed (stale future completion timestamps
  // would otherwise poison advance_to after the reset).
  for (auto& t : tiles_) t->dma().reset();
  for (auto& t : tiles_) t->clock().reset();
  // Layered components keeping their own timelines (e.g. the interrupt
  // controller's per-target service contexts) re-zero lazily by comparing
  // this generation, so they stay in step with every job/phase boundary.
  clock_generation_.fetch_add(1, std::memory_order_acq_rel);
}

void Device::host_sync() {
  if (!host_barrier_) {
    throw std::logic_error("host_sync called outside Device::run");
  }
  // A host rendezvous is a real synchronization of every active tile (it is
  // how benchmarks separate measurement phases), so it is reported to the
  // probes (tshmem-check) as a rendezvous. The arrive callback runs before
  // this thread arrives, and std::barrier opens only after every thread
  // arrived, so all arrive callbacks complete before any release callback
  // — the Probe contract. Each tile participates in every host_sync of a
  // run, so its own call count is a consistent generation.
  Tile* self = current();
  if (*probes(kRendezvousChannel) != nullptr && self != nullptr) {
    const std::uint64_t gen =
        host_sync_seq_[static_cast<std::size_t>(self->id())]++;
    rendezvous_arrive(*this, host_barrier_.get(), gen, self->id());
    host_barrier_->arrive_and_wait();
    rendezvous_release(*this, host_barrier_.get(), gen, self->id(),
                       active_tiles_);
    return;
  }
  host_barrier_->arrive_and_wait();
}

void Device::sync_and_reset_clocks() {
  Tile* self = current();
  if (self == nullptr) {
    throw std::logic_error("sync_and_reset_clocks called outside run()");
  }
  host_sync();
  if (self->id() == 0) reset_clocks();
  host_sync();
}

void Device::run(int active_tiles, const std::function<void(Tile&)>& fn) {
  if (active_tiles < 1 || active_tiles > tile_count()) {
    throw std::invalid_argument("active_tiles must be in [1, tile_count]");
  }
  if (host_barrier_) {
    throw std::logic_error("Device::run is not reentrant");
  }
  active_tiles_ = active_tiles;
  host_barrier_ = std::make_unique<std::barrier<>>(active_tiles);
  host_sync_seq_.assign(tiles_.size(), 0);
  // Force-clear DMA engines: a previous job that threw with outstanding
  // non-blocking transfers must not leak descriptors into this one.
  for (auto& t : tiles_) t->dma().clear();
  reset_clocks();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(active_tiles));
  std::exception_ptr first_error;
  std::mutex error_mu;

  for (int i = 0; i < active_tiles; ++i) {
    threads.emplace_back([this, i, &fn, &first_error, &error_mu] {
      Tile& self = *tiles_[static_cast<std::size_t>(i)];
      g_current_tile = &self;
      try {
        fn(self);
      } catch (...) {
        std::scoped_lock lk(error_mu);
        if (!first_error) first_error = std::current_exception();
        // A dead tile must not deadlock the others on the host barrier; we
        // cannot cleanly cancel std::barrier waits, so a throwing tile drops
        // its participation. Benchmarks/tests treat any exception as fatal
        // and the rethrow below surfaces it.
        host_barrier_->arrive_and_drop();
      }
      g_current_tile = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  host_barrier_.reset();
  active_tiles_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tilesim

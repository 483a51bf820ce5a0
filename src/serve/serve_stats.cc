#include "serve/serve_stats.h"

#include <algorithm>

namespace viewrewrite {

std::ostream& operator<<(std::ostream& os, const ServeStats& s) {
  os << "serve: submitted=" << s.submitted << " completed=" << s.completed
     << " failed=" << s.failed << " rejected=" << s.rejected();
  if (s.rejected() > 0) {
    os << " (queue_full=" << s.rejected_queue_full
       << " shutdown=" << s.rejected_shutdown
       << " oversized=" << s.rejected_oversized
       << " expired=" << s.rejected_expired << ")";
  }
  os << " unmatched=" << s.unmatched
     << " deadline_exceeded=" << s.deadline_exceeded
     << " expired_in_queue=" << s.expired_in_queue;
  os << " | overload: shed_admission=" << s.shed_admission
     << " shed_hopeless=" << s.shed_hopeless
     << " shed_displaced=" << s.shed_displaced
     << " brownout_served=" << s.brownout_served
     << " brownout_active=" << (s.brownout_active ? 1 : 0)
     << " limiter_limit=" << s.limiter_limit
     << " limiter_in_flight=" << s.limiter_in_flight
     << " service_estimate_seconds=" << s.service_estimate_seconds;
  os << " | coalescing: flights=" << s.flights
     << " coalesced_waiters=" << s.coalesced_waiters
     << " merged_flights=" << s.merged_flights
     << " max_flight_group=" << s.max_flight_group
     << " cache_short_circuits=" << s.cache_short_circuits
     << " batch_queries=" << s.batch_queries
     << " batch_deduped=" << s.batch_deduped;
  os << " | resilience: retries=" << s.retries
     << " breaker_trips=" << s.breaker_trips
     << " breaker_rejected=" << s.breaker_rejected
     << " outdated_served=" << s.outdated_served << " reloads=" << s.reloads
     << " reload_failures=" << s.reload_failures << " epoch=" << s.epoch
     << " generation=" << s.generation;
  const uint64_t lookups = s.cache_hits + s.cache_misses;
  os << " | cache: hits=" << s.cache_hits << " misses=" << s.cache_misses;
  if (lookups > 0) {
    os << " (" << (100.0 * static_cast<double>(s.cache_hits) /
                   static_cast<double>(lookups))
       << "% hit rate)";
  }
  os << " entries=" << s.cache_entries << " bytes=" << s.cache_bytes
     << " evictions=" << s.cache_evictions << " stripes=" << s.cache_stripes;
  os << " | grouped: queries=" << s.grouped_queries
     << " suppressed_groups=" << s.suppressed_groups;
  os << " | templates: hits=" << s.template_hits
     << " pins=" << s.template_pins;
  os << " | answer_seconds=" << s.answer_seconds;
  return os;
}

namespace {

/// Process-wide thread slot: each thread that ever touches a
/// ShardedServeCounters gets a stable small integer, assigned on first
/// use. Taken modulo an instance's cell count it spreads concurrent
/// writers across cells while keeping any one thread pinned to one cell.
size_t ThreadSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

ShardedServeCounters::ShardedServeCounters(size_t cells)
    : num_cells_(std::max<size_t>(1, cells)),
      cells_(new Cell[num_cells_]) {
  for (size_t i = 0; i < num_cells_; ++i) {
    for (auto& c : cells_[i].count) c.store(0, std::memory_order_relaxed);
    cells_[i].max_flight_group.store(0, std::memory_order_relaxed);
  }
}

ShardedServeCounters::Cell& ShardedServeCounters::CellForThisThread() {
  return cells_[ThreadSlot() % num_cells_];
}

void ShardedServeCounters::Add(ServeCounter c, uint64_t n) {
  CellForThisThread().count[static_cast<size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

void ShardedServeCounters::NoteFlightGroup(uint64_t size) {
  std::atomic<uint64_t>& cell_max = CellForThisThread().max_flight_group;
  uint64_t seen = cell_max.load(std::memory_order_relaxed);
  while (size > seen &&
         !cell_max.compare_exchange_weak(seen, size,
                                         std::memory_order_relaxed)) {
  }
}

uint64_t ShardedServeCounters::Total(ServeCounter c) const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_cells_; ++i) {
    total += cells_[i].count[static_cast<size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedServeCounters::MaxFlightGroup() const {
  uint64_t max = 0;
  for (size_t i = 0; i < num_cells_; ++i) {
    max = std::max(max,
                   cells_[i].max_flight_group.load(std::memory_order_relaxed));
  }
  return max;
}

std::vector<uint64_t> ShardedServeCounters::PerCell(ServeCounter c) const {
  std::vector<uint64_t> out(num_cells_);
  for (size_t i = 0; i < num_cells_; ++i) {
    out[i] = cells_[i].count[static_cast<size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return out;
}

}  // namespace viewrewrite

// Slot-synchronous broadcast bus over a pluggable link model.
//
// CMA (Table 2) is written against a classic synchronous-rounds model: in
// each slot every node broadcasts a small message (its Tx/tell lines) and
// receives whatever its single-hop neighbours broadcast (Rx/Rxtell).
// MessageBus implements those rounds: messages queued during slot s are
// delivered at the start of slot s+1 to every node within Rc of the sender
// at *send* time, matching the paper's assumption that positions change
// slowly relative to the beacon rate.
//
// The channel behind the bus is a LinkModel (link_model.hpp) — the default
// DiskLink reproduces the original DiskRadio bit-for-bit, while the
// distance-dependent and Gilbert–Elliott models serve the resilience
// sweeps.  Nodes can also die and revive mid-run (set_alive, driven by a
// FaultSchedule): a dead node neither sends nor receives, and messages in
// flight from a node that dies before delivery are lost with the node.
//
// Receivers are enumerated through a par::SpatialHash over the living
// nodes' positions — rebuilt lazily, at most once per position/alive
// change — probing only the cells within the link's max_range() of each
// sender: O(N * avg_degree) link evaluations per slot instead of O(N^2).
// The LinkModel no-draw contract (link_model.hpp) guarantees the pruned
// out-of-range receivers would never have consumed randomness, and the
// candidates are probed in ascending id order, so deliveries, inbox order,
// drop counters and the RNG stream are exactly those of an all-pairs
// probe.  tests/oracle holds that all-pairs bus as the reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/link_model.hpp"
#include "net/radio.hpp"
#include "obs/obs.hpp"
#include "parallel/spatial_hash.hpp"

namespace cps::net {

/// A delivered message with its sender.
template <typename M>
struct Delivery {
  NodeId from = 0;
  M message{};
};

/// Broadcast-only message bus for `M`-typed payloads.
template <typename M>
class MessageBus {
 public:
  /// `node_count` fixed for the bus lifetime; the link model defines
  /// range/loss.  All nodes start alive.
  MessageBus(std::size_t node_count, std::unique_ptr<LinkModel> link)
      : link_(std::move(link)),
        positions_(node_count),
        alive_(node_count, 1),
        inboxes_(node_count) {
    if (!link_) throw std::invalid_argument("MessageBus: null link model");
  }

  /// Convenience: the paper's disk radio behind the LinkModel interface.
  MessageBus(std::size_t node_count, DiskRadio radio)
      : MessageBus(node_count,
                   std::make_unique<DiskLink>(std::move(radio))) {}

  std::size_t node_count() const noexcept { return positions_.size(); }
  const LinkModel& link() const noexcept { return *link_; }
  double radius() const noexcept { return link_->radius(); }

  /// Replaces the channel model (same radius contract as construction).
  /// Queued-but-undelivered messages are judged by the new model.
  void set_link(std::unique_ptr<LinkModel> link) {
    if (!link) throw std::invalid_argument("MessageBus: null link model");
    link_ = std::move(link);
    grid_dirty_ = true;  // max_range() may have changed the cell size.
  }

  /// Updates the position used for range checks of subsequent broadcasts.
  void set_position(NodeId id, geo::Vec2 p) {
    positions_.at(id) = p;
    grid_dirty_ = true;
  }
  geo::Vec2 position(NodeId id) const { return positions_.at(id); }

  /// Marks a node dead (false) or alive (true).  Killing a node clears
  /// its inbox; its queued outbound messages die with it at step().
  void set_alive(NodeId id, bool alive) {
    if (id >= positions_.size()) {
      throw std::out_of_range("MessageBus::set_alive");
    }
    alive_[id] = alive ? 1 : 0;
    if (!alive) inboxes_[id].clear();
    grid_dirty_ = true;
  }

  bool alive(NodeId id) const {
    if (id >= positions_.size()) {
      throw std::out_of_range("MessageBus::alive");
    }
    return alive_[id] != 0;
  }

  std::size_t alive_count() const noexcept {
    std::size_t n = 0;
    for (const char a : alive_) n += a != 0;
    return n;
  }

  /// Queues a broadcast for delivery at the next step().  Broadcasts from
  /// dead nodes are dropped (and counted) — a dead radio transmits
  /// nothing, but simulation drivers need not special-case the call.
  void broadcast(NodeId from, M message) {
    if (from >= positions_.size()) {
      throw std::out_of_range("MessageBus::broadcast");
    }
    if (!alive_[from]) {
      CPS_COUNT("net.bus.dead_broadcasts", 1);  // Legacy aggregate name.
      count_drops(DropReason::kDeadSender, 1);
      return;
    }
    ++total_broadcasts_;
    CPS_COUNT("net.bus.messages_sent", 1);
    outbox_.push_back(Pending{from, positions_[from], std::move(message)});
  }

  /// Broadcasts queued over the bus lifetime (the radio-energy proxy).
  std::size_t total_broadcasts() const noexcept { return total_broadcasts_; }

  /// Delivers all queued broadcasts to in-range living receivers and
  /// clears the queue.  Senders do not receive their own broadcasts.
  /// Each sender probes only the grid cells within link max_range(), in
  /// ascending receiver id order (see the file comment).
  void step() {
    begin_slot();
    refresh_grid();
    // Per-reason drop accounting is arithmetic over per-message tallies,
    // never per-probe: the grid skips most dead/out-of-range receivers
    // without probing them.  With `delivered` and `lost` tallied per
    // message, the remaining receivers decompose exactly as an all-pairs
    // probe would classify them:
    //   dead_receiver = node_count - alive_now          (per message)
    //   out_of_range  = (alive_now - 1) - delivered - lost
    const bool account = obs::enabled();
    const std::size_t alive_now = account ? alive_count() : 0;
    for (auto& pending : outbox_) {
      if (!alive_[pending.from]) {
        // Died with messages in flight: the whole broadcast is lost.
        count_drops(DropReason::kDeadSender, 1);
        continue;
      }
      delivered_ = 0;
      lost_ = 0;
      candidates_.clear();
      const std::size_t cells = grid_->collect_candidates(
          pending.sent_from, link_->max_range(), candidates_);
      CPS_HIST("net.bus.cells_probed", cells);
      // collect_candidates returns ids cell by cell; sorting restores
      // ascending receiver ids, which fixes the RNG draw order (compact
      // grid ids map to ascending NodeIds).
      std::sort(candidates_.begin(), candidates_.end());
      for (const std::uint32_t c : candidates_) {
        probe(pending, grid_ids_[c]);
      }
      if (account) {
        count_drops(DropReason::kDeadReceiver,
                    static_cast<std::uint64_t>(node_count() - alive_now));
        count_drops(DropReason::kLinkLossDraw, lost_);
        count_drops(
            DropReason::kOutOfRange,
            static_cast<std::uint64_t>(alive_now - 1) - delivered_ - lost_);
      }
    }
    outbox_.clear();
  }

  /// Matched delivery: the caller supplies, per living sender, the exact
  /// set of living in-range receivers (ascending ids, self excluded) —
  /// typically a tile decomposition's pair lists (core::ShardGrid).
  ///
  /// Equivalence contract with step(): `receivers_of(from)` must return
  /// precisely the ids step() would have delivered-or-lost to, in the
  /// same ascending order.  transmit() is then invoked for exactly the
  /// in-range pairs in the same global (sender broadcast order, receiver
  /// ascending) sequence as step()'s probes; since out-of-range
  /// probes never consumed randomness (no-draw contract), the RNG
  /// stream, per-link state, inbox order, and the drop-reason taxonomy
  /// are all bit-identical to step().  transmit_attempts counts only the
  /// in-range probes — the matcher already rejected the rest
  /// geometrically — so that cost counter shrinks by the out-of-range
  /// fraction.  When the link is draw_free(), transmit() is skipped
  /// entirely: in-range pairs are pre-verified and the draw schedule
  /// being replayed is empty.
  template <typename ReceiversOf>
  void step_matched(ReceiversOf&& receivers_of) {
    begin_slot();
    const bool account = obs::enabled();
    const std::size_t alive_now = account ? alive_count() : 0;
    const bool no_draws = link_->draw_free();
    for (auto& pending : outbox_) {
      if (!alive_[pending.from]) {
        count_drops(DropReason::kDeadSender, 1);
        continue;
      }
      delivered_ = 0;
      lost_ = 0;
      const auto& receivers = receivers_of(pending.from);
      CPS_COUNT("net.bus.transmit_attempts",
                static_cast<std::uint64_t>(receivers.size()));
      if (no_draws) {
        CPS_COUNT("net.bus.deliveries",
                  static_cast<std::uint64_t>(receivers.size()));
        delivered_ = receivers.size();
        for (const NodeId to : receivers) {
          inboxes_[to].push_back(Delivery<M>{pending.from, pending.message});
        }
      } else {
        for (const NodeId to : receivers) {
          if (link_->transmit(pending.from, to, pending.sent_from,
                              positions_[to])) {
            CPS_COUNT("net.bus.deliveries", 1);
            ++delivered_;
            inboxes_[to].push_back(Delivery<M>{pending.from, pending.message});
          } else {
            // Every matched receiver is in range by contract, so a failed
            // transmit is a channel loss, never an out-of-range miss.
            CPS_COUNT("net.bus.delivery_failures", 1);
            ++lost_;
          }
        }
      }
      if (account) {
        count_drops(DropReason::kDeadReceiver,
                    static_cast<std::uint64_t>(node_count() - alive_now));
        count_drops(DropReason::kLinkLossDraw, lost_);
        count_drops(
            DropReason::kOutOfRange,
            static_cast<std::uint64_t>(alive_now - 1) - delivered_ - lost_);
      }
    }
    outbox_.clear();
  }

  /// Messages delivered to `id` by the last step().
  const std::vector<Delivery<M>>& inbox(NodeId id) const {
    return inboxes_.at(id);
  }

  /// Ids of living nodes currently within radio range of `id` (excluding
  /// itself).  An oracle view of the topology — protocol code should
  /// prefer beacon-learned neighbour tables, which see only what the
  /// channel actually delivered.  Grid-pruned, ascending ids.
  std::vector<NodeId> neighbors_of(NodeId id) const {
    std::vector<NodeId> out;
    const geo::Vec2 p = positions_.at(id);
    refresh_grid();
    candidates_.clear();
    grid_->collect_candidates(p, link_->max_range(), candidates_);
    std::sort(candidates_.begin(), candidates_.end());
    for (const std::uint32_t c : candidates_) {
      const NodeId j = grid_ids_[c];
      if (j != id && link_->in_range(p, positions_[j])) out.push_back(j);
    }
    return out;
  }

 private:
  struct Pending {
    NodeId from;
    geo::Vec2 sent_from;
    M message;
  };

  /// Opens a delivery slot: clears every inbox and pre-reserves it to its
  /// running high-water mark, so a receiver whose inbox storage was
  /// released (e.g. cleared on death, or freshly constructed) regrows to
  /// steady-state capacity in one allocation instead of a push_back
  /// doubling cascade.  Records the previous slot's fullest inbox in the
  /// net.bus.inbox_high_water histogram — the sizing signal the
  /// reservation feeds on, and a cheap congestion telltale.
  void begin_slot() {
    std::size_t fullest = 0;
    for (std::size_t i = 0; i < inboxes_.size(); ++i) {
      const std::size_t sz = inboxes_[i].size();
      fullest = std::max(fullest, sz);
      inbox_hw_[i] = std::max(inbox_hw_[i], sz);
      inboxes_[i].clear();
      if (inboxes_[i].capacity() < inbox_hw_[i]) {
        inboxes_[i].reserve(inbox_hw_[i]);
      }
    }
    CPS_HIST("net.bus.inbox_high_water", fullest);
  }

  /// One directed transmission attempt against the link model.
  void probe(const Pending& pending, NodeId to) {
    if (to == pending.from) return;
    CPS_COUNT("net.bus.transmit_attempts", 1);
    if (link_->transmit(pending.from, to, pending.sent_from,
                        positions_[to])) {
      CPS_COUNT("net.bus.deliveries", 1);
      ++delivered_;
      inboxes_[to].push_back(Delivery<M>{pending.from, pending.message});
    } else if (link_->in_range(pending.sent_from, positions_[to])) {
      // A failed transmission to an in-range receiver is a radio loss;
      // out-of-range receivers are not delivery failures.
      CPS_COUNT("net.bus.delivery_failures", 1);  // Legacy aggregate name.
      ++lost_;
    }
  }

  /// Rebuilds the living-receiver spatial index if positions, liveness,
  /// or the link model changed since the last build.  Cell size is the
  /// link's max_range(), so a range query touches at most 9 cells.
  void refresh_grid() const {
    if (!grid_dirty_ && grid_.has_value()) return;
    grid_ids_.clear();
    grid_positions_.clear();
    for (NodeId i = 0; i < positions_.size(); ++i) {
      if (alive_[i]) {
        grid_ids_.push_back(i);
        grid_positions_.push_back(positions_[i]);
      }
    }
    grid_.emplace(grid_positions_, link_->max_range());
    grid_dirty_ = false;
    CPS_COUNT("net.bus.grid_rebuilds", 1);
  }

  std::unique_ptr<LinkModel> link_;
  std::vector<geo::Vec2> positions_;
  std::vector<char> alive_;
  std::vector<Pending> outbox_;
  // Per-message probe tallies for the drop-reason arithmetic in step().
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::vector<std::vector<Delivery<M>>> inboxes_;
  /// Per-receiver running high-water marks feeding begin_slot()'s
  /// reservation.
  std::vector<std::size_t> inbox_hw_ =
      std::vector<std::size_t>(inboxes_.size(), 0);
  std::size_t total_broadcasts_ = 0;
  // Lazily maintained living-receiver index.  Mutable:
  // neighbors_of is logically const; the bus makes no thread-safety
  // claims, so the cache needs no lock.
  mutable std::vector<NodeId> grid_ids_;          // Living ids, ascending.
  mutable std::vector<geo::Vec2> grid_positions_;  // Their positions.
  mutable std::optional<par::SpatialHash> grid_;
  mutable bool grid_dirty_ = true;
  mutable std::vector<std::uint32_t> candidates_;  // Query scratch.
};

}  // namespace cps::net

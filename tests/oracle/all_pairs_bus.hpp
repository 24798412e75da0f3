// Reference bus for the delivery equivalence tests: all-pairs probing.
//
// Same slot semantics as net::MessageBus (queue during a slot, deliver at
// step(), senders never hear themselves, dead nodes neither send nor
// receive, a sender that dies with a message in flight loses it), but no
// spatial index and no per-message drop arithmetic: every queued broadcast
// walks every receiver in ascending id order, calls transmit() on its own
// LinkModel — a second, identically seeded instance — for each living
// one, and classifies each miss as it happens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/link_model.hpp"
#include "net/message_bus.hpp"

namespace cps::oracle {

/// Per-reason drop tallies, named like the net.bus.drop.* counters.
struct BusDrops {
  std::uint64_t dead_sender = 0;
  std::uint64_t dead_receiver = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t link_loss_draw = 0;
};

template <typename M>
class AllPairsBus {
 public:
  AllPairsBus(std::size_t node_count, std::unique_ptr<net::LinkModel> link)
      : link_(std::move(link)),
        positions_(node_count),
        alive_(node_count, 1),
        inboxes_(node_count) {
    if (!link_) throw std::invalid_argument("AllPairsBus: null link model");
  }

  net::LinkModel& link() noexcept { return *link_; }
  const BusDrops& drops() const noexcept { return drops_; }

  void set_position(net::NodeId id, geo::Vec2 p) { positions_.at(id) = p; }

  void set_alive(net::NodeId id, bool alive) {
    alive_.at(id) = alive ? 1 : 0;
    if (!alive) inboxes_[id].clear();
  }

  void broadcast(net::NodeId from, M message) {
    if (!alive_.at(from)) {
      ++drops_.dead_sender;
      return;
    }
    outbox_.push_back(Pending{from, positions_[from], std::move(message)});
  }

  void step() {
    for (auto& inbox : inboxes_) inbox.clear();
    for (const Pending& pending : outbox_) {
      if (!alive_[pending.from]) {
        ++drops_.dead_sender;
        continue;
      }
      for (net::NodeId to = 0; to < positions_.size(); ++to) {
        if (to == pending.from) continue;
        if (!alive_[to]) {
          ++drops_.dead_receiver;
        } else if (link_->transmit(pending.from, to, pending.sent_from,
                                   positions_[to])) {
          inboxes_[to].push_back(
              net::Delivery<M>{pending.from, pending.message});
        } else if (link_->in_range(pending.sent_from, positions_[to])) {
          ++drops_.link_loss_draw;
        } else {
          ++drops_.out_of_range;
        }
      }
    }
    outbox_.clear();
  }

  const std::vector<net::Delivery<M>>& inbox(net::NodeId id) const {
    return inboxes_.at(id);
  }

  /// Living nodes within range of `id`, ascending, excluding itself.
  std::vector<net::NodeId> neighbors_of(net::NodeId id) const {
    std::vector<net::NodeId> out;
    for (net::NodeId j = 0; j < positions_.size(); ++j) {
      if (j != id && alive_[j] &&
          link_->in_range(positions_.at(id), positions_[j])) {
        out.push_back(j);
      }
    }
    return out;
  }

 private:
  struct Pending {
    net::NodeId from;
    geo::Vec2 sent_from;
    M message;
  };

  std::unique_ptr<net::LinkModel> link_;
  std::vector<geo::Vec2> positions_;
  std::vector<char> alive_;
  std::vector<Pending> outbox_;
  std::vector<std::vector<net::Delivery<M>>> inboxes_;
  BusDrops drops_;
};

}  // namespace cps::oracle

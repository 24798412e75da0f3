// Reference Gilbert–Elliott channel for the link-state equivalence tests:
// the ordered-map formulation.
//
// Same model, parameters, validation and draw schedule as
// net::GilbertElliottLink, but every probed directed link keeps an entry
// in a std::map (good or bad), which is the plainest statement of "one
// two-state Markov chain per directed link".  The production link stores
// only the live fades per sender; equal-seeded instances of both must
// agree on every transmit() outcome and every link_is_bad() probe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "net/link_model.hpp"
#include "numerics/rng.hpp"

namespace cps::oracle {

class MapGilbertElliottLink final : public net::LinkModel {
 public:
  using Params = net::GilbertElliottLink::Params;

  MapGilbertElliottLink(double radius, const Params& params,
                        std::uint64_t seed = 1)
      : radius_(radius), params_(params), rng_(seed) {
    // Same validation as production (throws on the same inputs).
    (void)net::GilbertElliottLink(radius, params, seed);
  }

  double radius() const noexcept override { return radius_; }

  bool link_is_bad(net::NodeId from, net::NodeId to) const noexcept {
    const auto it = bad_.find({from, to});
    return it != bad_.end() && it->second;
  }

  bool transmit(net::NodeId from, net::NodeId to, geo::Vec2 from_pos,
                geo::Vec2 to_pos) noexcept override {
    if (!in_range(from_pos, to_pos)) return false;
    bool& is_bad = bad_[{from, to}];
    const bool flip = rng_.bernoulli(is_bad ? params_.p_bad_to_good
                                            : params_.p_good_to_bad);
    if (flip) is_bad = !is_bad;
    return !rng_.bernoulli(is_bad ? params_.loss_bad : params_.loss_good);
  }

  std::unique_ptr<net::LinkModel> clone() const override {
    return std::make_unique<MapGilbertElliottLink>(*this);
  }

  /// Directed links ever probed (the map's footprint).
  std::size_t links_tracked() const noexcept { return bad_.size(); }

 private:
  double radius_;
  Params params_;
  num::Rng rng_;
  std::map<std::pair<net::NodeId, net::NodeId>, bool> bad_;
};

}  // namespace cps::oracle

#include "net/link_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cps::net {

DistanceLossLink::DistanceLossLink(double radius, double edge_loss,
                                   double exponent, std::uint64_t seed)
    : radius_(radius),
      edge_loss_(edge_loss),
      exponent_(exponent),
      rng_(seed) {
  if (radius <= 0.0) {
    throw std::invalid_argument("DistanceLossLink: radius <= 0");
  }
  if (edge_loss < 0.0 || edge_loss > 1.0) {
    throw std::invalid_argument("DistanceLossLink: edge loss");
  }
  if (exponent <= 0.0) {
    throw std::invalid_argument("DistanceLossLink: exponent <= 0");
  }
}

double DistanceLossLink::loss_at(double distance) const noexcept {
  const double d = std::clamp(distance, 0.0, radius_);
  return edge_loss_ * std::pow(d / radius_, exponent_);
}

bool DistanceLossLink::transmit(NodeId, NodeId, geo::Vec2 from_pos,
                                geo::Vec2 to_pos) noexcept {
  if (!in_range(from_pos, to_pos)) return false;
  return !rng_.bernoulli(loss_at(geo::distance(from_pos, to_pos)));
}

GilbertElliottLink::GilbertElliottLink(double radius, const Params& params,
                                       std::uint64_t seed)
    : radius_(radius), params_(params), rng_(seed) {
  if (radius <= 0.0) {
    throw std::invalid_argument("GilbertElliottLink: radius <= 0");
  }
  for (const double p : {params.p_good_to_bad, params.p_bad_to_good,
                         params.loss_good, params.loss_bad}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument("GilbertElliottLink: probability");
    }
  }
}

bool GilbertElliottLink::link_is_bad(NodeId from, NodeId to) const noexcept {
  if (from >= bad_.size()) return false;
  const std::vector<NodeId>& row = bad_[from];
  return std::find(row.begin(), row.end(), to) != row.end();
}

std::size_t GilbertElliottLink::faded_links() const noexcept {
  std::size_t n = 0;
  for (const std::vector<NodeId>& row : bad_) n += row.size();
  return n;
}

bool GilbertElliottLink::transmit(NodeId from, NodeId to, geo::Vec2 from_pos,
                                  geo::Vec2 to_pos) noexcept {
  if (!in_range(from_pos, to_pos)) return false;
  if (from >= bad_.size()) bad_.resize(from + 1);
  std::vector<NodeId>& row = bad_[from];
  const auto it = std::find(row.begin(), row.end(), to);
  bool is_bad = it != row.end();
  // One Markov step per attempt, then a loss draw in the new state; the
  // two draws always happen so the stream stays aligned across links.
  const bool flip = rng_.bernoulli(is_bad ? params_.p_bad_to_good
                                          : params_.p_good_to_bad);
  if (flip) {
    if (is_bad) {
      *it = row.back();  // Recovered: order within a row is irrelevant.
      row.pop_back();
    } else {
      row.push_back(to);
    }
    is_bad = !is_bad;
  }
  return !rng_.bernoulli(is_bad ? params_.loss_bad : params_.loss_good);
}

}  // namespace cps::net

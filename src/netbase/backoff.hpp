#pragma once

/// \file backoff.hpp
/// Capped exponential backoff for redialing a lost BGP session: the first
/// wait is the initial one, and every further wait doubles the previous
/// one up to the cap. The runtime's wire frontend (clock-driven redial)
/// and the ingest replay client (blocking redial) draw their waits here.

#include <algorithm>

namespace sdx::net {

class Backoff {
 public:
  Backoff(double initial_seconds, double max_seconds)
      : next_(initial_seconds), max_(max_seconds) {}

  /// The wait before the next attempt; the one after it doubles, capped.
  double next() {
    const double wait = next_;
    next_ = std::min(next_ * 2, max_);
    return wait;
  }

 private:
  double next_;
  double max_;
};

}  // namespace sdx::net

// xan_lint fixture: overload-set resolution by argument arity.
//
// Two same-named `sample` overloads: the one-argument form draws from the
// shared member stream, the two-argument form is pure.  SafeMixer's handler
// only ever calls the pure two-argument overload, so a name-based call
// graph would over-approximate -- merging both overloads and flagging the
// draw with a path rooted at SafeMixer.  Arity resolution must keep
// SafeMixer silent while RacyMixer, whose handler really calls the
// one-argument overload, still fires shared-rng-draw with its own root.
//
// This file is analyzer input only; it is never compiled or linked.

#include "common/rng.hpp"

namespace fixture_overload {

class SafeMixer {
 public:
  // Pure: no stream involved.  The only overload the handler reaches.
  double mix_sample(double a, double b) { return a + b; }

  void on_mix_request(int count) {
    for (int i = 0; i < count; ++i) {
      schedule_after(1.0, [this] { total_ += mix_sample(1.0, 2.0); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  double total_ = 0.0;
};

class RacyMixer {
 public:
  double mix_sample(double scale) {
    return scale * rng_.normal(0.0, 1.0);  // BAD when handler-reachable.
  }

  void on_mix_tick(int count) {
    for (int i = 0; i < count; ++i) {
      schedule_after(1.0, [this] { total_ += mix_sample(0.5); });
    }
  }

  template <typename Fn>
  void schedule_after(double delay, Fn fn) {
    (void)delay;
    fn();
  }

 private:
  xanadu::common::Rng rng_;
  double total_ = 0.0;
};

}  // namespace fixture_overload

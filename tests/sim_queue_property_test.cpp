// Randomized property test for the slab-backed event queue.
//
// Drives the real sim::Simulator and a deliberately naive reference
// implementation (linear-scan min over a plain vector -- obviously correct,
// hopelessly slow) through identical randomized interleavings of
// schedule / cancel / run_until, including events that schedule children
// when they fire.  At every step the fired-event logs, clocks and pending
// counts must agree exactly.  This is the safety net that lets the real
// queue get clever (d-ary heap, tombstones, slot recycling) without a
// semantic escape hatch: any divergence in ordering, cancellation or clock
// handling shows up as a log mismatch with the seed printed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::sim {
namespace {

using common::EventId;
using common::Rng;

/// One fired event, as observed by either implementation.
struct Firing {
  std::uint32_t label;
  std::int64_t at_micros;

  bool operator==(const Firing& other) const {
    return label == other.label && at_micros == other.at_micros;
  }
};

/// Reference simulator: events in an unordered vector, pop-min by linear
/// scan over (when, seq).  No heap, no tombstones, no slab -- nothing that
/// could share a bug with the real implementation.
class ReferenceSim {
 public:
  void schedule(TimePoint when, std::uint32_t label) {
    queue_.push_back(Entry{when, next_seq_++, label});
  }

  bool cancel(std::uint32_t label) {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [label](const Entry& e) { return e.label == label; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  template <typename OnFire>
  void run_until(TimePoint deadline, OnFire&& on_fire) {
    for (;;) {
      const auto it = min_entry();
      if (it == queue_.end() || it->when > deadline) break;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);  // May re-enter schedule().
    }
    if (now_ < deadline) now_ = deadline;
  }

  template <typename OnFire>
  void run(OnFire&& on_fire) {
    while (true) {
      const auto it = min_entry();
      if (it == queue_.end()) break;
      const Entry entry = *it;
      queue_.erase(it);
      now_ = entry.when;
      on_fire(entry.label);
    }
  }

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t label;
  };

  std::vector<Entry>::iterator min_entry() {
    return std::min_element(queue_.begin(), queue_.end(),
                            [](const Entry& a, const Entry& b) {
                              if (a.when != b.when) return a.when < b.when;
                              return a.seq < b.seq;
                            });
  }

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> queue_;
};

/// Drives both simulators in lock-step through one randomized episode.
class LockstepDriver {
 public:
  explicit LockstepDriver(std::uint64_t seed) : rng_(seed), seed_(seed) {}

  void run_episode(int phases) {
    for (int phase = 0; phase < phases; ++phase) {
      const std::size_t to_schedule = 1 + rng_.uniform_int(8);
      for (std::size_t i = 0; i < to_schedule; ++i) {
        schedule_fresh(static_cast<std::int64_t>(rng_.uniform_int(5'000)));
      }
      const std::size_t to_cancel = rng_.uniform_int(4);
      for (std::size_t i = 0; i < to_cancel; ++i) cancel_random();
      cancel_retired();  // Stale-id cancels must be no-ops in both.
      advance(static_cast<std::int64_t>(rng_.uniform_int(4'000)));
      check_converged("phase " + std::to_string(phase));
    }
    drain();
    check_converged("final drain");
    ASSERT_EQ(real_.pending(), 0u) << diag("queue not empty after drain");
    ASSERT_EQ(real_.slab_occupancy(), 0u) << diag("slab leak after drain");
  }

 private:
  /// Child-spawning rule, applied identically by both implementations: every
  /// third label schedules a follow-up when it fires, up to depth 3.  Labels
  /// encode depth in the millions digit, so child labels never collide with
  /// fresh top-level labels (which stay below 1'000'000).
  static constexpr std::uint32_t kDepthStride = 1'000'000;
  static bool spawns_child(std::uint32_t label) {
    return label % 3 == 0 && label < 3 * kDepthStride;
  }
  static std::uint32_t child_of(std::uint32_t label) {
    return label + kDepthStride;
  }
  static Duration child_delay(std::uint32_t label) {
    return Duration::from_micros(static_cast<std::int64_t>(label % 900 + 1));
  }

  void schedule_fresh(std::int64_t delay_micros) {
    const std::uint32_t label = next_label_++;
    schedule_both(Duration::from_micros(delay_micros), label);
  }

  void schedule_both(Duration delay, std::uint32_t label) {
    const TimePoint when = real_.now() + delay;
    real_ids_[label] =
        real_.schedule_after(delay, [this, label] { on_real_fire(label); });
    ref_.schedule(when, label);
  }

  void on_real_fire(std::uint32_t label) {
    real_log_.push_back(Firing{label, real_.now().micros()});
    real_ids_.erase(label);
    if (spawns_child(label)) schedule_child_real(label);
  }

  void schedule_child_real(std::uint32_t label) {
    const std::uint32_t child = child_of(label);
    real_ids_[child] = real_.schedule_after(
        child_delay(label), [this, child] { on_real_fire(child); });
  }

  void on_ref_fire(std::uint32_t label) {
    ref_log_.push_back(Firing{label, ref_.now().micros()});
    if (spawns_child(label)) {
      ref_.schedule(ref_.now() + child_delay(label), child_of(label));
    }
  }

  void cancel_random() {
    if (real_ids_.empty()) return;
    // Pick by rank in the sorted outstanding map: deterministic given the
    // seed, independent of EventId encoding.
    auto it = real_ids_.begin();
    std::advance(it, static_cast<std::int64_t>(
                         rng_.uniform_int(real_ids_.size())));
    const std::uint32_t label = it->first;
    const bool real_ok = real_.cancel(it->second);
    const bool ref_ok = ref_.cancel(label);
    ASSERT_TRUE(real_ok) << diag("real cancel refused a pending event");
    ASSERT_TRUE(ref_ok) << diag("ref cancel refused a pending event");
    retired_.push_back(it->second);
    real_ids_.erase(it);
  }

  void cancel_retired() {
    // Ids of events that already fired or were cancelled: both sides must
    // treat them as dead, no matter how the real queue recycles slots.
    for (const EventId id : retired_) {
      ASSERT_FALSE(real_.cancel(id)) << diag("stale id cancelled something");
    }
  }

  void advance(std::int64_t stride_micros) {
    const TimePoint deadline =
        real_.now() + Duration::from_micros(stride_micros);
    real_.run_until(deadline);
    ref_.run_until(deadline, [this](std::uint32_t label) { on_ref_fire(label); });
  }

  void drain() {
    real_.run();
    ref_.run([this](std::uint32_t label) { on_ref_fire(label); });
  }

  void check_converged(const std::string& where) {
    ASSERT_EQ(real_log_.size(), ref_log_.size()) << diag(where);
    for (std::size_t i = 0; i < real_log_.size(); ++i) {
      ASSERT_TRUE(real_log_[i] == ref_log_[i])
          << diag(where + ": divergence at firing " + std::to_string(i) +
                  " (real label " + std::to_string(real_log_[i].label) +
                  " @" + std::to_string(real_log_[i].at_micros) +
                  ", ref label " + std::to_string(ref_log_[i].label) + " @" +
                  std::to_string(ref_log_[i].at_micros) + ")");
    }
    ASSERT_EQ(real_.now().micros(), ref_.now().micros()) << diag(where);
    ASSERT_EQ(real_.pending(), ref_.pending()) << diag(where);
  }

  [[nodiscard]] std::string diag(const std::string& what) const {
    return what + " [seed " + std::to_string(seed_) + "]";
  }

  Rng rng_;
  std::uint64_t seed_;
  Simulator real_;
  ReferenceSim ref_;
  std::uint32_t next_label_ = 1;  // 0 is never used: label 0 % 3 == 0 quirk.
  std::map<std::uint32_t, EventId> real_ids_;
  std::vector<EventId> retired_;
  std::vector<Firing> real_log_;
  std::vector<Firing> ref_log_;
};

TEST(SimQueueProperty, MatchesReferenceAcrossRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LockstepDriver driver{seed};
    driver.run_episode(/*phases=*/40);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimQueueProperty, HeavySameTimeTiesKeepFifoOrder) {
  // Delays drawn from {0, 1, 2} microseconds force massive (when) ties, so
  // pop order is dominated by the FIFO sequence tie-break -- exactly the
  // territory where a d-ary heap with tombstone compaction could slip.
  for (std::uint64_t seed = 100; seed <= 112; ++seed) {
    Rng rng{seed};
    Simulator real;
    ReferenceSim ref;
    std::vector<std::uint32_t> real_order;
    std::vector<std::uint32_t> ref_order;
    std::vector<EventId> ids;
    std::vector<std::uint32_t> labels;
    for (std::uint32_t i = 0; i < 500; ++i) {
      const auto delay =
          Duration::from_micros(static_cast<std::int64_t>(rng.uniform_int(3)));
      ids.push_back(
          real.schedule_after(delay, [&real_order, i] { real_order.push_back(i); }));
      ref.schedule(real.now() + delay, i);
      labels.push_back(i);
    }
    // Cancel a random half, same victims on both sides.
    for (std::uint32_t i = 0; i < 250; ++i) {
      const auto victim = rng.uniform_int(ids.size());
      if (!real.cancel(ids[victim])) continue;  // Already-cancelled pick.
      ASSERT_TRUE(ref.cancel(labels[victim])) << "seed " << seed;
    }
    real.run();
    ref.run([&ref_order](std::uint32_t label) { ref_order.push_back(label); });
    ASSERT_EQ(real_order, ref_order) << "seed " << seed;
  }
}

TEST(SimQueueProperty, ReservedSeqChainsMatchFullPreschedule) {
  // The reference schedules every link of a chain up front; the real queue
  // reserves the chain's seqs and queues link i + 1 only when link i fires.
  // Pop order must be identical, including ties against plain events
  // scheduled before, between and after the reservations, cancellations,
  // and children spawned by firing events.
  struct Chain {
    std::vector<TimePoint> at;
    std::uint64_t first_seq = 0;
    std::uint32_t base_label = 0;
  };
  for (std::uint64_t seed = 200; seed <= 224; ++seed) {
    Rng rng{seed};
    Simulator real;
    ReferenceSim ref;
    std::vector<std::uint32_t> real_order;
    std::vector<std::uint32_t> ref_order;
    std::vector<Chain> chains;
    chains.reserve(64);
    std::map<std::uint32_t, EventId> plain_ids;
    std::uint32_t next_plain = 1;
    constexpr std::uint32_t kChainStride = 1'000;
    constexpr std::uint32_t kChainBase = 1'000'000;
    // Plain events with label % 4 == 0 spawn one child when they fire.
    const auto spawns = [](std::uint32_t label) {
      return label < kChainBase / 2 && label % 4 == 0;
    };
    const auto child_of = [](std::uint32_t label) {
      return label + kChainBase / 2;
    };

    std::function<void(std::size_t, std::size_t)> queue_link;
    const std::function<void(std::uint32_t)> fire_plain =
        [&](std::uint32_t label) {
          real_order.push_back(label);
          plain_ids.erase(label);
          if (spawns(label)) {
            const std::uint32_t child = child_of(label);
            real.schedule_after(Duration::from_micros(label % 3),
                                [&fire_plain, child] { fire_plain(child); });
          }
        };
    queue_link = [&](std::size_t chain, std::size_t link) {
      const Chain& c = chains[chain];
      real.schedule_reserved(c.at[link], c.first_seq + link, [&, chain, link] {
        real_order.push_back(chains[chain].base_label +
                             static_cast<std::uint32_t>(link));
        if (link + 1 < chains[chain].at.size()) queue_link(chain, link + 1);
      });
    };
    const auto on_ref_fire = [&](std::uint32_t label) {
      ref_order.push_back(label);
      if (spawns(label)) {
        ref.schedule(ref.now() + Duration::from_micros(label % 3),
                     child_of(label));
      }
    };

    for (int phase = 0; phase < 30; ++phase) {
      const std::size_t plain = rng.uniform_int(6);
      for (std::size_t i = 0; i < plain; ++i) {
        const std::uint32_t label = next_plain++;
        const auto delay = Duration::from_micros(
            static_cast<std::int64_t>(rng.uniform_int(40)));
        plain_ids[label] = real.schedule_after(
            delay, [&fire_plain, label] { fire_plain(label); });
        ref.schedule(ref.now() + delay, label);
      }
      if (rng.uniform_int(2) == 0) {
        Chain chain;
        chain.base_label =
            kChainBase + static_cast<std::uint32_t>(chains.size()) * kChainStride;
        TimePoint at = real.now();
        const std::size_t links = 1 + rng.uniform_int(40);
        for (std::size_t i = 0; i < links; ++i) {
          // Gaps of 0 us make chain links tie with each other as well.
          at = at + Duration::from_micros(
                        static_cast<std::int64_t>(rng.uniform_int(4)));
          chain.at.push_back(at);
          ref.schedule(at, chain.base_label + static_cast<std::uint32_t>(i));
        }
        chain.first_seq = real.reserve_seqs(links);
        chains.push_back(std::move(chain));
        queue_link(chains.size() - 1, 0);
      }
      if (!plain_ids.empty() && rng.uniform_int(3) == 0) {
        auto it = plain_ids.begin();
        std::advance(it, static_cast<std::int64_t>(
                             rng.uniform_int(plain_ids.size())));
        ASSERT_TRUE(real.cancel(it->second)) << "seed " << seed;
        ASSERT_TRUE(ref.cancel(it->first)) << "seed " << seed;
        plain_ids.erase(it);
      }
      const TimePoint deadline =
          real.now() +
          Duration::from_micros(static_cast<std::int64_t>(rng.uniform_int(30)));
      real.run_until(deadline);
      ref.run_until(deadline, on_ref_fire);
      ASSERT_EQ(real_order, ref_order) << "seed " << seed << " phase " << phase;
    }
    real.run();
    ref.run(on_ref_fire);
    ASSERT_EQ(real_order, ref_order) << "seed " << seed;
    EXPECT_EQ(real.pending(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xanadu::sim

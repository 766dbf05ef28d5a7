// netrev::exec — cooperative cancellation and deadlines.
//
// A long-running pipeline stage must be interruptible for two reasons: the
// caller gave it a wall-clock budget (a Deadline), or an external event
// (SIGINT, a dropped client) asked the whole run to stop (a CancelToken).
// Both are combined into a Checkpoint, the poll point threaded through
// WorkBudget charges, ThreadPool task bodies, parser loops, and every
// wordrec stage.  Polling is cooperative: code calls poll() at natural
// boundaries (a netlist line, a fanin-cone node, an assignment trial) and
// the poll throws CancelledError or DeadlineExceededError, which unwinds
// through parallel_for's deterministic lowest-index rethrow like any other
// stage failure.
//
// Cost model: an unarmed Checkpoint (no token, no deadline — the default
// everywhere) polls in one branch.  Cancellation is one relaxed atomic
// load.  Only an armed deadline reads the clock, so poll points may sit on
// hot paths as long as the *unarmed* cost is what they pay by default;
// ultra-hot paths (per-net cone charges) additionally stride their polls
// (see WorkBudget).
//
// Deadline trips are wall-clock events and therefore not deterministic
// across machines; determinism contracts are phrased one level up (the
// degradation ladder, exec/degrade.h): whatever rung a run lands on, the
// bytes it produces are identical at any job count.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace netrev::exec {

// Thrown by Checkpoint::poll() when the run's CancelToken was triggered
// (SIGINT, caller shutdown).  Never converted into degraded results: a
// cancelled run is abandoned, not approximated.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("operation cancelled") {}
};

// Thrown by Checkpoint::poll() when the armed deadline has passed.  The
// message is deliberately constant (no elapsed times) so a deadline trip
// recorded in diagnostics or JSON is byte-stable.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError() : std::runtime_error("deadline exceeded") {}
};

enum class StopReason { kNone, kCancelled, kDeadline };

// Shared cancellation flag.  Copies observe the same flag; the flag is a
// lock-free atomic, so request_cancel() never blocks.  A signal handler must
// not store into a token (its state may be freed while the handler still
// runs on another thread): it stores into a flag with static storage
// duration instead, and the token is link()ed to that flag.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  void request_cancel() {
    state_->flag.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    if (state_->flag.load(std::memory_order_relaxed)) return true;
    const std::atomic<bool>* linked = state_->linked.load();
    return linked != nullptr && linked->load();
  }

  // Also report cancellation while `*source` is set (for every copy);
  // nullptr unlinks.  `source` must outlive the link.
  void link(const std::atomic<bool>* source) {
    state_->linked.store(source);
  }

  // The token's own flag; copies return the same pointer.
  std::atomic<bool>* flag() { return &state_->flag; }

 private:
  struct State {
    std::atomic<bool> flag{false};
    std::atomic<const std::atomic<bool>*> linked{nullptr};
  };
  std::shared_ptr<State> state_;
};

// A wall-clock deadline on the steady clock.  Default-constructed =
// unlimited.  Value type, trivially copyable.
class Deadline {
 public:
  Deadline() = default;

  // A deadline `budget` from now; a zero or negative budget means
  // "unlimited" (the CLI's 0 = no timeout convention).
  static Deadline after(std::chrono::milliseconds budget) {
    Deadline d;
    if (budget.count() > 0) {
      d.limited_ = true;
      d.at_ = std::chrono::steady_clock::now() + budget;
    }
    return d;
  }

  // The earlier of two deadlines (unlimited loses to any limited one).
  static Deadline sooner(const Deadline& a, const Deadline& b) {
    if (!a.limited_) return b;
    if (!b.limited_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

  bool limited() const { return limited_; }
  bool expired() const {
    return limited_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool limited_ = false;
  std::chrono::steady_clock::time_point at_{};
};

// The poll point.  Combines a CancelToken and a Deadline; default
// constructed it is unarmed and polls are a single branch.
class Checkpoint {
 public:
  Checkpoint() = default;
  Checkpoint(CancelToken token, Deadline deadline)
      : token_(std::move(token)), deadline_(deadline), armed_(true) {}

  // True when this checkpoint can ever stop anything — the fast-path guard
  // hot loops test before paying for a clock read.
  bool armed() const { return armed_; }

  StopReason stop_requested() const {
    if (!armed_) return StopReason::kNone;
    if (token_.cancel_requested()) return StopReason::kCancelled;
    if (deadline_.expired()) return StopReason::kDeadline;
    return StopReason::kNone;
  }

  // Throws CancelledError / DeadlineExceededError when a stop is due.
  void poll() const {
    switch (stop_requested()) {
      case StopReason::kNone:
        return;
      case StopReason::kCancelled:
        throw CancelledError();
      case StopReason::kDeadline:
        throw DeadlineExceededError();
    }
  }

 private:
  CancelToken token_;
  Deadline deadline_;
  bool armed_ = false;
};

}  // namespace netrev::exec

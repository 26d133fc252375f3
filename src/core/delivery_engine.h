// The communication layer's delivery engine: executes a delivery mode
// for one alert against one address book.
//
// Semantics (Sections 3.2, 4.1): blocks are ordered fallback stages.
// Within a block, every action mapping to an *enabled* address is
// attempted (in parallel — multiple addresses per block exist "to
// accommodate communication delays and failures"). Action successes
// come in two strengths:
//
//   * STRONG — an IM with requireAck whose application-level
//     acknowledgement arrived, or an IM without requireAck that the
//     service accepted for an online recipient. A strong success
//     completes the block (and the delivery) immediately.
//   * WEAK — an email or SMS the relay accepted. Those channels give
//     no better signal (which is exactly why they are fallbacks). A
//     weak success completes the block immediately ONLY if the block
//     contains no ack-requiring action; otherwise it is remembered,
//     and if the awaited ack never arrives by the block timeout the
//     delivery completes on the weak success instead of falling back.
//
// If nothing succeeded before the block's timeout (or every action
// failed outright), the next block is tried. A block whose actions are
// all disabled fails immediately ("Any delivery block that contains
// [only] an SMS action will automatically fail and fall back").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "automation/email_manager.h"
#include "automation/im_manager.h"
#include "core/address_book.h"
#include "core/alert.h"
#include "core/delivery_mode.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/stats.h"
#include "util/trace.h"

namespace simba::core {

struct DeliveryOutcome {
  bool delivered = false;
  /// The delivery never ran: its priority lane was full and the engine
  /// dropped it with explicit accounting (never silently).
  bool shed = false;
  /// 0-based index of the block that succeeded; -1 if none.
  int block_used = -1;
  /// Total messages actually sent while delivering (the "irritability
  /// factor" metric of experiment E7).
  int messages_sent = 0;
  TimePoint completed_at{};
  std::string detail;
};

/// Dispatch priority under overload. Strict: a queued CRITICAL delivery
/// always dispatches before NORMAL, and NORMAL before DIGEST.
enum class DeliveryPriority { kCritical = 0, kNormal = 1, kDigest = 2 };

const char* to_string(DeliveryPriority priority);

struct DeliveryEngineOptions {
  /// Deliveries allowed to run concurrently. 0 = unlimited: every
  /// deliver() dispatches immediately and the lane machinery is
  /// bypassed entirely (the pre-overload behavior, event-for-event).
  int max_concurrent = 0;
  /// Queued deliveries each lane holds while waiting for a dispatch
  /// slot; one more is shed. 0 = unbounded lanes.
  std::size_t lane_bound = 0;
  /// Strict priority across CRITICAL/NORMAL/DIGEST lanes. When false
  /// every delivery shares one FIFO lane — the "defenses off"
  /// configuration bench_storm measures against.
  bool priority_lanes = true;
};

class DeliveryEngine {
 public:
  /// Either manager may be null; actions needing it then fail.
  DeliveryEngine(sim::Simulator& sim, automation::ImManager* im,
                 automation::EmailManager* email,
                 DeliveryEngineOptions options = {});
  ~DeliveryEngine();

  using DoneCallback = std::function<void(const DeliveryOutcome&)>;

  /// Starts an asynchronous delivery. `done` fires exactly once —
  /// immediately with outcome.shed set if the priority lane is full.
  void deliver(const Alert& alert, const AddressBook& addresses,
               const DeliveryMode& mode, DoneCallback done,
               DeliveryPriority priority = DeliveryPriority::kNormal);

  /// Feed incoming IMs here; returns true if the message was an
  /// acknowledgement this engine was waiting for (and consumed).
  bool handle_incoming(const im::ImMessage& message);

  /// Number of deliveries still in flight (dispatched, not queued).
  std::size_t in_flight() const { return deliveries_.size(); }

  /// Deliveries queued in lanes awaiting a dispatch slot.
  std::size_t queued() const;

  const Counters& stats() const { return stats_; }

  /// Arms lifecycle tracing (null disables it): per-block and
  /// per-action attempts, fallbacks, and skip reasons.
  void set_trace(util::Trace* trace) { trace_ = trace; }

 private:
  struct Delivery {
    std::uint64_t id;
    Alert alert;
    AddressBook addresses;  // snapshot: enable/disable state at send time
    DeliveryMode mode;
    DoneCallback done;
    DeliveryPriority priority = DeliveryPriority::kNormal;
    std::size_t block_index = 0;
    int messages_sent = 0;
    /// Actions still able to succeed in the current block.
    int actions_pending = 0;
    /// Ack-required IM sends accepted and now waiting for the ack.
    int acks_outstanding = 0;
    /// Whether the current block has any runnable ack-requiring action.
    bool block_awaits_ack = false;
    /// Weak (relay-accepted) successes recorded in the current block.
    int weak_successes = 0;
    sim::EventId block_timer = 0;
    TimePoint started_at{};
    TimePoint block_started_at{};
  };

  /// Moves the delivery into the running set and starts its first
  /// block. Counted as started only here, never at enqueue time.
  void dispatch(Delivery d);
  /// Dispatches queued deliveries while slots are free, highest
  /// priority lane first.
  void pump();
  void run_block(std::uint64_t delivery_id);
  void start_action(std::uint64_t delivery_id, const DeliveryAction& action,
                    std::size_t block_index);
  void action_failed(std::uint64_t delivery_id, std::size_t block_index,
                     const std::string& reason);
  void action_succeeded(std::uint64_t delivery_id, std::size_t block_index,
                        const std::string& how);
  void advance_block(std::uint64_t delivery_id);
  void finish(std::uint64_t delivery_id, bool delivered,
              const std::string& detail);
  /// True when lifecycle tracing is armed; detail-building call sites
  /// check this first so untraced runs skip the string construction.
  bool traced() const { return trace_ != nullptr; }
  /// Instant trace event on the delivery's alert (no-op untraced).
  void trace_event(const Delivery& d, const char* stage, std::string detail);

  sim::Simulator& sim_;
  automation::ImManager* im_;
  automation::EmailManager* email_;
  DeliveryEngineOptions options_;
  /// Engines die with their MAB incarnation while sends and timers may
  /// still be in flight; every async callback holds this token and
  /// bails out once the engine is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// In-flight deliveries and ack waiters are lookup-only flat maps:
  /// nothing observes their iteration order (the cancel sweeps erase by
  /// value predicate), and find/erase run per message on the hot path.
  util::FlatMap<std::uint64_t, Delivery> deliveries_;
  /// "<alert_id>|<address>" -> delivery id waiting for that ack.
  util::FlatMap<std::string, std::uint64_t> ack_waiters_;
  std::uint64_t next_delivery_ = 1;
  /// Priority lanes awaiting a dispatch slot (kCritical/kNormal/
  /// kDigest; only index 0 is used when priority_lanes is off).
  // simba-lint: bounded(options_.lane_bound, shed in deliver())
  std::deque<Delivery> lanes_[3];
  /// Deliveries currently holding one of max_concurrent slots.
  int active_ = 0;
  /// Re-entrancy guard: a run_block that finishes synchronously calls
  /// pump() from inside the outer pump loop.
  bool pumping_ = false;
  Counters stats_;
  util::Trace* trace_ = nullptr;
};

}  // namespace simba::core

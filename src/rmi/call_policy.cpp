#include "rmi/call_policy.hpp"

#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace mage::rmi {

common::SimDuration CallPolicy::backoff_us(int retry,
                                           common::Rng& rng) const {
  double backoff = static_cast<double>(backoff_base_us);
  for (int i = 1; i < retry; ++i) backoff *= backoff_multiplier;
  if (backoff_jitter > 0.0) {
    // Uniform in [1-j, 1+j], one draw per backoff: deterministic given the
    // node's stream and its (replayable) order of retries.
    backoff *= 1.0 + backoff_jitter * (2.0 * rng.next_double() - 1.0);
  }
  if (backoff < 1.0) return 1;
  return static_cast<common::SimDuration>(backoff);
}

void CallPolicy::register_counters(common::StatsRegistry& stats) const {
  if (hedge_after_us > 0) {
    (void)stats.counter_handle("rmi.hedged_calls");
    (void)stats.counter_handle("rmi.hedge_wins");
  }
  if (max_retries > 0 || deadline_us > 0) {
    (void)stats.counter_handle("rmi.retries");
    (void)stats.counter_handle("rmi.deadline_exceeded");
  }
}

namespace {

// One call under a policy with a deadline, retries or a hedge.  Its
// transport callbacks and timers are its only owners: whichever runs last
// frees it.  Each attempt is a primary plus, after hedge_after_us, a hedge;
// the first success wins and the other branch is cancelled, and the
// attempt fails only when every launched branch has failed (a hedge not
// yet launched would only repeat the primary's failure).  A failed attempt
// is retried after a backoff while retries remain; the deadline cancels
// whatever is in flight and fails the call.
class PolicyCall : public std::enable_shared_from_this<PolicyCall> {
 public:
  PolicyCall(Transport& transport, const CallPolicy& policy,
             common::NodeId dest, common::VerbId verb,
             serial::BufferChain body, Transport::Callback done)
      : transport_(transport),
        sim_(transport.network().node_sim(transport.self())),
        policy_(policy),
        dest_(dest),
        verb_(verb),
        body_(std::move(body)),
        done_(std::move(done)) {}

  void start() {
    if (policy_.deadline_us > 0) {
      deadline_timer_ = after(policy_.deadline_us, &PolicyCall::on_deadline);
    }
    attempt();
  }

 private:
  sim::EventId after(common::SimDuration delay, void (PolicyCall::*step)()) {
    return sim_.schedule_after(
        delay, [self = shared_from_this(), step] { ((*self).*step)(); });
  }

  void disarm(std::optional<sim::EventId>& timer) {
    if (timer) sim_.cancel(*timer);
    timer.reset();
  }

  std::optional<common::RequestId>& branch(bool is_hedge) {
    return is_hedge ? hedge_ : primary_;
  }

  void attempt() {
    backoff_timer_.reset();  // this timer just fired, if it was armed
    send(/*is_hedge=*/false);
    if (policy_.hedge_after_us > 0) {
      hedge_timer_ = after(policy_.hedge_after_us, &PolicyCall::launch_hedge);
    }
  }

  void launch_hedge() {
    hedge_timer_.reset();  // this timer just fired
    sim_.stats().add("rmi.hedged_calls");
    send(/*is_hedge=*/true);
  }

  void send(bool is_hedge) {
    branch(is_hedge) = transport_.call(
        dest_, verb_, body_,
        [self = shared_from_this(), is_hedge](CallResult result) {
          self->on_branch(is_hedge, std::move(result));
        },
        policy_.attempt_options());
  }

  void on_branch(bool is_hedge, CallResult result) {
    branch(is_hedge).reset();  // this call just completed
    if (!result.ok && (primary_ || hedge_)) return;  // the other may win
    if (result.ok && is_hedge) sim_.stats().add("rmi.hedge_wins");
    // The attempt is decided: silence everything else — a losing branch's
    // callback never fires, and nothing retransmits it.
    cancel_attempt();
    on_attempt(std::move(result));
  }

  // Cancels the hedge timer and every live branch of the attempt.
  void cancel_attempt() {
    disarm(hedge_timer_);
    if (primary_) transport_.cancel(*primary_);
    if (hedge_) transport_.cancel(*hedge_);
    primary_.reset();
    hedge_.reset();
  }

  void on_attempt(CallResult result) {
    if (result.ok || retries_used_ >= policy_.max_retries) {
      finish(std::move(result));
      return;
    }
    ++retries_used_;
    sim_.stats().add("rmi.retries");
    backoff_timer_ = after(
        policy_.backoff_us(retries_used_,
                           transport_.network().node_rng(transport_.self())),
        &PolicyCall::attempt);
  }

  void on_deadline() {
    deadline_timer_.reset();  // this timer just fired
    cancel_attempt();
    disarm(backoff_timer_);
    sim_.stats().add("rmi.deadline_exceeded");
    finish(CallResult::failure("rmi call '" + common::verb_name(verb_) +
                               "' deadline exceeded after " +
                               std::to_string(policy_.deadline_us) + "us"));
  }

  void finish(CallResult result) {
    disarm(deadline_timer_);
    Transport::Callback done = std::move(done_);
    done(std::move(result));
  }

  Transport& transport_;
  sim::Simulation& sim_;
  const CallPolicy policy_;
  const common::NodeId dest_;
  const common::VerbId verb_;
  const serial::BufferChain body_;  // refcounted; re-sent verbatim
  Transport::Callback done_;
  int retries_used_ = 0;
  // The attempt's live branches, and the armed timers.
  std::optional<common::RequestId> primary_;
  std::optional<common::RequestId> hedge_;
  std::optional<sim::EventId> hedge_timer_;
  std::optional<sim::EventId> backoff_timer_;
  std::optional<sim::EventId> deadline_timer_;
};

}  // namespace

void call(Transport& transport, const CallPolicy& policy, common::NodeId dest,
          common::VerbId verb, serial::BufferChain body,
          Transport::Callback done) {
  if (policy.deadline_us <= 0 && policy.max_retries <= 0 &&
      policy.hedge_after_us <= 0) {
    transport.call(dest, verb, std::move(body), std::move(done),
                   policy.attempt_options());
    return;
  }
  // Checked before any timer is armed: a throw from the first attempt
  // would leave the deadline timer to complete a call that never started.
  check_call_options(verb, policy.attempt_options());
  std::make_shared<PolicyCall>(transport, policy, dest, verb, std::move(body),
                               std::move(done))
      ->start();
}

}  // namespace mage::rmi

// Request/response types for the engine, and the Session handle a caller
// polls, waits on, or cancels.
//
// The engine serves FAQ queries over every semiring the library ships, from
// one untemplated entry point: AnyQuery/AnyRelation are closed variants over
// the semiring set, so QueryRequest and QueryResult are plain structs that
// can sit in queues, and the engine dispatches to the templated solvers with
// one std::visit. Callers that know their semiring statically use
// Engine::Solve(FaqQuery<S>) and never see the variant.
#ifndef TOPOFAQ_SERVER_SESSION_H_
#define TOPOFAQ_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "faq/query.h"
#include "relation/exec.h"
#include "server/admission.h"
#include "util/status.h"

namespace topofaq {

/// Every semiring the engine can execute. Gf2 rides along for the matrix
/// multiplication pipeline (mcm/faq_mcm.h), MaxProduct for MAP-style
/// marginals.
using AnyQuery =
    std::variant<FaqQuery<BooleanSemiring>, FaqQuery<NaturalSemiring>,
                 FaqQuery<CountingSemiring>, FaqQuery<MinPlusSemiring>,
                 FaqQuery<MaxProductSemiring>, FaqQuery<Gf2Semiring>>;

using AnyRelation =
    std::variant<Relation<BooleanSemiring>, Relation<NaturalSemiring>,
                 Relation<CountingSemiring>, Relation<MinPlusSemiring>,
                 Relation<MaxProductSemiring>, Relation<Gf2Semiring>>;

struct QueryRequest {
  AnyQuery query;
  /// Caller-chosen label, echoed in logs and shell output.
  std::string tag;
};

/// The answer plus everything the engine learned along the way.
struct QueryResult {
  AnyRelation answer;
  /// Kernel counters rolled up over the whole query.
  OpStats kernel;
  /// What admission predicted — compare bounds.predicted_output_rows
  /// against observed_rows for a predicted-vs-observed check.
  QueryBounds bounds;
  QueueClass klass = QueueClass::kGeneral;
  uint64_t observed_rows = 0;
  /// True when the decomposition came out of the plan cache.
  bool plan_cache_hit = false;
  double queue_ms = 0.0;  ///< admission → dispatch
  double exec_ms = 0.0;   ///< dispatch → answer

  template <CommutativeSemiring S>
  const Relation<S>& answer_as() const {
    return std::get<Relation<S>>(answer);
  }
};

/// One submitted query's lifecycle handle. Returned as a shared_ptr by
/// Engine::Submit: the engine holds one reference until the result is
/// delivered, the caller holds the other, so neither side can dangle.
///
/// Thread-safe. Cancel() may be called from any thread at any point; it
/// flips the token the query's ExecContext carries, and the running solver
/// observes it at the next morsel/operator boundary (Status::Cancelled).
/// Queued-but-unstarted queries are cancelled without running at all.
class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Requests cooperative cancellation. Idempotent; never blocks.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// The token wired into the query's ExecContext (relation/exec.h).
  const std::atomic<bool>* cancel_token() const { return &cancel_; }

  /// Blocks until the result is delivered, then returns it. May be called
  /// repeatedly; every call sees the same outcome.
  Result<QueryResult> Wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return result_.has_value(); });
    return *result_;
  }

 private:
  friend class Engine;

  void Deliver(Result<QueryResult> r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_.emplace(std::move(r));
    }
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::atomic<bool> cancel_{false};
  std::optional<Result<QueryResult>> result_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_SERVER_SESSION_H_

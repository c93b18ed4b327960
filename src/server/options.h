// Engine configuration: every tunable the serving layer honors, in one
// struct, with one parser for the environment.
//
// EngineOptions::FromEnv() — implemented in options.cc, the single file in
// src/ that calls std::getenv — is the only place environment text is
// parsed. The values a fresh ExecContext starts at (DefaultParallelism(),
// DefaultSimdEnabled(), DefaultEncodingMode()) are defined there too, so
// kernel defaults and engine options never disagree about what an
// environment variable means.
#ifndef TOPOFAQ_SERVER_OPTIONS_H_
#define TOPOFAQ_SERVER_OPTIONS_H_

#include <cstdint>
#include <string>

#include "relation/encoding.h"
#include "relation/exec.h"

namespace topofaq {

/// Budgets and queue-classification thresholds for the admission controller
/// (server/admission.h). Budgets default to "unlimited" so an Engine admits
/// everything unless the caller opts into limits.
struct AdmissionOptions {
  /// Reject queries whose predicted output exceeds this many rows
  /// (the FD-aware chain bound of admission.h). 0 = no cap.
  uint64_t max_predicted_output_rows = 0;
  /// Reject queries whose internal-node-width y(H) exceeds this
  /// (Definition 2.9's y counts internal join-tree nodes, so it is >= 1 for
  /// any multi-edge query — even acyclic paths). -1 = no cap.
  int max_width = -1;

  /// Point class (highest priority): predicted output and largest input both
  /// small — a lookup that must never wait behind analytic work.
  uint64_t point_output_rows_max = 1024;
  uint64_t point_input_rows_max = 65536;
  /// Heavy class (lowest priority, capped slots): a GYO-cyclic core, a huge
  /// predicted output, or a huge input.
  uint64_t heavy_output_rows_min = 1ull << 20;
  uint64_t heavy_input_rows_min = 1ull << 20;
};

/// Everything an Engine needs to know at construction time.
struct EngineOptions {
  /// Operator parallelism granted to non-point queries (point lookups always
  /// run serially — fan-out costs more than the lookup).
  int parallelism = DefaultParallelism();
  /// Column encoding policy of every relation this engine's queries build:
  /// copied into each job's ExecContext::encoding, never into process
  /// state. The TOPOFAQ_ENCODING knob.
  EncodingMode encoding = DefaultEncodingMode();
  /// Whether this engine's queries may run the vector kernels
  /// (relation/simd.h): copied into each job's ExecContext::simd. The
  /// TOPOFAQ_SIMD knob; off forces the guaranteed-equivalent scalar bodies
  /// for this engine.
  bool simd = DefaultSimdEnabled();
  /// Per-node page budget for the streaming network protocols
  /// (protocols/async.h); the TOPOFAQ_PAGE_BUDGET knob. Engine execution is
  /// in-process and ignores it, but it rides along so protocol drivers and
  /// tests read the knob through the same parser.
  int64_t page_budget = 8;
  /// Dispatcher threads draining the engine's queues. Two by default: one
  /// can sit inside a heavy query while the other keeps serving points.
  int dispatchers = 2;
  /// Queries of the heavy class allowed in flight at once. Keeping this
  /// below `dispatchers` is what guarantees a free dispatcher for point
  /// lookups under sustained heavy load.
  int heavy_slots = 1;
  AdmissionOptions admission;
  /// When non-empty, the engine starts with tracing enabled (one
  /// TraceSession spanning its lifetime) and writes the Chrome trace JSON
  /// here on destruction — the TOPOFAQ_TRACE knob. Empty (default): tracing
  /// off until Engine::EnableTracing is called.
  std::string trace_path;

  /// The one environment parser: TOPOFAQ_PARALLELISM ("max"/"0" = all
  /// cores, n = n workers, unset/invalid = 1), TOPOFAQ_ENCODING
  /// (auto | plain/off | dict | for), TOPOFAQ_SIMD (auto/on/1 | off/0),
  /// TOPOFAQ_PAGE_BUDGET (pages >= 1, unset/invalid = the field default),
  /// TOPOFAQ_TRACE (a file path; non-empty = trace from startup).
  /// Other fields keep their defaults.
  static EngineOptions FromEnv();
};

}  // namespace topofaq

#endif  // TOPOFAQ_SERVER_OPTIONS_H_

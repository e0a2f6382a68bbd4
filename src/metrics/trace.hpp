#pragma once

// Request trace export: turns RequestResult node records into a CSV
// timeline, one row per workflow node, suitable for plotting Gantt-style
// charts of speculation behaviour or diffing runs.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "platform/request.hpp"
#include "workflow/dag.hpp"

namespace xanadu::metrics {

/// CSV header used by trace_csv().
[[nodiscard]] std::string trace_csv_header();

/// One CSV row per node of `result`, using function names from `dag`.
/// Columns: request, node, function, status, trigger_ms, exec_start_ms,
/// exec_end_ms, exec_duration_ms, cold, provision_wait_ms, retries, failed,
/// invoked_by.  `failed` is the request-level failure flag, repeated per row.
[[nodiscard]] std::string trace_csv(const platform::RequestResult& result,
                                    const workflow::WorkflowDag& dag);

/// Appends the rows of `result` to `out` (no header).  This is the canonical
/// renderer: the batch trace_csv() overloads and the streaming consumer both
/// call it, so the streamed digest hashes the exact bytes batch rendering
/// produces.  Millisecond columns are printf("%.6g") text, rendered with
/// std::to_chars(general, 6) and therefore independent of the global locale.
void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag);

/// Same rows, but node function names come from `node_names` (index-aligned
/// with the dag's nodes) instead of dag lookups.  The streaming consumer
/// interns function names once per source and renders from the interned
/// views; bytes are identical to the dag overload whenever
/// `node_names[i] == dag.node(i).fn.name`.
void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const std::vector<std::string_view>& node_names);

/// Concatenates the header and the rows of many results.
[[nodiscard]] std::string trace_csv(
    const std::vector<platform::RequestResult>& results,
    const workflow::WorkflowDag& dag);

// -- Trace digests ----------------------------------------------------------
//
// A stable 64-bit fingerprint of a run's emitted trace records, used by the
// seed-replay determinism tests (same seed => identical digest) and printable
// from run_workflow_cli via --digest.  The digest hashes the rendered CSV
// text, so it covers exactly what a human would diff: timings, statuses,
// cold flags, and invocation edges.  FNV-1a is used deliberately -- it is
// byte-order-free, dependency-free, and stable across platforms.

/// FNV-1a offset basis; digests of empty inputs equal this value.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds `text` into a running FNV-1a digest (pass kFnvOffsetBasis to start).
[[nodiscard]] std::uint64_t fnv1a(const std::string& text,
                                  std::uint64_t seed = kFnvOffsetBasis);

/// Digest of one request's trace rows.
[[nodiscard]] std::uint64_t trace_digest(const platform::RequestResult& result,
                                         const workflow::WorkflowDag& dag);

/// Digest of a whole run (header plus every result's rows, in order).
[[nodiscard]] std::uint64_t trace_digest(
    const std::vector<platform::RequestResult>& results,
    const workflow::WorkflowDag& dag);

/// Renders a digest as fixed-width lowercase hex ("0123456789abcdef").
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

}  // namespace xanadu::metrics

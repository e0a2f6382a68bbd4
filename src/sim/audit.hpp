#pragma once

// Runtime invariant audit subsystem.
//
// The correctness contract of the simulation (event causality, worker
// lifecycle legality, counter non-underflow) used to live in bare assert()
// calls that compile away under the default RelWithDebInfo build -- which is
// exactly the build every benchmark and experiment runs.  This module keeps
// those checks alive in *all* build types:
//
//   XANADU_INVARIANT(cond, msg)  -- hard invariant.  In FailFast mode (the
//       default) a violation throws audit::InvariantViolation, which derives
//       from std::logic_error so existing contract tests keep passing.  In
//       Record mode the violation is counted and execution continues --
//       useful for soak runs that want a census of violations instead of
//       dying on the first one.
//   XANADU_AUDIT(cond, msg)      -- soft check.  Always count-and-report,
//       never throws; for monitoring-grade conditions where continuing is
//       safe and a post-run summary is the product.
//
// Violations land in a process-wide AuditLog (a global keeps the macros
// usable from any layer above sim/; report() takes a mutex so independent
// simulations on separate threads of one process can trip checks
// concurrently, and healthy runs never touch it).  Each call site is tracked
// individually, so a hot loop tripping one invariant a million times reports
// one site with a count, not a million entries.

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace xanadu::sim::audit {

/// What a failed XANADU_INVARIANT does.  XANADU_AUDIT always records.
enum class Mode {
  FailFast,  // throw InvariantViolation at the point of failure
  Record,    // count the violation and continue
};

[[nodiscard]] const char* to_string(Mode mode);

/// Thrown by XANADU_INVARIANT in FailFast mode.  Derives from
/// std::logic_error: an invariant violation is a programming error, and
/// callers that already guard against logic_error keep working.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// One distinct failing call site, with an occurrence count.
struct Violation {
  std::string file;
  int line = 0;
  std::string condition;  // stringised condition text
  std::string message;    // first message observed at this site
  std::uint64_t count = 0;
  bool fatal = false;  // true when raised via XANADU_INVARIANT
};

/// Collects invariant/audit violations.  One process-wide instance is
/// reachable via audit::log(); tests may construct private instances.
class AuditLog {
 public:
  [[nodiscard]] Mode mode() const { return mode_; }
  void set_mode(Mode mode) { mode_ = mode; }

  /// Records a violation (deduplicated by call site).  Called by the macros;
  /// throws InvariantViolation when `fatal` and the mode is FailFast.
  /// Thread-safe: independent simulations may report from several threads.
  /// The read accessors are not synchronised -- inspect once every run has
  /// finished, which is how every caller uses them.
  void report(const char* file, int line, const char* condition,
              const std::string& message, bool fatal);

  /// Total violations recorded (sum over sites).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Number of distinct failing call sites.
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const std::vector<Violation>& sites() const { return sites_; }

  /// Human-readable per-site report ("<file>:<line>: <cond> -- <msg> xN").
  [[nodiscard]] std::string summary() const;

  /// Forgets all recorded violations (mode is preserved).
  void clear();

 private:
  Mode mode_ = Mode::FailFast;
  std::mutex mutex_;  // Guards total_/sites_ in report() and clear().
  std::uint64_t total_ = 0;
  std::vector<Violation> sites_;  // ordered by first occurrence
};

/// The process-wide audit log used by the macros.
[[nodiscard]] AuditLog& log();

}  // namespace xanadu::sim::audit

/// Hard invariant: active in every build type.  FailFast mode throws
/// audit::InvariantViolation; Record mode counts and continues.
#define XANADU_INVARIANT(cond, msg)                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::xanadu::sim::audit::log().report(__FILE__, __LINE__, #cond, (msg),  \
                                         /*fatal=*/true);                   \
    }                                                                       \
  } while (false)

/// Soft audit check: counted and reported, never throws.
#define XANADU_AUDIT(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::xanadu::sim::audit::log().report(__FILE__, __LINE__, #cond, (msg),  \
                                         /*fatal=*/false);                  \
    }                                                                       \
  } while (false)

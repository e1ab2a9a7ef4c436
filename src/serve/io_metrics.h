// The shared IO-failure metric family.
//
// Every hardened IO seam (journal append/fsync/compaction, snapshot spill
// and page-in, snapshot saves, socket sends) reports through one family so
// an operator sees the whole failure surface in a single table:
//
//   vulnds_store_io_errors_total{site=..., outcome=...}
//
// Outcomes: `retried` — a bounded retry absorbed the failure and the
// operation succeeded; `degraded` — a fallback path (recompute, reload from
// source) answered instead; `error` — the failure was surfaced to the
// caller (a protocol `err` line or a dropped connection).
//
// The error paths are cold, so counters are resolved get-or-create per
// event; the catalog's construction pre-creates the known (site, outcome)
// pairs (RegisterIoErrorSeries) so the family is present in the exposition
// (and lintable) before the first failure.

#ifndef VULNDS_SERVE_IO_METRICS_H_
#define VULNDS_SERVE_IO_METRICS_H_

#include "obs/metrics.h"

namespace vulnds::serve {

inline constexpr const char* kIoErrorsFamily = "vulnds_store_io_errors_total";
inline constexpr const char* kIoErrorsHelp =
    "IO failures by site and outcome (retried: bounded retry succeeded; "
    "degraded: a fallback answered; error: surfaced to the caller)";

/// Known sites, for pre-registration. Call sites pass the literal directly.
inline constexpr const char* kIoErrorSites[] = {
    "journal_append", "journal_fsync",  "journal_compact", "spill_write",
    "spill_page_in",  "snapshot_write", "net_send",
};
inline constexpr const char* kIoErrorOutcomes[] = {"retried", "degraded",
                                                   "error"};

/// Counts one IO failure event; no-op when no registry is bound.
inline void CountIoError(obs::MetricRegistry* registry, const char* site,
                         const char* outcome) {
  if (registry == nullptr) return;
  registry
      ->GetCounter(kIoErrorsFamily, kIoErrorsHelp,
                   {{"site", site}, {"outcome", outcome}})
      ->Increment();
}

/// Pre-creates every known (site, outcome) series at 0.
inline void RegisterIoErrorSeries(obs::MetricRegistry& registry) {
  for (const char* site : kIoErrorSites) {
    for (const char* outcome : kIoErrorOutcomes) {
      registry.GetCounter(kIoErrorsFamily, kIoErrorsHelp,
                           {{"site", site}, {"outcome", outcome}});
    }
  }
}

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_IO_METRICS_H_

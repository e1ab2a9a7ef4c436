// The serve stack's one scrape point: refreshes every scrape-time mirror
// (catalog, result caches, server counters) in the engine's
// registry and renders the whole thing as Prometheus text exposition. The
// `metrics` verb and any future socket endpoint both call exactly this, so
// the exposition cannot drift between transports.

#ifndef VULNDS_SERVE_METRICS_EXPORT_H_
#define VULNDS_SERVE_METRICS_EXPORT_H_

#include <string>

#include "serve/query_engine.h"
#include "serve/session.h"

namespace vulnds::serve {

/// Renders the engine registry's full exposition. `server` may be nullptr
/// (single-session fronts); when set, its counters are mirrored into the
/// vulnds_server_* families first.
std::string RenderServeMetrics(QueryEngine& engine, const ServerStats* server);

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_METRICS_EXPORT_H_

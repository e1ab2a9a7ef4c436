// RunServeLoop: drives one ServeSession from a line-oriented request stream.
//
// The loop reads protocol lines (protocol.h) from `in` through the capped
// request-line reader (session.h) and writes responses to `out` until `quit`
// or end-of-stream. Malformed and oversized requests produce a single
// "err <message>" line and the loop continues — a serving process must never
// die because one client sent garbage. Streams rather than stdio so a
// scripted session is a plain stringstream in tests.
//
// All parse/dispatch/respond logic lives in ServeSession (session.h). Many
// loops may run concurrently on their own threads over one engine, sharing
// one ServerStats; the socket front (net/net_server.h) runs one session per
// connection the same way. Every front speaks byte-identical protocol.

#ifndef VULNDS_SERVE_SERVER_H_
#define VULNDS_SERVE_SERVER_H_

#include <iosfwd>

#include "serve/query_engine.h"
#include "serve/session.h"
#include "serve/update_backend.h"

namespace vulnds::serve {

/// Runs the request/response loop until `quit` or EOF. Returns the session
/// counters (the process exit code is the caller's business). `updates`
/// handles the dynamic-update verbs (addedge/deledge/setprob/commit/
/// versions); when nullptr those verbs answer with an error and everything
/// else works as before. `server` (optional) receives the shared server
/// counters — the CLI passes one so the stdin front's `stats` and `metrics`
/// verbs export the same vulnds_server_* families the socket front does;
/// session start/finish are counted here.
ServeLoopStats RunServeLoop(std::istream& in, std::ostream& out,
                            QueryEngine& engine,
                            UpdateBackend* updates = nullptr,
                            ServerStats* server = nullptr);

}  // namespace vulnds::serve

#endif  // VULNDS_SERVE_SERVER_H_

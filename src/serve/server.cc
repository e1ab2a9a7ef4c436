#include "serve/server.h"

#include <istream>
#include <ostream>
#include <string>

#include "serve/session.h"

namespace vulnds::serve {

ServeLoopStats RunServeLoop(std::istream& in, std::ostream& out,
                            QueryEngine& engine, UpdateBackend* updates,
                            ServerStats* server) {
  if (server != nullptr) server->sessions_started->Increment();
  ServeSession session(&engine, updates, server);
  std::string line;
  for (;;) {
    const ReadLineResult read = ReadRequestLine(in, &line);
    if (read == ReadLineResult::kEof) break;
    bool keep_going = true;
    if (read == ReadLineResult::kOversized) {
      session.HandleOversizedLine(out);
    } else {
      keep_going = session.HandleLine(line, out);
    }
    out.flush();
    if (!keep_going) break;
  }
  if (server != nullptr) server->sessions_finished->Increment();
  return session.stats();
}

}  // namespace vulnds::serve

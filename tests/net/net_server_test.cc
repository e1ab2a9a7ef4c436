// NetServer lifecycle: socket sessions must speak byte-for-byte the same
// protocol as the stdin front (the time= token pinned by a zero clock, so
// transcripts compare with NO stripping), admission must reject over-cap
// clients with one "err busy" and a clean close, the idle/read deadlines
// must close stalled connections with a counted err, and drain — via
// BeginDrain, the `shutdown` verb, or a real SIGTERM — must finish
// in-flight work and leave no thread behind. Runs under the TSan CI job.

#include "net/net_server.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "net/socket.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "testing/snapshot_bytes.h"
#include "testing/temp_path.h"
#include "testing/test_graphs.h"

namespace vulnds::net {
namespace {

obs::ClockMicros ZeroClock() {
  return [] { return int64_t{0}; };
}

serve::QueryEngineOptions FixedClockOptions() {
  serve::QueryEngineOptions options;
  options.clock = ZeroClock();
  return options;
}

using testing::WriteTempGraph;

// Everything the server says until it closes the connection.
std::string ReadUntilEof(int fd, int timeout_ms = 30'000) {
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while (RecvSome(fd, buf, sizeof(buf), timeout_ms, &n) == IoStatus::kOk) {
    out.append(buf, n);
  }
  return out;
}

// One response line (through the first '\n'), or everything on EOF/timeout.
std::string ReadOneLine(int fd, int timeout_ms = 30'000) {
  std::string out;
  char c = 0;
  std::size_t n = 0;
  while (RecvSome(fd, &c, 1, timeout_ms, &n) == IoStatus::kOk) {
    out.push_back(c);
    if (c == '\n') break;
  }
  return out;
}

std::string DriveScript(int fd, const std::string& script) {
  EXPECT_EQ(SendAll(fd, script.data(), script.size(), 10'000), IoStatus::kOk);
  return ReadUntilEof(fd);
}

// The stdin front's answer to `script` on a fresh zero-clock engine: the
// byte-exact oracle for every socket transcript.
std::string StdinBaseline(const std::string& script) {
  serve::GraphCatalog catalog;
  serve::QueryEngine engine(&catalog, FixedClockOptions());
  dyn::UpdateManager updates(&catalog, ZeroClock());
  // Server-level counters, like the CLI's stdin front wires up — the
  // `stats` verb's "server ..." line must appear on both sides.
  serve::ServerStats server(*engine.registry());
  std::istringstream in(script);
  std::ostringstream out;
  serve::RunServeLoop(in, out, engine, &updates, &server);
  return out.str();
}

// Load, cold detect, cached detect, stage + commit, detect the new version —
// the same per-graph script ConcurrentSessionsTest uses, now over a socket.
std::string SessionScript(const std::string& name, const std::string& path) {
  return "load " + name + " " + path + "\n" +
         "detect " + name + " 3 BSRBK seed=7\n" +
         "detect " + name + " 3 BSRBK seed=7\n" +
         "addedge " + name + " 0 1 0.25\n" +
         "commit " + name + "\n" +
         "detect " + name + "@v1 3 BSRBK seed=7\n" +
         "quit\n";
}

// A served engine + updates + NetServer bundle with a zero clock.
struct TestServer {
  explicit TestServer(NetServerOptions options)
      : engine(&catalog, FixedClockOptions()),
        updates(&catalog, ZeroClock()),
        server(&engine, &updates, std::move(options)) {}

  serve::GraphCatalog catalog;
  serve::QueryEngine engine;
  dyn::UpdateManager updates;
  NetServer server;
};

NetServerOptions EphemeralTcp() {
  NetServerOptions options;
  options.tcp_port = 0;
  return options;
}

TEST(NetServerTest, ConcurrentTcpSessionsMatchStdinTranscriptsByteExact) {
  constexpr int kSessions = 8;
  std::vector<std::string> scripts, baselines;
  for (int i = 0; i < kSessions; ++i) {
    const std::string name = "g" + std::to_string(i);
    const std::string path = WriteTempGraph(
        testing::RandomSmallGraph(24, 0.2, 300 + i), "net_" + name + ".snap");
    scripts.push_back(SessionScript(name, path));
    baselines.push_back(StdinBaseline(scripts.back()));
  }

  TestServer ts(EphemeralTcp());
  ASSERT_TRUE(ts.server.Start().ok());
  const int port = ts.server.tcp_port();
  ASSERT_GT(port, 0);

  std::vector<std::string> transcripts(kSessions);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      Result<Socket> sock = DialTcp("127.0.0.1", port);
      ASSERT_TRUE(sock.ok()) << sock.status().message();
      transcripts[i] = DriveScript(sock->fd(), scripts[i]);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(transcripts[i], baselines[i])
        << "socket session " << i << " diverged from the stdin front";
  }
  ts.server.BeginDrain();
  ts.server.Join();
  const NetStatsSnapshot stats = ts.server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(stats.rejected_busy, 0u);
  EXPECT_EQ(stats.active, 0u);
}

TEST(NetServerTest, HostileFramingMatchesStdinFrontByteExact) {
  // An oversized line (cap + change), CRLF terminators and a final
  // unterminated request all answer exactly what the stdin front answers.
  const std::string script = std::string(serve::kMaxRequestLineBytes + 17, 'x') +
                             "\nstats\r\nbogus";
  const std::string baseline = StdinBaseline(script);
  ASSERT_FALSE(baseline.empty());

  TestServer ts(EphemeralTcp());
  ASSERT_TRUE(ts.server.Start().ok());
  Result<Socket> sock = DialTcp("127.0.0.1", ts.server.tcp_port());
  ASSERT_TRUE(sock.ok()) << sock.status().message();
  EXPECT_EQ(SendAll(sock->fd(), script.data(), script.size(), 10'000),
            IoStatus::kOk);
  // EOF from our side ends the session exactly like stdin EOF.
  ::shutdown(sock->fd(), SHUT_WR);
  EXPECT_EQ(ReadUntilEof(sock->fd()), baseline);
  ts.server.BeginDrain();
  ts.server.Join();
}

TEST(NetServerTest, OverCapConnectionsGetOneBusyErrAndACleanClose) {
  NetServerOptions options = EphemeralTcp();
  options.max_connections = 2;
  TestServer ts(options);
  ASSERT_TRUE(ts.server.Start().ok());
  const int port = ts.server.tcp_port();

  // Occupy the cap and prove both holders were admitted (each answers a
  // request) before the third client knocks.
  Result<Socket> a = DialTcp("127.0.0.1", port);
  Result<Socket> b = DialTcp("127.0.0.1", port);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string ping = "versions nothing\n";
  for (int fd : {a->fd(), b->fd()}) {
    ASSERT_EQ(SendAll(fd, ping.data(), ping.size(), 10'000), IoStatus::kOk);
    EXPECT_NE(ReadOneLine(fd).find("err"), std::string::npos);
  }

  Result<Socket> c = DialTcp("127.0.0.1", port);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(ReadOneLine(c->fd()), "err busy\n");
  EXPECT_EQ(ReadUntilEof(c->fd()), "");  // clean close, no hang
  EXPECT_EQ(ts.server.stats().rejected_busy, 1u);

  // Freeing a slot re-admits: close one holder, the next client gets in.
  a->Close();
  bool readmitted = false;
  for (int attempt = 0; attempt < 200 && !readmitted; ++attempt) {
    Result<Socket> d = DialTcp("127.0.0.1", port);
    ASSERT_TRUE(d.ok());
    // Admitted connections answer the ping; rejected ones volunteer
    // "err busy" (the send may land on an already-closed socket — fine).
    (void)SendAll(d->fd(), ping.data(), ping.size(), 10'000);
    const std::string first = ReadOneLine(d->fd());
    if (first.rfind("err Not found", 0) == 0) {
      readmitted = true;
    } else {
      // Slot not reaped yet ("err busy" or a reset): try again.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(readmitted) << "freed slot was never re-admitted";
  ts.server.BeginDrain();
  ts.server.Join();
}

TEST(NetServerTest, IdleTimeoutClosesQuietConnectionWithCountedErr) {
  NetServerOptions options = EphemeralTcp();
  options.idle_timeout_ms = 100;
  TestServer ts(options);
  ASSERT_TRUE(ts.server.Start().ok());
  Result<Socket> sock = DialTcp("127.0.0.1", ts.server.tcp_port());
  ASSERT_TRUE(sock.ok());
  // One served request proves the session was live, then go quiet.
  const std::string ping = "versions nothing\n";
  ASSERT_EQ(SendAll(sock->fd(), ping.data(), ping.size(), 10'000),
            IoStatus::kOk);
  EXPECT_NE(ReadOneLine(sock->fd()).find("err"), std::string::npos);
  EXPECT_EQ(ReadUntilEof(sock->fd()), "err idle timeout, closing\n");
  EXPECT_EQ(ts.server.stats().idle_timeouts, 1u);
  ts.server.BeginDrain();
  ts.server.Join();
}

TEST(NetServerTest, ReadTimeoutClosesMidLineStall) {
  NetServerOptions options = EphemeralTcp();
  options.read_timeout_ms = 100;
  options.idle_timeout_ms = 60'000;  // only the mid-line deadline may fire
  TestServer ts(options);
  ASSERT_TRUE(ts.server.Start().ok());
  Result<Socket> sock = DialTcp("127.0.0.1", ts.server.tcp_port());
  ASSERT_TRUE(sock.ok());
  // A started-but-never-finished request line: the slow-loris shape.
  ASSERT_EQ(SendAll(sock->fd(), "dete", 4, 10'000), IoStatus::kOk);
  EXPECT_EQ(ReadUntilEof(sock->fd()), "err read timeout, closing\n");
  EXPECT_EQ(ts.server.stats().read_timeouts, 1u);
  EXPECT_EQ(ts.server.stats().idle_timeouts, 0u);
  ts.server.BeginDrain();
  ts.server.Join();
}

TEST(NetServerTest, ShutdownVerbDrainsServerAndWakesIdlePeers) {
  TestServer ts(EphemeralTcp());
  ASSERT_TRUE(ts.server.Start().ok());
  const int port = ts.server.tcp_port();

  Result<Socket> idle = DialTcp("127.0.0.1", port);
  Result<Socket> admin = DialTcp("127.0.0.1", port);
  ASSERT_TRUE(idle.ok() && admin.ok());
  const std::string ping = "versions nothing\n";
  ASSERT_EQ(SendAll(idle->fd(), ping.data(), ping.size(), 10'000),
            IoStatus::kOk);
  EXPECT_NE(ReadOneLine(idle->fd()).find("err"), std::string::npos);

  const std::string cmd = "shutdown\n";
  ASSERT_EQ(SendAll(admin->fd(), cmd.data(), cmd.size(), 10'000),
            IoStatus::kOk);
  EXPECT_EQ(ReadUntilEof(admin->fd()), "ok draining\n");
  // The idle peer is woken by the drain pipe and closed, not left hanging.
  EXPECT_EQ(ReadUntilEof(idle->fd()), "");
  ts.server.Join();
  EXPECT_TRUE(ts.server.draining());
  const NetStatsSnapshot stats = ts.server.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.draining, 0u);
}

TEST(NetServerTest, SigtermDrainFinishesInFlightColdDetect) {
  const std::string path = WriteTempGraph(
      testing::RandomSmallGraph(24, 0.2, 900), "net_sigterm.snap");
  const std::string script = "load g " + path +
                             "\n"
                             "detect g 3 BSRBK seed=11\n";
  const std::string baseline = StdinBaseline(script);

  TestServer ts(EphemeralTcp());
  ASSERT_TRUE(ts.server.Start().ok());
  ASSERT_TRUE(InstallDrainOnSignal(&ts.server, SIGTERM).ok());
  Result<Socket> sock = DialTcp("127.0.0.1", ts.server.tcp_port());
  ASSERT_TRUE(sock.ok());
  ASSERT_EQ(SendAll(sock->fd(), script.data(), script.size(), 10'000),
            IoStatus::kOk);
  // Let the request reach the server, then deliver a real SIGTERM. The
  // in-flight cold detect must still answer completely before the close.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_EQ(ReadUntilEof(sock->fd()), baseline);
  ts.server.Join();  // the signal alone must be a complete drain trigger
  ResetDrainSignal(SIGTERM);
  EXPECT_TRUE(ts.server.draining());
}

TEST(NetServerTest, UnixSocketServesSameProtocolAndUnlinksOnDrain) {
  const std::string graph_path = WriteTempGraph(
      testing::RandomSmallGraph(24, 0.2, 77), "net_unix.snap");
  const std::string script = SessionScript("u", graph_path);
  const std::string baseline = StdinBaseline(script);

  NetServerOptions options;
  options.unix_path = testing::TestTempPath("s.sock");
  ASSERT_LT(options.unix_path.size(), sizeof(sockaddr_un::sun_path))
      << options.unix_path;
  TestServer ts(options);
  ASSERT_TRUE(ts.server.Start().ok());
  EXPECT_EQ(ts.server.tcp_port(), -1);

  Result<Socket> sock = DialUnix(options.unix_path);
  ASSERT_TRUE(sock.ok()) << sock.status().message();
  EXPECT_EQ(DriveScript(sock->fd(), script), baseline);

  ts.server.BeginDrain();
  ts.server.Join();
  // The socket file is gone: a drained server leaves nothing bound.
  EXPECT_NE(::access(options.unix_path.c_str(), F_OK), 0);
  EXPECT_FALSE(DialUnix(options.unix_path).ok());
}

TEST(NetServerTest, StartRequiresATransport) {
  TestServer ts(NetServerOptions{});
  EXPECT_FALSE(ts.server.Start().ok());
}

}  // namespace
}  // namespace vulnds::net

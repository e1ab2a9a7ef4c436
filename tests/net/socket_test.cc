// net::Accept socket options: accepted TCP connections must have Nagle
// disabled (a pipelining client otherwise waits ~40 ms on a delayed ACK for
// the second response), while Unix-domain connections, which have no Nagle,
// must still be accepted.

#include "net/socket.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <string>

#include "testing/temp_path.h"

namespace vulnds::net {
namespace {

// Waits (bounded) until the listener has a pending connection.
bool WaitReadable(const Socket& listener) {
  struct pollfd pfd = {listener.fd(), POLLIN, 0};
  return ::poll(&pfd, 1, 10'000) == 1;
}

TEST(SocketTest, AcceptedTcpConnectionHasNoDelay) {
  Result<Socket> listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<int> port = TcpPort(*listener);
  ASSERT_TRUE(port.ok());
  Result<Socket> client = DialTcp("127.0.0.1", *port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(WaitReadable(*listener));
  Result<Socket> accepted = Accept(*listener);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted->fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST(SocketTest, AcceptsUnixConnection) {
  const std::string path = testing::TestTempPath("s.sock");
  ASSERT_LT(path.size(), sizeof(sockaddr_un::sun_path)) << path;
  Result<Socket> listener = ListenUnix(path, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<Socket> client = DialUnix(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(WaitReadable(*listener));
  Result<Socket> accepted = Accept(*listener);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(accepted->valid());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace vulnds::net

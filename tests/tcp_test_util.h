// Raw-socket helpers for the wire-level tests: a loopback connector, whole
// sends, a response-block reader, and ServeTcp hosted on its own thread.
#ifndef OMQE_TESTS_TCP_TEST_UTIL_H_
#define OMQE_TESTS_TCP_TEST_UTIL_H_

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <string>
#include <string_view>
#include <thread>

#include "server/protocol.h"
#include "server/server.h"

namespace omqe::testing {

/// A blocking loopback connection with default socket options (Nagle and
/// delayed ACKs on, as a plain client has them).
inline int ConnectLoopback(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    // Must be set BEFORE connect to affect the advertised window.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

inline bool SendRaw(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t w = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (w <= 0) return false;
    written += static_cast<size_t>(w);
  }
  return true;
}

/// Reads until EOF.
inline std::string RecvAll(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

/// Buffered reader of response blocks on a blocking socket.
class BlockReader {
 public:
  explicit BlockReader(int fd) : fd_(fd) {}

  /// The next response block: data lines through the OK/ERR terminator,
  /// each with its '\n'. Empty on EOF or a read error before a terminator.
  std::string Next() {
    std::string block;
    for (;;) {
      size_t nl = buffer_.find('\n');
      while (nl == std::string::npos) {
        char chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0) return std::string();
        buffer_.append(chunk, static_cast<size_t>(n));
        nl = buffer_.find('\n');
      }
      std::string_view line(buffer_.data(), nl);
      const bool last = server::IsTerminator(line);
      block.append(buffer_, 0, nl + 1);
      buffer_.erase(0, nl + 1);
      if (last) return block;
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// ServeTcp on its own thread; the constructor blocks until the ephemeral
/// port is bound.
struct TcpServer {
  explicit TcpServer(server::OmqeServer* srv) : srv_(srv) {
    std::future<uint16_t> bound = port_.get_future();
    thread_ = std::thread([this] {
      Status s = server::ServeTcp(srv_, /*port=*/0,
                                  [this](uint16_t p) { port_.set_value(p); });
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
    port = bound.get();
    EXPECT_NE(port, 0);
  }

  /// Sends SHUTDOWN (unless the server is already stopping) and joins.
  ~TcpServer() {
    if (!srv_->shutdown_requested()) {
      server::TcpExchange("127.0.0.1", port, "SHUTDOWN\n");
    }
    thread_.join();
  }

  uint16_t port = 0;

 private:
  server::OmqeServer* srv_;
  std::promise<uint16_t> port_;
  std::thread thread_;
};

}  // namespace omqe::testing

#endif  // OMQE_TESTS_TCP_TEST_UTIL_H_

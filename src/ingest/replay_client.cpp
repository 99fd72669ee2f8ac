#include "ingest/replay_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "netbase/backoff.hpp"

namespace sdx::ingest {

namespace {

constexpr int kHandshakeTimeoutMs = 5000;

}  // namespace

bool BgpReplayClient::dial_once() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return true;
}

bool BgpReplayClient::send_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool BgpReplayClient::establish(bool counts_as_reconnect) {
  net::Backoff backoff(options_.initial_backoff_seconds,
                       options_.max_backoff_seconds);
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff.next()));
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (!dial_once()) continue;
    session_.emplace(bgp::Session::Config{options_.asn, options_.router_id,
                                          options_.hold_time});
    session_->start();
    if (!send_all(session_->take_output())) continue;
    // Blocking handshake: read until Established, closed, or timeout.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kHandshakeTimeoutMs);
    bool done = false;
    bool dead = false;
    while (!done && !dead) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      pollfd p{fd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, static_cast<int>(left.count()));
      if (pr <= 0) {
        if (pr < 0 && errno == EINTR) continue;
        break;  // timeout
      }
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        dead = true;
        break;
      }
      auto events = session_->receive({buf, static_cast<std::size_t>(n)});
      if (!send_all(session_->take_output())) {
        dead = true;
        break;
      }
      for (const auto& ev : events) {
        if (ev.kind == bgp::Session::Event::Kind::kEstablished) done = true;
        if (ev.kind == bgp::Session::Event::Kind::kClosed ||
            ev.kind == bgp::Session::Event::Kind::kNotificationReceived) {
          dead = true;
        }
      }
    }
    if (done && !dead) {
      if (counts_as_reconnect && ever_connected_) ++reconnects_;
      ever_connected_ = true;
      return true;
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  session_.reset();
  return false;
}

void BgpReplayClient::connect(std::uint16_t port) {
  port_ = port;
  if (!establish(/*counts_as_reconnect=*/true)) {
    throw std::runtime_error("BgpReplayClient: connect to 127.0.0.1:" +
                             std::to_string(port) + " failed");
  }
}

void BgpReplayClient::send_update(const bgp::UpdateMessage& update) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!established() && !establish(/*counts_as_reconnect=*/true)) break;
    session_->send_update(update);
    if (send_all(session_->take_output())) {
      ++updates_sent_;
      return;
    }
    // Transport died under us: redial and replay this update once.
    session_.reset();
  }
  throw std::runtime_error("BgpReplayClient: send_update failed");
}

bool BgpReplayClient::poll_input() {
  if (fd_ < 0 || !session_) return false;
  for (;;) {
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, 0);
    if (pr == 0) return true;
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) {
      // Peer closed: drop the session so established() reports the truth
      // and the next send_update() redials instead of writing into a dead
      // socket.
      session_.reset();
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      session_.reset();
      return false;
    }
    auto events = session_->receive({buf, static_cast<std::size_t>(n)});
    send_all(session_->take_output());
    for (const auto& ev : events) {
      if (ev.kind == bgp::Session::Event::Kind::kClosed ||
          ev.kind == bgp::Session::Event::Kind::kNotificationReceived) {
        session_.reset();
        return false;
      }
    }
  }
}

void BgpReplayClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  session_.reset();
}

bool BgpReplayClient::established() const {
  return fd_ >= 0 && session_ &&
         session_->state() == bgp::Session::State::kEstablished;
}

}  // namespace sdx::ingest

#include "ingest/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <tuple>

namespace sdx::ingest {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw_errno("epoll_ctl(wakeup)");
  }
}

Reactor::~Reactor() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void Reactor::add(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(add)");
  }
  std::lock_guard lock(mu_);
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void Reactor::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void Reactor::remove(int fd) {
  // The fd may already be closed by the caller; a failed DEL is harmless.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  std::lock_guard lock(mu_);
  handlers_.erase(fd);
}

std::size_t Reactor::fd_count() const {
  std::lock_guard lock(mu_);
  return handlers_.size();
}

std::uint64_t Reactor::add_timer(double delay_seconds,
                                 std::function<void()> fn) {
  std::lock_guard lock(mu_);
  const std::uint64_t id = next_timer_id_++;
  timers_.push_back(Timer{
      id,
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(delay_seconds)),
      std::move(fn)});
  return id;
}

void Reactor::cancel_timer(std::uint64_t id) {
  std::lock_guard lock(mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->id == id) {
      timers_.erase(it);
      return;
    }
  }
}

int Reactor::next_timeout_ms(int requested) const {
  std::lock_guard lock(mu_);
  if (timers_.empty()) return requested;
  auto soonest = timers_.front().deadline;
  for (const auto& t : timers_) soonest = std::min(soonest, t.deadline);
  const auto now = Clock::now();
  int ms = 0;
  if (soonest > now) {
    ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(soonest - now)
            .count() +
        1);
  }
  if (requested < 0) return ms;
  return std::min(requested, ms);
}

void Reactor::drain_wakeup() {
  std::uint64_t v = 0;
  while (::read(wake_fd_, &v, sizeof v) == sizeof v) {
  }
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& fn : tasks) fn();
}

void Reactor::fire_due_timers() {
  std::vector<Timer> due;
  {
    std::lock_guard lock(mu_);
    const auto now = Clock::now();
    for (auto it = timers_.begin(); it != timers_.end();) {
      if (it->deadline <= now) {
        due.push_back(std::move(*it));
        it = timers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // timers_ is in insertion order; a late poll finds several timers due at
  // once, and they must still fire in deadline order (id breaks ties).
  std::sort(due.begin(), due.end(), [](const Timer& a, const Timer& b) {
    return std::tie(a.deadline, a.id) < std::tie(b.deadline, b.id);
  });
  for (auto& t : due) t.fn();
}

int Reactor::run_once(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64,
                             next_timeout_ms(timeout_ms));
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_wait");
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      drain_wakeup();
      continue;
    }
    std::shared_ptr<FdHandler> handler;
    {
      std::lock_guard lock(mu_);
      if (auto it = handlers_.find(fd); it != handlers_.end()) {
        handler = it->second;
      }
    }
    if (handler) {
      (*handler)(events[i].events);
      ++dispatched;
    }
  }
  fire_due_timers();
  return dispatched;
}

void Reactor::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    run_once(-1);
  }
}

void Reactor::restart() { stop_.store(false, std::memory_order_release); }

void Reactor::stop() {
  stop_.store(true, std::memory_order_release);
  wakeup();
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wakeup();
}

void Reactor::wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace sdx::ingest

#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace perfbench {

bool Client::connect(const std::string& path) {
  close();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return false;
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    close();
    return false;
  }
  decoder_ = pet::svc::Decoder{};
  return true;
}

void Client::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Client::send_bytes(const std::vector<std::uint8_t>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool Client::read_some() {
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    decoder_.feed(buffer, static_cast<std::size_t>(n));
    return true;
  }
}

bool Client::recv(pet::svc::Frame& out, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pet::svc::DecodeStatus status = decoder_.next(out);
    if (status == pet::svc::DecodeStatus::kFrame) return true;
    if (status != pet::svc::DecodeStatus::kNeedMoreData) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left < 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0 || !read_some()) return false;
  }
}

std::optional<pet::svc::Frame> Client::call(const pet::svc::Frame& request,
                                            int timeout_ms) {
  pet::svc::Frame reply;
  if (!send(request) || !recv(reply, timeout_ms)) return std::nullopt;
  return reply;
}

bool same_frame(const pet::svc::Frame& a, const pet::svc::Frame& b) noexcept {
  return a.ver_major == b.ver_major && a.ver_minor == b.ver_minor &&
         a.command == b.command && a.status == b.status &&
         a.payload == b.payload;
}

}  // namespace perfbench

// Blocking Unix-socket client for petd's framed protocol (svc frame codec).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/frame.hpp"

namespace perfbench {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the socket at `path`; false (and closed) on failure.
  [[nodiscard]] bool connect(const std::string& path);
  void close() noexcept;

  /// Write every byte (EINTR and short writes handled); false when the
  /// peer is gone.
  [[nodiscard]] bool send_bytes(const std::vector<std::uint8_t>& bytes);
  [[nodiscard]] bool send(const pet::svc::Frame& frame) {
    return send_bytes(pet::svc::encode_frame(frame));
  }

  /// Read until one frame decodes.  False on timeout, end of stream, or a
  /// reply that does not decode (a well-behaved petd never sends one).
  [[nodiscard]] bool recv(pet::svc::Frame& out, int timeout_ms);

  // For event loops: the socket to poll, one read() into the decoder (false
  // at end of stream or on error), and the next buffered frame.
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool read_some();
  [[nodiscard]] pet::svc::DecodeStatus next_frame(pet::svc::Frame& out) {
    return decoder_.next(out);
  }

  /// send + recv.
  [[nodiscard]] std::optional<pet::svc::Frame> call(
      const pet::svc::Frame& request, int timeout_ms);

 private:
  int fd_ = -1;
  pet::svc::Decoder decoder_;
};

/// Byte equality of two frames (version, command, status, payload).
[[nodiscard]] bool same_frame(const pet::svc::Frame& a,
                              const pet::svc::Frame& b) noexcept;

}  // namespace perfbench

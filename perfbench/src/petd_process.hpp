// petd driven from outside: spawn, wait for its socket, read its
// /proc/<pid>/status, SIGTERM, and require a clean exit.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ProcStatus {
  bool ok = false;          ///< the status file was read
  double vm_hwm_mb = 0.0;   ///< peak resident set
  double vm_size_mb = 0.0;  ///< virtual size (grows with thread stacks)
  std::uint64_t threads = 0;
};

[[nodiscard]] ProcStatus read_proc_status(pid_t pid);

/// User + system CPU seconds of a whole process so far (all its threads,
/// exited ones included), from /proc/<pid>/stat.  The kernel accounts time
/// the hypervisor stole separately, so this excludes it.  -1 on error.
[[nodiscard]] double process_cpu_seconds(pid_t pid);

/// CPU seconds of a process's live threads, to the nanosecond, from
/// /proc/<pid>/task/*/schedstat (steal excluded likewise).  Threads that
/// already exited are not counted.  -1 on error.
[[nodiscard]] double live_threads_cpu_seconds(pid_t pid);

class PetdProcess {
 public:
  /// Start `binary --socket=<socket_path> <flags...>` with its stdout sent
  /// to our stderr, and wait until a ping over the socket is answered.
  /// Throws std::runtime_error when it dies or stays silent for 20 s.
  PetdProcess(const std::string& binary, std::string socket_path,
              const std::vector<std::string>& flags);
  /// Kills (SIGKILL) and reaps a petd that was not shut down.
  ~PetdProcess();
  PetdProcess(const PetdProcess&) = delete;
  PetdProcess& operator=(const PetdProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }
  [[nodiscard]] ProcStatus status() const { return read_proc_status(pid_); }

  /// SIGTERM and wait.  Returns an empty string on a clean shutdown (exit
  /// code 0 and the socket unlinked), else what went wrong.
  [[nodiscard]] std::string shutdown(int timeout_ms = 10000);

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

}  // namespace perfbench

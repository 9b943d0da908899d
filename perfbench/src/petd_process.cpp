#include "petd_process.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "service/messages.hpp"

extern char** environ;

namespace perfbench {

namespace {

bool answers_ping(const std::string& socket_path) {
  Client client;
  if (!client.connect(socket_path)) return false;
  const auto reply = client.call(
      pet::svc::make_request(pet::svc::CommandId::kPing), 2000);
  return reply && reply->status == 0;
}

}  // namespace

ProcStatus read_proc_status(pid_t pid) {
  ProcStatus out;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmHWM:") out.vm_hwm_mb = value / 1024.0;  // kB
    if (key == "VmSize:") out.vm_size_mb = value / 1024.0;
    if (key == "Threads:") {
      out.threads = static_cast<std::uint64_t>(value);
      out.ok = true;
    }
  }
  return out;
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = -1.0, stime = -1.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  if (utime < 0 || stime < 0) return -1.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double live_threads_cpu_seconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code error;
  double ns = 0.0;
  bool any = false;
  for (const auto& task : std::filesystem::directory_iterator(dir, error)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) {
      ns += run_ns;
      any = true;
    }
  }
  return any && !error ? ns / 1e9 : -1.0;
}

PetdProcess::PetdProcess(const std::string& binary, std::string socket_path,
                         const std::vector<std::string>& flags)
    : socket_path_(std::move(socket_path)) {
  std::vector<std::string> args = {binary, "--socket=" + socket_path_};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // Keep our stdout for the result line: petd's stdout joins stderr.
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!answers_ping(socket_path_)) {
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("petd exited during start-up");
    }
    if (std::chrono::steady_clock::now() > deadline) {
      // The destructor does not run for a throwing constructor.
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      pid_ = -1;
      throw std::runtime_error("petd did not answer on " + socket_path_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

PetdProcess::~PetdProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid_, &wstatus, 0);
  ::unlink(socket_path_.c_str());
}

std::string PetdProcess::shutdown(int timeout_ms) {
  if (pid_ <= 0) return "petd is not running";
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int wstatus = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) break;
    if (r < 0) {
      pid_ = -1;
      return "petd could not be reaped";
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      pid_ = -1;
      ::unlink(socket_path_.c_str());
      return "petd did not exit after SIGTERM";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  std::string problem;
  if (WIFSIGNALED(wstatus)) {
    problem = "petd was killed by signal " + std::to_string(WTERMSIG(wstatus));
  } else if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    problem = "petd exited with code " + std::to_string(WEXITSTATUS(wstatus));
  }
  if (::access(socket_path_.c_str(), F_OK) == 0) {
    ::unlink(socket_path_.c_str());
    problem += problem.empty() ? "" : "; ";
    problem += "petd left its socket behind";
  }
  return problem;
}

}  // namespace perfbench

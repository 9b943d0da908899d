// petd: the PET estimation daemon (docs/service.md).
//
// Serves the pet::svc framed protocol over a Unix domain socket: register
// populations, answer estimate/monitor requests, shed overload with typed
// error frames, degrade gracefully under deadlines, and shut down cleanly
// on SIGINT/SIGTERM (drain in-flight requests, close connections, unlink
// the socket, exit 0).  Thread model: one acceptor + one thread per
// connection for framing, joined by the acceptor once it ends; estimation
// itself runs on the service's pet::runtime pool, so slow estimates never
// block a connection's control frames behind another connection.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <exception>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/ensure.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "runtime/cancel.hpp"
#include "service/frame.hpp"
#include "service/messages.hpp"
#include "service/service.hpp"

namespace {

using namespace pet;

int usage() {
  std::fprintf(
      stderr,
      "petd -- PET estimation daemon\n"
      "usage: petd --socket=PATH [options]\n"
      "  --socket=PATH        Unix domain socket to listen on (required)\n"
      "  --threads=N          estimation pool width (default: hardware)\n"
      "  --shards=N           population-affine worker-pool shards; the\n"
      "                       inflight cap and threads split across them\n"
      "                       (default 0 = derived from the pool width)\n"
      "  --max-inflight=N     admission cap before shedding, split across\n"
      "                       shards into per-shard budgets (default 256)\n"
      "  --cache-entries=N    result-cache entry bound (default 1024;\n"
      "                       0 disables caching)\n"
      "  --cache-bytes=N      result-cache byte bound (default 4 MiB)\n"
      "  --tree-height=H      PET tree height for all populations (default 32)\n"
      "  --retry-attempts=N   attempts per estimate vs link faults (default 4)\n"
      "  --link-loss=P        transient link-fault probability per attempt\n"
      "  --link-outage=B,E    scripted link outage over attempts [B, E)\n"
      "  --fault-seed=S       link-fault stream seed (default 0x10551055)\n"
      "  --flight-capacity=N  flight-recorder ring size (default 256)\n"
      "  --obs=LEVEL          metrics level: off|counters|full (default\n"
      "                       counters; exports serve zeros at off)\n"
      "  --prom-out=PATH      write Prometheus text exposition to PATH\n"
      "                       (atomically, on SIGUSR1 and on drain)\n"
      "  --quiet              suppress per-connection logging\n");
  return 2;
}

struct Options {
  std::string socket_path;
  std::string prom_out;
  svc::ServiceConfig service;
  bool quiet = false;
};

/// SIGUSR1 latch for the Prometheus dump; checked by the accept loop every
/// poll tick (a dump must not run inside the signal handler).
volatile std::sig_atomic_t g_prom_dump_requested = 0;

void on_sigusr1(int) { g_prom_dump_requested = 1; }

void dump_prometheus(const Options& options) {
  if (options.prom_out.empty()) return;
  try {
    obs::write_prometheus_file_atomic(
        options.prom_out,
        obs::prometheus_text(obs::MetricsRegistry::instance().snapshot()));
    if (!options.quiet) {
      std::fprintf(stderr, "petd: wrote prometheus exposition to %s\n",
                   options.prom_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "petd: prometheus dump failed: %s\n", e.what());
  }
}

/// Reads every option into an Options; throws cli::UsageError, or
/// PreconditionError for an --obs level that does not exist.
Options parse(const cli::Args& args) {
  Options options;
  options.socket_path = args.get("socket", "");
  if (options.socket_path.empty()) {
    throw cli::UsageError("--socket is required");
  }
  options.prom_out = args.get("prom-out", "");
  options.quiet = args.flag("quiet");
  svc::ServiceConfig& service = options.service;
  service.worker_threads = args.get("threads", service.worker_threads);
  service.shards = args.get("shards", service.shards);
  service.max_inflight = args.get("max-inflight", service.max_inflight);
  // The daemon defaults to caching on — identical repeated requests are the
  // common monitoring pattern; libraries/tests opt in explicitly instead.
  service.cache_entries = args.get("cache-entries", std::size_t{1024});
  service.cache_bytes = args.get("cache-bytes", service.cache_bytes);
  service.registry.tree_height =
      args.get("tree-height", service.registry.tree_height);
  service.retry.max_attempts =
      args.get("retry-attempts", service.retry.max_attempts);
  service.link_faults.reply_loss_prob =
      args.get("link-loss", service.link_faults.reply_loss_prob);
  service.link_faults.seed = args.get("fault-seed", service.link_faults.seed);
  service.flight_capacity =
      args.get("flight-capacity", service.flight_capacity);
  for (const std::string& spec : args.all("link-outage")) {
    const std::string what = "--link-outage=" + spec;
    const std::string_view text = spec;
    const std::size_t comma = text.find(',');
    if (comma == std::string_view::npos) {
      throw cli::UsageError("bad value in " + what);
    }
    sim::ReaderOutage outage;
    outage.begin_slot = cli::parse<std::uint64_t>(text.substr(0, comma), what);
    const auto end = cli::parse<std::uint64_t>(text.substr(comma + 1), what);
    outage.duration_slots = end > outage.begin_slot ? end - outage.begin_slot
                                                    : 0;
    service.link_faults.script.outages.push_back(outage);
  }
  // A daemon whose exports serve zeros is useless, so counters are the
  // default.
  obs::set_level(obs::parse_level(args.get("obs", "counters")));
  args.refuse_unread();
  return options;
}

/// write() the whole buffer, riding out EINTR and partial writes.  Returns
/// false when the peer is gone (EPIPE/ECONNRESET) or the fd died.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Per-connection session: incremental decode, dispatch through the
/// service, write responses in request order.  Decode-level garbage gets a
/// typed MALFORMED_FRAME response (command 0) and the decoder resyncs — a
/// corrupt frame costs one frame, never the connection.
void serve_connection(int fd, svc::EstimationService& service, bool quiet) {
  svc::Decoder decoder;
  svc::Frame frame;
  std::uint8_t buffer[4096];
  service.note_connection_opened();
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (runtime::shutdown_requested()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
    service.note_bytes_received(static_cast<std::size_t>(n));
    bool peer_alive = true;
    for (;;) {
      const svc::DecodeStatus status = decoder.next(frame);
      if (status == svc::DecodeStatus::kNeedMoreData) break;
      std::vector<std::uint8_t> wire;
      if (status == svc::DecodeStatus::kFrame) {
        service.note_frame_received();
        wire = svc::encode_frame(service.submit(std::move(frame)).get());
      } else {
        service.note_malformed_frame();
        wire = svc::encode_frame(svc::make_error(
            static_cast<svc::CommandId>(0),
            static_cast<std::uint16_t>(svc::StatusCode::kMalformedFrame),
            svc::to_string(status)));
      }
      if (!write_all(fd, wire.data(), wire.size())) {
        peer_alive = false;
        break;
      }
      service.note_frame_sent(wire.size());
    }
    if (!peer_alive) break;
  }
  ::close(fd);
  service.note_connection_closed();
  if (!quiet) std::fprintf(stderr, "petd: connection closed\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Every option is read, and the service (which checks its whole
  // configuration) built, before the socket exists, so a bad option leaves
  // no socket file behind.
  Options options;
  std::optional<svc::EstimationService> service_slot;
  try {
    const cli::Args args(argc, argv);
    if (args.flag("help")) return usage();
    options = parse(args);
    if (options.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw cli::UsageError("socket path too long");
    }
    service_slot.emplace(options.service);
  } catch (const PreconditionError& e) {  // cli::UsageError included
    std::fprintf(stderr, "petd: %s\n", e.what());
    return usage();
  }

  runtime::install_shutdown_handlers();
  // Writes to half-closed sockets must surface as EPIPE, not kill petd.
  ::signal(SIGPIPE, SIG_IGN);
  // SIGUSR1 requests a Prometheus exposition dump at the next accept tick.
  std::signal(SIGUSR1, on_sigusr1);

  svc::EstimationService& service = *service_slot;

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("petd: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("petd: bind/listen");
    ::close(listen_fd);
    return 1;
  }

  if (!options.quiet) {
    std::fprintf(stderr,
                 "petd: listening on %s (%u workers, %u shards, cap %zu, "
                 "cache %zu entries)\n",
                 options.socket_path.c_str(),
                 options.service.resolved_worker_threads(),
                 service.shard_count(), options.service.max_inflight,
                 options.service.cache_entries);
  }

  // One entry per live session.  A session flags `done` as its last act;
  // the accept loop joins flagged ones every tick, so an exited thread's
  // stack is unmapped within ~200 ms instead of at shutdown.  Only this
  // thread touches the list, and list nodes never move under a session.
  struct Session {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Session> sessions;
  while (!runtime::shutdown_requested()) {
    std::erase_if(sessions, [](Session& session) {
      if (!session.done) return false;
      session.thread.join();
      return true;
    });
    if (g_prom_dump_requested) {
      g_prom_dump_requested = 0;
      dump_prometheus(options);
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout, EINTR, or spurious wake: recheck
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Session& session = sessions.emplace_back();
    try {
      session.thread = std::thread(
          [fd, &service, &done = session.done, quiet = options.quiet] {
            serve_connection(fd, service, quiet);
            done = true;
          });
    } catch (const std::system_error& e) {
      // Out of threads (or memory for a stack): refuse this peer, keep
      // serving the others.
      sessions.pop_back();
      ::close(fd);
      std::fprintf(stderr, "petd: cannot start a session thread: %s\n",
                   e.what());
    }
  }

  // Graceful drain: refuse new work, let connection loops notice the latch
  // (they poll every 200 ms), join everything, remove the socket.
  if (!options.quiet) std::fprintf(stderr, "petd: draining\n");
  service.begin_shutdown();
  ::close(listen_fd);
  for (Session& session : sessions) session.thread.join();
  ::unlink(options.socket_path.c_str());
  dump_prometheus(options);  // final exposition reflects the drained totals
  if (!options.quiet) {
    const svc::MonitorReply stats = service.stats();
    std::fprintf(stderr,
                 "petd: clean shutdown (accepted %llu, completed %llu, "
                 "shed %llu, degraded %llu)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.degraded));
  }
  return 0;
}

// Self-tests of the benchmark's own machinery: the client codec against an
// in-process service, the percentile rule, span self-time arithmetic, and
// the seeded open-loop schedule.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "client.hpp"
#include "report.hpp"
#include "schedule.hpp"
#include "service/messages.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace svc = pet::svc;

/// Minimal one-connection server: decode frames, answer each through
/// EstimationService::handle(), until the peer closes.
void serve_one(int listen_fd, svc::EstimationService& service) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  svc::Decoder decoder;
  svc::Frame frame;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    while (decoder.next(frame) == svc::DecodeStatus::kFrame) {
      const auto wire = svc::encode_frame(service.handle(frame));
      ASSERT_EQ(::write(fd, wire.data(), wire.size()),
                static_cast<ssize_t>(wire.size()));
    }
  }
  ::close(fd);
}

TEST(Client, CodecRoundTripMatchesInProcessService) {
  const std::string path =
      "perfbench-selftest-" + std::to_string(::getpid()) + ".sock";
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  svc::ServiceConfig config;
  config.worker_threads = 1;
  svc::EstimationService remote(config), local(config);
  std::thread server(serve_one, listen_fd, std::ref(remote));

  svc::EstimateRequest estimate;
  estimate.population_id = 3;
  estimate.seed = 99;
  const std::vector<svc::Frame> script = {
      svc::make_request(svc::CommandId::kPing),
      svc::make_request(svc::CommandId::kRegister,
                        svc::encode(svc::RegisterRequest{3, 500, 17})),
      svc::make_request(svc::CommandId::kEstimate, svc::encode(estimate)),
      svc::make_request(svc::CommandId::kEstimate, svc::encode(estimate)),
  };
  {
    Client client;
    ASSERT_TRUE(client.connect(path));
    for (const svc::Frame& request : script) {
      const auto reply = client.call(request, 10000);
      ASSERT_TRUE(reply.has_value());
      EXPECT_TRUE(same_frame(*reply, local.handle(request)));
    }
    const auto estimate_reply = svc::parse_estimate_reply(
        client.call(script[2], 10000)->payload);
    ASSERT_TRUE(estimate_reply.has_value());
    EXPECT_GT(estimate_reply->n_hat, 0.0);
  }
  server.join();
  ::close(listen_fd);
  ::unlink(path.c_str());

  svc::Frame other = script[2];
  other.payload.back() ^= 1;
  EXPECT_FALSE(same_frame(other, script[2]));
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(supported_tail_percentile(1000), 99);  // rank 990, 10 beyond
  EXPECT_EQ(supported_tail_percentile(999), 98);   // p99 leaves only 9
  EXPECT_EQ(supported_tail_percentile(500), 98);   // rank 490, 10 beyond
  EXPECT_EQ(supported_tail_percentile(200), 95);
  EXPECT_EQ(supported_tail_percentile(100), 90);
  EXPECT_EQ(supported_tail_percentile(20), 50);
  EXPECT_EQ(supported_tail_percentile(19), 0);
  EXPECT_EQ(supported_tail_percentile(0), 0);
}

TEST(Percentiles, NearestRankAndSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 50), 500);
  EXPECT_EQ(percentile_sorted(v, 99), 990);
  EXPECT_EQ(percentile_sorted(v, 100), 1000);
  std::vector<double> shuffled(v.rbegin(), v.rend());
  const Distribution d = summarize(shuffled);
  EXPECT_EQ(d.n, 1000u);
  EXPECT_EQ(d.p50, 500);
  EXPECT_EQ(d.tail_pct, 99);
  EXPECT_EQ(d.tail, 990);
  const Distribution small = summarize({5, 1, 3});
  EXPECT_EQ(small.tail_pct, 0);
  EXPECT_EQ(small.tail, small.p50);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentiles, WindowMediansIgnoreOneBadWindow) {
  std::vector<double> at, value;
  for (int w = 0; w < 5; ++w) {
    const int n = w == 2 ? 2 : 10;  // window 2 is slow: few, long samples
    for (int k = 0; k < n; ++k) {
      at.push_back(w + (k + 0.5) / n);
      value.push_back(w == 2 ? 1000.0 : 10.0 + k);
    }
  }
  at.push_back(5.2);  // past the last whole window: ignored
  value.push_back(1e9);
  const Windowed r = windowed(at, value, 1.0, 5.5);
  EXPECT_EQ(r.windows, 5u);
  EXPECT_DOUBLE_EQ(r.rate_per_s, 10.0);
  EXPECT_DOUBLE_EQ(r.p50, 14.5);
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end,
                std::int64_t parent) {
  SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<SpanRecord> spans = {
      span("trial", 0, 100, -1),
      span("rebuild", 10, 30, 0),
      span("rounds", 20, 50, 0),    // overlaps rebuild: union is [10, 50)
      span("late", 90, 120, 0),     // clipped to [90, 100)
      span("inner", 12, 18, 1),     // grandchild: only rebuild loses it
      span("other", 0, 100, -1),    // unrelated root keeps all its time
  };
  const auto t = self_times(spans);
  EXPECT_DOUBLE_EQ(t.at("trial").self_ns, 50.0);
  EXPECT_DOUBLE_EQ(t.at("trial").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(t.at("rebuild").self_ns, 14.0);
  EXPECT_DOUBLE_EQ(t.at("rounds").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(t.at("late").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(t.at("other").self_ns, 100.0);
  EXPECT_EQ(t.at("trial").count, 1u);
}

TEST(Trace, SpansNestOnTheirThreadAndMergeWithRebasedParents) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span outer("outer", 1);
    Span inner("inner", 1);
  }
  std::thread([] { Span solo("solo", 2); }).join();
  tracer.set_enabled(false);
  { Span off("off"); }
  const std::vector<SpanRecord> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    if (std::string(s.name) == "inner") {
      ASSERT_GE(s.parent, 0);
      EXPECT_STREQ(spans[static_cast<std::size_t>(s.parent)].name, "outer");
    } else {
      EXPECT_EQ(s.parent, -1);
    }
  }
  tracer.clear();
}

TEST(Schedule, SeededOpenLoopReplaysExactly) {
  const std::vector<double> a = poisson_schedule(42, 700.0, 10.0);
  const std::vector<double> b = poisson_schedule(42, 700.0, 10.0);
  EXPECT_EQ(a, b);  // bit for bit
  EXPECT_NE(a, poisson_schedule(43, 700.0, 10.0));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 10.0);
  // The count is fixed, so every seed offers the same load.
  EXPECT_EQ(a.size(), 7000u);
  EXPECT_EQ(poisson_schedule(7, 100.0, 2.5).size(), 250u);
  // Arrivals are spread over the window: about a tenth in each tenth.
  const auto first_tenth = std::count_if(a.begin(), a.end(),
                                         [](double t) { return t < 1.0; });
  EXPECT_NEAR(static_cast<double>(first_tenth), 700.0, 130.0);
}

TEST(Report, ResultLineHasExactlyTheContractKeys) {
  Report report;
  report.attempted = 10;
  report.end_to_end.push_back({"setup_s", 0.25, "s", 3, ""});
  report.per_layer.push_back({"core.round_ns", 300.5, "ns", 9, ""});
  EXPECT_EQ(report.json(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  EXPECT_NE(report.json(true).find("core.round_ns"), std::string::npos);
  report.failed = 1;
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench

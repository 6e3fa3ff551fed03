// Sweep-service suite: wire-protocol round-trips and strict rejection of
// malformed frames, Engine cold/warm/single-flight/deadline semantics,
// socket-level end-to-end byte identity, bounded-queue backpressure, and
// graceful degradation under an injected fault storm.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "edc/serve/protocol.h"
#include "edc/serve/service.h"
#include "edc/serve/socket.h"
#include "edc/sim/result_io.h"
#include "edc/spec/serialize.h"
#include "edc/sweep/cache.h"
#include "edc/sweep/fault_injector.h"
#include "edc/sweep/grid.h"
#include "edc/sweep/runner.h"

namespace {

using namespace edc;
namespace fs = std::filesystem;

spec::SystemSpec cheap_spec(std::uint64_t seed = 3) {
  spec::SystemSpec s;
  s.source = spec::SquareSource{3.3, 25.0, 0.5, 0.0, 50.0};
  s.storage.capacitance = 22e-6;
  s.storage.bleed = 20000.0;
  s.workload.kind = "fft-small";
  s.workload.seed = seed;
  s.sim.t_end = 0.3;
  return s;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("edc_serve_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string serial_row(const spec::SystemSpec& s) {
  sweep::RunnerOptions options;
  options.threads = 1;
  return sim::serialize_result(sweep::Runner(options).run(sweep::Grid(s)).at(0));
}

std::uint64_t stat_of(const std::string& stats_text, const std::string& key) {
  const std::string prefix = key + ' ';
  std::size_t pos = 0;
  while (pos < stats_text.size()) {
    const std::size_t end = stats_text.find('\n', pos);
    const std::string line = stats_text.substr(pos, end - pos);
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return 0;
}

TEST(ServeProtocol, RequestRoundTripsThroughTheCodec) {
  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.deadline_ms = 1234.5;
  request.points = {spec::serialize(cheap_spec(1)), "raw\nbytes with\nnewlines",
                    ""};
  serve::StringSource in(serve::encode_request(request));
  std::string error;
  const auto decoded = serve::read_request(in, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded->op, serve::Request::Op::kRun);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, 1234.5);
  EXPECT_EQ(decoded->points, request.points);

  for (const auto op : {serve::Request::Op::kStats, serve::Request::Op::kPing,
                        serve::Request::Op::kShutdown}) {
    serve::Request simple;
    simple.op = op;
    serve::StringSource simple_in(serve::encode_request(simple));
    const auto simple_decoded = serve::read_request(simple_in, &error);
    ASSERT_TRUE(simple_decoded.has_value()) << error;
    EXPECT_EQ(simple_decoded->op, op);
    EXPECT_TRUE(simple_decoded->points.empty());
  }
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheCodec) {
  serve::Response ok;
  ok.status = serve::Response::Status::kOk;
  ok.rows = {"row one\n", "", "binary\0ish"};
  ok.rows[2].push_back('\0');
  ok.stats_text = "warm 2\nsimulated 1\n";
  serve::StringSource in(serve::encode_response(ok));
  std::string error;
  auto decoded = serve::read_response(in, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(decoded->status, serve::Response::Status::kOk);
  EXPECT_EQ(decoded->rows, ok.rows);
  EXPECT_EQ(decoded->stats_text, ok.stats_text);

  serve::Response busy;
  busy.status = serve::Response::Status::kBusy;
  serve::StringSource busy_in(serve::encode_response(busy));
  decoded = serve::read_response(busy_in, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, serve::Response::Status::kBusy);

  serve::Response failed;
  failed.status = serve::Response::Status::kError;
  failed.error = "deadline exceeded \"while\"\nwaiting";
  serve::StringSource failed_in(serve::encode_response(failed));
  decoded = serve::read_response(failed_in, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, serve::Response::Status::kError);
  EXPECT_EQ(decoded->error, failed.error);
}

TEST(ServeProtocol, MalformedFramesAreRejectedLoudlyAndBounded) {
  const auto rejects = [](const std::string& frame) {
    serve::StringSource in(frame);
    std::string error;
    const auto decoded = serve::read_request(in, &error);
    EXPECT_FALSE(decoded.has_value());
    EXPECT_FALSE(error.empty());
  };
  rejects("");                                    // empty
  rejects("not the magic\nop ping\nend\n");       // bad magic
  rejects("edc.serve v1\nop explode\nend\n");     // unknown op
  rejects("edc.serve v1\nop run\npoints x\nend\n");  // malformed count
  rejects("edc.serve v1\nop run\npoints 1\npoint_bytes 10\nshort");  // short block
  rejects("edc.serve v1\nop run\npoints 0\n");    // missing end
  rejects("edc.serve v1\nop run\ndeadline_ms -5\npoints 0\nend\n");  // bad deadline
  // Oversized counts and blocks are rejected BEFORE allocation.
  rejects("edc.serve v1\nop run\npoints " +
          std::to_string(serve::kMaxPoints + 1) + "\nend\n");
  rejects("edc.serve v1\nop run\npoints 1\npoint_bytes " +
          std::to_string(serve::kMaxBlockBytes + 1) + "\nx\nend\n");
  // A well-formed frame with trailing garbage is detectable via exhausted().
  serve::StringSource in("edc.serve v1\nop ping\nend\ntrailing junk\n");
  std::string error;
  ASSERT_TRUE(serve::read_request(in, &error).has_value());
  EXPECT_FALSE(in.exhausted());
}

TEST(ServeEngine, ColdThenWarmIsByteIdenticalAndSkipsTheSimulator) {
  sweep::Cache cache(fresh_dir("engine_warm"));
  serve::ServiceOptions options;
  options.cache = &cache;
  serve::Engine engine(options);

  serve::Request request;
  request.op = serve::Request::Op::kRun;
  std::vector<std::string> reference;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    request.points.push_back(spec::serialize(cheap_spec(seed)));
    reference.push_back(serial_row(cheap_spec(seed)));
  }

  const auto cold = engine.execute(request);
  ASSERT_EQ(cold.status, serve::Response::Status::kOk) << cold.error;
  EXPECT_EQ(cold.rows, reference);
  EXPECT_EQ(stat_of(cold.stats_text, "warm"), 0u);
  EXPECT_EQ(stat_of(cold.stats_text, "simulated"), 3u);

  const auto warm = engine.execute(request);
  ASSERT_EQ(warm.status, serve::Response::Status::kOk) << warm.error;
  EXPECT_EQ(warm.rows, reference);
  EXPECT_EQ(stat_of(warm.stats_text, "warm"), 3u);
  EXPECT_EQ(stat_of(warm.stats_text, "simulated"), 0u);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.points, 6u);
  EXPECT_EQ(stats.warm_hits, 3u);
  EXPECT_EQ(stats.simulated, 3u);
}

TEST(ServeEngine, DuplicatePointsInsideOneRequestSimulateOnce) {
  sweep::Cache cache(fresh_dir("engine_dup"));
  serve::ServiceOptions options;
  options.cache = &cache;
  serve::Engine engine(options);

  const std::string point = spec::serialize(cheap_spec(31));
  const std::string reference = serial_row(cheap_spec(31));
  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.points = {point, point, point};
  const auto response = engine.execute(request);
  ASSERT_EQ(response.status, serve::Response::Status::kOk) << response.error;
  for (const auto& row : response.rows) EXPECT_EQ(row, reference);
  EXPECT_EQ(stat_of(response.stats_text, "simulated"), 1u);
  EXPECT_EQ(stat_of(response.stats_text, "merged"), 2u);
}

TEST(ServeEngine, SingleFlightMergesConcurrentIdenticalPoints) {
  // The owner's simulation is slowed to 150 ms; a follower arriving 30 ms
  // in must wait on the flight and reuse its row (merged), not simulate.
  sweep::Cache cache(fresh_dir("engine_flight"));
  sweep::FaultPlan plan;
  plan.seed = 5;
  plan.slow_point = 1.0;
  plan.slow_millis = 150.0;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);
  serve::ServiceOptions options;
  options.cache = &cache;
  options.fault_injector = &chaos;
  options.point_timeout_ms = 5000.0;  // follower waits, never requeues
  serve::Engine engine(options);

  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.points.push_back(spec::serialize(cheap_spec(41)));
  const std::string reference = serial_row(cheap_spec(41));

  serve::Response owner_response;
  std::thread owner([&] { owner_response = engine.execute(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto follower_response = engine.execute(request);
  owner.join();

  ASSERT_EQ(owner_response.status, serve::Response::Status::kOk);
  ASSERT_EQ(follower_response.status, serve::Response::Status::kOk);
  EXPECT_EQ(owner_response.rows.at(0), reference);
  EXPECT_EQ(follower_response.rows.at(0), reference);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.simulated + stats.warm_hits, 1u)
      << "the duplicate point must not simulate twice";
  EXPECT_EQ(stats.merged, 1u);
  EXPECT_EQ(stats.requeued, 0u);
}

TEST(ServeEngine, WatchdogRequeuesFollowersStuckBehindASlowOwner) {
  // Owner slowed to 300 ms but the point timeout is 60 ms: the follower
  // must give up on the flight (stuck) and simulate the point itself.
  sweep::Cache cache(fresh_dir("engine_stuck"));
  sweep::FaultPlan plan;
  plan.seed = 6;
  plan.slow_point = 1.0;
  plan.slow_millis = 300.0;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);
  serve::ServiceOptions options;
  options.cache = &cache;
  options.fault_injector = &chaos;
  options.point_timeout_ms = 60.0;
  serve::Engine engine(options);

  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.points.push_back(spec::serialize(cheap_spec(51)));
  const std::string reference = serial_row(cheap_spec(51));

  serve::Response owner_response;
  std::thread owner([&] { owner_response = engine.execute(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto follower_response = engine.execute(request);
  owner.join();

  ASSERT_EQ(owner_response.status, serve::Response::Status::kOk);
  ASSERT_EQ(follower_response.status, serve::Response::Status::kOk);
  EXPECT_EQ(owner_response.rows.at(0), reference);
  EXPECT_EQ(follower_response.rows.at(0), reference);
  EXPECT_GE(engine.stats().requeued, 1u);
}

TEST(ServeEngine, DeadlineExpiryAnswersALoudError) {
  // slow 200 ms + kill-on-first-attempt + 100 ms deadline: attempt one
  // burns the deadline and dies, the retry loop notices and reports.
  sweep::FaultPlan plan;
  plan.seed = 7;
  plan.slow_point = 1.0;
  plan.slow_millis = 200.0;
  plan.kill_worker = 1.0;
  sweep::FaultInjector chaos(plan);
  serve::ServiceOptions options;
  options.fault_injector = &chaos;
  serve::Engine engine(options);

  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.deadline_ms = 100.0;
  request.points.push_back(spec::serialize(cheap_spec(61)));
  const auto response = engine.execute(request);
  EXPECT_EQ(response.status, serve::Response::Status::kError);
  EXPECT_NE(response.error.find("deadline"), std::string::npos)
      << response.error;
  EXPECT_EQ(engine.stats().deadline_expired, 1u);
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST(ServeEngine, NonCanonicalPointsAreRejectedUpFront) {
  serve::Engine engine(serve::ServiceOptions{});
  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.points = {"this is not a spec"};
  const auto response = engine.execute(request);
  EXPECT_EQ(response.status, serve::Response::Status::kError);
  EXPECT_NE(response.error.find("canonical"), std::string::npos);

  serve::Request empty;
  empty.op = serve::Request::Op::kRun;
  const auto ok = engine.execute(empty);
  EXPECT_EQ(ok.status, serve::Response::Status::kOk);
  EXPECT_TRUE(ok.rows.empty());
}

TEST(ServeEngine, QuarantinesCorruptEntriesAndStillAnswersCorrectly) {
  // A cache entry corrupted on disk behind the service's back: the next
  // request quarantines it, re-simulates, and the response bytes never
  // waver.
  sweep::Cache cache(fresh_dir("engine_corrupt"));
  serve::ServiceOptions options;
  options.cache = &cache;
  serve::Engine engine(options);

  serve::Request request;
  request.op = serve::Request::Op::kRun;
  request.points.push_back(spec::serialize(cheap_spec(71)));
  const std::string reference = serial_row(cheap_spec(71));
  ASSERT_EQ(engine.execute(request).status, serve::Response::Status::kOk);

  {  // Bit-rot the stored entry.
    std::ofstream out(cache.entry_path(request.points[0]),
                      std::ios::binary | std::ios::trunc);
    out << "rotten";
  }
  const auto healed = engine.execute(request);
  ASSERT_EQ(healed.status, serve::Response::Status::kOk) << healed.error;
  EXPECT_EQ(healed.rows.at(0), reference);
  EXPECT_EQ(stat_of(healed.stats_text, "simulated"), 1u);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  // Third time: the re-stored entry is warm again.
  const auto warm = engine.execute(request);
  EXPECT_EQ(stat_of(warm.stats_text, "warm"), 1u);
  EXPECT_EQ(warm.rows.at(0), reference);
}

TEST(ServeService, EndToEndOverSocketsColdWarmPingStatsShutdown) {
  sweep::Cache cache(fresh_dir("socket_e2e"));
  serve::ServiceOptions options;
  options.cache = &cache;
  serve::Service service(options, 0);  // ephemeral port
  service.start();
  const std::uint16_t port = service.port();
  ASSERT_NE(port, 0);

  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  std::string error;
  auto response = serve::call_service(port, ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, serve::Response::Status::kOk);

  serve::Request run;
  run.op = serve::Request::Op::kRun;
  run.points = {spec::serialize(cheap_spec(81)), spec::serialize(cheap_spec(82))};
  const std::vector<std::string> reference = {serial_row(cheap_spec(81)),
                                              serial_row(cheap_spec(82))};
  response = serve::call_service(port, run, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_EQ(response->status, serve::Response::Status::kOk) << response->error;
  EXPECT_EQ(response->rows, reference);

  response = serve::call_service(port, run, &error);  // warm round trip
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->rows, reference);
  EXPECT_EQ(stat_of(response->stats_text, "warm"), 2u);

  serve::Request stats_op;
  stats_op.op = serve::Request::Op::kStats;
  response = serve::call_service(port, stats_op, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_GE(stat_of(response->stats_text, "requests"), 3u);
  EXPECT_EQ(stat_of(response->stats_text, "warm_hits"), 2u);

  serve::Request shutdown;
  shutdown.op = serve::Request::Op::kShutdown;
  response = serve::call_service(port, shutdown, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, serve::Response::Status::kOk);
  service.wait();  // the shutdown op stops the daemon; wait() returns
}

TEST(ServeService, FullQueueAnswersBusyInsteadOfGrowing) {
  // queue_capacity 0: every accepted connection exceeds the bound, so the
  // accept loop answers `busy` immediately — deterministic backpressure.
  serve::ServiceOptions options;
  options.queue_capacity = 0;
  options.request_workers = 1;
  serve::Service service(options, 0);
  service.start();

  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  std::string error;
  const auto response = serve::call_service(service.port(), ping, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, serve::Response::Status::kBusy);
  EXPECT_GE(service.stats().busy, 1u);
}

TEST(ServeService, StopWakesEveryIdleWorker) {
  // request_stop() must wake every worker parked on the queue, whatever
  // point of its wait the worker has reached. Each cycle stops a fresh
  // service with several idle workers at a different offset after start().
  // A wait() that misses its deadline counts as a failure; repeating the
  // stop wakes a worker that missed the first notification, so the test
  // fails instead of hanging.
  serve::ServiceOptions options;
  options.request_workers = 6;
  int missed = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    serve::Service service(options, 0);
    service.start();
    std::this_thread::sleep_for(std::chrono::microseconds(10 * (cycle % 50)));
    service.request_stop();
    auto joined = std::async(std::launch::async, [&service] { service.wait(); });
    if (joined.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      ++missed;
      while (joined.wait_for(std::chrono::milliseconds(5)) != std::future_status::ready) {
        service.request_stop();
      }
    }
  }
  EXPECT_EQ(missed, 0) << "wait() did not return within 5 s of request_stop()";
}

TEST(ServeService, ConnectionAdmittedAfterStopIsClosedNotStranded) {
  // The accept loop's race, made deterministic through the admission
  // seam: accept() hands over a connection just before request_stop(), and
  // by the time it is admitted every worker has drained the queue and
  // returned. The connection must be closed at once, not queued for
  // nobody until ~Service.
  serve::ServiceOptions options;
  options.request_workers = 2;
  serve::Service service(options, 0);
  service.start();

  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  {
    // While running, an admitted connection is queued and answered.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    serve::Socket server_end(fds[0]);
    serve::Stream client{serve::Socket(fds[1])};
    EXPECT_EQ(service.admit(server_end), serve::Service::Admission::kQueued);
    ASSERT_TRUE(client.write_all(serve::encode_request(ping)));
    std::string error;
    const auto response = serve::read_response(client, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, serve::Response::Status::kOk);
  }

  service.request_stop();
  service.wait();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::Socket server_end(fds[0]);
  const serve::Socket client(fds[1]);
  EXPECT_EQ(service.admit(server_end), serve::Service::Admission::kStopped);
  EXPECT_FALSE(server_end.valid());
  // The client reads end-of-stream now instead of blocking.
  pollfd readable{client.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 5000), 1);
  char byte = 0;
  EXPECT_EQ(::recv(client.fd(), &byte, 1, 0), 0);
}

TEST(ServeService, MalformedBytesCostOneErrorReplyNeverTheDaemon) {
  serve::ServiceOptions options;
  serve::Service service(options, 0);
  service.start();

  serve::Socket socket = serve::connect_local(service.port());
  ASSERT_TRUE(socket.valid());
  serve::Stream stream(std::move(socket));
  ASSERT_TRUE(stream.write_all("GET / HTTP/1.1\r\n\r\n"));
  std::string error;
  const auto response = serve::read_response(stream, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, serve::Response::Status::kError);
  EXPECT_NE(response->error.find("malformed"), std::string::npos);

  // The daemon survived: a clean ping still answers.
  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  const auto alive = serve::call_service(service.port(), ping, &error);
  ASSERT_TRUE(alive.has_value()) << error;
  EXPECT_EQ(alive->status, serve::Response::Status::kOk);
}

TEST(ServeService, SurvivesAFaultStormWithByteIdenticalRows) {
  // Injected cache chaos + killed workers under concurrent duplicate
  // clients: every ok response must match the clean serial reference.
  sweep::Cache cache(fresh_dir("socket_storm"));
  sweep::FaultPlan plan;
  plan.seed = 8;
  plan.read_error = 0.3;
  plan.truncate_read = 0.3;
  plan.write_error = 0.2;
  plan.kill_worker = 0.5;
  sweep::FaultInjector chaos(plan);
  cache.set_fault_injector(&chaos);
  serve::ServiceOptions options;
  options.cache = &cache;
  options.fault_injector = &chaos;
  options.request_workers = 2;
  options.max_attempts = 6;
  serve::Service service(options, 0);
  service.start();
  const std::uint16_t port = service.port();

  serve::Request run;
  run.op = serve::Request::Op::kRun;
  std::vector<std::string> reference;
  for (std::uint64_t seed : {91u, 92u, 93u, 94u}) {
    run.points.push_back(spec::serialize(cheap_spec(seed)));
    reference.push_back(serial_row(cheap_spec(seed)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        std::string error;
        const auto response = serve::call_service(port, run, &error);
        if (!response || response->status != serve::Response::Status::kOk ||
            response->rows != reference) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace

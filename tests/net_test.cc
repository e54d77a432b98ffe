// Unit tests for the raylite cross-process transport: endpoint parsing,
// frame codec, connection heartbeats/teardown, RPC round-trips with typed
// remote errors, deterministic wire fault injection, the remote object
// store, and the SampleBatch / worker-config wire codecs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "execution/remote_worker.h"
#include "raylite/net/connection.h"
#include "raylite/net/frame.h"
#include "raylite/net/remote_store.h"
#include "raylite/net/rpc.h"
#include "raylite/net/socket.h"
#include "raylite/net/wire_fault.h"
#include "tensor/tensor_io.h"
#include "util/errors.h"

namespace rlgraph {
namespace {

namespace net = raylite::net;

// Each test gets its own unix socket path; unlinked eagerly so reruns and
// parallel tests never collide.
std::string unique_unix_endpoint(const char* tag) {
  static std::atomic<int> counter{0};
  std::string path = "/tmp/rlgn-" + std::to_string(::getpid()) + "-" +
                     std::string(tag) + "-" +
                     std::to_string(counter.fetch_add(1)) + ".sock";
  std::remove(path.c_str());
  return "unix:" + path;
}

// Accept-and-connect helper: returns the two ends of one established link.
std::pair<net::Socket, net::Socket> connected_pair(const char* tag) {
  net::Listener listener(net::Endpoint::parse(unique_unix_endpoint(tag)));
  net::Socket client = net::Socket::connect(listener.endpoint(), 2000.0);
  net::Socket server = listener.accept(2000.0);
  EXPECT_TRUE(client.valid());
  EXPECT_TRUE(server.valid());
  return {std::move(client), std::move(server)};
}

template <typename Pred>
bool wait_until(Pred pred, double timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- Endpoint -------------------------------------------------------------

TEST(EndpointTest, ParsesTcpAndUnix) {
  net::Endpoint tcp = net::Endpoint::parse("tcp:127.0.0.1:8123");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8123);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:8123");

  net::Endpoint unix_ep = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");

  // Bare host:port (no scheme) is accepted as tcp.
  EXPECT_EQ(net::Endpoint::parse("127.0.0.1:80").port, 80);

  EXPECT_THROW(net::Endpoint::parse("unix:"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:nohost"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:1.2.3.4:99999"), Error);
}

TEST(EndpointTest, ConnectToMissingPeerThrowsConnectionError) {
  EXPECT_THROW(net::Socket::connect(
                   net::Endpoint::parse("unix:/tmp/rlgn-definitely-absent"),
                   200.0),
               ConnectionError);
}

// --- Frame codec ----------------------------------------------------------

TEST(FrameTest, HeaderLayoutIsStable) {
  net::Frame f;
  f.type = net::FrameType::kRequest;
  f.request_id = 0x0102030405060708ull;
  f.payload = {0xAA, 0xBB};
  std::vector<uint8_t> bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + 2);
  // magic "RLGN" little-endian.
  EXPECT_EQ(bytes[0], 'R');
  EXPECT_EQ(bytes[1], 'L');
  EXPECT_EQ(bytes[2], 'G');
  EXPECT_EQ(bytes[3], 'N');
  EXPECT_EQ(bytes[4], static_cast<uint8_t>(net::FrameType::kRequest));
  EXPECT_EQ(bytes[5], 0);  // flags
  EXPECT_EQ(bytes[6], 0);  // reserved
  EXPECT_EQ(bytes[7], 0);  // reserved
  EXPECT_EQ(bytes[8], 0x08);  // request id, little-endian
  EXPECT_EQ(bytes[15], 0x01);
  EXPECT_EQ(bytes[16], 2);  // payload size
  EXPECT_EQ(bytes[20], 0xAA);
}

TEST(FrameTest, RoundTripsOverSocket) {
  auto [client, server] = connected_pair("frame");
  net::Frame f;
  f.type = net::FrameType::kResponse;
  f.request_id = 42;
  f.payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes = net::encode_frame(f);
  ASSERT_TRUE(client.send_all(bytes.data(), bytes.size()));

  net::Frame out;
  ASSERT_TRUE(net::read_frame(server, &out));
  EXPECT_EQ(out.type, net::FrameType::kResponse);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameTest, CorruptMagicThrowsSerializationError) {
  auto [client, server] = connected_pair("corrupt");
  std::vector<uint8_t> junk(net::kFrameHeaderBytes, 0x5A);
  ASSERT_TRUE(client.send_all(junk.data(), junk.size()));
  net::Frame out;
  EXPECT_THROW(net::read_frame(server, &out), SerializationError);
}

TEST(FrameTest, NonzeroReservedBytesThrow) {
  auto [client, server] = connected_pair("reserved");
  net::Frame f;
  f.type = net::FrameType::kPing;
  std::vector<uint8_t> bytes = net::encode_frame(f);
  bytes[5] = 0x01;  // flags must be 0 on the wire
  ASSERT_TRUE(client.send_all(bytes.data(), bytes.size()));
  net::Frame out;
  EXPECT_THROW(net::read_frame(server, &out), SerializationError);
}

TEST(FrameTest, TruncatedFrameReadsAsEof) {
  auto [client, server] = connected_pair("trunc");
  net::Frame f;
  f.type = net::FrameType::kRequest;
  f.payload.assign(100, 7);
  std::vector<uint8_t> bytes = net::encode_frame(f);
  // Send only half the frame, then close: an injected truncation.
  ASSERT_TRUE(client.send_all(bytes.data(), bytes.size() / 2));
  client.close();
  net::Frame out;
  EXPECT_FALSE(net::read_frame(server, &out));
}

TEST(FrameTest, ErrorPayloadRebuildsTypedException) {
  std::vector<uint8_t> payload =
      net::encode_error_payload("NotFoundError", "no such thing");
  std::string type, message;
  net::decode_error_payload(payload, &type, &message);
  EXPECT_EQ(type, "NotFoundError");
  try {
    net::throw_remote_error(type, message);
    FAIL() << "expected a throw";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("no such thing"), std::string::npos);
  }
  EXPECT_THROW(net::throw_remote_error("ActorLostError", "gone"),
               ActorLostError);
  EXPECT_THROW(net::throw_remote_error("ConnectionLostError", "cut"),
               ConnectionLostError);
  // Unknown types degrade to the base Error, never a parse failure.
  EXPECT_THROW(net::throw_remote_error("SomeFutureError", "?"), Error);
}

// --- Connection -----------------------------------------------------------

struct ConnEvents {
  std::atomic<int> frames{0};
  std::atomic<int> downs{0};
  std::atomic<bool> graceful{false};
  std::string reason;
  std::mutex mutex;

  net::Connection::FrameHandler frame_handler() {
    return [this](net::Frame&&) { frames.fetch_add(1); };
  }
  net::Connection::DownHandler down_handler() {
    return [this](bool g, const std::string& r) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        reason = r;
      }
      graceful.store(g);
      downs.fetch_add(1);
    };
  }
};

TEST(ConnectionTest, HeartbeatsKeepIdleLinkAlive) {
  auto [c, s] = connected_pair("hb");
  net::ConnectionOptions opts;
  opts.heartbeat_interval_ms = 20.0;
  opts.heartbeat_timeout_ms = 2000.0;
  ConnEvents ce, se;
  net::Connection client(std::move(c), opts, ce.frame_handler(),
                         ce.down_handler());
  net::Connection server(std::move(s), opts, se.frame_handler(),
                         se.down_handler());
  // Several heartbeat intervals of pure idleness: pings flow, nobody dies.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(client.alive());
  EXPECT_TRUE(server.alive());
  EXPECT_GT(client.frames_sent(), 0);
  EXPECT_EQ(ce.downs.load(), 0);
  EXPECT_EQ(se.downs.load(), 0);
  client.close_graceful();
  ASSERT_TRUE(wait_until([&] { return se.downs.load() == 1; }, 2000.0));
  EXPECT_TRUE(se.graceful.load());
}

TEST(ConnectionTest, HardCloseIsAFaultAtThePeer) {
  auto [c, s] = connected_pair("kill");
  net::ConnectionOptions opts;
  ConnEvents ce, se;
  net::Connection client(std::move(c), opts, ce.frame_handler(),
                         ce.down_handler());
  net::Connection server(std::move(s), opts, se.frame_handler(),
                         se.down_handler());
  client.close_hard();
  ASSERT_TRUE(wait_until([&] { return se.downs.load() == 1; }, 2000.0));
  EXPECT_FALSE(se.graceful.load());
  // Exactly once, even with reader and writer both observing the cut.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(se.downs.load(), 1);
}

TEST(ConnectionTest, HeartbeatTimeoutFiresUnderSustainedTraffic) {
  auto [c, s] = connected_pair("hb-busy");
  net::Socket peer = std::move(s);
  net::ConnectionOptions opts;
  opts.heartbeat_interval_ms = 10.0;
  opts.heartbeat_timeout_ms = 150.0;
  ConnEvents ce;
  net::Connection client(std::move(c), opts, ce.frame_handler(),
                         ce.down_handler());
  // A peer that reads everything but never sends: the client's writer never
  // idles (pop_for always has a frame), so the silence check must run on
  // busy iterations too — not only on idle ticks.
  std::thread sink([&] {
    uint8_t buf[256];
    while (peer.recv_all(buf, 1)) {
    }
  });
  net::Frame f;
  f.type = net::FrameType::kRequest;
  f.payload = {1, 2, 3};
  ASSERT_TRUE(wait_until(
      [&] {
        client.send(f);
        return ce.downs.load() == 1;
      },
      5000.0));
  EXPECT_FALSE(ce.graceful.load());
  {
    std::lock_guard<std::mutex> lock(ce.mutex);
    EXPECT_NE(ce.reason.find("heartbeat timeout"), std::string::npos);
  }
  client.close_hard();
  peer.shutdown_both();
  sink.join();
}

TEST(ConnectionTest, DataFramesFlowBothWays) {
  auto [c, s] = connected_pair("data");
  net::ConnectionOptions opts;
  ConnEvents ce, se;
  net::Connection client(std::move(c), opts, ce.frame_handler(),
                         ce.down_handler());
  net::Connection server(std::move(s), opts, se.frame_handler(),
                         se.down_handler());
  net::Frame f;
  f.type = net::FrameType::kRequest;
  f.request_id = 7;
  f.payload = {9, 9, 9};
  EXPECT_TRUE(client.send(f));
  ASSERT_TRUE(wait_until([&] { return se.frames.load() == 1; }, 2000.0));
  f.type = net::FrameType::kResponse;
  EXPECT_TRUE(server.send(f));
  ASSERT_TRUE(wait_until([&] { return ce.frames.load() == 1; }, 2000.0));
}

// --- Wire fault injector --------------------------------------------------

TEST(WireFaultTest, DeterministicUnderFixedSeed) {
  net::WireFaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.duplicate_prob = 0.2;
  cfg.delay_prob = 0.2;
  cfg.truncate_prob = 0.05;
  cfg.disconnect_prob = 0.05;
  cfg.seed = 1234;
  net::WireFaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "diverged at decision " << i;
  }
  // A different seed must produce a different schedule.
  net::WireFaultConfig other = cfg;
  other.seed = 99;
  net::WireFaultInjector c(other);
  net::WireFaultInjector base(cfg);
  bool any_diff = false;
  for (int i = 0; i < 500; ++i) {
    if (!(c.next() == base.next())) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(WireFaultTest, WarmupSuppressesInjection) {
  net::WireFaultConfig cfg;
  cfg.drop_prob = 1.0;
  cfg.warmup_frames = 10;
  cfg.seed = 5;
  net::WireFaultInjector inj(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.next().action, net::WireFaultAction::kNone);
  }
  EXPECT_EQ(inj.next().action, net::WireFaultAction::kDrop);
}

TEST(WireFaultTest, DeterministicDisconnectFiresOnce) {
  net::WireFaultConfig cfg;
  cfg.disconnect_after_frames = 2;
  cfg.seed = 5;
  net::WireFaultInjector inj(cfg);
  EXPECT_EQ(inj.next().action, net::WireFaultAction::kNone);
  EXPECT_EQ(inj.next().action, net::WireFaultAction::kNone);
  EXPECT_EQ(inj.next().action, net::WireFaultAction::kDisconnect);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(inj.next().action, net::WireFaultAction::kNone);
  }
  EXPECT_EQ(inj.injected_disconnects(), 1);
}

// --- RPC ------------------------------------------------------------------

TEST(RpcTest, EchoRoundTripAndCounters) {
  net::RpcServer server(net::Endpoint::parse(unique_unix_endpoint("rpc")));
  server.register_handler("echo",
                          [](const std::vector<uint8_t>& body) { return body; });
  server.start();

  net::RpcClient client(server.endpoint(), {});
  std::vector<uint8_t> body = {1, 2, 3};
  EXPECT_EQ(client.call("echo", body).get(), body);
  EXPECT_EQ(client.call("echo", {}).get(), std::vector<uint8_t>{});
  EXPECT_EQ(server.requests_served(), 2);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_TRUE(client.connected());
}

TEST(RpcTest, RemoteExceptionArrivesTyped) {
  net::RpcServer server(net::Endpoint::parse(unique_unix_endpoint("rpcerr")));
  server.register_handler("fail",
                          [](const std::vector<uint8_t>&) -> std::vector<uint8_t> {
                            throw NotFoundError("object 7 is gone");
                          });
  server.start();
  net::RpcClient client(server.endpoint(), {});
  auto fut = client.call("fail", {});
  try {
    fut.get();
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("object 7 is gone"),
              std::string::npos);
  }
  // The connection survives a handler error; the next call works.
  server.register_handler("ok", [](const std::vector<uint8_t>&) {
    return std::vector<uint8_t>{1};
  });
  EXPECT_EQ(client.call("ok", {}).get(), std::vector<uint8_t>{1});
}

TEST(RpcTest, UnknownMethodIsNotFound) {
  net::RpcServer server(net::Endpoint::parse(unique_unix_endpoint("rpcnm")));
  server.start();
  net::RpcClient client(server.endpoint(), {});
  EXPECT_THROW(client.call("nope", {}).get(), NotFoundError);
}

TEST(RpcTest, TcpEphemeralPortResolves) {
  net::RpcServer server(net::Endpoint::parse("tcp:127.0.0.1:0"));
  server.register_handler("echo",
                          [](const std::vector<uint8_t>& body) { return body; });
  server.start();
  EXPECT_GT(server.endpoint().port, 0);
  net::RpcClient client(server.endpoint(), {});
  std::vector<uint8_t> body = {5};
  EXPECT_EQ(client.call("echo", body).get(), body);
}

TEST(RpcTest, ExhaustedReconnectBudgetYieldsActorLostError) {
  auto endpoint = net::Endpoint::parse(unique_unix_endpoint("rpcdown"));
  auto server = std::make_unique<net::RpcServer>(endpoint);
  server->start();

  net::RpcClientOptions opts;
  opts.max_reconnects = 0;  // first failed reconnect -> permanently down
  opts.connection.heartbeat_interval_ms = 20.0;
  opts.connection.heartbeat_timeout_ms = 300.0;
  net::RpcClient client(endpoint, opts);
  ASSERT_TRUE(client.connected());

  // Take the peer away for good.
  server.reset();
  ASSERT_TRUE(wait_until(
      [&] { return client.state() == net::RpcClientState::kDown; }, 5000.0));

  // Satellite check: the terminal error is *typed* and flows through the
  // same raylite::wait_for machinery in-process futures use.
  auto fut = client.call("echo", {});
  std::vector<raylite::UntypedFuture> futures = {fut};
  auto ready =
      raylite::wait_for(futures, 1, std::chrono::milliseconds(2000));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(fut.failed());
  EXPECT_THROW(fut.get(), ActorLostError);
}

TEST(RpcTest, DrainAndCloseResolvesEverything) {
  net::RpcServer server(net::Endpoint::parse(unique_unix_endpoint("drain")));
  server.register_handler("slow", [](const std::vector<uint8_t>& b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return b;
  });
  server.start();
  net::RpcClient client(server.endpoint(), {});
  auto f1 = client.call("slow", {1});
  auto f2 = client.call("slow", {2});
  EXPECT_TRUE(client.drain_and_close(5000.0));
  EXPECT_EQ(f1.get(), std::vector<uint8_t>{1});
  EXPECT_EQ(f2.get(), std::vector<uint8_t>{2});
  // Closed for good: further calls fail typed, they do not hang.
  EXPECT_THROW(client.call("slow", {}).get(), ActorDeadError);
}

// --- Remote object store --------------------------------------------------

TEST(RpcTest, DedupCacheIsByteBounded) {
  auto endpoint = net::Endpoint::parse(unique_unix_endpoint("dedup-bytes"));
  net::RpcServerOptions sopts;
  sopts.dedup_cache_bytes = 2048;  // fits exactly one 1500-byte response
  net::RpcServer server(endpoint, sopts);
  std::atomic<int> executions{0};
  server.register_handler("big", [&](const std::vector<uint8_t>&) {
    executions.fetch_add(1);
    return std::vector<uint8_t>(1500, 0xAB);
  });
  server.start();

  // Speak the protocol directly so we control request ids.
  net::Socket sock = net::Socket::connect(endpoint, 2000.0);
  std::atomic<int> responses{0};
  ConnEvents ce;
  net::Connection conn(
      std::move(sock), net::ConnectionOptions{},
      [&](net::Frame&&) { responses.fetch_add(1); }, ce.down_handler());
  auto request = [&](uint64_t id) {
    net::Frame f;
    f.type = net::FrameType::kRequest;
    f.request_id = id;
    f.payload = net::encode_request_payload("big", {});
    EXPECT_TRUE(conn.send(std::move(f)));
  };

  request(1);
  ASSERT_TRUE(wait_until([&] { return responses.load() == 1; }, 2000.0));
  // Immediate retransmit of the newest id hits the cache: no re-execution.
  request(1);
  ASSERT_TRUE(wait_until([&] { return responses.load() == 2; }, 2000.0));
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(server.duplicates_suppressed(), 1);
  // A second large response blows the byte budget and evicts id 1 (the
  // newest entry is always the one retained) ...
  request(2);
  ASSERT_TRUE(wait_until([&] { return responses.load() == 3; }, 2000.0));
  // ... so a late duplicate of id 1 re-executes instead of replaying a
  // cached response that would otherwise pin unbounded memory.
  request(1);
  ASSERT_TRUE(wait_until([&] { return responses.load() == 4; }, 2000.0));
  EXPECT_EQ(executions.load(), 3);
  EXPECT_EQ(server.duplicates_suppressed(), 1);

  conn.close_graceful();
  server.stop();
}

TEST(RemoteStoreTest, PutGetEraseAcrossTheWire) {
  raylite::ObjectStore store;
  net::RpcServer server(net::Endpoint::parse(unique_unix_endpoint("store")));
  net::register_object_store_handlers(&server, &store);
  server.start();
  net::RpcClient client(server.endpoint(), {});
  net::RemoteObjectStore remote(&client);

  std::vector<uint8_t> blob = {10, 20, 30};
  raylite::ObjectId id = remote.put(blob);
  EXPECT_EQ(remote.get(id), blob);
  EXPECT_EQ(remote.get_async(id).get(), blob);
  remote.erase(id);
  EXPECT_THROW(remote.get(id), NotFoundError);
}

// --- Tensor / SampleBatch / config codecs ---------------------------------

TEST(TensorIoTest, RoundTripAndValidation) {
  Tensor t = Tensor::from_floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  ByteWriter w;
  write_tensor(&w, t);
  ByteReader r(w.take());
  Tensor back = read_tensor(&r);
  EXPECT_TRUE(back.shape() == t.shape());
  EXPECT_EQ(back.dtype(), t.dtype());
  EXPECT_EQ(back.data<float>()[5], 6.0f);

  // Corrupt dtype tag.
  ByteWriter w2;
  write_tensor(&w2, t);
  std::vector<uint8_t> bytes = w2.take();
  bytes[0] = 0xFF;
  ByteReader r2(bytes);
  EXPECT_THROW(read_tensor(&r2), SerializationError);

  // Tag 4 is one past the last dtype (bool = 3): rejected, not decoded.
  ByteWriter w3;
  w3.write_u8(4);
  w3.write_u32(1);
  w3.write_i64(4);
  w3.write_u64(4);
  const uint8_t payload[4] = {1, 2, 3, 4};
  w3.write_bytes(payload, sizeof(payload));
  ByteReader r3(w3.take());
  EXPECT_THROW(read_tensor(&r3), SerializationError);
}

TEST(TensorIoTest, CorruptDimsFailBeforeAllocation) {
  // Huge dims in a corrupt stream must throw SerializationError up front,
  // not attempt a multi-TB allocation.
  ByteWriter w;
  w.write_u8(static_cast<uint8_t>(DType::kFloat32));
  w.write_u32(2);
  w.write_i64(int64_t{1} << 40);
  w.write_i64(int64_t{1} << 40);
  w.write_u64(64);
  ByteReader r(w.take());
  EXPECT_THROW(read_tensor(&r), SerializationError);

  // A declared byte count larger than what is left in the stream fails
  // cleanly too (truncated stream).
  ByteWriter w2;
  w2.write_u8(static_cast<uint8_t>(DType::kFloat32));
  w2.write_u32(1);
  w2.write_i64(4);
  w2.write_u64(16);  // but no payload bytes follow
  ByteReader r2(w2.take());
  EXPECT_THROW(read_tensor(&r2), SerializationError);
}

TEST(SampleBatchCodecTest, RoundTrip) {
  SampleBatch batch;
  batch.states = Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4});
  batch.actions = Tensor::from_floats(Shape{2, 1}, {0, 1});
  batch.rewards = Tensor::from_floats(Shape{2}, {0.5f, -0.5f});
  batch.next_states = Tensor::from_floats(Shape{2, 2}, {5, 6, 7, 8});
  batch.terminals = Tensor::from_bools(Shape{2}, {false, true});
  batch.priorities = Tensor::from_floats(Shape{2}, {0.9f, 0.1f});
  batch.num_records = 2;
  batch.env_frames = 17;
  batch.episode_returns = {1.5, -3.25};

  SampleBatch back = decode_sample_batch(encode_sample_batch(batch));
  EXPECT_EQ(back.num_records, 2);
  EXPECT_EQ(back.env_frames, 17);
  ASSERT_EQ(back.episode_returns.size(), 2u);
  EXPECT_EQ(back.episode_returns[1], -3.25);
  EXPECT_TRUE(back.states.shape() == batch.states.shape());
  EXPECT_EQ(back.states.data<float>()[3], 4.0f);
  EXPECT_EQ(back.terminals.data<uint8_t>()[1], 1);

  // A truncated batch never decodes silently wrong.
  std::vector<uint8_t> bytes = encode_sample_batch(batch);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_sample_batch(bytes), SerializationError);
}

TEST(WorkerConfigCodecTest, JsonRoundTrip) {
  ApexConfig config;
  config.agent_config = Json::parse(R"({"type": "apex", "seed": 3})");
  config.env_spec = Json::parse(R"({"type": "grid_world"})");
  config.envs_per_worker = 2;
  config.worker_sample_size = 64;
  config.n_step = 5;
  config.discount = 0.9;
  config.seed = 77;
  config.act_per_env = true;

  ApexConfig back = apex_worker_config_from_json(
      Json::parse(apex_worker_config_to_json(config).dump()));
  EXPECT_EQ(back.envs_per_worker, 2);
  EXPECT_EQ(back.worker_sample_size, 64);
  EXPECT_EQ(back.n_step, 5);
  EXPECT_EQ(back.discount, 0.9);
  EXPECT_EQ(back.seed, 77u);
  EXPECT_TRUE(back.act_per_env);
  EXPECT_EQ(back.agent_config.get_string("type", ""), "apex");
  EXPECT_EQ(back.env_spec.get_string("type", ""), "grid_world");
}

}  // namespace
}  // namespace rlgraph

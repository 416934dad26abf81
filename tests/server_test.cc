// gemsd server stack: protocol framing/codecs, the sharded keyspace, the
// request dispatcher, and full loopback integration over real sockets —
// concurrent UPDATE/QUERY against an offline replica, MERGE fan-in, and
// the CHECKPOINT/RESTORE round trip with byte-identical images.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cardinality/hyperloglog.h"
#include "common/random.h"
#include "core/registry.h"
#include "frequency/count_min.h"
#include "server/client.h"
#include "server/keyspace.h"
#include "server/protocol.h"
#include "server/server.h"

namespace gems {
namespace server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterBuiltinSketches(); }
};

using ProtocolTest = ServerTest;
using KeyspaceTest = ServerTest;
using LoopbackTest = ServerTest;

std::vector<uint64_t> Items(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> items(n);
  for (uint64_t& item : items) item = rng.Next();
  return items;
}

// ------------------------------------------------------------ framing

TEST_F(ProtocolTest, SplitFrameIncompleteThenComplete) {
  std::vector<uint8_t> stream;
  Request ping;
  ping.opcode = Opcode::kPing;
  ping.id = 7;
  EncodeRequest(ping, &stream);

  // Every strict prefix is "incomplete", never an error.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    ByteSpan body;
    size_t consumed = 1;
    ASSERT_TRUE(SplitFrame(ByteSpan(stream.data(), cut),
                           kDefaultMaxFrameBytes, &body, &consumed)
                    .ok());
    EXPECT_EQ(consumed, 0u) << "prefix of " << cut;
    // Once the length prefix is in, the frame's full size is known.
    size_t frame_bytes = 0;
    ASSERT_TRUE(SplitFrame(ByteSpan(stream.data(), cut),
                           kDefaultMaxFrameBytes, &body, &consumed,
                           &frame_bytes)
                    .ok());
    EXPECT_EQ(frame_bytes, cut < 4 ? 0 : stream.size()) << "prefix of " << cut;
  }
  ByteSpan body;
  size_t consumed = 0;
  ASSERT_TRUE(SplitFrame(ByteSpan(stream), kDefaultMaxFrameBytes, &body,
                         &consumed)
                  .ok());
  EXPECT_EQ(consumed, stream.size());
  EXPECT_EQ(body.size(), stream.size() - 4);
}

TEST_F(ProtocolTest, SplitFrameTwoFramesBackToBack) {
  std::vector<uint8_t> stream;
  Request a;
  a.opcode = Opcode::kPing;
  a.id = 1;
  EncodeRequest(a, &stream);
  const size_t first_size = stream.size();
  Request b;
  b.opcode = Opcode::kDrop;
  b.key = "k";
  b.id = 2;
  EncodeRequest(b, &stream);

  ByteSpan body;
  size_t consumed = 0;
  ASSERT_TRUE(SplitFrame(ByteSpan(stream), kDefaultMaxFrameBytes, &body,
                         &consumed)
                  .ok());
  EXPECT_EQ(consumed, first_size);  // First frame only.
}

TEST_F(ProtocolTest, SplitFrameRejectsZeroAndOversizedLengths) {
  const std::vector<uint8_t> zero = {0, 0, 0, 0};
  ByteSpan body;
  size_t consumed = 0;
  EXPECT_EQ(SplitFrame(ByteSpan(zero), kDefaultMaxFrameBytes, &body,
                       &consumed)
                .code(),
            StatusCode::kInvalidArgument);

  const std::vector<uint8_t> huge = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(SplitFrame(ByteSpan(huge), kDefaultMaxFrameBytes, &body,
                       &consumed)
                .code(),
            StatusCode::kInvalidArgument);

  // A length just over a small cap is rejected even though the bytes
  // themselves have not arrived yet.
  const std::vector<uint8_t> over_cap = {0x01, 0x04, 0, 0};  // 1025
  EXPECT_EQ(SplitFrame(ByteSpan(over_cap), /*max_frame_bytes=*/1024, &body,
                       &consumed)
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- codecs

TEST_F(ProtocolTest, RequestCodecRoundTripsEveryOpcode) {
  const std::vector<uint64_t> items = Items(100, 1);
  const std::vector<uint8_t> blob = {1, 2, 3, 4, 5};

  std::vector<Request> requests;
  {
    Request r;
    r.opcode = Opcode::kPing;
    r.id = 1;
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kCreate;
    r.id = 2;
    r.key = "visitors";
    r.sketch_type = "hyperloglog";
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kDrop;
    r.id = 3;
    r.key = "visitors";
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kList;
    r.id = 4;
    r.prefix = "vis";
    r.limit = 10;
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kUpdate;
    r.id = 5;
    r.key = "visitors";
    r.items = items;
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kMerge;
    r.id = 6;
    r.key = "visitors";
    r.flags = kFlagTrustedMerge;
    r.blob = ByteSpan(blob);
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kQuery;
    r.id = 7;
    r.key = "visitors";
    r.has_item = true;
    r.item = 42;
    r.confidence = 0.99;
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kCheckpoint;
    r.id = 8;
    requests.push_back(r);
  }
  {
    Request r;
    r.opcode = Opcode::kRestore;
    r.id = 9;
    r.blob = ByteSpan(blob);
    requests.push_back(r);
  }

  for (const Request& original : requests) {
    std::vector<uint8_t> frame;
    EncodeRequest(original, &frame);
    ByteSpan body;
    size_t consumed = 0;
    ASSERT_TRUE(SplitFrame(ByteSpan(frame), kDefaultMaxFrameBytes, &body,
                           &consumed)
                    .ok());
    ASSERT_EQ(consumed, frame.size());

    Request decoded;
    std::vector<uint64_t> scratch;
    std::vector<uint64_t> ts_scratch;
    ASSERT_TRUE(DecodeRequest(body, &decoded, &scratch, &ts_scratch).ok())
        << OpcodeName(original.opcode);
    EXPECT_EQ(decoded.opcode, original.opcode);
    EXPECT_EQ(decoded.id, original.id);
    EXPECT_EQ(decoded.flags, original.flags);
    EXPECT_EQ(decoded.key, original.key);
    EXPECT_EQ(decoded.sketch_type, original.sketch_type);
    EXPECT_EQ(decoded.prefix, original.prefix);
    EXPECT_EQ(decoded.limit, original.limit);
    EXPECT_EQ(decoded.has_item, original.has_item);
    EXPECT_EQ(decoded.item, original.item);
    EXPECT_DOUBLE_EQ(decoded.confidence, original.confidence);
    ASSERT_EQ(decoded.items.size(), original.items.size());
    EXPECT_TRUE(std::equal(decoded.items.begin(), decoded.items.end(),
                           original.items.begin()));
    ASSERT_EQ(decoded.blob.size(), original.blob.size());
    EXPECT_TRUE(std::equal(decoded.blob.begin(), decoded.blob.end(),
                           original.blob.begin()));
  }
}

TEST_F(ProtocolTest, ResponseCodecRoundTripsPayloads) {
  {
    Response r;
    r.opcode = Opcode::kQuery;
    r.id = 11;
    r.query.has_estimate = true;
    r.query.estimate = {1000.0, 950.0, 1050.0, 0.95};
    r.query.summary = "hll ~1000";
    r.query.epoch = 17;
    std::vector<uint8_t> frame;
    EncodeResponse(r, &frame);
    Response decoded;
    ASSERT_TRUE(
        DecodeResponse(ByteSpan(frame.data() + 4, frame.size() - 4), &decoded)
            .ok());
    EXPECT_EQ(decoded.id, 11u);
    EXPECT_EQ(decoded.code, StatusCode::kOk);
    EXPECT_TRUE(decoded.query.has_estimate);
    EXPECT_DOUBLE_EQ(decoded.query.estimate.value, 1000.0);
    EXPECT_DOUBLE_EQ(decoded.query.estimate.lower, 950.0);
    EXPECT_DOUBLE_EQ(decoded.query.estimate.upper, 1050.0);
    EXPECT_EQ(decoded.query.summary, "hll ~1000");
    EXPECT_EQ(decoded.query.epoch, 17u);
  }
  {
    Response r;
    r.opcode = Opcode::kList;
    r.id = 12;
    r.total_keys = 100;
    r.entries = {{"a", "hyperloglog"}, {"b", "count_min"}};
    std::vector<uint8_t> frame;
    EncodeResponse(r, &frame);
    Response decoded;
    ASSERT_TRUE(
        DecodeResponse(ByteSpan(frame.data() + 4, frame.size() - 4), &decoded)
            .ok());
    EXPECT_EQ(decoded.total_keys, 100u);
    ASSERT_EQ(decoded.entries.size(), 2u);
    EXPECT_EQ(decoded.entries[0].key, "a");
    EXPECT_EQ(decoded.entries[1].type, "count_min");
  }
  {
    // An error response carries the typed code verbatim and no payload.
    Response r;
    r.opcode = Opcode::kQuery;
    r.id = 13;
    r.code = StatusCode::kNotFound;
    r.message = "no key 'x'";
    std::vector<uint8_t> frame;
    EncodeResponse(r, &frame);
    Response decoded;
    ASSERT_TRUE(
        DecodeResponse(ByteSpan(frame.data() + 4, frame.size() - 4), &decoded)
            .ok());
    EXPECT_EQ(decoded.code, StatusCode::kNotFound);
    EXPECT_EQ(decoded.message, "no key 'x'");
  }
}

TEST_F(ProtocolTest, DecodeRejectsMalformedRequests) {
  Request valid;
  valid.opcode = Opcode::kUpdate;
  valid.key = "k";
  valid.id = 1;
  const std::vector<uint64_t> items = Items(10, 2);
  valid.items = items;
  std::vector<uint8_t> frame;
  EncodeRequest(valid, &frame);
  const ByteSpan body(frame.data() + 4, frame.size() - 4);

  Request out;
  std::vector<uint64_t> scratch;
  std::vector<uint64_t> ts_scratch;

  // Truncation at every split point inside the body.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        DecodeRequest(body.subspan(0, cut), &out, &scratch, &ts_scratch).ok())
        << "cut at " << cut;
  }

  // Trailing garbage after a valid body.
  std::vector<uint8_t> padded(body.begin(), body.end());
  padded.push_back(0xAB);
  EXPECT_EQ(DecodeRequest(ByteSpan(padded), &out, &scratch, &ts_scratch)
                .code(),
            StatusCode::kCorruption);

  // Bad version byte.
  std::vector<uint8_t> bad_version(body.begin(), body.end());
  bad_version[0] = 99;
  EXPECT_EQ(DecodeRequest(ByteSpan(bad_version), &out, &scratch, &ts_scratch)
                .code(),
            StatusCode::kCorruption);

  // Unknown opcode: typed kUnimplemented with the id preserved, so the
  // server can answer instead of dropping the connection.
  std::vector<uint8_t> bad_opcode(body.begin(), body.end());
  bad_opcode[1] = 200;
  Status s = DecodeRequest(ByteSpan(bad_opcode), &out, &scratch, &ts_scratch);
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(out.id, 1u);

  // An update whose item count promises more than the frame holds.
  Request lying;
  lying.opcode = Opcode::kUpdate;
  lying.key = "k";
  lying.items = items;
  std::vector<uint8_t> lying_frame;
  EncodeRequest(lying, &lying_frame);
  // Patch the u32 item count (after 4B prefix + 11B header + 2B key).
  const size_t count_at = 4 + 11 + 2;
  lying_frame[count_at] = 0xFF;
  lying_frame[count_at + 1] = 0xFF;
  EXPECT_EQ(DecodeRequest(
                ByteSpan(lying_frame.data() + 4, lying_frame.size() - 4),
                &out, &scratch, &ts_scratch)
                .code(),
            StatusCode::kCorruption);
}

TEST_F(ProtocolTest, DecodeRejectsGarbageBytes) {
  SplitMix64 rng(3);
  Request out;
  std::vector<uint64_t> scratch;
  std::vector<uint64_t> ts_scratch;
  Response response_out;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(1 + static_cast<size_t>(rng.Next() % 64));
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    // Must never crash; almost always rejects (a random body is valid
    // only if it happens to spell a full well-formed request).
    (void)DecodeRequest(ByteSpan(garbage), &out, &scratch, &ts_scratch);
    (void)DecodeResponse(ByteSpan(garbage), &response_out);
  }
}

// ----------------------------------------------------------- keyspace

TEST_F(KeyspaceTest, CreateDropListLifecycle) {
  Keyspace keyspace;
  EXPECT_TRUE(keyspace.Create("a", "hyperloglog").ok());
  EXPECT_TRUE(keyspace.Create("ab", "count_min").ok());
  EXPECT_TRUE(keyspace.Create("b", "hllpp").ok());
  EXPECT_EQ(keyspace.size(), 3u);

  EXPECT_EQ(keyspace.Create("a", "hyperloglog").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(keyspace.Create("c", "no_such_type").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(keyspace.Create("", "hyperloglog").code(),
            StatusCode::kInvalidArgument);

  Keyspace::ListResult all = keyspace.List("", 0);
  EXPECT_EQ(all.total, 3u);
  ASSERT_EQ(all.entries.size(), 3u);
  EXPECT_EQ(all.entries[0].key, "a");  // Sorted.
  EXPECT_EQ(all.entries[1].key, "ab");
  EXPECT_EQ(all.entries[2].key, "b");
  EXPECT_EQ(all.entries[0].type, "hyperloglog");

  Keyspace::ListResult prefixed = keyspace.List("a", 0);
  EXPECT_EQ(prefixed.total, 2u);
  Keyspace::ListResult limited = keyspace.List("", 1);
  EXPECT_EQ(limited.total, 3u);
  EXPECT_EQ(limited.entries.size(), 1u);

  EXPECT_TRUE(keyspace.Drop("b").ok());
  EXPECT_EQ(keyspace.Drop("b").code(), StatusCode::kNotFound);
  EXPECT_EQ(keyspace.size(), 2u);
}

TEST_F(KeyspaceTest, MaxKeysCapIsResourceExhausted) {
  KeyspaceOptions options;
  options.max_keys = 2;
  Keyspace keyspace(options);
  EXPECT_TRUE(keyspace.Create("a", "hyperloglog").ok());
  EXPECT_TRUE(keyspace.Create("b", "hyperloglog").ok());
  EXPECT_EQ(keyspace.Create("c", "hyperloglog").code(),
            StatusCode::kResourceExhausted);
}

TEST_F(KeyspaceTest, UpdateIsAckVisibleToQuery) {
  Keyspace keyspace;
  ASSERT_TRUE(keyspace.Create("visitors", "hyperloglog").ok());
  const std::vector<uint64_t> items = Items(50000, 4);
  ASSERT_TRUE(keyspace.Update("visitors", items).ok());

  Result<QueryResult> query = keyspace.Query("visitors", false, 0, 0.95);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query.value().has_estimate);
  EXPECT_NEAR(query.value().estimate.value, 50000.0, 0.05 * 50000.0);
  EXPECT_GT(query.value().epoch, 0u);

  EXPECT_EQ(keyspace.Update("ghost", items).code(), StatusCode::kNotFound);
  EXPECT_EQ(keyspace.Query("ghost", false, 0, 0.95).status().code(),
            StatusCode::kNotFound);
}

TEST_F(KeyspaceTest, ItemQueryOnFrequencySketch) {
  Keyspace keyspace;
  ASSERT_TRUE(keyspace.Create("flows", "count_min").ok());
  std::vector<uint64_t> items;
  for (int i = 0; i < 500; ++i) items.push_back(7);
  for (int i = 0; i < 100; ++i) items.push_back(9);
  ASSERT_TRUE(keyspace.Update("flows", items).ok());

  Result<QueryResult> heavy = keyspace.Query("flows", true, 7, 0.95);
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(heavy.value().has_estimate);
  EXPECT_GE(heavy.value().estimate.value, 500.0);  // One-sided error.

  // A whole-sketch estimate on Count-Min has no meaning: has_estimate is
  // false, not an error, and the summary line still renders.
  Result<QueryResult> whole = keyspace.Query("flows", false, 0, 0.95);
  ASSERT_TRUE(whole.ok());
  EXPECT_FALSE(whole.value().has_estimate);
  EXPECT_FALSE(whole.value().summary.empty());
}

TEST_F(KeyspaceTest, MergeFansInSerializedEnvelope) {
  Keyspace keyspace;
  ASSERT_TRUE(keyspace.Create("reach", "hyperloglog").ok());
  ASSERT_TRUE(keyspace.Update("reach", Items(10000, 5)).ok());

  // A peer's sketch, shipped as envelope bytes. Default registry params
  // (precision 12, seed 0) make it merge-compatible.
  HyperLogLog peer(12);
  for (uint64_t item : Items(10000, 6)) peer.Update(item);
  const std::vector<uint8_t> envelope = peer.Serialize();

  ASSERT_TRUE(keyspace.Merge("reach", ByteSpan(envelope), false).ok());
  ASSERT_TRUE(keyspace.Merge("reach", ByteSpan(envelope), true).ok());

  Result<QueryResult> query = keyspace.Query("reach", false, 0, 0.95);
  ASSERT_TRUE(query.ok());
  // Two disjoint 10k streams; the duplicate trusted merge is idempotent.
  EXPECT_NEAR(query.value().estimate.value, 20000.0, 0.06 * 20000.0);

  // Corrupt envelope: typed corruption, state unchanged.
  std::vector<uint8_t> corrupt = envelope;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  EXPECT_EQ(keyspace.Merge("reach", ByteSpan(corrupt), false).code(),
            StatusCode::kCorruption);

  // Type confusion: a Count-Min envelope into an HLL key.
  CountMinSketch cm(64, 3, 1);
  (void)cm.Update(1);
  const std::vector<uint8_t> cm_bytes = cm.Serialize();
  EXPECT_EQ(keyspace.Merge("reach", ByteSpan(cm_bytes), false).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(KeyspaceTest, CheckpointRestoreRoundTripsBytes) {
  KeyspaceOptions options;
  options.num_shards = 8;
  Keyspace keyspace(options);
  ASSERT_TRUE(keyspace.Create("users", "hyperloglog").ok());
  ASSERT_TRUE(keyspace.Create("flows", "count_min").ok());
  ASSERT_TRUE(keyspace.Update("users", Items(20000, 7)).ok());
  ASSERT_TRUE(keyspace.Update("flows", Items(5000, 8)).ok());

  std::vector<uint8_t> image;
  ByteSink sink(&image);
  ASSERT_TRUE(keyspace.Checkpoint(sink).ok());

  Keyspace restored(options);
  ASSERT_TRUE(restored.Create("stale", "hllpp").ok());  // Must vanish.
  ASSERT_TRUE(restored.Restore(ByteSpan(image)).ok());
  EXPECT_EQ(restored.size(), 2u);

  // Estimates survive the round trip exactly.
  Result<QueryResult> before = keyspace.Query("users", false, 0, 0.95);
  Result<QueryResult> after = restored.Query("users", false, 0, 0.95);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before.value().estimate.value,
                   after.value().estimate.value);

  // And the restored keyspace checkpoints to byte-identical bytes.
  std::vector<uint8_t> image2;
  ByteSink sink2(&image2);
  ASSERT_TRUE(restored.Checkpoint(sink2).ok());
  EXPECT_EQ(image, image2);

  // A corrupted image leaves the target untouched (all-or-nothing).
  std::vector<uint8_t> corrupt = image;
  corrupt[corrupt.size() - 3] ^= 0xFF;
  Keyspace victim(options);
  ASSERT_TRUE(victim.Create("keep", "hyperloglog").ok());
  EXPECT_FALSE(victim.Restore(ByteSpan(corrupt)).ok());
  EXPECT_EQ(victim.size(), 1u);
  EXPECT_TRUE(victim.Query("keep", false, 0, 0.95).ok());
}

// ----------------------------------------------------- request dispatch

TEST_F(ServerTest, HandleRequestMapsStatusCodesVerbatim) {
  Keyspace keyspace;
  std::vector<uint8_t> arena;
  Response response;

  Request create;
  create.opcode = Opcode::kCreate;
  create.id = 1;
  create.key = "k";
  create.sketch_type = "hyperloglog";
  HandleRequest(keyspace, create, &response, &arena);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.id, 1u);

  HandleRequest(keyspace, create, &response, &arena);
  EXPECT_EQ(response.code, StatusCode::kAlreadyExists);
  EXPECT_FALSE(response.message.empty());

  Request query;
  query.opcode = Opcode::kQuery;
  query.id = 2;
  query.key = "ghost";
  HandleRequest(keyspace, query, &response, &arena);
  EXPECT_EQ(response.code, StatusCode::kNotFound);

  Request checkpoint;
  checkpoint.opcode = Opcode::kCheckpoint;
  checkpoint.id = 3;
  HandleRequest(keyspace, checkpoint, &response, &arena);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_FALSE(response.blob.empty());
}

// ----------------------------------------------------------- loopback

TEST_F(LoopbackTest, BasicLifecycleOverSockets) {
  Keyspace keyspace;
  Server server(&keyspace);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  GemsdClient& c = client.value();

  EXPECT_TRUE(c.Ping().ok());
  EXPECT_TRUE(c.Create("users", "hyperloglog").ok());
  EXPECT_EQ(c.Create("users", "hyperloglog").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(c.Create("bad", "no_such_type").code(), StatusCode::kNotFound);

  const std::vector<uint64_t> items = Items(30000, 10);
  ASSERT_TRUE(c.Update("users", items).ok());

  Result<QueryResult> query = c.Query("users");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query.value().has_estimate);
  EXPECT_NEAR(query.value().estimate.value, 30000.0, 0.05 * 30000.0);
  EXPECT_LE(query.value().estimate.lower, query.value().estimate.value);
  EXPECT_GE(query.value().estimate.upper, query.value().estimate.value);

  Result<GemsdClient::ListResult> list = c.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().total, 1u);
  ASSERT_EQ(list.value().entries.size(), 1u);
  EXPECT_EQ(list.value().entries[0].key, "users");

  EXPECT_EQ(c.Update("ghost", items).code(), StatusCode::kNotFound);
  EXPECT_TRUE(c.Drop("users").ok());
  EXPECT_EQ(c.Drop("users").code(), StatusCode::kNotFound);

  server.Stop();
}

TEST_F(LoopbackTest, PipelinedRequestsInOneWrite) {
  // One Pipeline() window: 4,000 small requests whose responses (about
  // 140 KB, past the server's 64 KiB flush threshold) go out batched, then
  // a multi-MB CHECKPOINT response that spans many client reads, then more
  // requests behind it. Every status must come back in order.
  Keyspace keyspace;
  Server server(&keyspace);
  ASSERT_TRUE(server.Start().ok());
  Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  GemsdClient& c = client.value();

  ASSERT_TRUE(c.Create("users", "hllpp").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(c.Create("cm-" + std::to_string(i), "count_min").ok());
  }
  // Blocked Bloom filters at default size (1 MiB of bits each) make the
  // checkpoint image several MB.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.Create("bf-" + std::to_string(i), "blocked_bloom").ok());
  }

  constexpr size_t kSmall = 4000;
  const std::vector<uint64_t> items = Items(4 * kSmall, 11);
  std::vector<std::string> ghosts;
  for (size_t i = 0; i < kSmall / 4; ++i) {
    ghosts.push_back("ghost-" + std::to_string(i));
  }
  std::vector<Request> requests(kSmall);
  std::vector<StatusCode> want(kSmall, StatusCode::kOk);
  for (size_t i = 0; i < kSmall; ++i) {
    Request& r = requests[i];
    switch (i % 4) {
      case 0:
        r.opcode = Opcode::kUpdate;
        r.key = i % 8 == 0 ? "users" : "cm-" + std::to_string(i % 40);
        r.items = std::span<const uint64_t>(items).subspan(4 * i, 4);
        break;
      case 1:
        r.opcode = Opcode::kQuery;
        r.key = "users";
        break;
      case 2:
        r.opcode = Opcode::kPing;
        break;
      case 3:
        r.opcode = i % 8 == 3 ? Opcode::kQuery : Opcode::kUpdate;
        r.key = ghosts[i / 4];
        r.items = std::span<const uint64_t>(items).subspan(4 * i, 4);
        want[i] = StatusCode::kNotFound;
        break;
    }
  }
  requests.emplace_back().opcode = Opcode::kCheckpoint;
  want.push_back(StatusCode::kOk);
  for (int i = 0; i < 8; ++i) {
    requests.emplace_back().opcode = Opcode::kPing;
    want.push_back(StatusCode::kOk);
  }

  std::vector<Status> statuses;
  ASSERT_TRUE(c.Pipeline(requests, &statuses).ok());
  ASSERT_EQ(statuses.size(), requests.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    ASSERT_EQ(statuses[i].code(), want[i]) << "request " << i;
  }

  // The image itself, fetched the same way over the same connection,
  // parses and restores to a byte-identical keyspace.
  Result<std::vector<uint8_t>> image = c.Checkpoint();
  ASSERT_TRUE(image.ok());
  EXPECT_GT(image.value().size(), size_t{4} << 20);
  Keyspace restored;
  ASSERT_TRUE(restored.Restore(ByteSpan(image.value())).ok());
  EXPECT_EQ(restored.size(), 45u);
  std::vector<uint8_t> again;
  ByteSink sink(&again);
  ASSERT_TRUE(restored.Checkpoint(sink).ok());
  EXPECT_EQ(again, image.value());

  Result<QueryResult> query = c.Query("users");
  ASSERT_TRUE(query.ok());
  EXPECT_NEAR(query.value().estimate.value, 2000.0, 0.05 * 2000.0);
  EXPECT_TRUE(c.Ping().ok());
  server.Stop();
}

TEST_F(LoopbackTest, ConcurrentUpdatesMatchOfflineReplica) {
  // N client threads write disjoint item ranges into two keys (an HLL
  // and a Count-Min — families whose merges are order- and partition-
  // independent) while another thread queries continuously. After
  // quiesce, the server state must match an offline replica fed the same
  // items, and the full CHECKPOINT image must be byte-identical to the
  // replica keyspace's.
  KeyspaceOptions options;
  options.num_shards = 8;
  Keyspace keyspace(options);
  ServerOptions server_options;
  server_options.num_threads = 3;
  Server server(&keyspace, server_options);
  ASSERT_TRUE(server.Start().ok());

  {
    Result<GemsdClient> setup =
        GemsdClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(setup.value().Create("users", "hyperloglog").ok());
    ASSERT_TRUE(setup.value().Create("flows", "count_min").ok());
  }

  constexpr int kWriters = 4;
  constexpr int kBatches = 50;
  constexpr size_t kBatchSize = 200;

  std::atomic<bool> stop_readers{false};
  std::thread reader([&] {
    Result<GemsdClient> client =
        GemsdClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return;
    while (!stop_readers.load(std::memory_order_acquire)) {
      Result<QueryResult> q = client.value().Query("users");
      if (!q.ok()) return;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Result<GemsdClient> client =
          GemsdClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      for (int b = 0; b < kBatches; ++b) {
        const auto batch = Items(kBatchSize, 1000 + w * kBatches + b);
        ASSERT_TRUE(client.value().Update("users", batch).ok());
        ASSERT_TRUE(client.value().Update("flows", batch).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop_readers.store(true, std::memory_order_release);
  reader.join();

  // Offline replica: same options, same creates, same items (order-free).
  Keyspace replica(options);
  ASSERT_TRUE(replica.Create("users", "hyperloglog").ok());
  ASSERT_TRUE(replica.Create("flows", "count_min").ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatches; ++b) {
      const auto batch = Items(kBatchSize, 1000 + w * kBatches + b);
      ASSERT_TRUE(replica.Update("users", batch).ok());
      ASSERT_TRUE(replica.Update("flows", batch).ok());
    }
  }

  Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Estimates agree exactly (updates are ack-visible, merges are
  // partition-independent for these families).
  Result<QueryResult> live = client.value().Query("users");
  Result<QueryResult> offline = replica.Query("users", false, 0, 0.95);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(offline.ok());
  EXPECT_DOUBLE_EQ(live.value().estimate.value,
                   offline.value().estimate.value);

  Result<QueryResult> live_item = client.value().QueryItem("flows", 12345);
  Result<QueryResult> offline_item =
      replica.Query("flows", true, 12345, 0.95);
  ASSERT_TRUE(live_item.ok());
  ASSERT_TRUE(offline_item.ok());
  EXPECT_DOUBLE_EQ(live_item.value().estimate.value,
                   offline_item.value().estimate.value);

  // Byte-identical checkpoint images.
  Result<std::vector<uint8_t>> image = client.value().Checkpoint();
  ASSERT_TRUE(image.ok());
  std::vector<uint8_t> replica_image;
  ByteSink sink(&replica_image);
  ASSERT_TRUE(replica.Checkpoint(sink).ok());
  EXPECT_EQ(image.value(), replica_image);

  // RESTORE the image into a fresh daemon and re-checkpoint: still
  // byte-identical, still the same estimate.
  Keyspace fresh_keyspace(options);
  Server fresh_server(&fresh_keyspace, server_options);
  ASSERT_TRUE(fresh_server.Start().ok());
  Result<GemsdClient> fresh =
      GemsdClient::Connect("127.0.0.1", fresh_server.port());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.value().Restore(ByteSpan(image.value())).ok());
  Result<QueryResult> restored_query = fresh.value().Query("users");
  ASSERT_TRUE(restored_query.ok());
  EXPECT_DOUBLE_EQ(restored_query.value().estimate.value,
                   offline.value().estimate.value);
  Result<std::vector<uint8_t>> image2 = fresh.value().Checkpoint();
  ASSERT_TRUE(image2.ok());
  EXPECT_EQ(image.value(), image2.value());

  fresh_server.Stop();
  server.Stop();
}

TEST_F(LoopbackTest, MergeOverTheWire) {
  Keyspace keyspace;
  Server server(&keyspace);
  ASSERT_TRUE(server.Start().ok());
  Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  GemsdClient& c = client.value();

  ASSERT_TRUE(c.Create("reach", "hyperloglog").ok());
  HyperLogLog peer(12);
  for (uint64_t item : Items(25000, 42)) peer.Update(item);
  const std::vector<uint8_t> envelope = peer.Serialize();
  ASSERT_TRUE(c.Merge("reach", ByteSpan(envelope), /*trusted=*/false).ok());
  ASSERT_TRUE(c.Merge("reach", ByteSpan(envelope), /*trusted=*/true).ok());

  Result<QueryResult> query = c.Query("reach");
  ASSERT_TRUE(query.ok());
  EXPECT_DOUBLE_EQ(query.value().estimate.value, peer.Estimate());

  // Corruption is rejected over the untrusted path with the typed code.
  std::vector<uint8_t> corrupt = envelope;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  EXPECT_EQ(c.Merge("reach", ByteSpan(corrupt), false).code(),
            StatusCode::kCorruption);
  server.Stop();
}

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends raw bytes, then reports whether the server closed the connection
// (recv == 0) before any response byte arrived.
bool ServerClosedAfter(uint16_t port, const std::vector<uint8_t>& bytes) {
  const int fd = RawConnect(port);
  if (fd < 0) return false;
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // Already reset — counts as closed below.
    sent += static_cast<size_t>(n);
  }
  uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  ::close(fd);
  return n <= 0;
}

TEST_F(LoopbackTest, MalformedFramesCloseConnectionOthersKeepServing) {
  Keyspace keyspace;
  Server server(&keyspace);
  ASSERT_TRUE(server.Start().ok());

  // An established well-behaved connection that must survive the abuse.
  Result<GemsdClient> good =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good.value().Ping().ok());

  // Oversized length prefix: unrecoverable, connection dropped.
  EXPECT_TRUE(ServerClosedAfter(server.port(), {0xFF, 0xFF, 0xFF, 0xFF}));
  // Zero-length frame: same.
  EXPECT_TRUE(ServerClosedAfter(server.port(), {0, 0, 0, 0}));
  // A plausible length prefix framing garbage: decode fails, dropped.
  EXPECT_TRUE(
      ServerClosedAfter(server.port(), {4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF}));

  // An unknown opcode gets a typed error *response*, not a close: version
  // byte, opcode 200, flags 0, id 5 (little-endian u64).
  {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    const std::vector<uint8_t> frame = {11,   0, 0, 0,  // length
                                        kProtocolVersion,
                                        200,  0,         // opcode, flags
                                        5,    0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    std::vector<uint8_t> reply(4096);
    size_t got = 0;
    ByteSpan body;
    size_t consumed = 0;
    while (got < reply.size()) {
      const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
      ASSERT_TRUE(SplitFrame(ByteSpan(reply.data(), got),
                             kDefaultMaxFrameBytes, &body, &consumed)
                      .ok());
      if (consumed != 0) break;
    }
    Response response;
    ASSERT_TRUE(DecodeResponse(body, &response).ok());
    EXPECT_EQ(response.code, StatusCode::kUnimplemented);
    EXPECT_EQ(response.id, 5u);
    ::close(fd);
  }

  // The well-behaved connection is unaffected.
  EXPECT_TRUE(good.value().Ping().ok());
  server.Stop();
}

// --------------------------------------------------------- time family

TEST_F(ProtocolTest, TimedCreateAndUpdateTailsRoundTrip) {
  // CREATE carrying window/decay parameters.
  Request create;
  create.opcode = Opcode::kCreate;
  create.id = 21;
  create.key = "edges";
  create.sketch_type = "sliding_hyperloglog";
  create.has_timed_params = true;
  create.pane_width = 60;
  create.num_panes = 10;
  create.half_life = 0.0;

  // UPDATE carrying a parallel timestamp column.
  const std::vector<uint64_t> items = Items(64, 2);
  std::vector<uint64_t> timestamps;
  for (uint64_t i = 0; i < items.size(); ++i) timestamps.push_back(i * 3);
  Request update;
  update.opcode = Opcode::kUpdate;
  update.id = 22;
  update.key = "edges";
  update.items = items;
  update.timestamps = timestamps;

  for (const Request* original : {&create, &update}) {
    std::vector<uint8_t> frame;
    EncodeRequest(*original, &frame);
    ByteSpan body;
    size_t consumed = 0;
    ASSERT_TRUE(SplitFrame(ByteSpan(frame), kDefaultMaxFrameBytes, &body,
                           &consumed)
                    .ok());
    Request decoded;
    std::vector<uint64_t> scratch, ts_scratch;
    ASSERT_TRUE(DecodeRequest(body, &decoded, &scratch, &ts_scratch).ok());
    EXPECT_EQ(decoded.has_timed_params, original->has_timed_params);
    EXPECT_EQ(decoded.pane_width, original->pane_width);
    EXPECT_EQ(decoded.num_panes, original->num_panes);
    EXPECT_DOUBLE_EQ(decoded.half_life, original->half_life);
    ASSERT_EQ(decoded.timestamps.size(), original->timestamps.size());
    EXPECT_TRUE(std::equal(decoded.timestamps.begin(),
                           decoded.timestamps.end(),
                           original->timestamps.begin()));
  }

  // An untimed CREATE/UPDATE encodes with no tail at all, so the frame is
  // byte-identical to the pre-time protocol: the last field is the item
  // count + payload for UPDATE, the type string for CREATE.
  Request plain;
  plain.opcode = Opcode::kUpdate;
  plain.id = 23;
  plain.key = "edges";
  plain.items = items;
  std::vector<uint8_t> plain_frame;
  EncodeRequest(plain, &plain_frame);
  Request timed_empty = plain;
  timed_empty.timestamps = {};  // Explicitly empty == absent.
  std::vector<uint8_t> timed_frame;
  EncodeRequest(timed_empty, &timed_frame);
  EXPECT_EQ(plain_frame, timed_frame);

  // Truncating inside the timestamp column is a decode error, not a
  // silent fallback to the untimed shape.
  std::vector<uint8_t> frame;
  EncodeRequest(update, &frame);
  ByteSpan body;
  size_t consumed = 0;
  ASSERT_TRUE(SplitFrame(ByteSpan(frame), kDefaultMaxFrameBytes, &body,
                         &consumed)
                  .ok());
  Request decoded;
  std::vector<uint64_t> scratch, ts_scratch;
  EXPECT_FALSE(DecodeRequest(ByteSpan(body.data(), body.size() - 5),
                             &decoded, &scratch, &ts_scratch)
                   .ok());
}

TEST_F(KeyspaceTest, TimedCreateUpdateQueryLifecycle) {
  Keyspace keyspace;
  TimedSketchParams window;
  window.pane_width = 10;
  window.num_panes = 6;
  ASSERT_TRUE(keyspace.Create("edges", "sliding_hyperloglog", window).ok());
  TimedSketchParams decay;
  decay.half_life = 100.0;
  ASSERT_TRUE(keyspace.Create("flows", "decayed_countmin", decay).ok());

  // Timed params on a family without a timed factory are NotFound.
  EXPECT_EQ(keyspace.Create("bad", "hyperloglog", window).code(),
            StatusCode::kNotFound);
  // And invalid params surface the factory's typed error.
  TimedSketchParams contradictory;
  contradictory.pane_width = 10;
  contradictory.half_life = 5.0;
  EXPECT_EQ(
      keyspace.Create("bad", "sliding_hyperloglog", contradictory).code(),
      StatusCode::kInvalidArgument);

  // 30 distinct items per 10-unit pane for 12 panes; only the trailing 6
  // panes (60 units) are visible.
  std::vector<uint64_t> items, timestamps;
  for (uint64_t t = 0; t < 120; ++t) {
    for (int i = 0; i < 3; ++i) {
      timestamps.push_back(t);
      items.push_back(t * 3 + i);
    }
  }
  ASSERT_TRUE(keyspace.Update("edges", items, timestamps).ok());
  Result<QueryResult> windowed = keyspace.Query("edges", false, 0, 0.95);
  ASSERT_TRUE(windowed.ok());
  ASSERT_TRUE(windowed.value().has_estimate);
  EXPECT_NEAR(windowed.value().estimate.value, 180.0, 25.0);

  // Decayed frequency: weight deposited at t=0 halves by t=100.
  std::vector<uint64_t> sevens(64, 7);
  std::vector<uint64_t> zeros(64, 0);
  ASSERT_TRUE(keyspace.Update("flows", sevens, zeros).ok());
  std::vector<uint64_t> late(1, 9);
  std::vector<uint64_t> late_ts(1, 100);
  ASSERT_TRUE(keyspace.Update("flows", late, late_ts).ok());
  Result<QueryResult> decayed = keyspace.Query("flows", true, 7, 0.95);
  ASSERT_TRUE(decayed.ok());
  ASSERT_TRUE(decayed.value().has_estimate);
  EXPECT_NEAR(decayed.value().estimate.value, 32.0, 0.5);

  // A ragged timestamp column is rejected without mutating the key.
  EXPECT_EQ(keyspace.Update("flows", sevens, late_ts).code(),
            StatusCode::kInvalidArgument);
  Result<QueryResult> unchanged = keyspace.Query("flows", true, 7, 0.95);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_DOUBLE_EQ(unchanged.value().estimate.value,
                   decayed.value().estimate.value);
}

TEST_F(KeyspaceTest, TimedCheckpointRestoreRoundTripsBytes) {
  KeyspaceOptions options;
  options.num_shards = 4;
  Keyspace keyspace(options);
  TimedSketchParams window;
  window.pane_width = 5;
  window.num_panes = 8;
  ASSERT_TRUE(keyspace.Create("edges", "sliding_hyperloglog", window).ok());
  ASSERT_TRUE(keyspace.Create("panes", "sliding_countmin", window).ok());
  TimedSketchParams decay;
  decay.half_life = 42.0;
  ASSERT_TRUE(keyspace.Create("flows", "decayed_countmin", decay).ok());
  ASSERT_TRUE(keyspace.Create("plain", "hyperloglog").ok());

  const std::vector<uint64_t> items = Items(3000, 13);
  std::vector<uint64_t> timestamps;
  for (uint64_t i = 0; i < items.size(); ++i) timestamps.push_back(i / 50);
  ASSERT_TRUE(keyspace.Update("edges", items, timestamps).ok());
  ASSERT_TRUE(keyspace.Update("panes", items, timestamps).ok());
  ASSERT_TRUE(keyspace.Update("flows", items, timestamps).ok());
  ASSERT_TRUE(keyspace.Update("plain", items).ok());

  std::vector<uint8_t> image;
  ByteSink sink(&image);
  ASSERT_TRUE(keyspace.Checkpoint(sink).ok());

  Keyspace restored(options);
  ASSERT_TRUE(restored.Restore(ByteSpan(image)).ok());
  EXPECT_EQ(restored.size(), 4u);

  // The restored pane rings and decay clocks checkpoint byte-identically,
  // which covers ring geometry, pane ids, and the sketch payloads.
  std::vector<uint8_t> image2;
  ByteSink sink2(&image2);
  ASSERT_TRUE(restored.Checkpoint(sink2).ok());
  EXPECT_EQ(image, image2);

  // The restored window keeps rolling: far-future updates expire it.
  std::vector<uint64_t> fresh(1, 999);
  std::vector<uint64_t> fresh_ts(1, 1'000'000);
  ASSERT_TRUE(restored.Update("edges", fresh, fresh_ts).ok());
  Result<QueryResult> rolled = restored.Query("edges", false, 0, 0.95);
  ASSERT_TRUE(rolled.ok());
  EXPECT_NEAR(rolled.value().estimate.value, 1.0, 0.5);
}

TEST_F(LoopbackTest, TimedSketchesEndToEndOverSockets) {
  Keyspace keyspace;
  Server server(&keyspace);
  ASSERT_TRUE(server.Start().ok());
  Result<GemsdClient> client =
      GemsdClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  GemsdClient& c = client.value();

  ASSERT_TRUE(
      c.CreateTimed("edges", "sliding_hyperloglog", /*pane_width=*/10,
                    /*num_panes=*/6)
          .ok());
  ASSERT_TRUE(c.CreateTimed("flows", "decayed_countmin", /*pane_width=*/0,
                            /*num_panes=*/0, /*half_life=*/100.0)
                  .ok());
  EXPECT_EQ(c.CreateTimed("bad", "hyperloglog", 10, 6).code(),
            StatusCode::kNotFound);

  // The ragged-column guard trips client-side before any bytes move.
  std::vector<uint64_t> ragged_items(8, 1);
  std::vector<uint64_t> ragged_ts(3, 1);
  EXPECT_EQ(c.UpdateTimed("edges", ragged_items, ragged_ts).code(),
            StatusCode::kInvalidArgument);

  std::vector<uint64_t> items, timestamps;
  for (uint64_t t = 0; t < 120; ++t) {
    for (int i = 0; i < 3; ++i) {
      timestamps.push_back(t);
      items.push_back(t * 3 + i);
    }
  }
  ASSERT_TRUE(c.UpdateTimed("edges", items, timestamps).ok());
  Result<QueryResult> windowed = c.Query("edges");
  ASSERT_TRUE(windowed.ok());
  ASSERT_TRUE(windowed.value().has_estimate);
  // Trailing 60 of 120 time units at 3 fresh items per unit.
  EXPECT_NEAR(windowed.value().estimate.value, 180.0, 25.0);

  std::vector<uint64_t> sevens(64, 7), zeros(64, 0);
  ASSERT_TRUE(c.UpdateTimed("flows", sevens, zeros).ok());
  std::vector<uint64_t> nine(1, 9), at_100(1, 100);
  ASSERT_TRUE(c.UpdateTimed("flows", nine, at_100).ok());
  Result<QueryResult> decayed = c.QueryItem("flows", 7);
  ASSERT_TRUE(decayed.ok());
  EXPECT_NEAR(decayed.value().estimate.value, 32.0, 0.5);

  // Full checkpoint/restore over the wire, byte-identical on re-export.
  Result<std::vector<uint8_t>> image = c.Checkpoint();
  ASSERT_TRUE(image.ok());
  Keyspace other_keyspace;
  Server other(&other_keyspace);
  ASSERT_TRUE(other.Start().ok());
  Result<GemsdClient> other_client =
      GemsdClient::Connect("127.0.0.1", other.port());
  ASSERT_TRUE(other_client.ok());
  ASSERT_TRUE(other_client.value().Restore(ByteSpan(image.value())).ok());
  Result<std::vector<uint8_t>> image2 = other_client.value().Checkpoint();
  ASSERT_TRUE(image2.ok());
  EXPECT_EQ(image.value(), image2.value());
  Result<QueryResult> migrated = other_client.value().QueryItem("flows", 7);
  ASSERT_TRUE(migrated.ok());
  EXPECT_DOUBLE_EQ(migrated.value().estimate.value,
                   decayed.value().estimate.value);

  other.Stop();
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace gems

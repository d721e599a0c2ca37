// Conformance tests for the serve wire protocol: golden byte vectors for
// the hello, frame, JobSpec and await layouts (so an incompatible change
// to the wire format fails loudly), version negotiation against the v5
// floor, and rejection of truncated/corrupt/oversized input on every
// decode path.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "data/manifest.h"
#include "stream/ops.h"

namespace pmkm {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Handshake.

TEST(HelloTest, GoldenBytes) {
  // [u32 magic "PMKS"][u32 version], little-endian. These exact bytes are
  // the wire contract; a codec change that alters them breaks every
  // deployed peer.
  const std::vector<uint8_t> expected = {0x50, 0x4D, 0x4B, 0x53,
                                         0x05, 0x00, 0x00, 0x00};
  EXPECT_EQ(EncodeHello(5), expected);
  EXPECT_EQ(kProtocolVersion, 5u);
  EXPECT_EQ(EncodeHello(kProtocolVersion).size(), kHelloBytes);
}

TEST(HelloTest, Roundtrip) {
  for (uint32_t v : {1u, 2u, 7u, 0xFFFFFFFFu}) {
    auto decoded = DecodeHello(EncodeHello(v));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded.value(), v);
  }
}

TEST(HelloTest, BadMagicRejected) {
  std::vector<uint8_t> hello = EncodeHello(kProtocolVersion);
  hello[0] ^= 0xFF;
  EXPECT_TRUE(DecodeHello(hello).status().IsInvalidArgument());
}

TEST(HelloTest, TruncatedRejected) {
  const std::vector<uint8_t> hello = EncodeHello(kProtocolVersion);
  for (size_t n = 0; n < hello.size(); ++n) {
    auto decoded =
        DecodeHello(std::span<const uint8_t>(hello.data(), n));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes";
  }
}

TEST(NegotiateTest, BothDirectionsOfSkew) {
  // v5 is both the current version and the floor: no skew below it.
  EXPECT_EQ(kMinProtocolVersion, kProtocolVersion);
  auto same = NegotiateVersion(kProtocolVersion);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.value(), kProtocolVersion);
  // Peer newer: effective = ours (the peer is expected to downshift).
  auto v99 = NegotiateVersion(99);
  ASSERT_TRUE(v99.ok());
  EXPECT_EQ(v99.value(), kProtocolVersion);
  // Peers without kAwaitJob (v1, v2), whose model sets use the old cell
  // layout (v3) or whose JobSpec carries a stall timeout where v5 reads a
  // deadline (v4) are below the floor: rejected.
  for (uint32_t old_version : {0u, 1u, 2u, 3u, 4u}) {
    EXPECT_TRUE(NegotiateVersion(old_version).status().IsFailedPrecondition())
        << "peer v" << old_version;
  }
}

// ---------------------------------------------------------------------------
// Framing.

TEST(FrameTest, GoldenLayout) {
  // [u32 payload_len][u32 type][payload][u32 crc32c(type || payload)].
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kSubmitJob, payload);
  ASSERT_EQ(wire.size(), kFrameFixedBytes + payload.size());

  auto read_u32 = [&wire](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, wire.data() + off, 4);
    return v;  // little-endian host; asserted by the golden hello test
  };
  EXPECT_EQ(read_u32(0), payload.size());
  EXPECT_EQ(read_u32(4), static_cast<uint32_t>(FrameType::kSubmitJob));
  EXPECT_EQ(std::vector<uint8_t>(wire.begin() + 8,
                                 wire.end() - 4),
            payload);
  // The trailer is CRC32C over the type tag bytes then the payload —
  // recomputed here independently to pin the definition.
  const uint32_t type_le = static_cast<uint32_t>(FrameType::kSubmitJob);
  const uint32_t expected_crc =
      Crc32c(payload.data(), payload.size(), Crc32c(&type_le, 4));
  EXPECT_EQ(read_u32(wire.size() - 4), expected_crc);
}

TEST(FrameTest, RoundtripIncludingEmptyPayload) {
  for (const std::vector<uint8_t>& payload :
       {std::vector<uint8_t>{}, std::vector<uint8_t>{0x42},
        std::vector<uint8_t>(1000, 0xAB)}) {
    const std::vector<uint8_t> wire =
        EncodeFrame(FrameType::kPing, payload);
    size_t consumed = 0;
    auto frame = DecodeFrame(wire, &consumed);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_TRUE(frame.value().has_value());
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(frame.value()->type,
              static_cast<uint32_t>(FrameType::kPing));
    EXPECT_EQ(frame.value()->payload, payload);
  }
}

TEST(FrameTest, IncrementalDecodeNeedsMoreBytes) {
  // Every strict prefix must come back as "need more", never an error:
  // this is exactly what a socket delivering one byte at a time looks
  // like.
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kJobStatus, payload);
  for (size_t n = 0; n < wire.size(); ++n) {
    size_t consumed = 99;
    auto frame =
        DecodeFrame(std::span<const uint8_t>(wire.data(), n), &consumed);
    ASSERT_TRUE(frame.ok()) << "prefix " << n << ": " << frame.status();
    EXPECT_FALSE(frame.value().has_value()) << "prefix " << n;
    EXPECT_EQ(consumed, 0u) << "prefix " << n;
  }
}

TEST(FrameTest, CorruptByteRejectedAsIoError) {
  const std::vector<uint8_t> payload = {10, 20, 30, 40};
  const std::vector<uint8_t> good =
      EncodeFrame(FrameType::kListJobs, payload);
  // Flip one bit in each payload byte and in each CRC byte: all must be
  // caught by the trailer check.
  for (size_t i = 8; i < good.size(); ++i) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x01;
    size_t consumed = 0;
    auto frame = DecodeFrame(bad, &consumed);
    EXPECT_TRUE(frame.status().IsIOError()) << "byte " << i;
  }
}

TEST(FrameTest, OversizedLengthRejectedWithoutAllocation) {
  std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kPing, std::vector<uint8_t>{});
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(wire.data(), &huge, 4);
  size_t consumed = 0;
  auto frame = DecodeFrame(wire, &consumed);
  EXPECT_TRUE(frame.status().IsOutOfRange());
}

TEST(FrameTest, ConsumesExactlyOneFrame) {
  const std::vector<uint8_t> first =
      EncodeFrame(FrameType::kPing, std::vector<uint8_t>{0x01});
  std::vector<uint8_t> wire = first;
  const std::vector<uint8_t> second =
      EncodeFrame(FrameType::kCancelJob, std::vector<uint8_t>{0x02});
  wire.insert(wire.end(), second.begin(), second.end());

  size_t consumed = 0;
  auto frame = DecodeFrame(wire, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(frame.value()->type, static_cast<uint32_t>(FrameType::kPing));

  // The rest of the buffer decodes as the second frame.
  size_t consumed2 = 0;
  auto frame2 = DecodeFrame(
      std::span<const uint8_t>(wire.data() + consumed,
                               wire.size() - consumed),
      &consumed2);
  ASSERT_TRUE(frame2.ok()) << frame2.status();
  ASSERT_TRUE(frame2.value().has_value());
  EXPECT_EQ(frame2.value()->type,
            static_cast<uint32_t>(FrameType::kCancelJob));
}

// ---------------------------------------------------------------------------
// Payload codecs.

JobSpec MakeSpec() {
  JobSpec spec;
  spec.bucket_paths = {"/data/a.pmkb", "/data/b.pmkb"};
  spec.engine.k = 12;
  spec.engine.restarts = 3;
  spec.engine.memory_kib = 256;
  spec.engine.cores = 4;
  spec.engine.failure_policy = "skip";
  spec.engine.max_retries = 1;
  spec.engine.deadline_ms = 5000;
  spec.engine.kernel = "scalar";
  spec.engine.checkpoint_dir = "/tmp/ckpt";
  spec.engine.checkpoint_sync = 0;
  spec.engine.resume = false;
  spec.run_id = "run-golden-1";
  spec.client = "tester";
  return spec;
}

void ExpectSpecEq(const JobSpec& a, const JobSpec& b) {
  EXPECT_EQ(a.bucket_paths, b.bucket_paths);
  EXPECT_EQ(a.engine.k, b.engine.k);
  EXPECT_EQ(a.engine.restarts, b.engine.restarts);
  EXPECT_EQ(a.engine.memory_kib, b.engine.memory_kib);
  EXPECT_EQ(a.engine.cores, b.engine.cores);
  EXPECT_EQ(a.engine.failure_policy, b.engine.failure_policy);
  EXPECT_EQ(a.engine.max_retries, b.engine.max_retries);
  EXPECT_EQ(a.engine.deadline_ms, b.engine.deadline_ms);
  EXPECT_EQ(a.engine.kernel, b.engine.kernel);
  EXPECT_EQ(a.engine.checkpoint_dir, b.engine.checkpoint_dir);
  EXPECT_EQ(a.engine.checkpoint_sync, b.engine.checkpoint_sync);
  EXPECT_EQ(a.engine.resume, b.engine.resume);
  EXPECT_EQ(a.run_id, b.run_id);
  EXPECT_EQ(a.client, b.client);
}

TEST(JobSpecCodecTest, RoundtripV2) {
  const JobSpec spec = MakeSpec();
  auto decoded = DecodeJobSpec(EncodeJobSpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSpecEq(spec, decoded.value());
}

TEST(JobSpecCodecTest, GoldenBytesKeepTheV2Layout) {
  // v3, v4 and v5 moved no JobSpec byte (v5 reads the slot after
  // max_retries as deadline_ms): paths, the engine flags in declaration
  // order, then run_id and client (the fields v2 added), all
  // little-endian with [u32 len] strings. Built field by field here, the
  // way an independent client would write it from protocol.h.
  std::vector<uint8_t> expected;
  auto u32 = [&expected](uint32_t v) {
    for (int i = 0; i < 4; ++i) expected.push_back((v >> (8 * i)) & 0xFF);
  };
  auto u64 = [&u32](uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  };
  auto str = [&expected, &u32](const std::string& v) {
    u32(static_cast<uint32_t>(v.size()));
    expected.insert(expected.end(), v.begin(), v.end());
  };
  u32(2);
  str("/data/a.pmkb");
  str("/data/b.pmkb");
  u64(12);  // k
  u64(3);   // restarts
  u64(256);  // memory_kib
  u64(4);    // cores
  str("skip");
  u64(1);     // max_retries
  u64(5000);  // deadline_ms
  str("scalar");
  str("/tmp/ckpt");
  u64(0);                 // checkpoint_sync
  expected.push_back(0);  // resume
  str("run-golden-1");
  str("tester");
  EXPECT_EQ(EncodeJobSpec(MakeSpec()), expected);
}

TEST(JobSpecCodecTest, TrailingBytesIgnoredForForwardCompat) {
  // A future minor version appends fields; this build must ignore them.
  std::vector<uint8_t> payload = EncodeJobSpec(MakeSpec());
  payload.insert(payload.end(), {0x01, 0x02, 0x03, 0x04});
  auto decoded = DecodeJobSpec(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSpecEq(MakeSpec(), decoded.value());
}

TEST(JobSpecCodecTest, TruncationRejectedAtEveryLength) {
  const std::vector<uint8_t> payload = EncodeJobSpec(MakeSpec());
  for (size_t n = 0; n < payload.size(); ++n) {
    auto decoded =
        DecodeJobSpec(std::span<const uint8_t>(payload.data(), n));
    EXPECT_FALSE(decoded.ok()) << "prefix " << n;
  }
}

TEST(JobSpecCodecTest, AbsurdPathCountRejected) {
  // A corrupt count must be rejected against the remaining bytes, not
  // trusted into a giant reserve().
  std::vector<uint8_t> payload = EncodeJobSpec(MakeSpec());
  const uint32_t absurd = 0x40000000;
  std::memcpy(payload.data(), &absurd, 4);  // path_count is field one
  EXPECT_TRUE(DecodeJobSpec(payload).status().IsOutOfRange());
}

JobInfo MakeInfo() {
  JobInfo info;
  info.job_id = 42;
  info.state = JobState::kFailed;
  info.client = "tester";
  info.run_id = "run-abc";
  info.status = Status::IOError("disk on fire");
  info.cells = 17;
  info.wall_seconds = 2.75;
  return info;
}

TEST(JobInfoCodecTest, Roundtrip) {
  const JobInfo info = MakeInfo();
  auto decoded = DecodeJobInfo(EncodeJobInfo(info));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().job_id, info.job_id);
  EXPECT_EQ(decoded.value().state, info.state);
  EXPECT_EQ(decoded.value().client, info.client);
  EXPECT_EQ(decoded.value().run_id, info.run_id);
  EXPECT_EQ(decoded.value().status.code(), info.status.code());
  EXPECT_EQ(decoded.value().status.message(), info.status.message());
  EXPECT_EQ(decoded.value().cells, info.cells);
  EXPECT_EQ(decoded.value().wall_seconds, info.wall_seconds);
}

TEST(JobInfoCodecTest, BadStateTagRejected) {
  std::vector<uint8_t> payload = EncodeJobInfo(MakeInfo());
  const uint32_t bad_state = 250;
  std::memcpy(payload.data() + 8, &bad_state, 4);  // after u64 job_id
  EXPECT_TRUE(DecodeJobInfo(payload).status().IsOutOfRange());
}

TEST(JobListCodecTest, RoundtripAndOrder) {
  std::vector<JobInfo> jobs;
  for (uint64_t id : {3u, 1u, 7u}) {
    JobInfo info;
    info.job_id = id;
    info.state = JobState::kDone;
    info.cells = id * 10;
    jobs.push_back(info);
  }
  auto decoded = DecodeJobList(EncodeJobList(jobs));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded.value().size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].job_id, jobs[i].job_id);
    EXPECT_EQ(decoded.value()[i].cells, jobs[i].cells);
  }
}

TEST(JobListCodecTest, AbsurdCountRejected) {
  std::vector<uint8_t> payload = EncodeJobList({});
  const uint32_t absurd = 0x7FFFFFFF;
  std::memcpy(payload.data(), &absurd, 4);
  EXPECT_TRUE(DecodeJobList(payload).status().IsOutOfRange());
}

TEST(ModelSetCodecTest, BitExactRoundtrip) {
  // The byte-identity guarantee between LocalService and RemoteService
  // rests on this codec restoring every double bitwise — including
  // awkward values like denormals and values with no short decimal form.
  CellClustering cell;
  cell.cell = GridCellId{-3, 17};
  cell.input_points = 12345;
  cell.pooled_centroids = 678;
  cell.merge_seconds = 0.1 + 0.2;  // 0.30000000000000004
  Dataset centroids(3);
  const double rows[2][3] = {
      {1.0 / 3.0, -2.5e-308, 1e300},
      {0.0, -0.0, 6.02214076e23},
  };
  centroids.Append(rows[0]);
  centroids.Append(rows[1]);
  cell.model.centroids = centroids;
  cell.model.weights = {600.25, 0.125};
  cell.model.sse = 1.0000000000000002;
  cell.model.mse_per_point = 1e-17;
  cell.model.iterations = 31;
  cell.model.converged = true;

  std::map<GridCellId, CellClustering> cells;
  cells[cell.cell] = cell;
  auto decoded = DecodeModelSet(EncodeModelSet(cells));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded.value().size(), 1u);
  const CellClustering& back = decoded.value().at(cell.cell);
  EXPECT_EQ(back.input_points, cell.input_points);
  EXPECT_EQ(back.pooled_centroids, cell.pooled_centroids);
  EXPECT_EQ(back.merge_seconds, cell.merge_seconds);
  EXPECT_EQ(back.model.centroids, cell.model.centroids);
  EXPECT_EQ(back.model.weights, cell.model.weights);
  EXPECT_EQ(back.model.sse, cell.model.sse);
  EXPECT_EQ(back.model.mse_per_point, cell.model.mse_per_point);
  EXPECT_EQ(back.model.iterations, cell.model.iterations);
  EXPECT_EQ(back.model.converged, cell.model.converged);
  // -0.0 must stay -0.0 (EXPECT_EQ(0.0, -0.0) passes, so check the sign
  // bit explicitly).
  EXPECT_TRUE(std::signbit(back.model.centroids(1, 1)));
}

TEST(ModelSetCodecTest, MalformedModelValuesRejected) {
  // CRC-clean model sets whose model would CHECK-crash the client later
  // (ClusteringModel::ToWeighted): a NaN weight, a negative weight, a NaN
  // centroid coordinate, and k = 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CellClustering good;
  good.cell = GridCellId{2, 5};
  good.model.centroids = Dataset(2);
  const double rows[2][2] = {{1.0, 2.0}, {3.0, 4.0}};
  good.model.centroids.Append(rows[0]);
  good.model.centroids.Append(rows[1]);
  good.model.weights = {10.0, 0.0};
  {
    std::map<GridCellId, CellClustering> cells{{good.cell, good}};
    ASSERT_TRUE(DecodeModelSet(EncodeModelSet(cells)).ok());
  }
  std::vector<CellClustering> bad(4, good);
  bad[0].model.weights[1] = nan;
  bad[1].model.weights[0] = -1.0;
  bad[2].model.centroids = Dataset(2);
  const double nan_row[2] = {nan, 1.0};
  bad[2].model.centroids.Append(nan_row);
  bad[2].model.centroids.Append(rows[1]);
  bad[3].model.centroids = Dataset(2);
  bad[3].model.weights.clear();
  for (const CellClustering& cell : bad) {
    std::map<GridCellId, CellClustering> cells{{cell.cell, cell}};
    EXPECT_FALSE(DecodeModelSet(EncodeModelSet(cells)).ok());
  }
}

TEST(ModelSetCodecTest, AbsurdCellCountRejected) {
  std::vector<uint8_t> payload =
      EncodeModelSet(std::map<GridCellId, CellClustering>{});
  const uint32_t absurd = 0x7FFFFFFF;
  std::memcpy(payload.data(), &absurd, 4);
  EXPECT_TRUE(DecodeModelSet(payload).status().IsOutOfRange());
}

TEST(AwaitCodecTest, GoldenRequestFrame) {
  // kAwaitJob (7) for job 42 with a 250 ms wait: [u64 job_id][u64
  // wait_ms] in the standard frame. The CRC bytes were computed by an
  // independent CRC32C implementation, not by EncodeFrame.
  const std::vector<uint8_t> expected = {
      0x10, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x2A, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFA, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xB6, 0x4C, 0x67, 0x0B};
  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kAwaitJob, EncodeAwaitRequest({42, 250}));
  EXPECT_EQ(wire, expected);

  size_t consumed = 0;
  auto frame = DecodeFrame(wire, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(frame.value()->type, static_cast<uint32_t>(FrameType::kAwaitJob));
  auto request = DecodeAwaitRequest(frame.value()->payload);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->job_id, 42u);
  EXPECT_EQ(request->wait_ms, 250u);
}

TEST(AwaitCodecTest, GoldenJobInfoReplyFrame) {
  // The await reply is the kJobStatus body: an OK envelope around a
  // JobInfo. Job 42, kCancelled (4) with status Cancelled (7) "q",
  // client "c", run_id "r", 0 cells, 0.5 s.
  const std::vector<uint8_t> expected = {
      0x37, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x71, 0x01, 0x00, 0x00, 0x00, 0x63, 0x01, 0x00, 0x00, 0x00, 0x72, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xE0, 0x3F, 0xDA, 0xDF, 0x50, 0x88};
  JobInfo info;
  info.job_id = 42;
  info.state = JobState::kCancelled;
  info.status = Status::Cancelled("q");
  info.client = "c";
  info.run_id = "r";
  info.wall_seconds = 0.5;
  EXPECT_EQ(EncodeFrame(FrameType::kReply,
                        EncodeReply(Status::OK(), EncodeJobInfo(info))),
            expected);
}

TEST(AwaitCodecTest, TruncationRejectedAtEveryLength) {
  const std::vector<uint8_t> payload = EncodeAwaitRequest({7, 1000});
  ASSERT_EQ(payload.size(), 16u);
  for (size_t n = 0; n < payload.size(); ++n) {
    auto decoded =
        DecodeAwaitRequest(std::span<const uint8_t>(payload.data(), n));
    EXPECT_TRUE(decoded.status().IsOutOfRange()) << "prefix " << n;
  }
}

TEST(U64CodecTest, RoundtripAndTruncation) {
  auto decoded = DecodeU64(EncodeU64(0xDEADBEEFCAFEF00Dull));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_FALSE(DecodeU64(std::vector<uint8_t>(7, 0)).ok());
}

TEST(ReplyCodecTest, RoundtripOkWithBody) {
  const std::vector<uint8_t> body = {9, 8, 7};
  auto decoded = DecodeReply(EncodeReply(Status::OK(), body));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded.value().status.ok());
  EXPECT_EQ(decoded.value().body, body);
}

TEST(ReplyCodecTest, RoundtripErrorStatus) {
  const Status error = Status::NotFound("job 9 unknown");
  auto decoded =
      DecodeReply(EncodeReply(error, std::vector<uint8_t>{}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded.value().status.IsNotFound());
  EXPECT_EQ(decoded.value().status.message(), error.message());
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(ReplyCodecTest, BadStatusCodeRejected) {
  std::vector<uint8_t> payload =
      EncodeReply(Status::OK(), std::vector<uint8_t>{});
  const uint32_t bad = 999;
  std::memcpy(payload.data(), &bad, 4);
  EXPECT_TRUE(DecodeReply(payload).status().IsOutOfRange());
}

}  // namespace
}  // namespace serve
}  // namespace pmkm

// Checkpoint/restore (stream/checkpoint.h): payload codecs round-trip
// bit-exactly, the writer's rotation rules (fingerprint mismatch,
// completed run, --no-resume) hold, corruption degrades instead of
// crashing, and a resumed pipeline run is bitwise-identical to an
// uninterrupted one.

#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/serialize.h"
#include "common/fault.h"
#include "common/logging.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

namespace fs = std::filesystem;

Dataset MustDataset(size_t dim, std::vector<double> flat) {
  auto data = Dataset::FromFlat(dim, std::move(flat));
  PMKM_CHECK(data.ok());
  return std::move(data).value();
}

// A CellClustering with deliberately awkward doubles (subnormal, -0.0,
// huge) — the codec stores IEEE-754 bit patterns, so all must survive.
CellClustering MakeCell(int id) {
  CellClustering cell;
  cell.cell = GridCellId{id, -id};
  cell.input_points = 12345;
  cell.pooled_centroids = 40;
  cell.merge_seconds = 0.125;
  cell.model.centroids = MustDataset(
      3, {1.5, -0.0, 4.9e-324, 1e308, -2.25, 0.1 + 0.2});
  cell.model.weights = {600.0, 0.5};
  cell.model.sse = 42.4242424242;
  cell.model.mse_per_point = 42.4242424242 / 12345.0;
  cell.model.iterations = 17;
  cell.model.converged = true;
  return cell;
}

void ExpectCellsEqual(const CellClustering& a, const CellClustering& b) {
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.input_points, b.input_points);
  EXPECT_EQ(a.pooled_centroids, b.pooled_centroids);
  EXPECT_EQ(a.merge_seconds, b.merge_seconds);
  EXPECT_EQ(a.model.centroids, b.model.centroids);
  EXPECT_EQ(a.model.weights, b.model.weights);
  EXPECT_EQ(a.model.sse, b.model.sse);
  EXPECT_EQ(a.model.mse_per_point, b.model.mse_per_point);
  EXPECT_EQ(a.model.iterations, b.model.iterations);
  EXPECT_EQ(a.model.converged, b.model.converged);
  // -0.0 == 0.0 under operator==; pin the sign bit explicitly.
  EXPECT_EQ(std::signbit(a.model.centroids.values()[1]),
            std::signbit(b.model.centroids.values()[1]));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pmkm_ckpt_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    FaultRegistry::Global().Reset();
  }
  void TearDown() override {
    FaultRegistry::Global().Reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string CkptDir() const { return (dir_ / "ckpt").string(); }

  CheckpointOptions Options(bool resume = true) const {
    CheckpointOptions options;
    options.dir = CkptDir();
    options.resume = resume;
    return options;
  }

  std::vector<char> ReadJournal() const {
    std::ifstream in(CheckpointJournalPath(CkptDir()), std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  void WriteJournal(const std::vector<char>& bytes) const {
    std::ofstream out(CheckpointJournalPath(CkptDir()),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, CellCompletePayloadRoundTrip) {
  const CellClustering cell = MakeCell(3);
  const std::vector<uint8_t> payload = EncodeCellComplete(cell);
  auto decoded = DecodeCellComplete(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectCellsEqual(cell, *decoded);
}

// kCellComplete v2 layout: version, cell id, input_points,
// pooled_centroids and merge_seconds, then [u32 len] and the model file,
// whose k follows its magic and version.
constexpr size_t kCellHeaderBytes = 4 + 2 * 4 + 2 * 8 + 8;
constexpr size_t kModelOffK = 8;

std::string Hex(std::span<const uint8_t> bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

TEST_F(CheckpointTest, CellCompletePayloadGoldenBytes) {
  // The kCellComplete v2 payload, pinned as hex: version 2, cell id,
  // counters, merge time, then the 136-byte length and the model's .pmkm
  // file bytes (header, centroids, weights, FNV-1a trailer).
  EXPECT_EQ(Hex(EncodeCellComplete(MakeCell(3))),
      "0200000003000000fdffffff39300000000000002800000000000000"
      "000000000000c03f88000000"
      "504d4b4d010000000200000000000000030000000000000000000000"
      "00000000e4c164934d364540c5505227f9266c3f1100000000000000"
      "0100000000000000000000000000f83f000000000000008001000000"
      "00000000a0c8eb85f3cce17f00000000000002c0343333333333d33f"
      "0000000000c08240000000000000e03fc7c2d9a3dfe9553a");
}

TEST_F(CheckpointTest, CellRecordEmbedsTheModelFileBytes) {
  // The journal holds the very bytes SaveModel publishes for the cell's
  // model, so re-publishing a resumed cell is a verbatim copy.
  const CellClustering cell = MakeCell(3);
  const std::string path = (dir_ / "cell.pmkm").string();
  ASSERT_TRUE(SaveModel(path, cell.model).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  ASSERT_FALSE(file.empty());
  const std::vector<uint8_t> payload = EncodeCellComplete(cell);
  const bool embedded = std::search(payload.begin(), payload.end(),
                                    file.begin(), file.end()) !=
                        payload.end();
  EXPECT_TRUE(embedded) << "model file " << Hex(file)
                        << " not in payload " << Hex(payload);
}

TEST_F(CheckpointTest, DecodeRejectsTruncatedAndGarbagePayloads) {
  const std::vector<uint8_t> payload = EncodeCellComplete(MakeCell(1));
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = DecodeCellComplete(
        std::span<const uint8_t>(payload.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Unknown version.
  std::vector<uint8_t> wrong_version = payload;
  wrong_version[0] = 0xee;
  EXPECT_FALSE(DecodeCellComplete(wrong_version).ok());
  // Arbitrary garbage: an error, never a crash or a giant allocation.
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_FALSE(DecodeCellComplete(garbage).ok());
  // A CRC-valid record whose embedded .pmkm header claims k = 2^40: the
  // model decoder bounds k by the bytes present before allocating.
  std::vector<uint8_t> huge_k = payload;
  const size_t model = kCellHeaderBytes + sizeof(uint32_t);
  const size_t trailer = huge_k.size() - sizeof(uint64_t);
  const auto store_u64 = [&huge_k](size_t offset, uint64_t value) {
    for (size_t b = 0; b < sizeof(value); ++b) {
      huge_k[offset + b] = static_cast<uint8_t>(value >> (8 * b));
    }
  };
  store_u64(model + kModelOffK, uint64_t{1} << 40);
  store_u64(trailer, internal::Fnv1a64(huge_k.data() + model,
                                       trailer - model,
                                       internal::kFnvOffset));
  const auto decoded = DecodeCellComplete(huge_k);
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status();
  EXPECT_NE(decoded.status().message().find("exceeds its payload"),
            std::string::npos)
      << decoded.status();
}

// Model bodies the encoder writes faithfully but no decoder may accept:
// a NaN weight, a negative weight, a NaN centroid coordinate, and k = 0.
std::vector<CellClustering> MalformedModelCells() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<CellClustering> cells(4, MakeCell(5));
  cells[0].model.weights[1] = nan;
  cells[1].model.weights[0] = -1.0;
  cells[2].model.centroids = MustDataset(3, {1.5, nan, 0.0, 1.0, 2.0, 3.0});
  cells[3].model.centroids = Dataset(3);
  cells[3].model.weights.clear();
  return cells;
}

TEST_F(CheckpointTest, MalformedModelValuesAreRejectedAndDropped) {
  for (const CellClustering& cell : MalformedModelCells()) {
    const auto decoded = DecodeCellComplete(EncodeCellComplete(cell));
    EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status();
  }
  // Journaled, each one is a CRC-valid record that replay drops.
  {
    auto writer = CheckpointWriter::Open(Options(), 5);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const CellClustering& cell : MalformedModelCells()) {
      ASSERT_TRUE(writer->AppendCellComplete(cell).ok());
    }
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
  }
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->records_dropped, 4u);
  ASSERT_EQ(loaded->completed.size(), 1u);
  EXPECT_EQ(loaded->completed.begin()->first, (GridCellId{1, -1}));
}

TEST_F(CheckpointTest, WriterStateReplaysThroughLoad) {
  const uint64_t fp = 0xfeedbeefcafe1234ull;
  {
    auto writer = CheckpointWriter::Open(Options(), fp);
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_FALSE(writer->recovered().journal_found);
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
    EXPECT_EQ(writer->cells_appended(), 1u);
    // seq: 1=kRunBegin, 2=cell.
    EXPECT_EQ(writer->epoch(), 2u);
  }

  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->journal_found);
  EXPECT_TRUE(loaded->fingerprint_known);
  EXPECT_EQ(loaded->config_fingerprint, fp);
  EXPECT_FALSE(loaded->run_complete);
  ASSERT_EQ(loaded->completed.size(), 1u);
  ExpectCellsEqual(loaded->completed.at(GridCellId{1, -1}), MakeCell(1));
  EXPECT_EQ(loaded->records_dropped, 0u);

  // A reopened writer resumes the recovered cells; Finalize seals.
  {
    auto writer = CheckpointWriter::Open(Options(), fp);
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_EQ(writer->recovered().completed.size(), 1u);
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(2)).ok());
    ASSERT_TRUE(writer->Finalize().ok());
    ASSERT_TRUE(writer->Finalize().ok());  // idempotent
  }
  loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->run_complete);
  EXPECT_EQ(loaded->completed.size(), 2u);
}

TEST_F(CheckpointTest, FingerprintMismatchStartsFresh) {
  {
    auto writer = CheckpointWriter::Open(Options(), 111);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
  }
  auto writer = CheckpointWriter::Open(Options(), 222);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->recovered().completed.empty());
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->config_fingerprint, 222u);
  EXPECT_TRUE(loaded->completed.empty());
}

TEST_F(CheckpointTest, CompletedRunStartsFresh) {
  {
    auto writer = CheckpointWriter::Open(Options(), 5);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
    ASSERT_TRUE(writer->Finalize().ok());
  }
  auto writer = CheckpointWriter::Open(Options(), 5);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->recovered().completed.empty());
}

TEST_F(CheckpointTest, NoResumeDiscardsJournal) {
  {
    auto writer = CheckpointWriter::Open(Options(), 5);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
  }
  auto writer = CheckpointWriter::Open(Options(/*resume=*/false), 5);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->recovered().completed.empty());
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->completed.empty());
}

TEST_F(CheckpointTest, TornTailRecoversToLastCell) {
  {
    auto writer = CheckpointWriter::Open(Options(), 5);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(1)).ok());
    ASSERT_TRUE(writer->AppendCellComplete(MakeCell(2)).ok());
  }
  std::vector<char> bytes = ReadJournal();
  bytes.resize(bytes.size() - 7);  // tear cell 2's record
  WriteJournal(bytes);

  auto writer = CheckpointWriter::Open(Options(), 5);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->recovered().torn_tail);
  ASSERT_EQ(writer->recovered().completed.size(), 1u);
  EXPECT_EQ(writer->recovered().completed.begin()->first,
            (GridCellId{1, -1}));
  // The torn frame was truncated: re-appending cell 2 yields a clean
  // journal with both cells.
  ASSERT_TRUE(writer->AppendCellComplete(MakeCell(2)).ok());
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->torn_tail);
  EXPECT_EQ(loaded->completed.size(), 2u);
}

// ---- End-to-end engine resume --------------------------------------------

GridBucket MakeBucket(int id, size_t n, uint64_t seed) {
  Rng rng(seed);
  GridBucket bucket;
  bucket.cell = GridCellId{id, id};
  bucket.points = GenerateMisrLikeCell(n, &rng);
  return bucket;
}

class CheckpointEngineTest : public CheckpointTest {
 protected:
  std::vector<std::string> WriteBuckets(size_t cells, size_t points) {
    const fs::path bucket_dir = dir_ / "buckets";
    fs::create_directories(bucket_dir);
    std::vector<std::string> paths;
    for (size_t i = 0; i < cells; ++i) {
      GridBucket bucket =
          MakeBucket(static_cast<int>(i + 1), points, 100 + i);
      const std::string path =
          (bucket_dir / (bucket.cell.ToString() + ".pmkb")).string();
      EXPECT_TRUE(WriteGridBucket(path, bucket).ok());
      paths.push_back(path);
    }
    return paths;
  }

  // Cuts the journal back to its header and first `records` records, as
  // if the process had died right after appending them.
  void KeepJournalRecords(size_t records) const {
    auto recovery = RecoverJournal(CheckpointJournalPath(CkptDir()));
    ASSERT_TRUE(recovery.ok());
    ASSERT_GT(recovery->records.size(), records);
    size_t keep = internal::kJournalHeaderBytes;
    for (size_t i = 0; i < records; ++i) {
      keep += internal::kRecordFixedBytes + recovery->records[i].payload.size();
    }
    std::vector<char> journal = ReadJournal();
    journal.resize(keep);
    WriteJournal(journal);
  }

  // Appends one CRC-valid kCellComplete record holding `payload`.
  void AppendCellRecord(std::span<const uint8_t> payload) const {
    auto journal = JournalWriter::Open(CheckpointJournalPath(CkptDir()));
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(
        journal
            ->Append(static_cast<uint32_t>(CheckpointRecordType::kCellComplete),
                     payload)
            .ok());
    ASSERT_TRUE(journal->Sync().ok());
  }

  // The model file bytes of every cell in `a` equal those in `b`.
  static void ExpectModelFilesEqual(const StreamRunResult& a,
                                    const StreamRunResult& b) {
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (const auto& [id, cell] : a.cells) {
      SCOPED_TRACE(id.ToString());
      auto it = b.cells.find(id);
      ASSERT_NE(it, b.cells.end());
      EXPECT_TRUE(EncodeModel(cell.model) == EncodeModel(it->second.model));
    }
  }

  PipelineBuilder Builder(bool accelerate = true) const {
    KMeansConfig partial;
    partial.k = 4;
    partial.restarts = 2;
    partial.seed = 7;
    partial.lloyd.accelerate = accelerate;
    MergeKMeansConfig merge;
    merge.k = 4;
    merge.lloyd.accelerate = accelerate;
    ResourceModel resources;
    resources.cores = 3;
    resources.memory_bytes_per_operator = 6 * 8 * 4 * 100;  // ~100-pt chunks
    return PipelineBuilder()
        .WithPartialKMeans(partial)
        .WithMerge(merge)
        .WithResources(resources);
  }

  static void ExpectRunsBitwiseEqual(const StreamRunResult& a,
                                     const StreamRunResult& b) {
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (const auto& [id, cell] : a.cells) {
      SCOPED_TRACE(id.ToString());
      auto it = b.cells.find(id);
      ASSERT_NE(it, b.cells.end());
      EXPECT_EQ(cell.model.centroids, it->second.model.centroids);
      EXPECT_EQ(cell.model.weights, it->second.model.weights);
      EXPECT_EQ(cell.model.sse, it->second.model.sse);
    }
  }
};

TEST_F(CheckpointEngineTest, ResumedRunIsBitwiseIdentical) {
  const std::vector<std::string> paths = WriteBuckets(3, 400);
  auto reference = Builder().Run(paths);
  ASSERT_TRUE(reference.ok()) << reference.status();

  MetricsRegistry registry;
  auto full = Builder()
                  .WithCheckpoint(CkptDir())
                  .WithMetrics(&registry)
                  .Run(paths);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->report.checkpoint_cells, 3u);
  EXPECT_EQ(full->report.cells_resumed, 0u);
  EXPECT_FALSE(full->report.checkpoint_degraded);
  ExpectRunsBitwiseEqual(*reference, *full);
  EXPECT_NE(registry.ToJson().Dump(2).find("checkpoint.records"),
            std::string::npos);
  {
    auto loaded = LoadCheckpoint(CkptDir());
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->run_complete);
  }
  const std::vector<char> journal = ReadJournal();

  // Interrupted after one cell: keep header + kRunBegin + first cell
  // record, exactly as if the process died mid-run.
  KeepJournalRecords(2);
  auto resumed = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 1u);
  EXPECT_EQ(resumed->cells.size(), 3u);
  EXPECT_EQ(resumed->report.checkpoint_cells, 2u);
  ExpectRunsBitwiseEqual(*reference, *resumed);

  // Interrupted after every cell but before the kRunEnd seal: nothing to
  // execute, the result is reconstructed from the journal alone.
  WriteJournal(std::vector<char>(
      journal.begin(),
      journal.end() - static_cast<ptrdiff_t>(internal::kRecordFixedBytes)));
  auto all_restored = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(all_restored.ok()) << all_restored.status();
  EXPECT_EQ(all_restored->report.cells_resumed, 3u);
  ExpectRunsBitwiseEqual(*reference, *all_restored);
  // ... and that run re-seals the journal.
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->run_complete);
}

TEST_F(CheckpointEngineTest, PruningSwitchDoesNotBlockResume) {
  // LloydConfig::accelerate changes no output byte, so the fingerprint
  // ignores it: a journal written with pruning off resumes with it on.
  const std::vector<std::string> paths = WriteBuckets(3, 400);
  auto reference =
      Builder(/*accelerate=*/false).WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(reference.ok()) << reference.status();
  // Keep header + kRunBegin + the first cell, as if killed after it.
  KeepJournalRecords(2);
  auto resumed =
      Builder(/*accelerate=*/true).WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 1u);

  ExpectModelFilesEqual(*reference, *resumed);
}

TEST_F(CheckpointEngineTest, UnknownRecordTypesAreSkippedOnResume) {
  // Type 3 is retired and 99 is from some newer build. Replay skips and
  // counts both; the cell journaled before them still resumes, and the
  // resumed run is bitwise-equal to an uninterrupted one.
  const std::vector<std::string> paths = WriteBuckets(3, 400);
  auto reference = Builder().Run(paths);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(Builder().WithCheckpoint(CkptDir()).Run(paths).ok());
  KeepJournalRecords(2);  // kRunBegin + the first cell
  {
    auto journal = JournalWriter::Open(CheckpointJournalPath(CkptDir()));
    ASSERT_TRUE(journal.ok()) << journal.status();
    const std::vector<uint8_t> payload{1, 0, 0, 0, 7, 0, 0, 0};
    ASSERT_TRUE(journal->Append(3, payload).ok());
    ASSERT_TRUE(journal->Append(99, payload).ok());
    ASSERT_TRUE(journal->Sync().ok());
  }
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->records_dropped, 2u);
  EXPECT_EQ(loaded->completed.size(), 1u);
  EXPECT_FALSE(loaded->run_complete);

  auto resumed = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 1u);
  EXPECT_EQ(resumed->report.checkpoint_cells, 2u);
  ExpectRunsBitwiseEqual(*reference, *resumed);
  loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->run_complete);
  EXPECT_EQ(loaded->completed.size(), 3u);
}

TEST_F(CheckpointEngineTest, MalformedCellRecordIsDroppedAndRecomputed) {
  // A CRC-valid kCellComplete record whose model holds a NaN centroid
  // must not resume: replay drops it, the cell is clustered again, and
  // every model file equals an uninterrupted run's.
  const std::vector<std::string> paths = WriteBuckets(3, 400);
  auto reference = Builder().Run(paths);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(Builder().WithCheckpoint(CkptDir()).Run(paths).ok());
  KeepJournalRecords(1);  // kRunBegin only
  CellClustering poisoned = reference->cells.begin()->second;
  std::vector<double> values = poisoned.model.centroids.values();
  values[0] = std::numeric_limits<double>::quiet_NaN();
  poisoned.model.centroids =
      MustDataset(poisoned.model.centroids.dim(), std::move(values));
  AppendCellRecord(EncodeCellComplete(poisoned));
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->records_dropped, 1u);
  EXPECT_TRUE(loaded->completed.empty());

  auto resumed = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 0u);
  EXPECT_EQ(resumed->report.checkpoint_cells, 3u);
  ExpectModelFilesEqual(*reference, *resumed);
}

TEST_F(CheckpointEngineTest, VersionOneCellRecordIsDroppedAndRecomputed) {
  // A journal written before cell records carried the .pmkm bytes: its
  // version-1 record (the former golden payload, renamed to the run's
  // first cell) is CRC-valid but undecodable, so replay drops it and the
  // cell is clustered again.
  const std::vector<std::string> paths = WriteBuckets(3, 400);
  auto reference = Builder().Run(paths);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(Builder().WithCheckpoint(CkptDir()).Run(paths).ok());
  KeepJournalRecords(1);  // kRunBegin only
  const std::string v1_hex =
      "0100000003000000fdffffff39300000000000002800000000000000"
      "000000000000c03f0300000000000000020000000000000000000000"
      "0000f83f00000000000000800100000000000000a0c8eb85f3cce17f"
      "00000000000002c0343333333333d33f020000000000000000000000"
      "00c08240000000000000e03fe4c164934d364540c5505227f9266c3f"
      "110000000000000001000000";
  std::vector<uint8_t> v1;
  for (size_t i = 0; i < v1_hex.size(); i += 2) {
    v1.push_back(
        static_cast<uint8_t>(std::stoi(v1_hex.substr(i, 2), nullptr, 16)));
  }
  const GridCellId first = reference->cells.begin()->first;
  for (size_t b = 0; b < 4; ++b) {
    v1[4 + b] = static_cast<uint8_t>(first.lat_index >> (8 * b));
    v1[8 + b] = static_cast<uint8_t>(first.lon_index >> (8 * b));
  }
  AppendCellRecord(v1);
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->records_dropped, 1u);
  EXPECT_TRUE(loaded->completed.empty());

  auto resumed = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 0u);
  EXPECT_EQ(resumed->report.checkpoint_cells, 3u);
  ExpectModelFilesEqual(*reference, *resumed);
}

TEST_F(CheckpointEngineTest, NoResumeRecomputesEverything) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  auto first = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second =
      Builder().WithCheckpoint(CkptDir()).WithResume(false).Run(paths);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->report.cells_resumed, 0u);
  EXPECT_EQ(second->report.checkpoint_cells, 2u);
}

// A zero sync interval is refused, not read as 1: the flag path
// (--checkpoint_sync=0) already rejects it, and so does the builder.
TEST_F(CheckpointEngineTest, ZeroSyncIntervalIsInvalidArgument) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  auto run = Builder().WithCheckpoint(CkptDir(), 0).Run(paths);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument()) << run.status();
  EXPECT_FALSE(fs::exists(CheckpointJournalPath(CkptDir())));
}

TEST_F(CheckpointEngineTest, DifferentConfigDoesNotResume) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  auto first = Builder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(first.ok()) << first.status();
  // Interrupt the journal so it would be resumable under the same config.
  std::vector<char> bytes = ReadJournal();
  bytes.resize(bytes.size() - internal::kRecordFixedBytes);
  WriteJournal(bytes);

  KMeansConfig partial;
  partial.k = 5;  // different k → different fingerprint
  partial.restarts = 2;
  partial.seed = 7;
  MergeKMeansConfig merge;
  merge.k = 5;
  auto other = Builder()
                   .WithPartialKMeans(partial)
                   .WithMerge(merge)
                   .WithCheckpoint(CkptDir())
                   .Run(paths);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(other->report.cells_resumed, 0u);
  for (const auto& [id, cell] : other->cells) {
    EXPECT_EQ(cell.model.k(), 5u) << id.ToString();
  }
}

// The fingerprint a default-configured run journals (MISR-like D = 6, so
// N' = 16 MiB / (6 * 8 * 4) points). It hashes the partial's random
// seeding and the merge's one restart, heaviest seeding and seed 1 as
// constants in the slots they held while they were settable; a change
// here would discard every journal written before it instead of resuming.
TEST_F(CheckpointEngineTest, DefaultConfigFingerprintIsPinned) {
  const std::vector<std::string> paths = WriteBuckets(1, 60);
  auto run = PipelineBuilder().WithCheckpoint(CkptDir()).Run(paths);
  ASSERT_TRUE(run.ok()) << run.status();
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->fingerprint_known);
  EXPECT_EQ(loaded->config_fingerprint, 0xd7df6484901a23e8ull);
}

TEST_F(CheckpointEngineTest, ResumeStillRejectsTwoBucketsOfOneCell) {
  // A degraded run (its empty bucket is quarantined) journals cells 1 and
  // 2 and leaves the journal open. The next run lists a second bucket of
  // cell 1: the journal must not hide it from the scan, so cell 1 is
  // quarantined again instead of being restored from the first bucket.
  std::vector<std::string> paths = WriteBuckets(2, 300);
  const std::string empty = (dir_ / "empty.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(empty, GridBucket{{9, 9}, Dataset(6)}).ok());
  const PipelineBuilder builder = Builder()
                                      .WithCheckpoint(CkptDir())
                                      .WithFailurePolicy(
                                          FailurePolicy::kSkipAndContinue);
  auto first = builder.Run({paths[0], paths[1], empty});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->report.degraded);
  ASSERT_EQ(first->report.checkpoint_cells, 2u);

  const std::string again = (dir_ / "again.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(again, MakeBucket(1, 300, 55)).ok());
  auto resumed = builder.Run({paths[0], paths[1], again});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->report.cells_resumed, 1u);
  ASSERT_EQ(resumed->cells.size(), 1u);
  EXPECT_EQ(resumed->cells.count(GridCellId{2, 2}), 1u);
  ASSERT_EQ(resumed->report.quarantined.size(), 1u)
      << resumed->report.Summary();
  EXPECT_EQ(resumed->report.quarantined[0].path, again);
  EXPECT_TRUE(resumed->report.degraded);
}

TEST_F(CheckpointEngineTest, OpenFailureDegradesUnderSkipPolicy) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  // The kRunBegin append in Open() hits "checkpoint.append" first.
  FaultRegistry::Global().Arm("checkpoint.append",
                              FaultSpec{.nth = 1, .message = ""});
  auto failfast = Builder().WithCheckpoint(CkptDir()).Run(paths);
  EXPECT_FALSE(failfast.ok());

  FaultRegistry::Global().Reset();
  FaultRegistry::Global().Arm("checkpoint.append",
                              FaultSpec{.nth = 1, .message = ""});
  auto tolerant = Builder()
                      .WithCheckpoint(CkptDir())
                      .WithFailurePolicy(FailurePolicy::kSkipAndContinue)
                      .Run(paths);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status();
  EXPECT_TRUE(tolerant->report.checkpoint_degraded);
  EXPECT_EQ(tolerant->cells.size(), 2u);
  EXPECT_FALSE(tolerant->report.degraded);  // the clustering itself is fine
}

TEST_F(CheckpointEngineTest, AppendFailureLatchesInsteadOfFailing) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  // kRunBegin (hit 1) succeeds; every cell append after that fails.
  FaultRegistry::Global().Arm(
      "checkpoint.append", FaultSpec{.nth = 2, .permanent = true,
                                     .message = ""});
  auto run = Builder()
                 .WithCheckpoint(CkptDir())
                 .WithFailurePolicy(FailurePolicy::kSkipAndContinue)
                 .Run(paths);
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->cells.size(), 2u);
  EXPECT_TRUE(run->report.checkpoint_degraded);
  // No kRunEnd was written: the journal is not falsely marked complete.
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->run_complete);
  EXPECT_TRUE(loaded->completed.empty());
}

TEST_F(CheckpointEngineTest, AppendFailureFailsUnderRetryPolicy) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  // kRunBegin (hit 1) succeeds; the first cell append fails. Only skip
  // degrades a checkpoint; failfast with a retry budget fails, as it does
  // without one.
  FaultRegistry::Global().Arm(
      "checkpoint.append", FaultSpec{.nth = 2, .permanent = true,
                                     .message = ""});
  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kFailFast;
  exec.io_retry.max_attempts = 3;
  auto run = Builder().WithCheckpoint(CkptDir()).WithExecution(exec).Run(
      paths);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsIOError()) << run.status();
}

TEST_F(CheckpointEngineTest, FinalizeFailureFailsUnderRetryPolicy) {
  const std::vector<std::string> paths = WriteBuckets(2, 300);
  // Hits: kRunBegin, one kCellComplete per cell, then kRunEnd.
  FaultRegistry::Global().Arm("checkpoint.append",
                              FaultSpec{.nth = 4, .message = ""});
  StreamExecOptions exec;
  exec.failure_policy = FailurePolicy::kFailFast;
  exec.io_retry.max_attempts = 3;
  auto run = Builder().WithCheckpoint(CkptDir()).WithExecution(exec).Run(
      paths);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsIOError()) << run.status();
  // The two cells were journaled before the seal failed: a re-run
  // resumes them.
  auto loaded = LoadCheckpoint(CkptDir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->run_complete);
  EXPECT_EQ(loaded->completed.size(), 2u);
}

}  // namespace
}  // namespace pmkm

#include "stream/checkpoint.h"

#include <chrono>
#include <filesystem>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmkm {

namespace {

// Payloads use the common/bytes.h codec, which stores doubles as their
// IEEE-754 bit pattern so a resumed run restores exactly the doubles the
// crashed run computed — bitwise identity is the whole point of
// checkpointing a deterministic pipeline.

// Payload schema versions, bumped independently of the journal framing.
constexpr uint32_t kCellPayloadVersion = 1;

// Dimensionality/row-count sanity caps: a CRC-valid but nonsense payload
// must not drive a multi-gigabyte allocation.
constexpr uint64_t kMaxDim = 1u << 20;
constexpr uint64_t kMaxRows = 1u << 28;

Status DecodeDataset(ByteReader* reader, Dataset* out) {
  uint64_t dim = 0, rows = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU64(&dim));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&rows));
  if (dim == 0 || dim > kMaxDim || rows > kMaxRows) {
    return Status::IOError("checkpoint payload has implausible dataset "
                            "shape");
  }
  if (rows * dim > reader->remaining() / 8) {
    return Status::IOError("checkpoint payload truncated: dataset rows");
  }
  std::vector<double> flat(rows * dim);
  for (auto& v : flat) PMKM_RETURN_NOT_OK(reader->ReadF64(&v));
  PMKM_ASSIGN_OR_RETURN(*out, Dataset::FromFlat(dim, std::move(flat)));
  return Status::OK();
}

void EncodeDataset(std::vector<uint8_t>* out, const Dataset& data) {
  PutU64(out, data.dim());
  PutU64(out, data.size());
  for (double v : data.values()) PutF64(out, v);
}

Status ReadCellComplete(ByteReader* reader, CellClustering* cell) {
  uint32_t version = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU32(&version));
  if (version != kCellPayloadVersion) {
    return Status::IOError("unknown cell-complete payload version");
  }
  PMKM_RETURN_NOT_OK(reader->ReadI32(&cell->cell.lat_index));
  PMKM_RETURN_NOT_OK(reader->ReadI32(&cell->cell.lon_index));
  uint64_t input_points = 0, pooled = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU64(&input_points));
  PMKM_RETURN_NOT_OK(reader->ReadU64(&pooled));
  cell->input_points = input_points;
  cell->pooled_centroids = pooled;
  PMKM_RETURN_NOT_OK(reader->ReadF64(&cell->merge_seconds));
  PMKM_RETURN_NOT_OK(DecodeDataset(reader, &cell->model.centroids));
  PMKM_RETURN_NOT_OK(reader->ReadF64Vec(&cell->model.weights));
  PMKM_RETURN_NOT_OK(reader->ReadF64(&cell->model.sse));
  PMKM_RETURN_NOT_OK(reader->ReadF64(&cell->model.mse_per_point));
  uint64_t iterations = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU64(&iterations));
  cell->model.iterations = iterations;
  uint32_t converged = 0;
  PMKM_RETURN_NOT_OK(reader->ReadU32(&converged));
  cell->model.converged = converged != 0;
  return ValidateModelValues(cell->model);
}

}  // namespace

std::string CheckpointJournalPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "journal.pmkj").string();
}

std::vector<uint8_t> EncodeCellComplete(
    const CellClustering& cell) PMKM_DETERMINISTIC {
  std::vector<uint8_t> out;
  PutU32(&out, kCellPayloadVersion);
  PutI32(&out, cell.cell.lat_index);
  PutI32(&out, cell.cell.lon_index);
  PutU64(&out, cell.input_points);
  PutU64(&out, cell.pooled_centroids);
  PutF64(&out, cell.merge_seconds);
  EncodeDataset(&out, cell.model.centroids);
  PutU64(&out, cell.model.weights.size());
  for (double w : cell.model.weights) PutF64(&out, w);
  PutF64(&out, cell.model.sse);
  PutF64(&out, cell.model.mse_per_point);
  PutU64(&out, cell.model.iterations);
  PutU32(&out, cell.model.converged ? 1 : 0);
  return out;
}

Result<CellClustering> DecodeCellComplete(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  CellClustering cell;
  if (const Status st = ReadCellComplete(&reader, &cell); !st.ok()) {
    return Status::IOError("corrupt cell-complete payload: " + st.message());
  }
  return cell;
}

CheckpointState ReplayCheckpointJournal(const JournalRecovery& recovery) {
  CheckpointState state;
  state.journal_found = true;
  state.epoch = recovery.epoch;
  state.torn_tail = recovery.torn_tail;
  state.tail_error = recovery.tail_error;
  for (const JournalRecord& record : recovery.records) {
    switch (static_cast<CheckpointRecordType>(record.type)) {
      case CheckpointRecordType::kRunBegin: {
        ByteReader reader(record.payload);
        uint64_t fp = 0;
        if (reader.ReadU64(&fp).ok()) {
          // A later kRunBegin (journal reused across runs) supersedes —
          // everything before it belongs to an older run, so drop it.
          state.completed.clear();
          state.config_fingerprint = fp;
          state.fingerprint_known = true;
          state.run_complete = false;
          // The writing run's id trails the fingerprint (absent in old
          // journals, which is fine).
          state.run_id.assign(record.payload.begin() + 8,
                              record.payload.end());
        } else {
          ++state.records_dropped;
        }
        break;
      }
      case CheckpointRecordType::kCellComplete: {
        Result<CellClustering> cell = DecodeCellComplete(record.payload);
        if (cell.ok()) {
          const GridCellId id = cell.value().cell;
          state.completed.insert_or_assign(id, std::move(cell).value());
        } else {
          ++state.records_dropped;
        }
        break;
      }
      case CheckpointRecordType::kRunEnd:
        state.run_complete = true;
        break;
      default:
        // Unknown record type (including the retired type 3):
        // forward-compat skip, count it.
        ++state.records_dropped;
        break;
    }
  }
  return state;
}

Result<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointJournalPath(dir);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    CheckpointState state;
    state.journal_found = false;
    return state;
  }
  PMKM_ASSIGN_OR_RETURN(JournalRecovery recovery, RecoverJournal(path));
  return ReplayCheckpointJournal(recovery);
}

Result<CheckpointWriter> CheckpointWriter::Open(
    const CheckpointOptions& options, uint64_t config_fingerprint,
    const ObsContext& obs) {
  if (!options.enabled()) {
    return Status::InvalidArgument("checkpoint directory not set");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir: " + options.dir +
                           " (" + ec.message() + ")");
  }

  CheckpointWriter writer;
  writer.options_ = options;
  writer.obs_ = obs;

  const std::string path = CheckpointJournalPath(options.dir);
  bool start_fresh = !options.resume;
  if (!start_fresh) {
    PMKM_ASSIGN_OR_RETURN(CheckpointState loaded, LoadCheckpoint(options.dir));
    if (loaded.journal_found && loaded.fingerprint_known &&
        loaded.config_fingerprint != config_fingerprint) {
      PMKM_LOG(Warning)
          << "checkpoint " << path << " was written under a different "
          << "configuration (fingerprint " << loaded.config_fingerprint
          << " != " << config_fingerprint << "); starting fresh";
      start_fresh = true;
    } else if (loaded.journal_found && loaded.run_complete) {
      // The previous run finished; its journal is stale for a new run.
      start_fresh = true;
    } else {
      writer.recovered_ = std::move(loaded);
    }
  }

  PMKM_ASSIGN_OR_RETURN(JournalWriter journal,
                        JournalWriter::Open(path, /*truncate=*/start_fresh));
  writer.journal_.emplace(std::move(journal));

  if (writer.recovered_.torn_tail) {
    PMKM_LOG(Warning) << "checkpoint " << path
                      << " had a torn tail (truncated to epoch "
                      << writer.recovered_.epoch
                      << "): " << writer.recovered_.tail_error;
  }
  if (writer.recovered_.records_dropped > 0) {
    PMKM_LOG(Warning) << "checkpoint " << path << " dropped "
                      << writer.recovered_.records_dropped
                      << " undecodable record(s)";
  }

  if (!writer.recovered_.fingerprint_known) {
    std::vector<uint8_t> payload;
    PutU64(&payload, config_fingerprint);
    // The run id rides after the fingerprint; old decoders ignore
    // trailing payload bytes, so this stays resume-compatible.
    payload.insert(payload.end(), obs.run_id.begin(), obs.run_id.end());
    PMKM_RETURN_NOT_OK(writer.Append(CheckpointRecordType::kRunBegin,
                                     payload));
    PMKM_RETURN_NOT_OK(writer.SyncNow());
  }
  return writer;
}

Status CheckpointWriter::Append(CheckpointRecordType type,
                                std::span<const uint8_t> payload) {
  PMKM_CHECK(journal_.has_value());
  PMKM_FAULT_POINT("checkpoint.append");
  const auto start = std::chrono::steady_clock::now();
  PMKM_RETURN_NOT_OK(
      journal_->Append(static_cast<uint32_t>(type), payload));
  if (obs_.metrics != nullptr) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    obs_.metrics->counter("checkpoint.records").Increment(1);
    obs_.metrics->counter("checkpoint.bytes")
        .Increment(payload.size() + internal::kRecordFixedBytes);
    obs_.metrics->histogram("checkpoint.append_us").Record(us);
  }
  ++unsynced_;
  if (unsynced_ >= std::max<size_t>(1, options_.sync_interval)) {
    return SyncNow();
  }
  return Status::OK();
}

Status CheckpointWriter::SyncNow() {
  PMKM_CHECK(journal_.has_value());
  if (unsynced_ == 0) return Status::OK();
  const auto start = std::chrono::steady_clock::now();
  PMKM_RETURN_NOT_OK(journal_->Sync());
  if (obs_.metrics != nullptr) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    obs_.metrics->histogram("checkpoint.fsync_us").Record(us);
  }
  unsynced_ = 0;
  return Status::OK();
}

Status CheckpointWriter::AppendCellComplete(const CellClustering& cell) {
  ScopedSpan span(obs_.trace, "checkpoint.cell", "checkpoint");
  if (span.enabled()) span.AddArg("cell", JsonValue(cell.cell.ToString()));
  PMKM_RETURN_NOT_OK(Append(CheckpointRecordType::kCellComplete,
                            EncodeCellComplete(cell)));
  ++cells_appended_;
  return Status::OK();
}

Status CheckpointWriter::Finalize() {
  PMKM_CHECK(journal_.has_value());
  if (finalized_) return Status::OK();
  PMKM_RETURN_NOT_OK(Append(CheckpointRecordType::kRunEnd, {}));
  PMKM_RETURN_NOT_OK(SyncNow());
  finalized_ = true;
  return Status::OK();
}

uint64_t CheckpointWriter::epoch() const {
  PMKM_CHECK(journal_.has_value());
  return journal_->next_seq() - 1;
}

uint64_t CheckpointWriter::bytes_appended() const {
  PMKM_CHECK(journal_.has_value());
  return journal_->bytes_appended();
}

}  // namespace pmkm

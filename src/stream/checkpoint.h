// Checkpoint/restore for streamed partial/merge runs (DESIGN.md §13).
//
// The paper's one-pass design exists because the data is too big to
// revisit — so a crash at bucket 9,999 of 10,000 must not force a full
// re-read. This layer makes the run's progress durable: every completed
// cell clustering is appended to a crash-safe journal (data/manifest.h) in
// the checkpoint directory, and a restarted run resumes from the last
// committed record instead of restarting.
//
//   dir/journal.pmkj     append-only record journal (the manifest format)
//
// Record semantics (payloads are little-endian, encoded/decoded here):
//
//   kRunBegin      config fingerprint — resuming under a different
//                  engine configuration silently starts fresh (mixing
//                  models computed under different configs would corrupt
//                  the run's statistical contract).
//   kCellComplete  one finished cell: id + its full ClusteringModel
//                  (bit-exact doubles, so a resumed run's output is
//                  bitwise-identical to an uninterrupted one).
//   kRunEnd        clean end of run.
//
// A record of any other type (including the retired type 3) is skipped
// and counted in CheckpointState::records_dropped, so a journal written
// by a build that knows more record types still resumes.
//
// Failure contract: corruption is never fatal. A torn tail or flipped bit
// bounds the valid prefix (recovery lands on the last valid epoch), the
// affected cells are simply re-clustered, and an unreadable journal under
// kSkipAndContinue degrades the run to uncheckpointed instead of failing
// it — the same "quarantine and continue" stance the scan takes on
// corrupt buckets.

#ifndef PMKM_STREAM_CHECKPOINT_H_
#define PMKM_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "data/manifest.h"
#include "obs/stats.h"
#include "stream/ops.h"

namespace pmkm {

/// Where and how often a run checkpoints.
struct CheckpointOptions {
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string dir;

  /// fsync the journal every N appended cell records (1 = every cell:
  /// maximum durability; larger values batch fsyncs and bound data loss
  /// to the last N cells).
  size_t sync_interval = 1;

  /// When false, an existing journal is discarded and the run starts
  /// fresh (pmkm_cluster --no-resume).
  bool resume = true;

  bool enabled() const { return !dir.empty(); }
};

/// Journal record types (the `type` field of data/manifest.h records).
enum class CheckpointRecordType : uint32_t {
  kRunBegin = 1,
  kCellComplete = 2,
  // 3 was a per-cell partial-merge snapshot that no run ever resumed
  // from. Never reuse it: old journals may hold such records, and replay
  // must keep skipping them as unknown.
  kRunEnd = 4,
};

/// The replayed content of a checkpoint journal.
struct CheckpointState {
  /// False when no journal file existed at all.
  bool journal_found = false;

  /// Fingerprint from the kRunBegin record (when one was recovered).
  uint64_t config_fingerprint = 0;
  bool fingerprint_known = false;

  /// Run id of the run that wrote the journal (trailing bytes of the
  /// kRunBegin payload; empty for journals from before run ids existed —
  /// decoders ignore trailing bytes, so the formats interoperate).
  std::string run_id;

  /// Sequence number of the last valid record — the epoch recovery landed
  /// on. 0 for an empty/missing journal.
  uint64_t epoch = 0;

  /// True when a kRunEnd record was recovered (the previous run finished).
  bool run_complete = false;

  /// True when recovery discarded a torn/corrupt tail.
  bool torn_tail = false;
  std::string tail_error;

  /// CRC-valid records whose payload failed to decode (version skew,
  /// adversarial corruption that survived CRC) or whose type this build
  /// does not know. Counted, never fatal.
  size_t records_dropped = 0;

  /// Completed cells, last record wins. A resumed run restores these
  /// verbatim and re-clusters only what is missing.
  std::map<GridCellId, CellClustering> completed;
};

/// `<dir>/journal.pmkj`.
std::string CheckpointJournalPath(const std::string& dir);

/// Replays recovered journal records into a CheckpointState. Decode
/// failures are counted in records_dropped, never returned as errors.
CheckpointState ReplayCheckpointJournal(const JournalRecovery& recovery);

/// Read-only load of the checkpoint in `dir` (used by pmkm_inspect and by
/// tests). Missing journal → journal_found=false, no error.
Result<CheckpointState> LoadCheckpoint(const std::string& dir);

/// Payload codecs, exposed for pmkm_inspect and the round-trip tests.
std::vector<uint8_t> EncodeCellComplete(const CellClustering& cell);
Result<CellClustering> DecodeCellComplete(
    std::span<const uint8_t> payload);

/// Appends checkpoint records for one run. Open() recovers any existing
/// journal (truncating a torn tail), validates the config fingerprint
/// (mismatch → start fresh), and exposes the recovered state the engine
/// resumes from. Not thread-safe: owned by the single merge operator.
class CheckpointWriter {
 public:
  /// Opens (creating if needed) the checkpoint in `options.dir`.
  /// `config_fingerprint` identifies the run configuration; a journal
  /// written under a different fingerprint is discarded with a warning.
  /// Observability sinks are optional; when present the writer emits
  /// checkpoint.* metrics and trace spans.
  static Result<CheckpointWriter> Open(const CheckpointOptions& options,
                                       uint64_t config_fingerprint,
                                       const ObsContext& obs = ObsContext{});

  CheckpointWriter(CheckpointWriter&&) = default;
  CheckpointWriter& operator=(CheckpointWriter&&) = default;

  /// State recovered by Open() (empty after rotation/fresh start).
  const CheckpointState& recovered() const { return recovered_; }

  /// Appends one completed cell. Durable after the sync-interval'th
  /// append (and at Finalize()). Fault site: "checkpoint.append".
  Status AppendCellComplete(const CellClustering& cell) PMKM_DETERMINISTIC;

  /// Marks the run complete (kRunEnd) and fsyncs. Idempotent for a run
  /// that appended nothing on top of an already-complete journal.
  Status Finalize();

  /// Journal epoch after the most recent append.
  uint64_t epoch() const;

  /// Cell records appended by this writer (excludes recovered ones).
  size_t cells_appended() const { return cells_appended_; }

  uint64_t bytes_appended() const;

 private:
  CheckpointWriter() = default;

  Status Append(CheckpointRecordType type,
                std::span<const uint8_t> payload);
  Status SyncNow();

  CheckpointOptions options_;
  std::optional<JournalWriter> journal_;
  CheckpointState recovered_;
  ObsContext obs_;
  size_t cells_appended_ = 0;
  size_t unsynced_ = 0;
  bool finalized_ = false;
};

}  // namespace pmkm

#endif  // PMKM_STREAM_CHECKPOINT_H_

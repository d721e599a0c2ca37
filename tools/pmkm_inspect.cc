// pmkm_inspect — prints a human-readable summary of pmkm binary files:
// grid buckets (.pmkb) and clustering models (.pmkm). The file type is
// sniffed from the magic, not the extension.
//
//   $ pmkm_inspect buckets/cell_10_20.pmkb models/cell_10_20.pmkm
//
// Subcommands for the observability exports of `pmkm_cluster`:
//
//   $ pmkm_inspect metrics run.metrics.json   # registry summary
//   $ pmkm_inspect trace run.trace.json       # top slowest spans
//   $ pmkm_inspect profile run.folded         # top frames by CPU samples
//
// For checkpoint directories written by `pmkm_cluster --checkpoint_dir`
// (DESIGN.md §13) — dumps the journal as JSON: every record, the recovered
// epoch, checksum/torn-tail status and the resumable position:
//
//   $ pmkm_inspect checkpoint ckpt/           # or ckpt/journal.pmkj
//
// And for the concurrency-analysis layer (DESIGN.md §12):
//
//   $ pmkm_inspect lockgraph run.lockgraph.json         # class/edge summary
//   $ pmkm_inspect lockgraph --dot run.lockgraph.json   # graphviz DOT
//
// The lock-graph JSON is written by a PMKM_SCHEDCHECK=ON binary at process
// exit when PMKM_LOCKGRAPH_OUT=<path> is set.
//
// Every failure path funnels through one renderer and exits with the
// sysexits-style code derived from its Status (StatusExitCode): 66 for a
// missing file, 74 for I/O corruption, 65 for parseable-but-wrong input,
// 64 for bad flags. With several inputs, each failure is reported and the
// exit code is the first failure's.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>

#include <filesystem>

#include "cluster/serialize.h"
#include "common/flags.h"
#include "common/status.h"
#include "data/io.h"
#include "data/manifest.h"
#include "data/stats.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/stats.h"
#include "stream/checkpoint.h"

namespace {

// The one error renderer: every failure prints here and the exit code is
// always derived from the Status, never an ad-hoc `return 1`.
int Fail(const std::string& context, const pmkm::Status& st) {
  std::cerr << "pmkm_inspect: " << context << ": " << st << "\n";
  return pmkm::StatusExitCode(st);
}

pmkm::Status InspectBucket(const std::string& path) {
  auto header = pmkm::GridBucketReader::Open(path);
  if (!header.ok()) return header.status();
  auto bucket = pmkm::ReadGridBucket(path);
  if (!bucket.ok()) return bucket.status();
  const pmkm::Dataset& points = bucket->points;
  std::cout << path << ": grid bucket\n"
            << "  version : " << header->version()
            << (header->version() == 1 ? " (FNV-1a trailer)\n"
                                       : " (XXH64 trailer)\n")
            << "  cell    : " << bucket->cell.ToString() << "\n";
  if (points.empty()) {
    std::cout << "  empty (0 points, dim " << points.dim() << ")\n";
    return pmkm::Status::OK();
  }
  auto profile = pmkm::ProfileDataset(points);
  if (!profile.ok()) return profile.status();
  std::cout << "  " << profile->ToString();
  return pmkm::Status::OK();
}

pmkm::Status InspectModel(const std::string& path) {
  auto model = pmkm::LoadModel(path);
  if (!model.ok()) return model.status();
  const double mass =
      std::accumulate(model->weights.begin(), model->weights.end(), 0.0);
  std::cout << path << ": clustering model\n"
            << "  k          : " << model->k() << " x " << model->dim()
            << "\n"
            << "  weight     : " << mass << "\n"
            << "  E (sse)    : " << model->sse << "\n"
            << "  E / weight : " << model->mse_per_point << "\n"
            << "  iterations : " << model->iterations
            << (model->converged ? " (converged)" : " (cap hit)") << "\n";
  std::vector<size_t> order(model->k());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return model->weights[a] > model->weights[b];
  });
  std::cout << "  heaviest   :\n";
  for (size_t i = 0; i < std::min<size_t>(3, order.size()); ++i) {
    const size_t j = order[i];
    std::printf("    #%-3zu w=%-10.1f [", j, model->weights[j]);
    for (size_t d = 0; d < model->dim(); ++d) {
      std::printf("%s%.2f", d > 0 ? ", " : "", model->centroids(j, d));
    }
    std::printf("]\n");
  }
  return pmkm::Status::OK();
}

pmkm::Result<pmkm::JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return pmkm::Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return pmkm::JsonValue::Parse(buf.str());
}

double NumberOr(const pmkm::JsonValue* v, double fallback = 0.0) {
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

// `pmkm_inspect metrics run.metrics.json`: the registry JSON written by
// `pmkm_cluster --metrics_out`, pretty-printed per instrument kind.
pmkm::Status InspectMetrics(const std::string& path) {
  auto doc = LoadJson(path);
  if (!doc.ok()) return doc.status();
  std::cout << path << ": metrics registry\n";
  if (const pmkm::JsonValue* counters = doc->Find("counters");
      counters != nullptr && counters->is_object()) {
    std::cout << "  counters (" << counters->size() << "):\n";
    for (const auto& [name, value] : counters->members()) {
      std::printf("    %-40s %.0f\n", name.c_str(), value.AsDouble());
    }
  }
  if (const pmkm::JsonValue* gauges = doc->Find("gauges");
      gauges != nullptr && gauges->is_object()) {
    std::cout << "  gauges (" << gauges->size() << "):\n";
    for (const auto& [name, value] : gauges->members()) {
      std::printf("    %-40s %.0f (max %.0f)\n", name.c_str(),
                  NumberOr(value.Find("value")),
                  NumberOr(value.Find("max")));
    }
  }
  if (const pmkm::JsonValue* hists = doc->Find("histograms");
      hists != nullptr && hists->is_object()) {
    std::cout << "  histograms (" << hists->size() << "):\n";
    for (const auto& [name, value] : hists->members()) {
      std::printf(
          "    %-40s n=%-6.0f p50=%-9.1f p95=%-9.1f p99=%-9.1f max=%.1f\n",
          name.c_str(), NumberOr(value.Find("count")),
          NumberOr(value.Find("p50")), NumberOr(value.Find("p95")),
          NumberOr(value.Find("p99")), NumberOr(value.Find("max")));
    }
  }
  return pmkm::Status::OK();
}

// `pmkm_inspect trace run.trace.json`: the Chrome trace written by
// `pmkm_cluster --trace_out`; per-category rollup plus the slowest spans.
pmkm::Status InspectTrace(const std::string& path) {
  auto doc = LoadJson(path);
  if (!doc.ok()) return doc.status();
  const pmkm::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return pmkm::Status::InvalidArgument(
        "no traceEvents array (not a Chrome trace?)");
  }
  struct Rollup {
    size_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, Rollup> by_name;
  std::vector<const pmkm::JsonValue*> spans;
  for (const pmkm::JsonValue& e : events->items()) {
    if (!e.is_object()) continue;
    const pmkm::JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    Rollup& r = by_name[name->AsString()];
    ++r.count;
    r.total_us += NumberOr(e.Find("dur"));
    spans.push_back(&e);
  }
  std::cout << path << ": chrome trace, " << spans.size() << " span(s)\n";
  std::cout << "  by name:\n";
  for (const auto& [name, r] : by_name) {
    std::printf("    %-28s x%-5zu total=%s\n", name.c_str(), r.count,
                pmkm::FormatSeconds(r.total_us * 1e-6).c_str());
  }
  std::sort(spans.begin(), spans.end(),
            [](const pmkm::JsonValue* a, const pmkm::JsonValue* b) {
              return NumberOr(a->Find("dur")) > NumberOr(b->Find("dur"));
            });
  const size_t top = std::min<size_t>(10, spans.size());
  std::cout << "  slowest " << top << ":\n";
  for (size_t i = 0; i < top; ++i) {
    const pmkm::JsonValue& e = *spans[i];
    std::printf("    %-28s tid=%-3.0f %s",
                e.Find("name")->AsString().c_str(),
                NumberOr(e.Find("tid")),
                pmkm::FormatSeconds(NumberOr(e.Find("dur")) * 1e-6).c_str());
    if (const pmkm::JsonValue* args = e.Find("args");
        args != nullptr && args->is_object() && args->size() > 0) {
      std::printf("  %s", args->Dump().c_str());
    }
    std::printf("\n");
  }
  return pmkm::Status::OK();
}

// `pmkm_inspect profile run.folded`: folded-stack CPU profile written by
// `pmkm_cluster --profile_out` (or /pprofz). Top frames by self samples,
// with self/total percentages — a terminal flamegraph substitute.
pmkm::Status InspectProfile(const std::string& path, int64_t top_n) {
  std::ifstream in(path);
  if (!in) return pmkm::Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  uint64_t total = 0;
  const std::vector<pmkm::obs::ProfileFrameTotals> rows =
      pmkm::obs::AggregateFolded(buf.str(), &total);
  std::cout << path << ": folded-stack profile, " << total
            << " sample(s), " << rows.size() << " distinct frame(s)\n";
  if (total == 0) return pmkm::Status::OK();
  const size_t top = std::min<size_t>(
      top_n > 0 ? static_cast<size_t>(top_n) : rows.size(), rows.size());
  std::printf("  %-52s %8s %6s %8s %6s\n", "frame", "self", "self%",
              "total", "tot%");
  for (size_t i = 0; i < top; ++i) {
    const pmkm::obs::ProfileFrameTotals& r = rows[i];
    std::string frame = r.frame;
    if (frame.size() > 52) frame = frame.substr(0, 49) + "...";
    std::printf("  %-52s %8llu %5.1f%% %8llu %5.1f%%\n", frame.c_str(),
                static_cast<unsigned long long>(r.self),
                100.0 * static_cast<double>(r.self) /
                    static_cast<double>(total),
                static_cast<unsigned long long>(r.total),
                100.0 * static_cast<double>(r.total) /
                    static_cast<double>(total));
  }
  return pmkm::Status::OK();
}

// `pmkm_inspect lockgraph run.lockgraph.json`: the lock-order graph dumped
// by a PMKM_SCHEDCHECK build (PMKM_LOCKGRAPH_OUT). Summarizes lock classes
// and ordering edges, flags same-class nestings, and with --dot re-emits
// the graph as graphviz for visual inspection.
pmkm::Status InspectLockGraph(const std::string& path, bool dot) {
  auto doc = LoadJson(path);
  if (!doc.ok()) return doc.status();
  const pmkm::JsonValue* classes = doc->Find("classes");
  const pmkm::JsonValue* edges = doc->Find("edges");
  if (classes == nullptr || !classes->is_array() || edges == nullptr ||
      !edges->is_array()) {
    return pmkm::Status::InvalidArgument(
        "no classes/edges arrays (not a lock-graph dump?)");
  }

  auto text = [](const pmkm::JsonValue& v, const char* key) {
    const pmkm::JsonValue* f = v.Find(key);
    return (f != nullptr && f->is_string()) ? f->AsString()
                                            : std::string("?");
  };

  if (dot) {
    std::cout << "digraph lockgraph {\n  rankdir=LR;\n  node [shape=box];\n";
    for (const pmkm::JsonValue& c : classes->items()) {
      std::cout << "  n" << NumberOr(c.Find("id")) << " [label=\""
                << text(c, "site") << "\\n(" << NumberOr(c.Find("instances"))
                << " live)\"];\n";
    }
    for (const pmkm::JsonValue& e : edges->items()) {
      const bool same = e.Find("same_class") != nullptr &&
                        e.Find("same_class")->is_bool() &&
                        e.Find("same_class")->AsBool();
      std::cout << "  n" << NumberOr(e.Find("from")) << " -> n"
                << NumberOr(e.Find("to")) << " [label=\"x"
                << NumberOr(e.Find("count")) << "\""
                << (same ? ", style=dashed" : "") << "];\n";
    }
    std::cout << "}\n";
    return pmkm::Status::OK();
  }

  std::cout << path << ": lock-order graph, " << classes->size()
            << " class(es), " << edges->size() << " edge(s)\n";
  std::cout << "  classes:\n";
  for (const pmkm::JsonValue& c : classes->items()) {
    std::printf("    #%-3.0f %-44s %.0f live instance(s)\n",
                NumberOr(c.Find("id")), text(c, "site").c_str(),
                NumberOr(c.Find("instances")));
  }
  std::cout << "  ordering edges (held -> acquired):\n";
  for (const pmkm::JsonValue& e : edges->items()) {
    const bool same = e.Find("same_class") != nullptr &&
                      e.Find("same_class")->is_bool() &&
                      e.Find("same_class")->AsBool();
    std::printf("    #%-3.0f -> #%-3.0f x%-6.0f %s -> %s%s\n",
                NumberOr(e.Find("from")), NumberOr(e.Find("to")),
                NumberOr(e.Find("count")), text(e, "from_site").c_str(),
                text(e, "to_site").c_str(),
                same ? "   [same class: explorer territory]" : "");
  }
  return pmkm::Status::OK();
}

// `pmkm_inspect checkpoint <dir|journal.pmkj>`: dumps a run journal as
// JSON — per-record listing, recovered epoch, checksum/torn-tail status,
// and the position a resumed run would continue from.
pmkm::Status InspectCheckpoint(const std::string& arg) {
  std::error_code ec;
  const std::string path = std::filesystem::is_directory(arg, ec)
                               ? pmkm::CheckpointJournalPath(arg)
                               : arg;
  pmkm::JsonValue doc = pmkm::JsonValue::Object();
  doc.Set("journal", path);
  if (!std::filesystem::exists(path, ec)) {
    doc.Set("found", false);
    std::cout << doc.Dump(2) << "\n";
    return pmkm::Status::OK();
  }
  auto recovery = pmkm::RecoverJournal(path);
  if (!recovery.ok()) return recovery.status();
  const pmkm::CheckpointState state =
      pmkm::ReplayCheckpointJournal(*recovery);

  doc.Set("found", true);
  doc.Set("epoch", recovery->epoch);
  doc.Set("valid_bytes", recovery->valid_bytes);
  doc.Set("torn_tail", recovery->torn_tail);
  if (recovery->torn_tail) doc.Set("tail_error", recovery->tail_error);
  doc.Set("run_complete", state.run_complete);
  if (state.fingerprint_known) {
    doc.Set("config_fingerprint",
            std::to_string(state.config_fingerprint));
  }
  doc.Set("records_dropped", state.records_dropped);

  pmkm::JsonValue records = pmkm::JsonValue::Array();
  for (const pmkm::JournalRecord& r : recovery->records) {
    pmkm::JsonValue rec = pmkm::JsonValue::Object();
    rec.Set("seq", r.seq);
    std::string type_name = "unknown(" + std::to_string(r.type) + ")";
    switch (static_cast<pmkm::CheckpointRecordType>(r.type)) {
      case pmkm::CheckpointRecordType::kRunBegin:
        type_name = "run_begin";
        break;
      case pmkm::CheckpointRecordType::kCellComplete:
        type_name = "cell_complete";
        break;
      case pmkm::CheckpointRecordType::kRunEnd:
        type_name = "run_end";
        break;
    }
    rec.Set("type", type_name);
    rec.Set("payload_bytes", r.payload.size());
    if (auto cell = pmkm::DecodeCellComplete(r.payload);
        r.type ==
            static_cast<uint32_t>(
                pmkm::CheckpointRecordType::kCellComplete) &&
        cell.ok()) {
      rec.Set("cell", cell->cell.ToString());
      rec.Set("k", cell->model.k());
      rec.Set("input_points", cell->input_points);
      rec.Set("sse", cell->model.sse);
    }
    records.Append(std::move(rec));
  }
  doc.Set("records", std::move(records));

  pmkm::JsonValue completed = pmkm::JsonValue::Array();
  for (const auto& [cell, clustering] : state.completed) {
    completed.Append(cell.ToString());
  }
  pmkm::JsonValue resume = pmkm::JsonValue::Object();
  resume.Set("completed_cells", std::move(completed));
  resume.Set("next_seq", recovery->epoch + 1);
  resume.Set("resumable", !state.run_complete);
  doc.Set("resume", std::move(resume));

  std::cout << doc.Dump(2) << "\n";
  return pmkm::Status::OK();
}

// Magic-sniffed dispatch for plain file arguments. The Status category
// picks the exit code (StatusExitCode): a missing file is NotFound (66),
// an unreadable or short one IOError (74), and an unrecognized format
// OutOfRange (65, EX_DATAERR — the file exists but is not ours).
pmkm::Status InspectFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return pmkm::Status::NotFound("no such file");
  }
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) return pmkm::Status::IOError("unreadable or too short");
  if (magic == 0x424b4d50) return InspectBucket(path);  // "PMKB"
  if (magic == 0x4d4b4d50) return InspectModel(path);   // "PMKM"
  return pmkm::Status::OutOfRange("unknown file magic");
}

}  // namespace

int main(int argc, char** argv) {
  pmkm::FlagParser parser;
  bool dot = false;
  int64_t top_n = 20;
  pmkm::ObsFlags obs_flags;
  parser
      .SetDescription(
          "pmkm_inspect: summarize pmkm binary files (buckets, models) "
          "and observability exports (metrics, traces, profiles, lock "
          "graphs, checkpoints).")
      .SetPositionalUsage(
          "file.pmkb|file.pmkm ...  |  "
          "metrics|trace|profile|lockgraph|checkpoint file ...")
      .AddBool("dot", &dot,
               "lockgraph: emit graphviz DOT instead of a summary")
      .AddInt("top", &top_n,
              "profile: number of frames to print (0 = all)");
  obs_flags.Register(&parser);
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) {
    std::cerr << parser.Usage(argv[0]);
    return Fail("flags", st);
  }
  if (const pmkm::Status os = obs_flags.Apply(); !os.ok()) {
    return Fail("flags", os);
  }
  if (parser.positional().empty()) {
    std::cerr << parser.Usage(argv[0]);
    return Fail("usage",
                pmkm::Status::InvalidArgument("no input files given"));
  }

  // With several inputs every failure is rendered; the process exit code
  // is the first failure's Status-derived code.
  int rc = 0;
  auto account = [&rc](const std::string& context, const pmkm::Status& s) {
    if (s.ok()) return;
    const int code = Fail(context, s);
    if (rc == 0) rc = code;
  };

  const std::vector<std::string> paths = parser.positional();
  const std::string& sub = paths.front();
  if (sub == "metrics" || sub == "trace" || sub == "lockgraph" ||
      sub == "checkpoint" || sub == "profile") {
    if (paths.size() < 2) {
      return Fail(sub, pmkm::Status::InvalidArgument(
                           "needs at least one file argument"));
    }
    for (size_t i = 1; i < paths.size(); ++i) {
      account(paths[i],
              sub == "metrics"      ? InspectMetrics(paths[i])
              : sub == "lockgraph"  ? InspectLockGraph(paths[i], dot)
              : sub == "checkpoint" ? InspectCheckpoint(paths[i])
              : sub == "profile"    ? InspectProfile(paths[i], top_n)
                                    : InspectTrace(paths[i]));
    }
    return rc;
  }
  for (const std::string& path : paths) {
    account(path, InspectFile(path));
  }
  return rc;
}

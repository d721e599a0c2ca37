// pmkm_cluster — clusters grid-bucket files from the command line and
// writes one model file per cell.
//
//   $ pmkm_cluster --k=40 --out=models buckets/*.pmkb
//
// Every run is the engine's partial/merge pipeline, with resource-driven
// planning; the paper's serial baseline lives in the benches and examples
// (KMeans::Fit). Engine-level flags (--k, --restarts, --memory-kib,
// --cores, --failure_policy, --max_retries, --deadline_ms, --kernel,
// --checkpoint_dir, --checkpoint_sync, --resume) come from EngineFlags and
// are shared with pmkm_serve jobs and the benchmark harness.
//
// The engine runs in-process through PipelineBuilder, or
// — with --server=unix:/path | --server=127.0.0.1:port — submits the job
// to a pmkm_serve daemon through the ClusterService API
// (serve/remote_service.h). Both produce byte-identical models;
// engine-side observability (--stats, --metrics_out, --trace_out,
// --profile_out, --explain) is collected in the executing process and is
// therefore in-process only. The SnapshotFlusher is the one writer of
// --metrics_out, --prom_out and --trace_out.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>

#include "cluster/serialize.h"
#include "common/flags.h"
#include "common/logging.h"
#include "data/csv.h"
#include "obs/debug_server.h"
#include "obs/flusher.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/remote_service.h"
#include "stream/engine.h"
#include "stream/explain.h"

namespace {

int Fail(const pmkm::Status& st) {
  std::cerr << "pmkm_cluster: " << st << "\n";
  return pmkm::StatusExitCode(st);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "models";
  bool quiet = false;
  bool explain = false;
  std::string csv_dir;
  std::string server;
  bool stats = false;
  std::string metrics_out;
  std::string prom_out;
  std::string trace_out;
  std::string profile_out;
  int64_t debug_linger_ms = 0;
  int64_t flush_interval_ms = 1000;
  pmkm::ObsFlags obs_flags;
  pmkm::EngineFlags engine_flags;
  pmkm::FlagParser parser;
  parser
      .SetDescription(
          "pmkm_cluster: cluster grid-bucket files and write one .pmkm "
          "model per cell.")
      .SetPositionalUsage("bucket.pmkb [bucket2.pmkb ...]")
      .AddString("out", &out, "output directory for .pmkm model files")
      .AddString("csv-dir", &csv_dir,
                 "also export centroids+weights as CSV here (optional)")
      .AddString("server", &server,
                 "run the job on a pmkm_serve daemon at this endpoint "
                 "(unix:/path or host:port) instead of in-process")
      .AddBool("explain", &explain,
               "print the physical plan before running")
      .AddBool("stats", &stats,
               "print EXPLAIN ANALYZE (per-operator stats) after the "
               "run")
      .AddString("metrics_out", &metrics_out,
                 "write the metrics registry as JSON here")
      .AddString("prom_out", &prom_out,
                 "write the metrics registry as Prometheus text here")
      .AddString("trace_out", &trace_out,
                 "write a Chrome trace_event JSON here (open in "
                 "chrome://tracing or Perfetto)")
      .AddString("profile_out", &profile_out,
                 "write a folded-stack CPU profile of the run here "
                 "(flamegraph/speedscope input; see pmkm_inspect profile)")
      .AddInt("debug_linger_ms", &debug_linger_ms,
              "keep the debug server up this long after the run finishes "
              "(lets scrapers read the final state)")
      .AddInt("flush_interval_ms", &flush_interval_ms,
              "periodically flush --metrics_out/--prom_out/"
              "--trace_out snapshots while running, so a killed run still "
              "leaves recent artifacts (0 = end-of-run only)")
      .AddBool("quiet", &quiet, "suppress the per-cell report");
  obs_flags.Register(&parser);
  engine_flags.Register(&parser);
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) return Fail(st);
  if (const pmkm::Status os = obs_flags.Apply(); !os.ok()) {
    return Fail(os);
  }
  auto options = engine_flags.ToOptions();
  if (!options.ok()) return Fail(options.status());
  if (parser.positional().empty()) {
    std::cerr << parser.Usage(argv[0]);
    return Fail(pmkm::Status::InvalidArgument("no bucket files given"));
  }
  std::filesystem::create_directories(out);

  auto report = [&](const pmkm::GridCellId& cell, size_t points,
                    const pmkm::ClusteringModel& model, double ms) {
    if (quiet) return;
    std::cout << cell.ToString() << ": " << points << " pts -> k="
              << model.k() << ", E=" << model.sse << ", " << ms
              << " ms\n";
  };
  auto save = [&](const pmkm::GridCellId& cell,
                  const pmkm::ClusteringModel& model) -> pmkm::Status {
    PMKM_RETURN_NOT_OK(
        pmkm::SaveModel(out + "/" + cell.ToString() + ".pmkm", model));
    if (!csv_dir.empty()) {
      std::filesystem::create_directories(csv_dir);
      PMKM_RETURN_NOT_OK(pmkm::WriteWeightedCsv(
          csv_dir + "/" + cell.ToString() + ".csv", model.ToWeighted()));
    }
    return pmkm::Status::OK();
  };

  if (!server.empty()) {
    // Remote backend: the engine (and its instrumentation) lives in
    // the daemon process.
    if (explain || stats || !metrics_out.empty() || !prom_out.empty() ||
        !trace_out.empty() || !profile_out.empty()) {
      return Fail(pmkm::Status::InvalidArgument(
          "--explain/--stats/--metrics_out/--prom_out/--trace_out/"
          "--profile_out collect engine-side state and are only "
          "available without --server (use the daemon's --debug_port "
          "introspection instead)"));
    }
    pmkm::serve::JobSpec spec;
    spec.bucket_paths = parser.positional();
    spec.engine = engine_flags;
    spec.run_id = obs_flags.run_id;
    spec.client = "pmkm_cluster";
    pmkm::serve::RemoteService remote;
    if (const pmkm::Status cs = remote.Connect(server); !cs.ok()) {
      return Fail(cs);
    }
    auto job_id = remote.SubmitJob(spec);
    if (!job_id.ok()) return Fail(job_id.status());
    if (!quiet) {
      std::cout << "job " << *job_id << " submitted to " << server
                << " (protocol v" << remote.negotiated_version()
                << ")\n";
    }
    auto info = remote.AwaitJob(*job_id, 0);
    if (!info.ok()) return Fail(info.status());
    if (!info->status.ok()) return Fail(info->status);
    auto cells = remote.FetchModel(*job_id);
    if (!cells.ok()) return Fail(cells.status());
    for (const auto& [id, cell] : *cells) {
      const pmkm::Status ss = save(id, cell.model);
      if (!ss.ok()) return Fail(ss);
      report(id, cell.input_points, cell.model,
             info->wall_seconds * 1e3 /
                 static_cast<double>(cells->size()));
    }
    std::cout << cells->size() << " cell(s) clustered remotely on "
              << server << ", " << info->wall_seconds << " s total\n";
    return 0;
  }

  // In-process: the engine runs here, with its full observability
  // surface wired in.
  pmkm::MetricsRegistry registry;
  pmkm::TraceRecorder tracer;
  pmkm::obs::DebugServer debug_server(&registry, &tracer);
  const bool serve = obs_flags.serve_requested();
  pmkm::PipelineBuilder builder(*options);
  builder.WithRunId(obs_flags.run_id);
  if (serve || stats || !metrics_out.empty() || !prom_out.empty()) {
    builder.WithMetrics(&registry);
  }
  if (serve || !trace_out.empty()) builder.WithTrace(&tracer);
  if (serve) {
    // Serving without a trace file: bound the recorder so a long run
    // keeps a ring of recent spans instead of growing forever.
    if (trace_out.empty()) tracer.SetCapacity(4096);
    pmkm::obs::DebugServer::Options srv;
    srv.port = static_cast<int>(obs_flags.debug_port);
    const pmkm::Status ss = debug_server.Start(srv);
    if (!ss.ok()) return Fail(ss);
    // std::endl: scripts watch a redirected (fully buffered) stdout for
    // this line to learn the ephemeral port, so it must flush now.
    std::cout << "debug server listening on http://127.0.0.1:"
              << debug_server.port() << "/" << std::endl;
    builder.WithDebugServer(&debug_server);
  }
  if (!profile_out.empty()) {
    const pmkm::Status ps = pmkm::obs::CpuProfiler::Global().Start();
    if (!ps.ok()) return Fail(ps);
  }
  // The flusher writes --metrics_out/--prom_out/--trace_out: every
  // interval while the run executes, so a run killed mid-flight (OOM,
  // SIGKILL) still leaves recent artifacts, and once at the end.
  pmkm::obs::SnapshotFlusher::Options fopt;
  fopt.interval_ms = static_cast<int>(flush_interval_ms);
  fopt.metrics_json_path = metrics_out;
  fopt.metrics_prom_path = prom_out;
  fopt.trace_json_path = trace_out;
  pmkm::obs::SnapshotFlusher flusher(&registry, &tracer, fopt);
  if (flush_interval_ms > 0 &&
      !(metrics_out.empty() && prom_out.empty() && trace_out.empty())) {
    const pmkm::Status fs = flusher.Start();
    if (!fs.ok()) return Fail(fs);
  }
  auto linger = [&]() {
    if (!serve || debug_linger_ms <= 0) return;
    // Explicit grace period for scrapers, requested via flag.
    std::this_thread::sleep_for(  // pmkm-lint: allow(sleep)
        std::chrono::milliseconds(debug_linger_ms));
  };
  if (explain) {
    auto text = builder.Explain(parser.positional());
    if (!text.ok()) return Fail(text.status());
    std::cout << *text;
  }

  const pmkm::Result<pmkm::StreamRunResult> run =
      builder.Run(parser.positional());
  // The final artifact write, on the success and the failure path
  // alike: a failed run exports everything collected up to the error.
  const pmkm::Status artifacts =
      flusher.running() ? flusher.Stop() : flusher.FlushNow();
  if (!profile_out.empty()) {
    (void)pmkm::obs::CpuProfiler::Global().Stop();  // stopping is final
    const pmkm::Status ws =
        pmkm::obs::CpuProfiler::Global().WriteFolded(profile_out);
    if (!ws.ok()) std::cerr << "warning: " << ws << "\n";
  }
  if (!run.ok()) {
    // The run's error dominates any artifact-write error.
    linger();
    return Fail(run.status());
  }
  if (stats) {
    std::cout << "\nEXPLAIN ANALYZE\n"
              << pmkm::ExplainAnalyzePartialMerge(options->partial,
                                                  options->merge, *run);
  }
  if (!artifacts.ok()) return Fail(artifacts);
  for (const auto& [id, cell] : run->cells) {
    const pmkm::Status ss = save(id, cell.model);
    if (!ss.ok()) return Fail(ss);
    report(id, cell.input_points, cell.model,
           run->wall_seconds * 1e3 /
               static_cast<double>(run->cells.size()));
  }
  std::cout << run->cells.size() << " cell(s) clustered via "
            << run->plan.partial_clones << " partial clone(s), chunk="
            << run->plan.chunk_points << " pts, "
            << run->wall_seconds << " s total\n";
  if (run->report.cells_resumed > 0) {
    std::cout << run->report.cells_resumed
              << " cell(s) restored from the checkpoint (epoch "
              << run->report.checkpoint_epoch << "), "
              << (run->cells.size() - run->report.cells_resumed)
              << " recomputed\n";
  }
  std::cout << run->report.Summary() << "\n";
  if (run->report.degraded) {
    std::cerr << "warning: run is DEGRADED — results cover only the "
                 "healthy subset of cells\n";
  }
  linger();
  return 0;
}

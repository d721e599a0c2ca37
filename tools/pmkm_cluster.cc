// pmkm_cluster — clusters grid-bucket files from the command line and
// writes one model file per cell.
//
//   $ pmkm_cluster --k=40 --out=models buckets/*.pmkb
//
// Algorithms: stream (default: partial/merge on the engine, with
// resource-driven planning) and serial (the paper's baseline k-means over
// each whole cell). Engine-level flags (--k, --restarts, --memory-kib,
// --cores, --failure_policy, --max_retries, --op_timeout_ms, --kernel)
// come from EngineFlags and are shared with the stream benches.
//
// The stream path runs through the ClusterService API (serve/service.h):
// by default an in-process LocalService, or — with
// --server=unix:/path | --server=127.0.0.1:port — a pmkm_serve daemon
// over the wire protocol. Both backends produce byte-identical models;
// engine-side observability (--stats, --metrics_out, --trace_out,
// --profile_out, --explain) is collected in the executing process and is
// therefore local-backend only.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "cluster/kmeans.h"
#include "cluster/serialize.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "data/csv.h"
#include "obs/debug_server.h"
#include "obs/flusher.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/local_service.h"
#include "serve/remote_service.h"
#include "stream/engine.h"
#include "stream/explain.h"

namespace {

int Fail(const pmkm::Status& st) {
  std::cerr << "pmkm_cluster: " << st << "\n";
  return pmkm::StatusExitCode(st);
}

pmkm::Status WriteTextFile(const std::string& path,
                           const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  if (!out.good()) {
    return pmkm::Status::IOError("cannot write " + path);
  }
  return pmkm::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo = "stream";
  std::string out = "models";
  bool quiet = false;
  bool explain = false;
  std::string csv_dir;
  std::string faults;
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
      .AddString("algo", &algo, "stream | serial")
      .AddString("out", &out, "output directory for .pmkm model files")
      .AddString("csv-dir", &csv_dir,
                 "also export centroids+weights as CSV here (optional)")
      .AddString("faults", &faults,
                 "arm fault-injection sites, e.g. io.read:p=0.05,seed=7")
      .AddString("server", &server,
                 "stream: run the job on a pmkm_serve daemon at this "
                 "endpoint (unix:/path or host:port) instead of "
                 "in-process")
      .AddBool("explain", &explain,
               "stream: print the physical plan before running")
      .AddBool("stats", &stats,
               "stream: print EXPLAIN ANALYZE (per-operator stats) after "
               "the run")
      .AddString("metrics_out", &metrics_out,
                 "stream: write the metrics registry as JSON here")
      .AddString("prom_out", &prom_out,
                 "stream: write the metrics registry as Prometheus text "
                 "here")
      .AddString("trace_out", &trace_out,
                 "stream: write a Chrome trace_event JSON here (open in "
                 "chrome://tracing or Perfetto)")
      .AddString("profile_out", &profile_out,
                 "write a folded-stack CPU profile of the run here "
                 "(flamegraph/speedscope input; see pmkm_inspect profile)")
      .AddInt("debug_linger_ms", &debug_linger_ms,
              "keep the debug server up this long after the run finishes "
              "(lets scrapers read the final state)")
      .AddInt("flush_interval_ms", &flush_interval_ms,
              "stream: periodically flush --metrics_out/--prom_out/"
              "--trace_out snapshots while running, so a killed run still "
              "leaves recent artifacts (0 = end-of-run only)")
      .AddBool("quiet", &quiet, "suppress the per-cell report");
  obs_flags.Register(&parser);
  engine_flags.Register(&parser);
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok()) return Fail(st);
  if (algo != "stream" && algo != "serial") {
    return Fail(pmkm::Status::InvalidArgument(
        "unknown --algo=" + algo + " (use serial|stream)"));
  }
  if (const pmkm::Status os = obs_flags.Apply(); !os.ok()) {
    return Fail(os);
  }
  if (!faults.empty()) {
    const pmkm::Status fs =
        pmkm::FaultRegistry::Global().ArmFromString(faults);
    if (!fs.ok()) return Fail(fs);
  }
  auto options = engine_flags.ToOptions();
  if (!options.ok()) return Fail(options.status());
  if (parser.positional().empty()) {
    std::cerr << parser.Usage(argv[0]);
    return Fail(pmkm::Status::InvalidArgument("no bucket files given"));
  }
  // The serial path runs k-means outside the engine; point the process
  // default kernel at the chosen one so --kernel applies there too (the
  // stream path resolves it per-run via the builder).
  {
    auto prev = pmkm::SetDefaultKernel(options->kernel);
    if (!prev.ok()) return Fail(prev.status());
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

  if (algo == "stream") {
    // The job, as the ClusterService sees it — identical for both
    // backends.
    pmkm::serve::JobSpec spec;
    spec.bucket_paths = parser.positional();
    spec.engine = engine_flags;
    spec.run_id = obs_flags.run_id;
    spec.client = "pmkm_cluster";

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

    // Local backend: one in-process LocalService worker, with the
    // engine's full observability surface wired through it.
    pmkm::MetricsRegistry registry;
    pmkm::TraceRecorder tracer;
    pmkm::obs::DebugServer debug_server(&registry, &tracer);
    const bool serve = obs_flags.serve_requested();
    pmkm::serve::LocalServiceOptions lopts;
    lopts.num_workers = 1;
    lopts.max_queued_jobs = 1;
    lopts.max_jobs_per_client = 0;
    if (serve || stats || !metrics_out.empty() || !prom_out.empty()) {
      lopts.metrics = &registry;
    }
    if (serve || !trace_out.empty()) lopts.trace = &tracer;
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
      lopts.debug_server = &debug_server;
    }
    if (!profile_out.empty()) {
      const pmkm::Status ps = pmkm::obs::CpuProfiler::Global().Start();
      if (!ps.ok()) return Fail(ps);
    }
    // Periodic snapshot flushing: a run killed mid-flight (OOM, SIGKILL)
    // still leaves recent artifacts on disk.
    pmkm::obs::SnapshotFlusher flusher(&registry, &tracer);
    if (flush_interval_ms > 0 &&
        !(metrics_out.empty() && prom_out.empty() && trace_out.empty())) {
      pmkm::obs::SnapshotFlusher::Options fopt;
      fopt.interval_ms = static_cast<int>(flush_interval_ms);
      fopt.metrics_json_path = metrics_out;
      fopt.metrics_prom_path = prom_out;
      fopt.trace_json_path = trace_out;
      const pmkm::Status fs = flusher.Start(fopt);
      if (!fs.ok()) return Fail(fs);
    }
    // Final-state artifact writes, shared by the success and failure
    // paths: a failed run exports everything collected up to the error.
    auto write_artifacts = [&]() -> pmkm::Status {
      pmkm::Status first;
      auto keep = [&first](pmkm::Status s) {
        if (first.ok() && !s.ok()) first = std::move(s);
      };
      if (!metrics_out.empty()) {
        keep(WriteTextFile(metrics_out, registry.ToJsonString() + "\n"));
      }
      if (!prom_out.empty()) {
        keep(WriteTextFile(prom_out, registry.ToPrometheusText()));
      }
      if (!trace_out.empty()) keep(tracer.WriteJson(trace_out));
      return first;
    };
    auto stop_profiler = [&]() {
      if (profile_out.empty()) return;
      (void)pmkm::obs::CpuProfiler::Global().Stop();  // stopping is final
      const pmkm::Status ws =
          pmkm::obs::CpuProfiler::Global().WriteFolded(profile_out);
      if (!ws.ok()) std::cerr << "warning: " << ws << "\n";
    };
    auto linger = [&]() {
      if (!serve || debug_linger_ms <= 0) return;
      // Explicit grace period for scrapers, requested via flag.
      std::this_thread::sleep_for(  // pmkm-lint: allow(sleep)
          std::chrono::milliseconds(debug_linger_ms));
    };
    if (explain) {
      auto text =
          pmkm::PipelineBuilder(*options).Explain(parser.positional());
      if (!text.ok()) return Fail(text.status());
      std::cout << *text;
    }

    pmkm::serve::LocalService local(lopts);
    uint64_t job_id = 0;
    pmkm::Result<pmkm::StreamRunResult> run =
        pmkm::Status::Internal("job never ran");
    {
      auto submitted = local.SubmitJob(spec);
      if (submitted.ok()) {
        job_id = *submitted;
        auto info = local.AwaitJob(job_id, 0);
        if (info.ok() && info->status.ok()) {
          run = local.RunResult(job_id);
        } else {
          run = info.ok() ? pmkm::Result<pmkm::StreamRunResult>(
                                info->status)
                          : pmkm::Result<pmkm::StreamRunResult>(
                                info.status());
        }
      } else {
        run = submitted.status();
      }
    }
    if (!run.ok()) {
      flusher.Stop();
      // Export what the failed run collected; its error dominates any
      // artifact-write error.
      (void)write_artifacts();
      stop_profiler();
      linger();
      return Fail(run.status());
    }
    flusher.Stop();
    stop_profiler();
    if (stats) {
      std::cout << "\nEXPLAIN ANALYZE\n"
                << pmkm::ExplainAnalyzePartialMerge(options->partial,
                                                    options->merge, *run);
    }
    if (const pmkm::Status ws = write_artifacts(); !ws.ok()) {
      return Fail(ws);
    }
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

  for (const std::string& path : parser.positional()) {
    auto bucket = pmkm::ReadGridBucket(path);
    if (!bucket.ok()) return Fail(bucket.status());
    const pmkm::Stopwatch watch;
    auto model = pmkm::KMeans(options->partial).Fit(bucket->points);
    if (!model.ok()) return Fail(model.status());
    const double ms = watch.ElapsedMillis();
    const pmkm::Status ss = save(bucket->cell, *model);
    if (!ss.ok()) return Fail(ss);
    report(bucket->cell, bucket->points.size(), *model, ms);
  }
  return 0;
}

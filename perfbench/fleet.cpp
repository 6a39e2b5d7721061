// camera_fleet: four cameras, each an MJPEG stream encoded before timing,
// decoded by ingest::MjpegReader on the generator thread and submitted to a
// two-device cluster::DeviceFleet at level F. Arrivals are stamped at 30 fps
// of modeled time (an open loop on the modeled clock) and the fleet is
// pumped one round per arrival instant. Device 0 is declared lost at half
// the clip (live failover); the fleet is drained at the end.
#include <algorithm>
#include <memory>

#include "mog/cluster/device_fleet.hpp"
#include "mog/ingest/byte_source.hpp"
#include "mog/ingest/mjpeg.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mog::FrameU8;
using Fleet = mog::cluster::DeviceFleet<double>;

constexpr int kCameras = 4;
constexpr int kDevices = 2;
constexpr double kFps = 30.0;
constexpr int kJpegQuality = 90;

mog::SceneConfig camera_scene(const Options& o, int camera) {
  const std::uint64_t seed = scene_seed(o.seed, camera);
  switch (camera) {
    case 0: return mog::SceneConfig::highway(o.width, o.height, seed);
    case 1: return mog::SceneConfig::lobby(o.width, o.height, seed);
    case 2: return mog::SceneConfig::waving_trees(o.width, o.height, seed);
    default: {
      mog::SceneConfig sc;
      sc.width = o.width;
      sc.height = o.height;
      sc.seed = seed;
      return sc;
    }
  }
}

Fleet::GpuConfig stream_config(const Options& o, int threads) {
  Fleet::GpuConfig g;
  g.width = o.width;
  g.height = o.height;
  g.level = mog::kernels::OptLevel::kF;
  g.executor_threads = threads;
  return g;
}

/// Reads an encoded stream in place, so that every build's reader shares the
/// one read-only copy made before timing.
class SharedBytes final : public mog::ingest::ByteSource {
 public:
  explicit SharedBytes(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  std::size_t read(std::uint8_t* dst, std::size_t max) override {
    const std::size_t n = std::min(max, bytes_.size() - pos_);
    std::copy_n(bytes_.data() + pos_, n, dst);
    pos_ += n;
    return n;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

struct Camera {
  std::vector<FrameU8> truth;  ///< ground truth of the rendered clip
  std::vector<std::uint8_t> mjpeg;
  std::vector<FrameU8> decoded;  ///< reference decode of `mjpeg`
  std::vector<FrameU8> masks;    ///< decoded frames run alone at level F
};

struct RoundOut {
  std::vector<double> setup_s;
  double decode_s = 0, submit_s = 0, pump_s = 0, failover_s = 0,
         drain_s = 0, take_s = 0;
  std::vector<double> op_latency_s;  ///< decode start to mask taken
  std::vector<std::vector<FrameU8>> decoded, masks;
  mog::telemetry::Rollup modeled_latency;
  double makespan_s = 0;
  double dma_s = 0, kernel_s = 0;
  std::uint64_t queue_high_water = 0;
  mog::cluster::MigrationStats migration;
  std::uint64_t checkpoints = 0, retries = 0;
  std::uint64_t dropped = 0;
  double round_wall_s = 0;  ///< the whole round, first build to last call
  double timed_s() const {
    return decode_s + submit_s + pump_s + failover_s + drain_s + take_s;
  }
};

void add_recovery(Fleet& fleet, int device, RoundOut& out) {
  auto& server = fleet.device_server(device);
  for (int local = 0; local < server.num_streams(); ++local) {
    try {
      const mog::fault::RecoveryStats r = server.stream_recovery_stats(local);
      out.checkpoints += r.checkpoints;
      out.retries += r.retries;
    } catch (const mog::Error&) {
      // Closed stream: its counters were read before it migrated.
    }
  }
}

RoundOut run_round(const Options& o, const std::vector<Camera>& cams,
                   Tracer& tracer) {
  RoundOut out;
  const int n = o.frames;
  out.decoded.resize(kCameras);
  out.masks.resize(kCameras);

  struct Built {
    std::unique_ptr<Fleet> fleet;
    std::vector<int> ids;
    std::vector<std::unique_ptr<mog::ingest::MjpegReader>> readers;
  };
  Built built = timed_setup(
      tracer,
      [&](int) {
        Built b;
        {
          SpanScope span(tracer, "setup.fleet");
          mog::cluster::FleetConfig cfg;
          cfg.devices = kDevices;
          cfg.serve.max_streams = kCameras;  // a survivor absorbs every camera
          b.fleet = std::make_unique<Fleet>(cfg);
          for (int c = 0; c < kCameras; ++c)
            b.ids.push_back(b.fleet->open_stream(stream_config(o, kExecutorThreads), nullptr,
                                                 "cam" + std::to_string(c)));
        }
        SpanScope span(tracer, "setup.ingest");
        for (const Camera& c : cams)
          b.readers.push_back(std::make_unique<mog::ingest::MjpegReader>(
              std::make_unique<SharedBytes>(c.mjpeg)));
        return b;
      },
      out.setup_s);
  Fleet* fleet = built.fleet.get();
  const std::vector<int>& ids = built.ids;
  auto& readers = built.readers;

  std::vector<std::vector<Clock::time_point>> started(kCameras);
  auto take = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<FrameU8>> got(kCameras);
    for (int c = 0; c < kCameras; ++c) {
      SpanScope span(tracer, "cluster.take_masks");
      got[static_cast<std::size_t>(c)] = fleet->take_masks(ids[static_cast<std::size_t>(c)]);
    }
    const Clock::time_point t1 = Clock::now();
    out.take_s += seconds_between(t0, t1);
    for (std::size_t c = 0; c < kCameras; ++c)
      for (FrameU8& m : got[c]) {
        const std::size_t k = out.masks[c].size();
        if (k < started[c].size())
          out.op_latency_s.push_back(seconds_between(started[c][k], t1));
        out.masks[c].push_back(std::move(m));
      }
  };

  for (int k = 0; k < n; ++k) {
    const double arrival = k / kFps;
    for (std::size_t c = 0; c < kCameras; ++c) {
      FrameU8 frame;
      const Clock::time_point t0 = Clock::now();
      bool ok = false;
      {
        SpanScope span(tracer, "ingest.decode", "", k);
        ok = readers[c]->next(frame);
      }
      const Clock::time_point t1 = Clock::now();
      out.decode_s += seconds_between(t0, t1);
      if (!ok) continue;  // a missing frame fails its operation
      started[c].push_back(t0);
      out.decoded[c].push_back(frame);
      const Clock::time_point t2 = Clock::now();
      {
        SpanScope span(tracer, "cluster.submit", "", k);
        fleet->submit(ids[c], std::move(frame), arrival);
      }
      out.submit_s += seconds_between(t2, Clock::now());
    }
    if (k == n / 2) {
      add_recovery(*fleet, 0, out);  // device 0's streams close on failover
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span(tracer, "cluster.fail_device", "", k);
        fleet->fail_device(0);
      }
      out.failover_s = seconds_between(t0, Clock::now());
    }
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope span(tracer, "cluster.pump", "", k);
      fleet->pump();
    }
    out.pump_s += seconds_between(t0, Clock::now());
    take();
  }
  const Clock::time_point d0 = Clock::now();
  {
    SpanScope span(tracer, "cluster.drain");
    fleet->drain();
  }
  out.drain_s = seconds_between(d0, Clock::now());
  take();

  out.modeled_latency = fleet->aggregate_latency_rollup();
  out.makespan_s = fleet->makespan_seconds();
  out.migration = fleet->migration_stats();
  out.dropped = fleet->frames_dropped();
  for (int d = 0; d < kDevices; ++d) {
    auto& server = fleet->device_server(d);
    for (int local = 0; local < server.num_streams(); ++local) {
      const mog::serve::StreamStats st = server.stream_stats(local);
      out.dma_s += st.dma_seconds;
      out.kernel_s += st.kernel_seconds;
      out.queue_high_water = std::max(out.queue_high_water, st.queue.high_water);
    }
    if (fleet->device_alive(d)) add_recovery(*fleet, d, out);
  }
  return out;
}

void check_round(const Options& o, const std::vector<Camera>& cams,
                 const RoundOut& r, Ledger& ledger) {
  const std::size_t n = static_cast<std::size_t>(o.frames);
  std::vector<char> bad(kCameras * n, 0);
  for (std::size_t c = 0; c < kCameras; ++c) {
    const Camera& cam = cams[c];
    if (r.masks[c].size() != n)
      ledger.problem("camera " + std::to_string(c) + ": " +
                     std::to_string(r.masks[c].size()) + " masks for " +
                     std::to_string(n) + " frames");
    QualityFloor q;
    for (std::size_t t = 0; t < n; ++t) {
      const bool ok = t < r.decoded[c].size() && t < r.masks[c].size() &&
                      same_pixels(r.decoded[c][t], cam.decoded[t]) &&
                      is_valid_mask(r.masks[c][t], o.width, o.height) &&
                      same_pixels(r.masks[c][t], cam.masks[t]);
      if (!ok) {
        bad[c * n + t] = 1;
        ledger.problem("camera " + std::to_string(c) + ": frame " +
                       std::to_string(t) + " check failed");
      }
      if (t >= static_cast<std::size_t>(o.warmup) && t < r.masks[c].size())
        q.add(r.masks[c][t], cam.truth[t]);
    }
    if (!q.ok()) {
      ledger.problem("camera " + std::to_string(c) + ": quality " + q.describe());
      std::fill(bad.begin() + static_cast<std::ptrdiff_t>(c * n),
                bad.begin() + static_cast<std::ptrdiff_t>((c + 1) * n), 1);
    }
  }
  if (r.dropped != 0) ledger.problem("fleet dropped frames");
  if (r.migration.completed == 0) ledger.problem("device 0 loss migrated no stream");
  ledger.attempted += bad.size();
  ledger.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

}  // namespace

void run_camera_fleet(const Options& o, Tracer& tracer, Report& report) {
  const std::size_t n = static_cast<std::size_t>(o.frames);
  std::vector<Camera> cams(kCameras);
  mog::ingest::JpegEncodeConfig jpeg;
  jpeg.quality = kJpegQuality;
  double encoded_bytes = 0;
  for (int c = 0; c < kCameras; ++c) {
    Camera& cam = cams[static_cast<std::size_t>(c)];
    Clip clip = render_clip(camera_scene(o, c), o.frames);
    cam.mjpeg = mog::ingest::encode_mjpeg(clip.frames, jpeg);
    cam.truth = std::move(clip.truth);
    encoded_bytes += static_cast<double>(cam.mjpeg.size());
    mog::ingest::MjpegReader reader{
        std::make_unique<mog::ingest::MemorySource>(cam.mjpeg)};
    FrameU8 f;
    while (reader.next(f)) cam.decoded.push_back(f);
    // Masks are bit-identical at any executor thread count; the reference
    // uses every pinned thread to keep set-up short.
    mog::GpuMogPipeline<double> alone{stream_config(o, parallel_threads())};
    cam.masks.resize(cam.decoded.size());
    for (std::size_t t = 0; t < cam.decoded.size(); ++t)
      alone.process(cam.decoded[t], cam.masks[t]);
  }
  const double pixels_per_round =
      static_cast<double>(kCameras * n) * o.width * o.height;

  EndToEnd e2e;
  std::vector<double> traced_decode, submit_ms, pump_ms, failover_ms;
  Attribution attribution;
  RoundOut last;
  bool first = true;

  drive_rounds(o.trace, o.seconds, [&](RoundKind kind) {
    const HostProbe probe;
    const bool traced = kind == RoundKind::kTraced;
    tracer.set_enabled(traced);
    const std::size_t span0 = tracer.spans().size();
    RoundOut r;
    const Clock::time_point round0 = Clock::now();
    {
      SpanScope root(tracer, "bench.round", "camera_fleet");
      r = run_round(o, cams, tracer);
    }
    r.round_wall_s = seconds_between(round0, Clock::now());
    tracer.set_enabled(false);
    e2e.add_slowdown(probe.finish());
    if (first) {
      for (std::size_t c = 0; c < kCameras; ++c)
        for (std::size_t t = 0; t < r.masks[c].size(); ++t)
          maybe_corrupt(o, static_cast<long>(c * n + t), r.masks[c][t]);
      first = false;
    }
    check_round(o, cams, r, report.ledger);
    if (kind == RoundKind::kMeasured) {
      attribution.untraced(r.round_wall_s);
      e2e.add_round(r.setup_s, pixels_per_round / r.timed_s() / 1e6, r.op_latency_s);
    } else if (traced) {
      attribution.traced(tracer, span0);
      for (const Span& s : tracer.since(span0))
        if (std::string_view(s.name) == "ingest.decode")
          traced_decode.push_back(s.end - s.start);
      submit_ms.push_back(1e3 * r.submit_s);
      pump_ms.push_back(1e3 * r.pump_s);
      failover_ms.push_back(1e3 * r.failover_s);
    }
    // Only the counters and stats outlive the round.
    r.decoded = {};
    r.masks = {};
    r.op_latency_s = {};
    last = std::move(r);
  });

  report.notes.push_back(
      "camera_fleet: " + std::to_string(kCameras) + " cameras x " +
      std::to_string(n) + " frames at " + std::to_string(o.width) + "x" +
      std::to_string(o.height) + ", MJPEG q" + std::to_string(kJpegQuality) +
      ", " + std::to_string(kDevices) + " devices at level F, " +
      "executor_threads=" + std::to_string(kExecutorThreads));
  const double frames = static_cast<double>(kCameras * n);
  if (!o.trace) {
    e2e.report(report);
    report.info("serve_mpix_s", e2e.host_mpix_s(), "Mpix/s");
    report.info("modeled_latency_ms_p50", 1e3 * last.modeled_latency.p50, "ms");
    report.info("modeled_latency_ms_p90", 1e3 * last.modeled_latency.p90, "ms");
    return;
  }

  report.layer("serve_mpix_s", e2e.host_mpix_s(), "Mpix/s");
  report.layer("modeled_latency_ms_p50", 1e3 * last.modeled_latency.p50, "ms");
  report.layer("modeled_latency_ms_p90", 1e3 * last.modeled_latency.p90, "ms");
  report.layer("ingest.decode_ms_p50", 1e3 * percentile(traced_decode, 50), "ms");
  report.layer("ingest.decode_ms_p90", 1e3 * percentile(traced_decode, 90), "ms");
  report.layer("ingest.bytes_per_frame", encoded_bytes / frames, "B");
  report.layer("serve.submit_ms_total", median(submit_ms), "ms");
  report.layer("serve.pump_ms_total", median(pump_ms), "ms");
  report.layer("cluster.failover_ms", median(failover_ms), "ms");
  report.layer("serve.modeled_dma_ms_per_frame", 1e3 * last.dma_s / frames, "ms");
  report.layer("serve.modeled_kernel_ms_per_frame", 1e3 * last.kernel_s / frames, "ms");
  report.layer("serve.modeled_makespan_ms", 1e3 * last.makespan_s, "ms");
  report.layer("serve.queue_high_water", static_cast<double>(last.queue_high_water), "count");
  report.layer("cluster.migrations_completed", static_cast<double>(last.migration.completed), "count");
  report.layer("cluster.frames_requeued", static_cast<double>(last.migration.frames_requeued), "count");
  report.layer("fault.checkpoints", static_cast<double>(last.checkpoints), "count");
  report.layer("fault.retries", static_cast<double>(last.retries), "count");

  attribution.report("camera_fleet", report);
}

}  // namespace perfbench

#include "mog/cluster/device_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "mog/common/strutil.hpp"
#include "mog/cpu/model_io.hpp"
#include "mog/obs/flame.hpp"
#include "mog/obs/prometheus.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::cluster {

namespace {

/// Consistent-hash ring smoothing: virtual nodes per device.
constexpr int kVnodesPerDevice = 64;

/// Degradation strikes (streams stepping down the recovery ladder) charged
/// to a device before it is declared lost and its streams migrate away.
constexpr int kDeviceLossStrikes = 1;

obs::LabelSet device_label(std::size_t d) {
  return {{"device", strprintf("%zu", d)}};
}

obs::LabelSet stream_label(std::size_t d, std::size_t stream) {
  return {{"device", strprintf("%zu", d)},
          {"stream", strprintf("%zu", stream)}};
}

}  // namespace

void FleetConfig::validate() const {
  MOG_CHECK(devices >= 1, "a fleet needs at least one device");
  MOG_CHECK(obs_port <= 65535, "obs_port out of range");
  serve.validate();
}

std::string MigrationStats::summary() const {
  return strprintf(
      "migrations: %llu attempted, %llu completed, %llu checkpoint-rejected "
      "(%llu retried, %llu reset), %llu capacity-exhausted, "
      "%llu frames requeued (%llu dropped in transit)",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(checkpoint_rejected),
      static_cast<unsigned long long>(snapshot_retries),
      static_cast<unsigned long long>(models_reset),
      static_cast<unsigned long long>(capacity_exhausted),
      static_cast<unsigned long long>(frames_requeued),
      static_cast<unsigned long long>(frames_dropped_in_transit));
}

template <typename T>
DeviceFleet<T>::DeviceFleet(const FleetConfig& config)
    : config_(config), scheduler_(kVnodesPerDevice) {
  config_.validate();
  nodes_.reserve(static_cast<std::size_t>(config_.devices));
  for (int d = 0; d < config_.devices; ++d) {
    DeviceNode node;
    node.server = std::make_unique<serve::StreamServer<T>>(config_.serve, d);
    nodes_.push_back(std::move(node));
    scheduler_.add_device(d);
  }
  start_obs_server();
}

template <typename T>
DeviceFleet<T>::~DeviceFleet() {
  obs_http_.stop();  // no scrape may touch a half-destroyed fleet
  stop();
}

template <typename T>
void DeviceFleet<T>::start_obs_server() {
  if (config_.obs_port < 0) return;
  obs_http_.handle("/metrics", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.content_type = obs::kPrometheusContentType;
    r.body = metrics_text();
    return r;
  });
  obs_http_.handle("/healthz", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    std::string detail;
    const bool ok = healthz(detail);
    r.status = ok ? 200 : 503;
    r.body = (ok ? "ok\n" : "unhealthy\n") + detail;
    return r;
  });
  obs_http_.handle("/statusz", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = statusz();
    return r;
  });
  // The sampler is process-global, so one capture covers every device
  // plane's pump and executor threads ("dev<i>.pump", "exec<w>") at once.
  obs_http_.handle("/profilez", obs::profilez_response);
  obs_http_.start(config_.obs_port);
  log_.info("fleet observability endpoint up",
            {{"port", obs_http_.port()},
             {"endpoints", "/metrics /healthz /statusz /profilez"}});
}

template <typename T>
void DeviceFleet<T>::set_device_injector(
    int d, std::shared_ptr<fault::FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  nodes_[static_cast<std::size_t>(d)].injector = std::move(injector);
}

template <typename T>
std::vector<DeviceLoad> DeviceFleet<T>::loads_locked(
    int exclude_device) const {
  std::vector<DeviceLoad> loads;
  loads.reserve(nodes_.size());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    DeviceLoad l;
    l.device = static_cast<int>(d);
    l.alive = node.alive && l.device != exclude_device;
    l.open_streams = node.server->open_streams();
    l.bytes_in_use = node.server->device_bytes_in_use();
    loads.push_back(l);
  }
  return loads;
}

template <typename T>
int DeviceFleet<T>::open_on_some_device_locked(StreamRec& rec,
                                               int exclude_device) {
  std::vector<DeviceLoad> loads = loads_locked(exclude_device);
  while (true) {
    const int d = scheduler_.pick(rec.key, loads);
    if (d < 0) return -1;
    DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
    // A stream-scoped injector (sick camera) travels with the stream;
    // otherwise the stream joins the hosting device's fault domain.
    std::shared_ptr<fault::FaultInjector> inj =
        rec.own_injector != nullptr ? rec.own_injector : node.injector;
    try {
      rec.local_id = node.server->open_stream(rec.gpu, std::move(inj));
      rec.device = d;
      return d;
    } catch (const serve::AdmissionError&) {
      // This device is full; strike it from the candidate set and retry.
      for (DeviceLoad& l : loads)
        if (l.device == d) l.alive = false;
    }
  }
}

template <typename T>
int DeviceFleet<T>::open_stream(const GpuConfig& gpu_config,
                                std::shared_ptr<fault::FaultInjector> injector,
                                std::string placement_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(recs_.size());
  StreamRec rec;
  rec.gpu = gpu_config;
  rec.own_injector = std::move(injector);
  rec.key = placement_key.empty() ? strprintf("stream-%d", id)
                                  : std::move(placement_key);
  rec.last_tier = gpu_config.tiled ? fault::ExecutionTier::kTiledGpu
                                   : fault::ExecutionTier::kGpuDirect;
  const int d = open_on_some_device_locked(rec, /*exclude_device=*/-1);
  if (d < 0) {
    throw serve::AdmissionError{strprintf(
        "stream refused: every alive device is at capacity (%d devices, "
        "%d alive)",
        static_cast<int>(nodes_.size()), alive_locked())};
  }
  recs_.push_back(std::move(rec));
  log_.info("stream placed",
            {{"stream", id}, {"device", d}, {"key", recs_.back().key}});
  return id;
}

template <typename T>
void DeviceFleet<T>::close_stream(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec& rec = rec_at(id);
  MOG_CHECK(rec.open, "stream already closed");
  nodes_[static_cast<std::size_t>(rec.device)].server->close_stream(
      rec.local_id);
  rec.open = false;
}

template <typename T>
bool DeviceFleet<T>::submit(int id, FrameU8 frame, double arrival_seconds,
                            std::uint64_t ticket) {
  // Hold the fleet lock through the member call so the stream cannot be
  // mid-migration between the routing decision and the enqueue.
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec& rec = rec_at(id);
  MOG_CHECK(rec.open, "submit to a closed stream");
  return nodes_[static_cast<std::size_t>(rec.device)].server->submit(
      rec.local_id, std::move(frame), arrival_seconds, ticket);
}

template <typename T>
int DeviceFleet<T>::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  return pump_locked();
}

template <typename T>
int DeviceFleet<T>::pump_locked() {
  int n = 0;
  for (DeviceNode& node : nodes_) n += node.server->pump();
  supervise_locked();
  return n;
}

template <typename T>
void DeviceFleet<T>::drain() {
  // Two consecutive idle rounds: a migration inside supervise can requeue
  // frames after the round's ingest phase already ran, so one idle round is
  // not proof the fleet is dry.
  int idle = 0;
  while (idle < 2) idle = pump() > 0 ? 0 : idle + 1;
}

template <typename T>
void DeviceFleet<T>::start() {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(!running_, "fleet supervisor already running");
  log_.info("fleet starting",
            {{"devices", static_cast<int>(nodes_.size())}});
  stop_requested_.store(false);
  for (DeviceNode& node : nodes_) node.server->start();
  running_ = true;
  supervisor_ = std::thread([this] {
    while (!stop_requested_.load()) {
      {
        std::lock_guard<std::mutex> supervise_lock(mu_);
        supervise_locked();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

template <typename T>
void DeviceFleet<T>::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_.store(true);
  }
  supervisor_.join();
  for (DeviceNode& node : nodes_) node.server->stop();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

template <typename T>
void DeviceFleet<T>::fail_device(int d) {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  declare_lost_locked(d, "fail_device");
}

template <typename T>
void DeviceFleet<T>::supervise_locked() {
  // Charge degradation strikes: a stream stepping down the recovery ladder
  // is evidence against the device hosting it (launch/transfer failures are
  // device-side in this model; frame-level corruption never degrades).
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    StreamRec& rec = recs_[i];
    if (!rec.open) continue;
    DeviceNode& node = nodes_[static_cast<std::size_t>(rec.device)];
    const fault::ExecutionTier tier =
        node.server->stream_stats(rec.local_id).tier;
    if (static_cast<int>(tier) > static_cast<int>(rec.last_tier) &&
        node.alive) {
      ++node.strikes;
      log_.warn("degradation strike",
                {{"stream", static_cast<int>(i)},
                 {"device", rec.device},
                 {"tier", fault::to_string(tier)},
                 {"strikes", node.strikes}});
    }
    rec.last_tier = tier;
  }
  for (std::size_t d = 0; d < nodes_.size(); ++d)
    if (nodes_[d].alive && nodes_[d].strikes >= kDeviceLossStrikes)
      declare_lost_locked(static_cast<int>(d), "degradation strikes");
}

template <typename T>
void DeviceFleet<T>::declare_lost_locked(int d, const char* reason) {
  DeviceNode& node = nodes_[static_cast<std::size_t>(d)];
  if (!node.alive) return;
  node.alive = false;
  log_.error("device lost",
             {{"device", d}, {"reason", reason}, {"strikes", node.strikes}});
  for (std::size_t i = 0; i < recs_.size(); ++i)
    if (recs_[i].open && recs_[i].device == d)
      migrate_stream_locked(static_cast<int>(i));
}

template <typename T>
bool DeviceFleet<T>::migrate_stream_locked(int id) {
  ++migration_stats_.attempted;
  StreamRec& rec = recs_[static_cast<std::size_t>(id)];
  const int src_d = rec.device;
  const int local = rec.local_id;
  serve::StreamServer<T>& src = *nodes_[static_cast<std::size_t>(src_d)].server;

  // 1. Reserve a slot on a healthy device first: when nobody can take the
  //    stream it stays untouched and rides its per-stream ladder in place.
  const int dst_d = open_on_some_device_locked(rec, src_d);
  if (dst_d < 0) {
    ++migration_stats_.capacity_exhausted;
    log_.warn("migration refused: no device has capacity",
              {{"stream", id}, {"device", src_d}});
    return false;
  }
  serve::StreamServer<T>& dst = *nodes_[static_cast<std::size_t>(dst_d)].server;
  const int nl = rec.local_id;

  // 2. Freeze the victim: steal its queued frames (arrival stamps and trace
  //    tickets preserved), flush the partial tiled group.
  std::vector<serve::QueuedFrame> stolen = src.steal_queue(local);
  const fault::ExecutionTier victim_tier = src.stream_stats(local).tier;
  src.flush_stream(local);

  // 3. Snapshot the model through the MOGM v2 CRC checkpoint encoding. A
  //    corrupt payload is rejected by type; retry once from a fresh device
  //    read before falling back to a fresh model.
  std::unique_ptr<MogModel<T>> model;
  const auto decode = [&](const std::vector<std::uint8_t>& payload) {
    try {
      model = std::make_unique<MogModel<T>>(deserialize_model<T>(
          payload.data(), payload.size(), rec.gpu.params,
          "migration snapshot"));
      return true;
    } catch (const ModelIoError& e) {
      ++migration_stats_.checkpoint_rejected;
      log_.error("migration snapshot rejected",
                 {{"stream", id}, {"error", e.what()}});
      return false;
    }
  };
  std::vector<std::uint8_t> payload = serialize_model(src.stream_model(local));
  if (snapshot_corruptor_) snapshot_corruptor_(payload);
  if (!decode(payload)) {
    ++migration_stats_.snapshot_retries;
    payload = serialize_model(src.stream_model(local));
    if (snapshot_corruptor_) snapshot_corruptor_(payload);
    decode(payload);
  }
  if (model != nullptr) {
    dst.restore_stream_model(nl, *model);
  } else {
    ++migration_stats_.models_reset;
    log_.error("snapshot unrecoverable; stream resumes with a fresh model",
               {{"stream", id}});
  }

  // 4. Carry the victim incarnation's history, then retire it.
  rec.masks_stash += src.stream_stats(local).masks_delivered;
  {
    std::vector<FrameU8> masks = src.take_masks(local);
    rec.mask_stash.insert(rec.mask_stash.end(),
                          std::make_move_iterator(masks.begin()),
                          std::make_move_iterator(masks.end()));
  }
  src.close_stream(local);

  // 5. Requeue the stolen frames on the target, oldest first.
  for (serve::QueuedFrame& qf : stolen) {
    ++migration_stats_.frames_requeued;
    if (!dst.resubmit(nl, std::move(qf)))
      ++migration_stats_.frames_dropped_in_transit;
  }

  // The target opened with the stream's original GPU config, so a degraded
  // victim returns to its full tier.
  rec.last_tier = rec.gpu.tiled ? fault::ExecutionTier::kTiledGpu
                                : fault::ExecutionTier::kGpuDirect;
  ++rec.migrations;
  ++nodes_[static_cast<std::size_t>(src_d)].migrations_out;
  ++nodes_[static_cast<std::size_t>(dst_d)].migrations_in;
  ++migration_stats_.completed;
  log_.info("stream migrated",
            {{"stream", id},
             {"from", src_d},
             {"to", dst_d},
             {"frames_requeued", static_cast<std::int64_t>(stolen.size())},
             {"victim_tier", fault::to_string(victim_tier)},
             {"model", model != nullptr ? "restored" : "reset"}});
  return true;
}

template <typename T>
int DeviceFleet<T>::devices() const {
  return static_cast<int>(nodes_.size());
}

template <typename T>
int DeviceFleet<T>::alive_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_locked();
}

template <typename T>
int DeviceFleet<T>::alive_locked() const {
  int n = 0;
  for (const DeviceNode& node : nodes_) n += node.alive ? 1 : 0;
  return n;
}

template <typename T>
bool DeviceFleet<T>::device_alive(int d) const {
  std::lock_guard<std::mutex> lock(mu_);
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return nodes_[static_cast<std::size_t>(d)].alive;
}

template <typename T>
int DeviceFleet<T>::stream_device(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rec_at(id).device;
}

template <typename T>
std::vector<FrameU8> DeviceFleet<T>::take_masks(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamRec& rec = rec_at(id);
  std::vector<FrameU8> out = std::move(rec.mask_stash);
  rec.mask_stash.clear();
  std::vector<FrameU8> cur =
      nodes_[static_cast<std::size_t>(rec.device)].server->take_masks(
          rec.local_id);
  out.insert(out.end(), std::make_move_iterator(cur.begin()),
             std::make_move_iterator(cur.end()));
  return out;
}

template <typename T>
FleetStreamInfo DeviceFleet<T>::stream_info(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamRec& rec = rec_at(id);
  FleetStreamInfo info;
  info.device = rec.device;
  info.open = rec.open;
  info.migrations = rec.migrations;
  info.serve = nodes_[static_cast<std::size_t>(rec.device)]
                   .server->stream_stats(rec.local_id);
  info.tier = info.serve.tier;
  info.masks_delivered = rec.masks_stash + info.serve.masks_delivered;
  return info;
}

template <typename T>
const MigrationStats& DeviceFleet<T>::migration_stats() const {
  return migration_stats_;
}

template <typename T>
telemetry::Rollup DeviceFleet<T>::aggregate_latency_rollup() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Member servers retain closed victims' samples, so no stash here (it
  // would double count migrated streams).
  std::vector<double> all;
  for (const DeviceNode& node : nodes_) {
    const std::vector<double> lat = node.server->aggregate_latencies();
    all.insert(all.end(), lat.begin(), lat.end());
  }
  return telemetry::make_rollup(all);
}

template <typename T>
std::uint64_t DeviceFleet<T>::masks_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const DeviceNode& node : nodes_) total += node.server->masks_delivered();
  return total;
}

template <typename T>
std::uint64_t DeviceFleet<T>::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const DeviceNode& node : nodes_) total += node.server->frames_dropped();
  return total;
}

template <typename T>
double DeviceFleet<T>::makespan_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double span = 0;
  for (const DeviceNode& node : nodes_)
    span = std::max(span, node.server->makespan_seconds());
  return span;
}

template <typename T>
serve::StreamServer<T>& DeviceFleet<T>::device_server(int d) {
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return *nodes_[static_cast<std::size_t>(d)].server;
}

template <typename T>
const serve::StreamServer<T>& DeviceFleet<T>::device_server(int d) const {
  MOG_CHECK(d >= 0 && d < static_cast<int>(nodes_.size()),
            "unknown device id");
  return *nodes_[static_cast<std::size_t>(d)].server;
}

template <typename T>
void DeviceFleet<T>::set_snapshot_corruptor(
    std::function<void(std::vector<std::uint8_t>&)> corruptor) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_corruptor_ = std::move(corruptor);
}

template <typename T>
typename DeviceFleet<T>::StreamRec& DeviceFleet<T>::rec_at(int id) {
  MOG_CHECK(id >= 0 && id < static_cast<int>(recs_.size()),
            "unknown stream id");
  return recs_[static_cast<std::size_t>(id)];
}

template <typename T>
const typename DeviceFleet<T>::StreamRec& DeviceFleet<T>::rec_at(
    int id) const {
  MOG_CHECK(id >= 0 && id < static_cast<int>(recs_.size()),
            "unknown stream id");
  return recs_[static_cast<std::size_t>(id)];
}

template <typename T>
std::string DeviceFleet<T>::metrics_text() const {
  using obs::MetricType;
  using Stats = serve::StreamStats;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<serve::PlaneSnapshot> planes;
  for (const DeviceNode& node : nodes_)
    planes.push_back(node.server->snapshot());

  // Every family is added exactly once, here. The helpers render one sample
  // per device node, per fleet stream, or per plane stream (labelled by its
  // device and plane-local id).
  std::vector<obs::MetricFamily> families;
  const auto per_device = [&](const char* name, const char* help, auto value) {
    obs::MetricFamily& f = obs::add_family(families, name, help);
    for (std::size_t d = 0; d < nodes_.size(); ++d)
      f.samples.push_back({device_label(d), static_cast<double>(value(d))});
  };
  const auto per_fleet_stream = [&](const char* name, const char* help,
                                    MetricType type, auto value) {
    obs::MetricFamily& f = obs::add_family(families, name, help, type);
    for (std::size_t i = 0; i < recs_.size(); ++i)
      f.samples.push_back({{{"stream", strprintf("%zu", i)}},
                           static_cast<double>(value(recs_[i]))});
  };
  const auto per_stream = [&](const char* name, const char* help,
                              MetricType type, auto value) {
    obs::MetricFamily& f = obs::add_family(families, name, help, type);
    for (std::size_t d = 0; d < planes.size(); ++d)
      for (std::size_t i = 0; i < planes[d].streams.size(); ++i)
        f.samples.push_back(
            {stream_label(d, i),
             static_cast<double>(value(planes[d].streams[i].stats))});
  };

  // Fleet level: liveness, strikes, migrations, stream placement.
  const int alive = alive_locked();
  obs::add_family(families, "mog_fleet_devices",
                  "Device nodes by liveness state")
      .samples = {{{{"state", "alive"}}, static_cast<double>(alive)},
                  {{{"state", "lost"}},
                   static_cast<double>(nodes_.size()) - alive}};
  per_device("mog_fleet_device_up",
             "1 while the device node is alive, 0 once declared lost",
             [&](std::size_t d) { return nodes_[d].alive ? 1 : 0; });
  per_device("mog_fleet_device_strikes",
             "Degradation strikes charged against each device",
             [&](std::size_t d) { return nodes_[d].strikes; });
  {
    obs::MetricFamily& f = obs::add_family(
        families, "mog_fleet_migrations_total",
        "Live-migration protocol actions", MetricType::kCounter);
    const MigrationStats& m = migration_stats_;
    const std::pair<const char*, std::uint64_t> events[] = {
        {"attempted", m.attempted},
        {"completed", m.completed},
        {"checkpoint_rejected", m.checkpoint_rejected},
        {"snapshot_retry", m.snapshot_retries},
        {"model_reset", m.models_reset},
        {"capacity_exhausted", m.capacity_exhausted},
        {"frame_requeued", m.frames_requeued},
        {"frame_dropped_in_transit", m.frames_dropped_in_transit},
    };
    for (const auto& [event, count] : events)
      f.samples.push_back({{{"event", event}}, static_cast<double>(count)});
  }
  per_fleet_stream("mog_fleet_stream_device",
                   "Current device hosting each fleet stream",
                   MetricType::kGauge,
                   [](const StreamRec& r) { return r.device; });
  per_fleet_stream("mog_fleet_stream_migrations_total",
                   "Completed failovers per fleet stream", MetricType::kCounter,
                   [](const StreamRec& r) { return r.migrations; });

  // Plane streams: queues, delivery, tier, latency, recovery.
  per_stream("mog_serve_frames_submitted_total", "Frames offered to submit()",
             MetricType::kCounter,
             [](const Stats& s) { return s.queue.submitted; });
  per_stream("mog_serve_frames_dropped_total",
             "Frames lost to the queue drop policy", MetricType::kCounter,
             [](const Stats& s) { return s.queue.dropped; });
  per_stream("mog_serve_frames_scheduled_total",
             "Frames popped into the pipeline", MetricType::kCounter,
             [](const Stats& s) { return s.frames_scheduled; });
  per_stream("mog_serve_masks_delivered_total", "Masks completed end to end",
             MetricType::kCounter,
             [](const Stats& s) { return s.masks_delivered; });
  per_stream("mog_serve_queue_depth",
             "Frames currently waiting in the ingress queue",
             MetricType::kGauge, [](const Stats& s) { return s.queue_depth; });
  per_stream("mog_serve_queue_high_water",
             "Maximum ingress queue depth observed", MetricType::kGauge,
             [](const Stats& s) { return s.queue.high_water; });
  per_stream("mog_serve_stream_tier",
             "Degradation-ladder tier (0 tiled GPU, 1 direct GPU, 2 CPU)",
             MetricType::kGauge,
             [](const Stats& s) { return static_cast<int>(s.tier); });
  {
    obs::MetricFamily& f = obs::add_family(
        families, "mog_serve_latency_seconds",
        "End-to-end modeled latency per delivered mask",
        MetricType::kHistogram);
    for (std::size_t d = 0; d < planes.size(); ++d)
      for (std::size_t i = 0; i < planes[d].streams.size(); ++i)
        f.histograms.push_back(obs::make_histogram(
            planes[d].streams[i].latencies, stream_label(d, i)));
  }
  {
    obs::MetricFamily& f = obs::add_family(
        families, "mog_serve_recovery_actions_total",
        "Recovery actions taken by each stream's resilient pipeline",
        MetricType::kCounter);
    for (std::size_t d = 0; d < planes.size(); ++d)
      for (std::size_t i = 0; i < planes[d].streams.size(); ++i) {
        const fault::RecoveryStats& r = planes[d].streams[i].stats.recovery;
        const std::pair<const char*, std::uint64_t> actions[] = {
            {"retry", r.retries},          {"mask_reused", r.masks_reused},
            {"frame_lost", r.frames_lost}, {"checkpoint", r.checkpoints},
            {"rollback", r.rollbacks},     {"degradation", r.degradations},
            {"deadline", r.deadline_exceeded},
        };
        for (const auto& [action, count] : actions) {
          obs::LabelSet labels = stream_label(d, i);
          labels.emplace_back("action", action);
          f.samples.push_back({std::move(labels), static_cast<double>(count)});
        }
      }
  }

  // Plane devices: admission and the shared engines.
  per_device("mog_serve_open_streams", "Streams currently admitted",
             [&](std::size_t d) { return planes[d].open_streams(); });
  per_device("mog_serve_device_memory_bytes",
             "Aggregate device memory held by admitted streams",
             [&](std::size_t d) { return planes[d].device_bytes; });
  per_device("mog_timeline_makespan_seconds",
             "Modeled completion time across engines and CPU-tier clocks",
             [&](std::size_t d) { return planes[d].makespan_seconds; });
  const auto per_engine = [&](const char* name, const char* help, auto value) {
    obs::MetricFamily& f = obs::add_family(families, name, help);
    for (std::size_t d = 0; d < planes.size(); ++d) {
      const serve::PlaneSnapshot& p = planes[d];
      const std::pair<const char*, double> engines[] = {
          {"dma", p.dma_busy_seconds}, {"kernel", p.kernel_busy_seconds}};
      for (const auto& [engine, busy] : engines) {
        obs::LabelSet labels = device_label(d);
        labels.emplace_back("engine", engine);
        f.samples.push_back({std::move(labels), value(p, busy)});
      }
    }
  };
  per_engine("mog_timeline_engine_busy_seconds",
             "Cumulative busy time of the shared device engines",
             [](const serve::PlaneSnapshot&, double busy) { return busy; });
  per_engine("mog_timeline_engine_utilization",
             "Engine busy time over the modeled makespan (0 when idle)",
             [](const serve::PlaneSnapshot& p, double busy) {
               const double span = p.engine_span_seconds;
               return span > 0 ? busy / span : 0.0;
             });

  // Global telemetry sinks, when installed: kernel-counter rollups and
  // trace-recorder drop health. The planes record their own custom series
  // (serve.latency_seconds, serve.queue_depth) into the registry, and
  // append_counter_registry would render those under the same mog_serve_*
  // names as the labelled families above — drop the duplicates.
  std::vector<obs::MetricFamily> global;
  if (const telemetry::CounterRegistry* reg = telemetry::counters())
    obs::append_counter_registry(*reg, global);
  if (const telemetry::TraceRecorder* tr = telemetry::tracer())
    obs::append_trace_health(*tr, global);
  for (obs::MetricFamily& f : global) {
    bool duplicate = false;
    for (const obs::MetricFamily& own : families)
      duplicate |= own.name == f.name;
    if (!duplicate) families.push_back(std::move(f));
  }
  return obs::render(families);
}

template <typename T>
bool DeviceFleet<T>::healthz(std::string& detail) const {
  std::lock_guard<std::mutex> lock(mu_);
  return healthz_locked(detail);
}

template <typename T>
bool DeviceFleet<T>::healthz_locked(std::string& detail) const {
  bool ok = alive_locked() > 0;
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    detail += strprintf("device %zu: %s, %d stream(s), %d strike(s)\n", d,
                        node.alive ? "alive" : "LOST",
                        node.server->open_streams(), node.strikes);
    // A stream stranded on a lost device (capacity exhausted fleet-wide)
    // keeps the fleet unhealthy until it is back on a GPU tier somewhere.
    ok = node.server->healthz(detail) && ok;
  }
  return ok;
}

template <typename T>
std::string DeviceFleet<T>::statusz() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== fleet ==\n" + summary_locked() + "\n== recovery ==\n";
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const serve::PlaneSnapshot plane = nodes_[d].server->snapshot();
    for (std::size_t i = 0; i < plane.streams.size(); ++i)
      out += strprintf("device %zu stream %zu: %s\n", d, i,
                       plane.streams[i].stats.recovery.summary().c_str());
  }
  out += "== health ==\n";
  healthz_locked(out);
  if (const telemetry::CounterRegistry* reg = telemetry::counters())
    out += "== kernel counters ==\n" + reg->summary() + "\n";
  return out;
}

template <typename T>
std::string DeviceFleet<T>::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_locked();
}

template <typename T>
std::string DeviceFleet<T>::summary_locked() const {
  const int alive = alive_locked();
  std::string out = strprintf(
      "fleet: %zu device(s), %d alive, %zu stream(s), %s", nodes_.size(),
      alive, recs_.size(), migration_stats_.summary().c_str());
  for (std::size_t d = 0; d < nodes_.size(); ++d) {
    const DeviceNode& node = nodes_[d];
    const serve::PlaneSnapshot plane = node.server->snapshot();
    out += strprintf(
        "\ndevice %zu [%s, %d strike(s), %llu in / %llu out migrations]: "
        "%d open stream(s), makespan %.3f s, device memory %s, "
        "engines %.3f s dma + %.3f s kernel busy",
        d, node.alive ? "alive" : "LOST", node.strikes,
        static_cast<unsigned long long>(node.migrations_in),
        static_cast<unsigned long long>(node.migrations_out),
        plane.open_streams(), plane.makespan_seconds,
        human_bytes(static_cast<double>(plane.device_bytes)).c_str(),
        plane.dma_busy_seconds, plane.kernel_busy_seconds);
    for (std::size_t i = 0; i < plane.streams.size(); ++i) {
      const serve::StreamStats& st = plane.streams[i].stats;
      const telemetry::Rollup lat =
          telemetry::make_rollup(plane.streams[i].latencies);
      out += strprintf(
          "\n  stream %zu [%s]: %llu in / %llu masks, %llu dropped, "
          "latency p50 %.3f ms p99 %.3f ms, device %.3f s dma + %.3f s "
          "kernel",
          i, fault::to_string(st.tier),
          static_cast<unsigned long long>(st.queue.submitted),
          static_cast<unsigned long long>(st.masks_delivered),
          static_cast<unsigned long long>(st.queue.dropped), lat.p50 * 1e3,
          lat.p99 * 1e3, st.dma_seconds, st.kernel_seconds);
    }
  }
  return out;
}

template class DeviceFleet<float>;
template class DeviceFleet<double>;

}  // namespace mog::cluster

// The benchmark's three workloads. Each one generates its inputs and
// references from the run seed before anything is timed, runs whole rounds
// of its operations (drive_rounds), checks every round's outputs outside the
// timed regions, and fills a Report.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "mog/common/image.hpp"
#include "mog/video/scene.hpp"

namespace perfbench {

/// Pre-rendered frames and ground-truth masks of one synthetic camera.
struct Clip {
  std::vector<mog::FrameU8> frames;
  std::vector<mog::FrameU8> truth;
};
Clip render_clip(const mog::SceneConfig& scene, int frames);

/// The surveillance clip of paper_ladder and cpu_facade: the default scene
/// (multi-modal texture, three objects, flicker and waving regions).
mog::SceneConfig clip_scene(const Options& o);

/// Scene seed of camera `camera` in a run with seed `run_seed`.
std::uint64_t scene_seed(std::uint64_t run_seed, int camera);

void run_paper_ladder(const Options& o, Tracer& tracer, Report& report);
void run_cpu_facade(const Options& o, Tracer& tracer, Report& report);
void run_camera_fleet(const Options& o, Tracer& tracer, Report& report);

}  // namespace perfbench

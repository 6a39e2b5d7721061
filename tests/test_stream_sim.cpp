// Tests for the discrete-event pipeline simulator, including the
// cross-validation of the Fig. 5 closed-form schedules it exists to check.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "mog/common/error.hpp"

#include "mog/gpusim/stream_sim.hpp"

namespace mog::gpusim {
namespace {

FrameSchedule sched(double up_ms, double kernel_ms, double down_ms) {
  FrameSchedule f;
  f.upload_seconds = up_ms * 1e-3;
  f.kernel_seconds = kernel_ms * 1e-3;
  f.download_seconds = down_ms * 1e-3;
  return f;
}

TEST(StreamSim, SequentialMatchesClosedFormExactly) {
  const FrameSchedule f = sched(2, 5, 2);
  for (const int n : {0, 1, 3, 50}) {
    const Timeline tl = simulate_sequential(f, n);
    EXPECT_NEAR(tl.total_seconds, sequential_pipeline_seconds(f, n),
                1e-12 + 1e-12 * tl.total_seconds);
    EXPECT_EQ(tl.ops.size(), static_cast<std::size_t>(3 * n));
  }
}

class OverlapAgreement
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(OverlapAgreement, EventSimMatchesClosedForm) {
  const auto [up, kernel, down] = GetParam();
  const FrameSchedule f = sched(up, kernel, down);
  for (const int n : {1, 2, 5, 40}) {
    const Timeline tl = simulate_overlapped(f, n);
    const double closed = overlapped_pipeline_seconds(f, n);
    // The closed form idealizes steady state; the event simulation includes
    // every buffer dependency. They must agree to within a couple of frame
    // periods' worth of pipeline fill.
    EXPECT_NEAR(tl.total_seconds, closed,
                0.05 * closed + 2.0 * (f.upload_seconds + f.download_seconds))
        << "n=" << n << " up=" << up << " kernel=" << kernel;
    // And the event sim can never beat physics: at least the serialized DMA
    // work and at least the serialized kernel work.
    EXPECT_GE(tl.total_seconds,
              n * (f.upload_seconds + f.download_seconds) - 1e-12);
    EXPECT_GE(tl.total_seconds, n * f.kernel_seconds - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, OverlapAgreement,
    ::testing::Values(std::make_tuple(2.0, 8.9, 2.0),   // kernel-bound (B)
                      std::make_tuple(2.0, 5.2, 2.0),   // kernel-bound (F)
                      std::make_tuple(4.0, 1.0, 4.0),   // transfer-bound
                      std::make_tuple(3.0, 6.0, 3.0),   // balanced
                      std::make_tuple(0.1, 10.0, 0.1)), // transfers trivial
    [](const auto& param_info) {
      return "case" + std::to_string(param_info.index);
    });

TEST(StreamSim, OverlappedNeverSlowerThanSequential) {
  for (const double kernel_ms : {1.0, 4.0, 10.0}) {
    const FrameSchedule f = sched(2, kernel_ms, 2);
    EXPECT_LE(simulate_overlapped(f, 20).total_seconds,
              simulate_sequential(f, 20).total_seconds + 1e-12);
  }
}

TEST(StreamSim, DependenciesAreRespected) {
  const FrameSchedule f = sched(2, 5, 2);
  const Timeline tl = simulate_overlapped(f, 6);
  double upload_end[6] = {}, kernel_end[6] = {}, kernel_start[6] = {},
         down_start[6] = {};
  for (const TimelineOp& op : tl.ops) {
    if (op.kind[0] == 'u') upload_end[op.frame] = op.end_seconds;
    if (op.kind[0] == 'k') {
      kernel_start[op.frame] = op.start_seconds;
      kernel_end[op.frame] = op.end_seconds;
    }
    if (op.kind[0] == 'd') down_start[op.frame] = op.start_seconds;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_GE(kernel_start[i], upload_end[i] - 1e-12) << i;
    EXPECT_GE(down_start[i], kernel_end[i] - 1e-12) << i;
  }
}

TEST(StreamSim, SingleDmaEngineSerializesTransfers) {
  const FrameSchedule f = sched(3, 1, 3);  // transfer-heavy
  const Timeline tl = simulate_overlapped(f, 10);
  // Collect DMA intervals and verify no overlap.
  std::vector<std::pair<double, double>> dma;
  for (const TimelineOp& op : tl.ops)
    if (op.engine == TimelineOp::Engine::kDma)
      dma.emplace_back(op.start_seconds, op.end_seconds);
  std::sort(dma.begin(), dma.end());
  for (std::size_t i = 1; i < dma.size(); ++i)
    EXPECT_GE(dma[i].first, dma[i - 1].second - 1e-12);
}

TEST(StreamSim, SteadyStateKernelsAreBackToBackWhenKernelBound) {
  const FrameSchedule f = sched(1, 8, 1);
  const Timeline tl = simulate_overlapped(f, 10);
  double prev_end = -1;
  for (const TimelineOp& op : tl.ops) {
    if (op.engine != TimelineOp::Engine::kKernel || op.frame < 2) continue;
    if (prev_end >= 0) {
      EXPECT_NEAR(op.start_seconds, prev_end, 1e-9);
    }
    prev_end = op.end_seconds;
  }
}

TEST(StreamSim, AsciiGanttRendersBothRows) {
  const FrameSchedule f = sched(2, 5, 2);
  const std::string art = simulate_overlapped(f, 4).ascii(64);
  EXPECT_NE(art.find("DMA |"), std::string::npos);
  EXPECT_NE(art.find("KER |"), std::string::npos);
  EXPECT_NE(art.find('U'), std::string::npos);
  EXPECT_NE(art.find('K'), std::string::npos);
  EXPECT_NE(art.find('D'), std::string::npos);
}

TEST(StreamSim, EmptyAndInvalidInputs) {
  const FrameSchedule f = sched(1, 1, 1);
  EXPECT_DOUBLE_EQ(simulate_overlapped(f, 0).total_seconds, 0.0);
  EXPECT_THROW(simulate_overlapped(f, -1), mog::Error);
  EXPECT_THROW(simulate_sequential(f, -1), mog::Error);
  EXPECT_EQ(simulate_sequential(f, 0).ascii(), "(empty timeline)\n");
}

// Drive one stream through a SharedTimeline with the serving scheduler's
// round structure: round r uploads, then round r-1's deferred download, then
// round r's kernel.
double pump_one_stream(SharedTimeline& st, int lane, const FrameSchedule& f,
                       int frames) {
  double pending_ready = 0;
  bool has_pending = false;
  for (int r = 0; r <= frames; ++r) {
    SharedTimeline::Window up{};
    if (r < frames) up = st.schedule_upload(lane, 0.0, f.upload_seconds);
    if (has_pending) {
      st.schedule_download(lane, pending_ready, f.download_seconds);
      has_pending = false;
    }
    if (r < frames) {
      const SharedTimeline::Window k =
          st.schedule_kernel(lane, up.end_seconds, f.kernel_seconds, 1);
      pending_ready = k.end_seconds;
      has_pending = true;
    }
  }
  return st.makespan_seconds();
}

TEST(SharedTimeline, SingleStreamReproducesOverlappedSchedule) {
  // The serving enqueue order (uploads ahead of the previous round's
  // downloads) must reproduce the Fig. 5(b) double-buffered schedule exactly
  // — kernel-bound, transfer-bound, and balanced shapes.
  for (const FrameSchedule f : {sched(2, 5, 2), sched(5, 2, 5),
                                sched(1, 1, 1)}) {
    for (const int n : {1, 2, 3, 8}) {
      const Timeline ref = simulate_overlapped(f, n);
      SharedTimeline st;
      const int lane = st.add_stream(2);
      const double makespan = pump_one_stream(st, lane, f, n);
      EXPECT_NEAR(makespan, ref.total_seconds, 1e-12 + 1e-12 * makespan)
          << "frames=" << n;
      EXPECT_EQ(st.timeline().ops.size(), ref.ops.size());
    }
  }
}

TEST(SharedTimeline, EnginesNeverOverlapAcrossStreams) {
  const FrameSchedule f = sched(2, 5, 2);
  SharedTimeline st;
  const int a = st.add_stream(2);
  const int b = st.add_stream(2);
  // Interleave two streams round-robin, the way the serving pump does.
  struct Lane {
    int id;
    double pending_ready = 0;
    bool has_pending = false;
    double up_end = 0;
  };
  Lane lanes[2] = {{a}, {b}};
  const int frames = 6;
  for (int r = 0; r <= frames; ++r) {
    for (Lane& l : lanes)
      if (r < frames)
        l.up_end =
            st.schedule_upload(l.id, 0.0, f.upload_seconds).end_seconds;
    for (Lane& l : lanes)
      if (l.has_pending) {
        st.schedule_download(l.id, l.pending_ready, f.download_seconds);
        l.has_pending = false;
      }
    for (Lane& l : lanes)
      if (r < frames) {
        l.pending_ready =
            st.schedule_kernel(l.id, l.up_end, f.kernel_seconds, 1)
                .end_seconds;
        l.has_pending = true;
      }
  }

  // One copy engine and one compute engine: within each, reservations are
  // granted in call order and may never overlap.
  double dma_cursor = 0, kernel_cursor = 0;
  for (const TimelineOp& op : st.timeline().ops) {
    double& cursor = op.engine == TimelineOp::Engine::kDma ? dma_cursor
                                                           : kernel_cursor;
    EXPECT_GE(op.start_seconds, cursor - 1e-12);
    cursor = op.end_seconds;
  }

  // Both streams moved 6 frames through a shared device: the makespan sits
  // between one stream's solo time and the strictly serialized bound.
  SharedTimeline solo;
  const double solo_span =
      pump_one_stream(solo, solo.add_stream(2), f, frames);
  EXPECT_GT(st.makespan_seconds(), solo_span);
  EXPECT_LE(st.makespan_seconds(), 2 * solo_span + 1e-12);
}

TEST(SharedTimeline, BufferRotationGatesUploadRunahead) {
  const FrameSchedule f = sched(1, 10, 1);
  SharedTimeline st;
  const int lane = st.add_stream(2);
  st.schedule_upload(lane, 0.0, f.upload_seconds);
  st.schedule_upload(lane, 0.0, f.upload_seconds);
  // Third upload would reuse slot 0, whose consuming kernel is not even
  // scheduled yet — the model must refuse rather than invent a time.
  EXPECT_THROW(st.schedule_upload(lane, 0.0, f.upload_seconds), mog::Error);

  // Once the kernel is scheduled, the reused slot frees at its completion;
  // the upload must wait for it even though the DMA engine is idle.
  const SharedTimeline::Window k =
      st.schedule_kernel(lane, 1e-3, f.kernel_seconds, 1);
  const SharedTimeline::Window up =
      st.schedule_upload(lane, 0.0, f.upload_seconds);
  EXPECT_GE(up.start_seconds, k.end_seconds - 1e-12);
}

TEST(SharedTimeline, ValidatesArguments) {
  SharedTimeline st;
  EXPECT_THROW(st.schedule_upload(0, 0.0, 1.0), mog::Error);  // no stream
  const int lane = st.add_stream(2);
  EXPECT_THROW(st.add_stream(0), mog::Error);
  EXPECT_THROW(st.schedule_upload(lane, -1.0, 1.0), mog::Error);
  // A kernel may not consume frames that were never uploaded.
  EXPECT_THROW(st.schedule_kernel(lane, 0.0, 1.0, 1), mog::Error);
  st.schedule_upload(lane, 0.0, 1e-3);
  EXPECT_THROW(st.schedule_kernel(lane, 0.0, 1.0, 2), mog::Error);
  EXPECT_EQ(st.num_streams(), 1);
}

}  // namespace
}  // namespace mog::gpusim

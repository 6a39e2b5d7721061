// Tests for mask post-processing: morphology identities and properties,
// connected components, and the foreground-validation pipeline.
#include <gtest/gtest.h>

#include "mog/postproc/validation.hpp"
#include "mog/common/rng.hpp"

namespace mog {
namespace {

FrameU8 with_rect(int w, int h, int x0, int y0, int x1, int y1) {
  FrameU8 m(w, h, 0);
  for (int y = y0; y <= y1; ++y)
    for (int x = x0; x <= x1; ++x) m.at(x, y) = 255;
  return m;
}

std::size_t count_fg(const FrameU8& m) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < m.size(); ++i) n += (m[i] != 0);
  return n;
}

// ---------------------------------------------------------------------------
// Morphology
// ---------------------------------------------------------------------------

TEST(Morphology, ErodeShrinksRectByRadius) {
  const FrameU8 m = with_rect(32, 32, 8, 8, 19, 19);  // 12x12
  const FrameU8 e = erode(m, 1);
  EXPECT_EQ(count_fg(e), 10u * 10u);
  EXPECT_EQ(e.at(9, 9), 255);
  EXPECT_EQ(e.at(8, 8), 0);
}

TEST(Morphology, DilateGrowsRectByRadius) {
  const FrameU8 m = with_rect(32, 32, 8, 8, 19, 19);
  const FrameU8 d = dilate(m, 2);
  EXPECT_EQ(count_fg(d), 16u * 16u);
  EXPECT_EQ(d.at(6, 6), 255);
  EXPECT_EQ(d.at(5, 5), 0);
}

TEST(Morphology, ErodeDilateDuality) {
  // erode(mask) == ~dilate(~mask) on the interior.
  Rng rng{3};
  FrameU8 m(24, 24, 0);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = rng.chance(0.4) ? 255 : 0;
  FrameU8 inv(24, 24);
  for (std::size_t i = 0; i < m.size(); ++i) inv[i] = m[i] ? 0 : 255;
  const FrameU8 a = erode(m, 1);
  const FrameU8 b = dilate(inv, 1);
  for (int y = 1; y < 23; ++y)
    for (int x = 1; x < 23; ++x)
      ASSERT_EQ(a.at(x, y) != 0, b.at(x, y) == 0) << x << "," << y;
}

TEST(Morphology, OpeningRemovesSpecksKeepsBlocks) {
  FrameU8 m = with_rect(32, 32, 10, 10, 20, 20);
  m.at(2, 2) = 255;  // isolated speck
  const FrameU8 o = morph_open(m, 1);
  EXPECT_EQ(o.at(2, 2), 0);
  EXPECT_EQ(o.at(15, 15), 255);
  // Opening restores the block's full extent (erode then dilate).
  EXPECT_EQ(count_fg(o), 11u * 11u);
}

TEST(Morphology, ClosingFillsHoles) {
  FrameU8 m = with_rect(32, 32, 10, 10, 20, 20);
  m.at(15, 15) = 0;  // pinhole
  const FrameU8 c = morph_close(m, 1);
  EXPECT_EQ(c.at(15, 15), 255);
  EXPECT_EQ(count_fg(c), 11u * 11u);
}

TEST(Morphology, OpenAndCloseAreIdempotent) {
  Rng rng{9};
  FrameU8 m(40, 30, 0);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = rng.chance(0.35) ? 255 : 0;
  const FrameU8 o1 = morph_open(m, 1);
  EXPECT_EQ(morph_open(o1, 1), o1);
  const FrameU8 c1 = morph_close(m, 1);
  EXPECT_EQ(morph_close(c1, 1), c1);
}

TEST(Morphology, MonotoneInclusionProperties) {
  // open(m) ⊆ m ⊆ close(m)
  Rng rng{11};
  FrameU8 m(30, 30, 0);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = rng.chance(0.3) ? 255 : 0;
  const FrameU8 o = morph_open(m, 1);
  const FrameU8 c = morph_close(m, 1);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (o[i]) {
      ASSERT_NE(m[i], 0);
    }
    if (m[i]) {
      ASSERT_NE(c[i], 0);
    }
  }
}

TEST(Morphology, MedianDespecklesBothPolarities) {
  FrameU8 m = with_rect(32, 32, 10, 10, 20, 20);
  m.at(2, 2) = 255;  // speck
  m.at(15, 15) = 0;  // pinhole
  const FrameU8 f = median3(m);
  EXPECT_EQ(f.at(2, 2), 0);
  EXPECT_EQ(f.at(15, 15), 255);
}

TEST(Morphology, RejectsBadRadius) {
  const FrameU8 m(16, 16, 0);
  EXPECT_THROW(erode(m, 0), Error);
  EXPECT_THROW(dilate(m, 99), Error);
}

// ---------------------------------------------------------------------------
// Border semantics — pinned, because the fused device kernel must reproduce
// them exactly (and the minmax_filter comments used to contradict the code).
// ---------------------------------------------------------------------------

TEST(MorphologyBorder, ErodePadsOutOfBoundsWithForeground) {
  // A foreground pixel on the border survives erosion when every IN-BOUNDS
  // neighbor is foreground: out-of-bounds cells act as foreground (identity
  // of min), so the frame edge alone cannot erode an object.
  FrameU8 m = with_rect(8, 8, 0, 0, 2, 2);  // 3x3 block in the corner
  const FrameU8 e = erode(m, 1);
  EXPECT_EQ(e.at(0, 0), 255);  // corner: all 3 in-bounds neighbors are fg
  EXPECT_EQ(e.at(1, 0), 255);  // edge: all 5 in-bounds neighbors are fg
  EXPECT_EQ(e.at(1, 1), 255);  // interior of the block
  EXPECT_EQ(e.at(2, 2), 0);    // interior corner: has bg neighbors
}

TEST(MorphologyBorder, DilatePadsOutOfBoundsWithBackground) {
  // Dilation treats out-of-bounds as background (identity of max): an empty
  // mask stays empty, and a border pixel only lights up from real neighbors.
  const FrameU8 empty(8, 8, 0);
  EXPECT_EQ(count_fg(dilate(empty, 1)), 0u);
  FrameU8 m(8, 8, 0);
  m.at(0, 0) = 255;
  const FrameU8 d = dilate(m, 1);
  EXPECT_EQ(count_fg(d), 4u);  // (0,0),(1,0),(0,1),(1,1) only
}

TEST(MorphologyBorder, ClosingStaysExtensiveAtTheBorder) {
  // The reason erosion pads with foreground: close(m) ⊇ m must hold at the
  // frame edge too. A block touching the border must survive closing intact.
  const FrameU8 m = with_rect(8, 8, 0, 0, 3, 3);
  const FrameU8 c = morph_close(m, 1);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i]) {
      ASSERT_NE(c[i], 0) << "closing lost a border pixel";
    }
  }
}

TEST(MorphologyBorder, Median3ShrinksWindowAndBreaksTiesToBackground) {
  // Border windows shrink (no padding). The vote is a STRICT majority
  // (2*fg > total), so ties — possible only in the even-sized 2x2 corner
  // and never in the 6-cell edge or 9-cell interior windows — clear to
  // background.
  FrameU8 m(8, 8, 0);
  // Corner window of (0,0) is {(0,0),(1,0),(0,1),(1,1)}: 2 fg of 4 = tie.
  m.at(0, 0) = 255;
  m.at(1, 1) = 255;
  EXPECT_EQ(median3(m).at(0, 0), 0);
  // 3 fg of 4 is a strict majority.
  m.at(1, 0) = 255;
  EXPECT_EQ(median3(m).at(0, 0), 255);
  // Edge window of (3,0) has 6 cells; 4 fg of 6 is a strict majority.
  FrameU8 e(8, 8, 0);
  e.at(2, 0) = e.at(3, 0) = e.at(4, 0) = e.at(3, 1) = 255;
  EXPECT_EQ(median3(e).at(3, 0), 255);
  // 3 fg of 6 is a tie: clears.
  e.at(3, 1) = 0;
  EXPECT_EQ(median3(e).at(3, 0), 0);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

TEST(Components, LabelsDistinctBlobs) {
  FrameU8 m(32, 16, 0);
  for (int x = 2; x <= 5; ++x)
    for (int y = 2; y <= 5; ++y) m.at(x, y) = 255;
  for (int x = 20; x <= 27; ++x)
    for (int y = 6; y <= 9; ++y) m.at(x, y) = 255;
  const LabeledComponents lc = label_components(m);
  ASSERT_EQ(lc.blobs.size(), 2u);
  EXPECT_NE(lc.labels.at(3, 3), lc.labels.at(22, 7));
  EXPECT_EQ(lc.labels.at(0, 0), -1);
}

TEST(Components, BlobGeometry) {
  FrameU8 m(32, 16, 0);
  for (int x = 4; x <= 9; ++x)
    for (int y = 3; y <= 6; ++y) m.at(x, y) = 255;
  const auto blobs = find_blobs(m);
  ASSERT_EQ(blobs.size(), 1u);
  const Blob& b = blobs[0];
  EXPECT_EQ(b.width(), 6);
  EXPECT_EQ(b.height(), 4);
  EXPECT_EQ(b.area, 24);
  EXPECT_DOUBLE_EQ(b.centroid_x, 6.5);
  EXPECT_DOUBLE_EQ(b.centroid_y, 4.5);
  EXPECT_DOUBLE_EQ(b.fill_ratio(), 1.0);
}

TEST(Components, DiagonalPixelsAreSeparateUnder4Connectivity) {
  FrameU8 m(8, 8, 0);
  m.at(2, 2) = 255;
  m.at(3, 3) = 255;
  EXPECT_EQ(label_components(m).blobs.size(), 2u);
}

TEST(Components, FindBlobsFiltersAndSorts) {
  FrameU8 m(32, 32, 0);
  m.at(1, 1) = 255;  // area 1
  for (int x = 10; x <= 13; ++x)
    for (int y = 10; y <= 13; ++y) m.at(x, y) = 255;  // area 16
  for (int x = 20; x <= 29; ++x)
    for (int y = 20; y <= 25; ++y) m.at(x, y) = 255;  // area 60
  const auto blobs = find_blobs(m, 2);
  ASSERT_EQ(blobs.size(), 2u);
  EXPECT_EQ(blobs[0].area, 60);
  EXPECT_EQ(blobs[1].area, 16);
}

TEST(Components, BlobsToMaskRoundTrip) {
  FrameU8 m(16, 16, 0);
  for (int x = 4; x <= 8; ++x) m.at(x, 4) = 255;
  m.at(12, 12) = 255;
  const LabeledComponents lc = label_components(m);
  const FrameU8 filtered = blobs_to_mask(lc, 2);
  EXPECT_EQ(filtered.at(5, 4), 255);
  EXPECT_EQ(filtered.at(12, 12), 0);
}

TEST(Components, EmptyMask) {
  const FrameU8 m(16, 16, 0);
  EXPECT_TRUE(label_components(m).blobs.empty());
  EXPECT_TRUE(find_blobs(m).empty());
}

TEST(Components, FullMaskIsOneBlob) {
  const FrameU8 m(16, 16, 255);
  const auto blobs = find_blobs(m);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].area, 256);
}

// ---------------------------------------------------------------------------
// Validation pipeline
// ---------------------------------------------------------------------------

TEST(Validation, CleansNoisyObjectMask) {
  Rng rng{21};
  FrameU8 m = with_rect(64, 48, 20, 12, 43, 35);  // 24x24 object
  // Punch pinholes into the object and sprinkle specks outside.
  for (int i = 0; i < 25; ++i) {
    m.at(21 + static_cast<int>(rng.uniform_u32(22)),
         13 + static_cast<int>(rng.uniform_u32(22))) = 0;
    m.at(static_cast<int>(rng.uniform_u32(18)),
         static_cast<int>(rng.uniform_u32(48))) = 255;
  }
  ValidationConfig cfg;
  cfg.min_blob_area = 30;
  const FrameU8 clean = validate_foreground(m, cfg);
  const auto blobs = find_blobs(clean);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].area, 24 * 24, 60);
  EXPECT_GT(blobs[0].fill_ratio(), 0.95);
}

TEST(Validation, FillRatioDropsWireframes) {
  // A 1-pixel-wide L-shape covers a big bounding box with few pixels.
  FrameU8 m(32, 32, 0);
  for (int i = 4; i < 28; ++i) m.at(i, 4) = 255;
  for (int i = 4; i < 28; ++i) m.at(4, i) = 255;
  ValidationConfig cfg;
  cfg.despeckle = false;
  cfg.close_radius = 0;
  cfg.min_blob_area = 0;
  cfg.min_fill_ratio = 0.5;
  const FrameU8 clean = validate_foreground(m, cfg);
  EXPECT_EQ(count_fg(clean), 0u);
}

TEST(Validation, DefaultConfigPreservesSolidObjects) {
  const FrameU8 m = with_rect(48, 48, 10, 10, 30, 30);
  const FrameU8 clean = validate_foreground(m);
  // The median pass may shave the four convex corners; nothing else moves.
  EXPECT_GE(count_fg(clean), count_fg(m) - 4);
  EXPECT_LE(count_fg(clean), count_fg(m));
  EXPECT_EQ(clean.at(20, 20), 255);
}

TEST(Validation, AllStagesDisabledReturnsInputUnchanged) {
  Rng rng{31};
  FrameU8 m(20, 14, 0);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = rng.chance(0.5) ? 255 : 0;
  ValidationConfig cfg;
  cfg.despeckle = false;
  cfg.close_radius = 0;
  cfg.min_blob_area = 0;
  EXPECT_FALSE(cfg.active());
  EXPECT_EQ(validate_foreground(m, cfg), m);
}

TEST(Validation, FusedConfigRunsDespeckleAndClose) {
  const ValidationConfig cfg = fused_validation_config();
  EXPECT_TRUE(cfg.active());
  EXPECT_TRUE(cfg.fusable());
  FrameU8 m = with_rect(32, 32, 10, 10, 20, 20);
  m.at(2, 2) = 255;  // speck: removed by the median
  m.at(15, 15) = 0;  // pinhole: filled by the close
  const FrameU8 clean = validate_foreground(m, cfg);
  EXPECT_EQ(clean.at(2, 2), 0);
  EXPECT_EQ(clean.at(15, 15), 255);
}

TEST(Validation, RejectsBadConfig) {
  ValidationConfig cfg;
  cfg.min_fill_ratio = 1.5;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = {};
  cfg.close_radius = -1;
  EXPECT_THROW(cfg.validate(), Error);
}

}  // namespace
}  // namespace mog

// Tests for DeepDirect model serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "crc32_reference.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "kernels/dispatch.h"
#include "temp_dir.h"

namespace deepdirect::core {
namespace {

using deepdirect::testing::TempPath;

graph::HiddenDirectionSplit MakeSplit(uint64_t seed = 5) {
  data::GeneratorConfig gen;
  gen.num_nodes = 250;
  gen.ties_per_node = 3.5;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 1);
  return graph::HideDirections(net, 0.4, rng);
}

DeepDirectConfig TinyConfig() {
  DeepDirectConfig config;
  config.dimensions = 16;
  config.epochs = 2.0;
  return config;
}

TEST(ModelIoTest, SaveLoadRoundTripPredictionsIdentical) {
  const auto split = MakeSplit();
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_test.ddm");
  ASSERT_TRUE(model->Save(path).ok());

  auto loaded = DeepDirectModel::Load(path, split.network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& restored = loaded.value();

  for (size_t e = 0; e < model->index().num_arcs(); e += 5) {
    const auto [u, v] = model->index().ArcAt(e);
    EXPECT_DOUBLE_EQ(model->Directionality(u, v),
                     restored->Directionality(u, v));
  }
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, *model),
            DirectionDiscoveryAccuracy(split, *restored));
  EXPECT_EQ(model->e_step_weights(), restored->e_step_weights());
  EXPECT_DOUBLE_EQ(model->e_step_bias(), restored->e_step_bias());
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsWrongNetwork) {
  const auto split = MakeSplit(5);
  const auto other_split = MakeSplit(99);
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_wrongnet.ddm");
  ASSERT_TRUE(model->Save(path).ok());
  auto loaded = DeepDirectModel::Load(path, other_split.network);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsGarbageFile) {
  const std::string path = TempPath("model_garbage.ddm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model";
  }
  const auto split = MakeSplit();
  auto loaded = DeepDirectModel::Load(path, split.network);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsTruncatedFile) {
  const auto split = MakeSplit();
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_trunc.ddm");
  ASSERT_TRUE(model->Save(path).ok());
  // Truncate to half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  auto loaded = DeepDirectModel::Load(path, split.network);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileReportsIOError) {
  const auto split = MakeSplit();
  auto loaded =
      DeepDirectModel::Load("/nonexistent/model.ddm", split.network);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
}

TEST(ModelIoTest, PartialWriteSweepNeverLoads) {
  // Crash-during-save regression: a save interrupted after any byte count
  // leaves a strict prefix. Every sampled prefix length must be rejected by
  // Load — cleanly, without crashing or accepting a half-written model.
  const auto split = MakeSplit();
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_partial.ddm");
  ASSERT_TRUE(model->Save(path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 0u);
  // Prime-strided sweep plus the structural boundaries (empty file, lone
  // magic, header, and one-byte-short).
  std::vector<size_t> cuts = {0, 4, 20, contents.size() - 1};
  for (size_t k = 0; k < contents.size(); k += 997) cuts.push_back(k);
  for (size_t cut : cuts) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(contents.data(), static_cast<std::streamsize>(cut));
    }
    auto loaded = DeepDirectModel::Load(path, split.network);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << "prefix of " << cut << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveIsAtomicOverAnExistingModel) {
  // Overwriting goes through temp+rename: after the save no .tmp remains,
  // and the destination is the new, fully valid model.
  const auto split = MakeSplit();
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_atomic.ddm");
  ASSERT_TRUE(model->Save(path).ok());
  ASSERT_TRUE(model->Save(path).ok());  // overwrite the existing file
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
  auto loaded = DeepDirectModel::Load(path, split.network);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(model->e_step_weights(), loaded.value()->e_step_weights());
  std::remove(path.c_str());
}

TEST(ModelIoTest, SingleByteCorruptionSweepNeverLoads) {
  // Bit-rot regression: flip one byte at a prime stride across the whole
  // file; every flip must be caught by a section or header CRC.
  const auto split = MakeSplit();
  const auto model = DeepDirectModel::Train(split.network, TinyConfig());
  const std::string path = TempPath("model_flip.ddm");
  ASSERT_TRUE(model->Save(path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  for (size_t k = 0; k < contents.size(); k += 131) {
    std::string corrupted = contents;
    corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    auto loaded = DeepDirectModel::Load(path, split.network);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << k << " loaded";
  }
  std::remove(path.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(ModelIoTest, SavedAndExportedBytesArePinned) {
  // A tiny seeded single-threaded model on the exact scalar kernel path:
  // its DDM2 and DDS1 files are pinned by size and whole-file CRC
  // (reference loop) as the format had them before writes were streamed,
  // so a changed byte anywhere fails the pin.
  const kernels::Mode mode = kernels::CurrentMode();
  kernels::SetMode(kernels::Mode::kScalar);
  const auto split = MakeSplit(7);
  DeepDirectConfig config = TinyConfig();
  config.dimensions = 8;
  config.epochs = 1.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  kernels::SetMode(mode);

  const std::string saved = TempPath("pinned.ddm");
  ASSERT_TRUE(model->Save(saved).ok());
  const std::string ddm2 = ReadFile(saved);
  EXPECT_EQ(ddm2.size(), 52494u);
  EXPECT_EQ(deepdirect::testing::ReferenceCrc32(ddm2.data(), ddm2.size()),
            0x69D3C7FBu);

  const std::string exported = TempPath("pinned.dds");
  ASSERT_TRUE(model->ExportServable(exported).ok());
  const std::string dds1 = ReadFile(exported);
  EXPECT_EQ(dds1.size(), 61192u);
  EXPECT_EQ(deepdirect::testing::ReferenceCrc32(dds1.data(), dds1.size()),
            0xA3F74819u);
}

TEST(ModelIoTest, MlpHeadIsNotSerializable) {
  const auto split = MakeSplit();
  auto config = TinyConfig();
  config.d_step_head = DStepHead::kMlp;
  const auto model = DeepDirectModel::Train(split.network, config);
  const auto status = model->Save(TempPath("model_mlp.ddm"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace deepdirect::core

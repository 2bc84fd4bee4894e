// Tests for the crash-safe checkpoint layer (src/train/checkpoint.{h,cc}):
// the CRC32 oracle against the byte-at-a-time reference, the pinned DDCK
// image, container format round trips, the fault-injection sweeps (every
// truncation point, single-byte corruption over the whole file), the
// write/retention policy, resume candidate selection, and the driver-level
// resume determinism contract on a toy trainer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "crc32_reference.h"
#include "obs/metrics.h"
#include "temp_dir.h"
#include "train/checkpoint.h"
#include "train/sgd_driver.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

using deepdirect::testing::ReferenceCrc32;

// Fresh scratch directory per test under the process's TempDir(); removed
// on teardown.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = deepdirect::testing::TempPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A writer with a representative section mix: metadata-sized POD, an empty
// payload, and a float blob. Owns the blob its writer borrows, so the
// writer stays valid for the sample's lifetime.
struct SampleContainer {
  SampleContainer() {
    for (size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<float>(i) * 0.5f;
    }
    const uint64_t counter = 41;
    writer.AddPod("counter", counter);
    writer.AddSection("empty", nullptr, 0);
    writer.AddVector("blob", blob);
  }

  std::vector<float> blob = std::vector<float>(37);
  CheckpointWriter writer;
};

TEST_F(CheckpointTest, Crc32MatchesKnownAnswer) {
  // The IEEE CRC32 check value ("123456789" -> 0xCBF43926).
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);
  // Incremental feeding matches the one-shot result.
  uint32_t crc = Crc32Update(0, data, 4);
  crc = Crc32Update(crc, data + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  std::vector<unsigned char> bytes(size);
  util::Rng rng(seed);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST_F(CheckpointTest, Crc32MatchesReferenceAtEveryLengthAndAlignment) {
  // Every length 0..4096 at every start offset 0..15 covers each tail
  // length of the 16-byte rounds at each load alignment.
  const std::vector<unsigned char> buffer = RandomBytes(4096 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 4096; ++length) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, length), ReferenceCrc32(p, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST_F(CheckpointTest, Crc32UpdateSplitsMatchOneShot) {
  // Chaining Crc32Update over any split of a buffer must equal the
  // one-shot CRC. Every 2-way and 3-way split of a 1 KiB buffer is
  // checked; on 1 MiB (where all splits would cost ~1e12 bytes of CRC)
  // every split point is drawn from the boundaries at both ends, a
  // 4093-byte stride and the powers of two +-1.
  const std::vector<unsigned char> small = RandomBytes(1024, 2);
  const uint32_t small_crc = ReferenceCrc32(small.data(), small.size());
  for (size_t a = 0; a <= small.size(); ++a) {
    const uint32_t head = Crc32Update(0, small.data(), a);
    ASSERT_EQ(Crc32Update(head, small.data() + a, small.size() - a),
              small_crc)
        << "split at " << a;
    for (size_t b = a; b <= small.size(); ++b) {
      const uint32_t mid = Crc32Update(head, small.data() + a, b - a);
      ASSERT_EQ(Crc32Update(mid, small.data() + b, small.size() - b),
                small_crc)
          << "splits at " << a << ", " << b;
    }
  }

  constexpr size_t kSize = size_t{1} << 20;
  const std::vector<unsigned char> big = RandomBytes(kSize, 3);
  const uint32_t big_crc = ReferenceCrc32(big.data(), big.size());
  std::vector<size_t> cuts;
  for (size_t k = 0; k <= 33; ++k) {
    cuts.push_back(k);
    cuts.push_back(kSize - k);
  }
  for (size_t k = 4093; k < kSize; k += 4093) cuts.push_back(k);
  for (size_t p = 2; p < kSize; p <<= 1) {
    cuts.insert(cuts.end(), {p - 1, p, p + 1});
  }
  for (size_t a : cuts) {
    const uint32_t head = Crc32Update(0, big.data(), a);
    ASSERT_EQ(Crc32Update(head, big.data() + a, kSize - a), big_crc)
        << "split at " << a;
  }
  // 3-way: pairs of the boundary and power-of-two points.
  std::vector<size_t> points;
  for (size_t k = 0; k <= 8; ++k) points.insert(points.end(), {k, kSize - k});
  for (size_t p = 32; p < kSize; p <<= 2) {
    points.insert(points.end(), {p - 1, p + 1});
  }
  for (size_t a : points) {
    const uint32_t head = Crc32Update(0, big.data(), a);
    for (size_t b : points) {
      if (b < a) continue;
      const uint32_t mid = Crc32Update(head, big.data() + a, b - a);
      ASSERT_EQ(Crc32Update(mid, big.data() + b, kSize - b), big_crc)
          << "splits at " << a << ", " << b;
    }
  }
}

TEST_F(CheckpointTest, SampleContainerBytesArePinned) {
  // The streamed writer must produce the exact image the copying writer
  // did: size and whole-file CRC (reference loop) recorded from it.
  const std::string bytes = SampleContainer().writer.Serialize();
  EXPECT_EQ(bytes.size(), 244u);
  EXPECT_EQ(ReferenceCrc32(bytes.data(), bytes.size()), 0x34B10238u);
  // WriteAtomic streams the same pieces Serialize concatenates.
  const std::string path = Path("pinned.ckpt");
  ASSERT_TRUE(SampleContainer().writer.WriteAtomic(path).ok());
  EXPECT_EQ(ReadFile(path), bytes);
}

TEST_F(CheckpointTest, ContainerRoundTripsAllSectionKinds) {
  const std::string bytes = SampleContainer().writer.Serialize();
  auto parsed = CheckpointData::Parse(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CheckpointData& data = parsed.value();

  EXPECT_TRUE(data.Has("counter"));
  EXPECT_TRUE(data.Has("empty"));
  EXPECT_TRUE(data.Has("blob"));
  EXPECT_FALSE(data.Has("missing"));

  uint64_t counter = 0;
  ASSERT_TRUE(data.ReadPod("counter", &counter).ok());
  EXPECT_EQ(counter, 41u);
  EXPECT_EQ(data.Section("empty").value().size(), 0u);
  std::vector<float> blob;
  ASSERT_TRUE(data.ReadVector("blob", &blob, 37).ok());
  EXPECT_EQ(blob[36], 18.0f);

  EXPECT_EQ(data.Section("missing").status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(CheckpointTest, TypedReadsRejectSizeMismatches) {
  const std::string bytes = SampleContainer().writer.Serialize();
  auto parsed = CheckpointData::Parse(bytes, "test");
  ASSERT_TRUE(parsed.ok());

  uint32_t narrow = 0;  // section holds 8 bytes
  EXPECT_EQ(parsed.value().ReadPod("counter", &narrow).code(),
            util::StatusCode::kInvalidArgument);
  std::vector<float> blob;
  EXPECT_EQ(parsed.value().ReadVector("blob", &blob, 5).code(),
            util::StatusCode::kInvalidArgument);
  std::vector<double> wrong_width;  // 37 floats are not a whole double count
  EXPECT_EQ(parsed.value().ReadVector("blob", &wrong_width).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, WriteAtomicLeavesNoTempFile) {
  const std::string path = Path("atomic.ckpt");
  ASSERT_TRUE(SampleContainer().writer.WriteAtomic(path).ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator()),
            1);
  auto read = CheckpointData::Read(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

TEST_F(CheckpointTest, ConcurrentAtomicWritesToOnePathPublishWholeFiles) {
  // Writers race to publish distinct images at one path and read it back
  // after each write: every read must be exactly one writer's complete
  // image (each has its own size and fill byte, so a torn or interleaved
  // file cannot pass), and no temp file may outlive the race.
  const std::string path = Path("shared.bin");
  constexpr int kWriters = 8;
  constexpr int kRounds = 20;
  constexpr size_t kBase = 64 * 1024;
  const auto image = [](size_t w) {
    return std::string(kBase + w, static_cast<char>('a' + w));
  };
  std::atomic<int> failed_writes{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        if (!AtomicWriteFile(path, image(w)).ok()) ++failed_writes;
        std::ifstream in(path, std::ios::binary);
        const std::string got((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        if (got.size() < kBase || got.size() >= kBase + kWriters ||
            got != image(got.size() - kBase)) {
          ++bad_reads;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"shared.bin"});
}

TEST_F(CheckpointTest, ReadOfMissingFileIsIOError) {
  auto read = CheckpointData::Read(Path("nope.ckpt"));
  EXPECT_EQ(read.status().code(), util::StatusCode::kIOError);
}

// The crash-fault sweep: a write interrupted after byte k leaves a strict
// prefix. Every prefix (including the empty file) must parse as a clean
// error — never crash, never succeed.
TEST_F(CheckpointTest, EveryTruncationPointIsRejected) {
  const std::string bytes = SampleContainer().writer.Serialize();
  for (size_t k = 0; k < bytes.size(); ++k) {
    auto parsed = CheckpointData::Parse(bytes.substr(0, k), "trunc");
    EXPECT_FALSE(parsed.ok()) << "prefix of " << k << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << "prefix of " << k << " bytes: " << parsed.status().ToString();
  }
}

// The bit-rot sweep: flipping any single byte anywhere — header, section
// name, size fields, payload, CRCs, footer — must be detected.
TEST_F(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const std::string bytes = SampleContainer().writer.Serialize();
  for (size_t k = 0; k < bytes.size(); ++k) {
    std::string corrupted = bytes;
    corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
    auto parsed = CheckpointData::Parse(corrupted, "flip");
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << k << " parsed";
  }
  // Extra appended garbage is also rejected (a torn double-write).
  auto trailing = CheckpointData::Parse(bytes + "x", "trailing");
  EXPECT_FALSE(trailing.ok());
}

// --- Checkpointer policy / retention / resume --------------------------

constexpr uint64_t kToyEpochs = 10;
constexpr uint64_t kToySteps = 100;  // 10 steps per epoch

RunShape ToyShape() {
  return RunShape{kToySteps, kToySteps / kToyEpochs, 7,
                  LrSchedule{0.1, 0.01, LrSchedule::Decay::kClampedLinear}};
}

CheckpointOptions ToyOptions(const std::string& dir) {
  CheckpointOptions options;
  options.dir = dir;
  options.trainer = "toy";
  return options;
}

// A Checkpointer over one uint64 counter; `state` must outlive it.
Checkpointer ToyCheckpointer(const CheckpointOptions& options,
                             uint64_t* state) {
  return Checkpointer(
      options, ToyShape(),
      [state](CheckpointWriter& writer) { writer.AddPod("state", *state); },
      [state](const CheckpointData& data) {
        return data.ReadPod("state", state);
      });
}

// Drives `epochs` boundaries as the SgdDriver would.
void DriveEpochs(Checkpointer& ckpt, uint64_t* state, util::Rng& rng,
                 uint64_t first_epoch, uint64_t epochs) {
  const uint64_t spe = kToySteps / kToyEpochs;
  for (uint64_t e = first_epoch; e < first_epoch + epochs; ++e) {
    *state += e + 1;
    const EpochEnd end{e, (e + 1) * spe, 0.0, (e + 1) * spe >= kToySteps};
    if (ckpt.AtEpochBoundary(end, rng)) break;
  }
}

TEST_F(CheckpointTest, KeepLastPrunesOldestCheckpoints) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.keep_last = 3;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);

  // Boundaries 1..9 wrote (the final boundary does not); 3 newest survive.
  const auto paths = ckpt.ListCheckpoints();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], ckpt.PathFor(9));
  EXPECT_EQ(paths[1], ckpt.PathFor(8));
  EXPECT_EQ(paths[2], ckpt.PathFor(7));
  EXPECT_FALSE(fs::exists(ckpt.PathFor(6)));
}

TEST_F(CheckpointTest, ZeroEpochCadenceDisablesWrites) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.every_n_epochs = 0;
  options.policy.every_seconds = 0.0;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  EXPECT_FALSE(ckpt.enabled());
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);
  EXPECT_TRUE(ckpt.ListCheckpoints().empty());
  EXPECT_FALSE(ckpt.stopped());
}

TEST_F(CheckpointTest, TimePolicyTriggersBetweenEpochCadences) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.every_n_epochs = 0;       // epoch trigger off
  options.policy.every_seconds = 0.001;    // fires at nearly every boundary
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  EXPECT_TRUE(ckpt.enabled());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  DriveEpochs(ckpt, &state, rng, 0, 1);
  EXPECT_EQ(ckpt.ListCheckpoints().size(), 1u);
}

TEST_F(CheckpointTest, ResumeRestoresNewestCheckpoint) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 4);
  const uint64_t state_at_4 = state;

  options.resume = true;
  uint64_t restored = 0;
  util::Rng fresh_rng(99);
  Checkpointer reader(ToyCheckpointer(options, &restored));
  EXPECT_EQ(reader.Resume(fresh_rng), 4u);
  EXPECT_EQ(restored, state_at_4);
  // The RNG stream continues exactly where the writer's stood.
  EXPECT_EQ(fresh_rng.Next(), rng.Next());
}

TEST_F(CheckpointTest, ResumeSkipsCorruptNewestCheckpoint) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 2);
  const uint64_t state_at_1 = 1;  // after boundary 0 only

  // Corrupt the newest checkpoint (epoch 2): flip one payload byte.
  std::string bytes = ReadFile(writer.PathFor(2));
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFile(writer.PathFor(2), bytes);

  options.resume = true;
  uint64_t restored = 0;
  util::Rng fresh_rng(99);
  Checkpointer reader(ToyCheckpointer(options, &restored));
  EXPECT_EQ(reader.Resume(fresh_rng), 1u);
  EXPECT_EQ(restored, state_at_1);
}

TEST_F(CheckpointTest, ResumeIgnoresOtherTrainersAndShapes) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 3);

  // A different trainer tag sees nothing, even in the same directory.
  CheckpointOptions other_trainer = options;
  other_trainer.trainer = "other";
  other_trainer.resume = true;
  uint64_t restored = 0;
  util::Rng r1(2);
  Checkpointer other(ToyCheckpointer(other_trainer, &restored));
  EXPECT_EQ(other.Resume(r1), 0u);

  // A changed run shape (different budget) rejects every candidate.
  CheckpointOptions resumed = options;
  resumed.resume = true;
  RunShape other_shape = ToyShape();
  other_shape.total_steps *= 2;
  Checkpointer mismatched(
      resumed, other_shape,
      [&](CheckpointWriter& w) { w.AddPod("state", restored); },
      [&](const CheckpointData& d) { return d.ReadPod("state", &restored); });
  util::Rng r2(2);
  EXPECT_EQ(mismatched.Resume(r2), 0u);
  EXPECT_EQ(restored, 0u);
}

TEST_F(CheckpointTest, FailedTrainerLoadLeavesRngUntouched) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 2);

  // A load callback that rejects every candidate: the caller's RNG must
  // keep its pre-resume stream (no partial restore).
  options.resume = true;
  Checkpointer rejecting(
      options, ToyShape(), [](CheckpointWriter&) {},
      [](const CheckpointData&) {
        return util::Status::InvalidArgument("wrong state layout");
      });
  util::Rng probe(99);
  util::Rng untouched(99);
  EXPECT_EQ(rejecting.Resume(probe), 0u);
  EXPECT_EQ(probe.Next(), untouched.Next());
}

TEST_F(CheckpointTest, StopAfterEpochsSimulatesPreemption) {
  CheckpointOptions options = ToyOptions(dir_);
  options.stop_after_epochs = 4;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);
  EXPECT_TRUE(ckpt.stopped());
  // Stopped after 4 boundaries: epochs 5.. never ran.
  EXPECT_EQ(state, 1u + 2u + 3u + 4u);
  EXPECT_EQ(ckpt.ListCheckpoints().front(), ckpt.PathFor(4));
}

#if DEEPDIRECT_OBS
TEST_F(CheckpointTest, WriteMetricsCoverTheWholeImage) {
  // checkpoint.bytes is the published file's size; write_seconds records
  // one sample per write, timed from the first section to the rename.
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  registry.set_enabled(true);
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, 1);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  registry.set_enabled(false);
  registry.Reset();

  EXPECT_EQ(snapshot.counters.at("checkpoint.writes"), 1u);
  EXPECT_EQ(snapshot.counters.at("checkpoint.bytes"),
            fs::file_size(ckpt.PathFor(1)));
  const auto& seconds = snapshot.histograms.at("checkpoint.write_seconds");
  EXPECT_EQ(seconds.count, 1u);
  EXPECT_GT(seconds.max, 0.0);
}
#endif  // DEEPDIRECT_OBS

// --- Driver-level resume determinism on a toy trainer ------------------

// A minimal RNG-consuming trainer on the real SgdDriver: params[i] nudged
// by draws from the step RNG. Returns the final parameters.
std::vector<float> RunToyTrainer(const std::string& ckpt_dir, bool resume,
                                 uint64_t stop_after_epochs,
                                 size_t num_threads = 1) {
  constexpr size_t kParams = 32;
  std::vector<float> params(kParams, 0.0f);
  util::Rng rng(42);
  // Deterministic init consumes the stream before training, as the real
  // trainers' FillUniform does.
  for (float& p : params) {
    p = static_cast<float>(rng.NextDouble()) * 0.01f;
  }

  SgdOptions options;
  options.steps = kToySteps;
  options.steps_per_epoch = kToySteps / kToyEpochs;
  options.total_steps = kToySteps;
  options.num_threads = num_threads;
  options.lr = LrSchedule{0.1, 0.01, LrSchedule::Decay::kClampedLinear};
  options.shard_seed = 7;

  CheckpointOptions ckpt_options;
  ckpt_options.dir = ckpt_dir;
  ckpt_options.trainer = "toy_driver";
  ckpt_options.resume = resume;
  ckpt_options.stop_after_epochs = stop_after_epochs;
  Checkpointer checkpointer(
      ckpt_options,
      RunShape{options.steps, options.steps_per_epoch, options.shard_seed,
               options.lr},
      [&](CheckpointWriter& writer) { writer.AddVector("params", params); },
      [&](const CheckpointData& data) {
        return data.ReadVector("params", &params, kParams);
      });
  options.start_epoch = checkpointer.Resume(rng);
  options.checkpointer = &checkpointer;

  SgdDriver driver(options);
  driver.Run(rng, [&](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    const size_t i = ctx.rng.NextIndex(kParams);
    const float delta =
        static_cast<float>(ctx.lr * (ctx.rng.NextDouble() - 0.5));
    A::Store(params[i], A::Load(params[i]) + delta);
    return static_cast<double>(delta);
  });
  return params;
}

TEST_F(CheckpointTest, SerialResumeIsBitIdenticalFromEveryBoundary) {
  const std::vector<float> straight = RunToyTrainer("", false, 0);
  for (uint64_t stop = 1; stop < kToyEpochs; ++stop) {
    const std::string dir = Path("stop_" + std::to_string(stop));
    fs::create_directories(dir);
    RunToyTrainer(dir, false, stop);       // interrupted run
    const std::vector<float> resumed = RunToyTrainer(dir, true, 0);
    EXPECT_EQ(resumed, straight) << "interrupted after epoch " << stop;
  }
}

TEST_F(CheckpointTest, MultiThreadedResumeCompletesCleanly) {
  const std::string dir = Path("mt");
  fs::create_directories(dir);
  RunToyTrainer(dir, false, 3, 4);
  const std::vector<float> resumed = RunToyTrainer(dir, true, 0, 4);
  // Hogwild resume restarts from the boundary and must finish with sane,
  // bounded parameters (the exact interleaving is not reproducible).
  for (float p : resumed) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_LT(std::abs(p), 1.0f);
  }
}

}  // namespace
}  // namespace deepdirect::train

#include "train/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kFormatVersion = 1;
constexpr std::array<char, 4> kFooterMagic{'D', 'D', 'E', 'N'};
constexpr size_t kMaxSectionName = 255;

/// The process umask, read without the set-and-restore race of umask(2);
/// falls back to 022 where /proc is unavailable.
mode_t ProcessUmask() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Umask:", 0) == 0) {
      return static_cast<mode_t>(std::stoul(line.substr(6), nullptr, 8));
    }
  }
  return 022;
}

/// Bounds-checked cursor over an in-memory container image. Every read
/// either succeeds or records a truncation error naming the offset.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }

  util::Status ReadRaw(void* out, size_t size, std::string_view what) {
    if (remaining() < size) {
      std::ostringstream msg;
      msg << origin_ << ": truncated reading " << what << " at offset "
          << offset_ << " (need " << size << " bytes, have " << remaining()
          << ")";
      return util::Status::InvalidArgument(msg.str());
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
    return util::Status::OK();
  }

  template <typename T>
  util::Status Read(T* out, std::string_view what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(T), what);
  }

  util::Status Skip(size_t size, std::string_view what) {
    if (remaining() < size) {
      std::ostringstream msg;
      msg << origin_ << ": truncated reading " << what << " at offset "
          << offset_ << " (need " << size << " bytes, have " << remaining()
          << ")";
      return util::Status::InvalidArgument(msg.str());
    }
    offset_ += size;
    return util::Status::OK();
  }

 private:
  std::string_view bytes_;
  const std::string& origin_;
  size_t offset_ = 0;
};

/// Engine-owned metadata section; must match the live RunShape on resume.
struct CheckpointMeta {
  uint64_t epochs_done = 0;
  uint64_t next_step = 0;
  uint64_t total_steps = 0;
  uint64_t steps_per_epoch = 0;
  uint64_t shard_seed = 0;
  double lr_initial = 0.0;
  double lr_min_fraction = 0.0;
  uint32_t lr_decay = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(CheckpointMeta) == 64);

void WarnSkip(const std::string& path, const util::Status& status) {
  std::cerr << "[checkpoint] skipping " << path << ": " << status.ToString()
            << "\n";
}

// Slicing-by-16 (Intel's slicing-by-8 widened to 16 bytes per round):
// table k maps a byte to its CRC contribution after k further zero bytes,
// so one round folds 16 input bytes with 16 independent lookups instead of
// a 16-long dependency chain. The word loads read bytes in memory order
// only on a little-endian host, as the raw-POD container formats already
// assume.
static_assert(std::endian::native == std::endian::little,
              "Crc32Update's word loads assume a little-endian host");

using Crc32Tables = std::array<std::array<uint32_t, 256>, 16>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline uint32_t LoadWord(const unsigned char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Crc32Tables& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; size >= 16; p += 16, size -= 16) {
    const uint32_t a = LoadWord(p) ^ crc;
    const uint32_t b = LoadWord(p + 4);
    const uint32_t c = LoadWord(p + 8);
    const uint32_t d = LoadWord(p + 12);
    crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^ t[13][(a >> 16) & 0xFF] ^
          t[12][a >> 24] ^ t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
          t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^ t[7][c & 0xFF] ^
          t[6][(c >> 8) & 0xFF] ^ t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^
          t[3][d & 0xFF] ^ t[2][(d >> 8) & 0xFF] ^ t[1][(d >> 16) & 0xFF] ^
          t[0][d >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

util::Status AtomicWriteFile(const std::string& path,
                             std::span<const std::string_view> pieces) {
  const fs::path target(path);
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  // A unique temp file per call, so concurrent writers to one destination
  // never share (and interleave into) a temp file; the last rename wins
  // with a complete image.
  std::string tmp_path =
      (dir / (target.filename().string() + ".tmp.XXXXXX")).string();
  const int fd = ::mkstemp(tmp_path.data());
  if (fd < 0) {
    return util::Status::IOError("cannot create a temp file for " + path +
                                 ": " + std::strerror(errno));
  }
  const auto fail = [&](const std::string& what) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return util::Status::IOError(what + " " + tmp_path + ": " + reason);
  };
  // mkstemp creates 0600; give the published file the mode a plain create
  // would have had.
  if (::fchmod(fd, 0666 & ~ProcessUmask()) != 0) return fail("chmod");
  for (const std::string_view bytes : pieces) {
    for (size_t done = 0; done < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return fail("short write to");
      done += static_cast<size_t>(n);
    }
  }
  // Flush file data to stable storage before the rename publishes it; a
  // rename that survives a crash must never point at unflushed data.
  if (::fsync(fd) != 0) return fail("fsync failed for");
  if (::close(fd) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return util::Status::IOError("close failed for " + tmp_path + ": " +
                                 reason);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return util::Status::IOError("rename " + tmp_path + " -> " + path +
                                 " failed: " + reason);
  }
  // Persist the directory entry too; best-effort (some filesystems refuse
  // O_RDONLY on directories), the data itself is already durable.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return util::Status::OK();
}

void CheckpointWriter::AddSection(std::string_view name, const void* data,
                                  size_t size) {
  DD_CHECK(!name.empty());
  DD_CHECK_LE(name.size(), kMaxSectionName);
  for (const Section& section : sections_) {
    DD_CHECK_MSG(section.name != name,
                 "duplicate checkpoint section: " << name);
  }
  Section section;
  section.name = std::string(name);
  section.data = static_cast<const char*>(data);
  section.size = size;
  const uint32_t name_size = static_cast<uint32_t>(name.size());
  const uint64_t payload_size = size;
  section.head.append(reinterpret_cast<const char*>(&name_size),
                      sizeof(name_size));
  section.head.append(name);
  section.head.append(reinterpret_cast<const char*>(&payload_size),
                      sizeof(payload_size));
  sections_.push_back(std::move(section));
}

uint64_t CheckpointWriter::ByteSize() const {
  uint64_t size = header_.size() + kFooterMagic.size();
  for (const Section& section : sections_) {
    size += section.head.size() + section.size + sizeof(section.crc);
  }
  return size;
}

std::vector<std::string_view> CheckpointWriter::Pieces() {
  const uint64_t count = sections_.size();
  std::memcpy(header_.data(), magic_.data(), magic_.size());
  std::memcpy(header_.data() + 4, &kFormatVersion, sizeof(kFormatVersion));
  std::memcpy(header_.data() + 8, &count, sizeof(count));
  const uint32_t header_crc = Crc32(header_.data(), 16);
  std::memcpy(header_.data() + 16, &header_crc, sizeof(header_crc));

  std::vector<std::string_view> pieces;
  pieces.reserve(3 * sections_.size() + 2);
  pieces.emplace_back(header_.data(), header_.size());
  for (Section& section : sections_) {
    section.crc = Crc32Update(Crc32(section.head.data(), section.head.size()),
                              section.data, section.size);
    pieces.emplace_back(section.head);
    pieces.emplace_back(section.data, section.size);
    pieces.emplace_back(reinterpret_cast<const char*>(&section.crc),
                        sizeof(section.crc));
  }
  pieces.emplace_back(kFooterMagic.data(), kFooterMagic.size());
  return pieces;
}

std::string CheckpointWriter::Serialize() {
  std::string out;
  out.reserve(ByteSize());
  for (const std::string_view piece : Pieces()) out.append(piece);
  return out;
}

util::Status CheckpointWriter::WriteAtomic(const std::string& path) {
  return AtomicWriteFile(path, Pieces());
}

util::Result<CheckpointData> CheckpointData::Parse(
    std::string bytes, const std::string& origin,
    std::array<char, 4> magic) {
  CheckpointData data(std::move(bytes), origin);
  ByteReader reader(data.bytes_, data.origin_);

  std::array<char, 4> file_magic{};
  DD_RETURN_NOT_OK(reader.ReadRaw(file_magic.data(), 4, "magic"));
  if (file_magic != magic) {
    return util::Status::InvalidArgument(
        origin + ": bad magic (not a " +
        std::string(magic.data(), magic.size()) + " file)");
  }
  uint32_t version = 0;
  DD_RETURN_NOT_OK(reader.Read(&version, "version"));
  if (version != kFormatVersion) {
    std::ostringstream msg;
    msg << origin << ": unsupported format version " << version
        << " (expected " << kFormatVersion << ")";
    return util::Status::InvalidArgument(msg.str());
  }
  uint64_t section_count = 0;
  DD_RETURN_NOT_OK(reader.Read(&section_count, "section count"));
  uint32_t header_crc = 0;
  const size_t header_size = reader.offset();
  DD_RETURN_NOT_OK(reader.Read(&header_crc, "header CRC"));
  if (Crc32(data.bytes_.data(), header_size) != header_crc) {
    return util::Status::InvalidArgument(origin + ": header CRC mismatch");
  }
  // Each section costs at least name_size + payload_size + CRC bytes; an
  // absurd count from a flipped bit must not drive a huge loop.
  if (section_count > data.bytes_.size() / (sizeof(uint32_t) * 2)) {
    std::ostringstream msg;
    msg << origin << ": implausible section count " << section_count;
    return util::Status::InvalidArgument(msg.str());
  }

  for (uint64_t s = 0; s < section_count; ++s) {
    const size_t section_start = reader.offset();
    uint32_t name_size = 0;
    DD_RETURN_NOT_OK(reader.Read(&name_size, "section name size"));
    if (name_size == 0 || name_size > kMaxSectionName) {
      std::ostringstream msg;
      msg << origin << ": bad section name size " << name_size
          << " at offset " << section_start;
      return util::Status::InvalidArgument(msg.str());
    }
    std::string name(name_size, '\0');
    DD_RETURN_NOT_OK(reader.ReadRaw(name.data(), name_size, "section name"));
    uint64_t payload_size = 0;
    DD_RETURN_NOT_OK(reader.Read(&payload_size, "section payload size"));
    const size_t payload_offset = reader.offset();
    DD_RETURN_NOT_OK(reader.Skip(payload_size, "section payload"));
    uint32_t section_crc = 0;
    DD_RETURN_NOT_OK(reader.Read(&section_crc, "section CRC"));
    const size_t covered = payload_offset + payload_size - section_start;
    if (Crc32(data.bytes_.data() + section_start, covered) != section_crc) {
      return util::Status::InvalidArgument(origin + ": CRC mismatch in section '" +
                                           name + "'");
    }
    const auto [it, inserted] = data.sections_.emplace(
        std::move(name), std::make_pair(payload_offset,
                                        static_cast<size_t>(payload_size)));
    if (!inserted) {
      return util::Status::InvalidArgument(origin + ": duplicate section '" +
                                           it->first + "'");
    }
  }

  std::array<char, 4> footer{};
  DD_RETURN_NOT_OK(reader.ReadRaw(footer.data(), 4, "footer magic"));
  if (footer != kFooterMagic) {
    return util::Status::InvalidArgument(origin + ": bad footer magic");
  }
  if (reader.remaining() != 0) {
    std::ostringstream msg;
    msg << origin << ": " << reader.remaining()
        << " trailing bytes after footer";
    return util::Status::InvalidArgument(msg.str());
  }
  return data;
}

util::Result<CheckpointData> CheckpointData::Read(
    const std::string& path, std::array<char, 4> magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return util::Status::IOError("read error on " + path);
  }
  return Parse(std::move(buffer).str(), path, magic);
}

util::Result<std::string_view> CheckpointData::Section(
    std::string_view name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    return util::Status::NotFound(origin_ + ": no section '" +
                                  std::string(name) + "'");
  }
  return std::string_view(bytes_).substr(it->second.first,
                                         it->second.second);
}

util::Status CheckpointData::SizeMismatch(std::string_view name,
                                          size_t expected,
                                          size_t got) const {
  std::ostringstream msg;
  msg << origin_ << ": section '" << name << "' has " << got
      << " bytes, expected " << expected;
  return util::Status::InvalidArgument(msg.str());
}

Checkpointer::Checkpointer(CheckpointOptions options, RunShape shape,
                           SaveFn save_state, LoadFn load_state)
    : options_(std::move(options)),
      shape_(shape),
      save_(std::move(save_state)),
      load_(std::move(load_state)) {}

std::string Checkpointer::PathFor(uint64_t epochs_done) const {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%08llu.ckpt",
                static_cast<unsigned long long>(epochs_done));
  return (fs::path(options_.dir) / (options_.trainer + suffix)).string();
}

std::vector<std::string> Checkpointer::ListCheckpoints() const {
  std::vector<std::string> paths;
  if (options_.dir.empty()) return paths;
  std::error_code ec;
  const std::string prefix = options_.trainer + "-";
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 5 &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  // Zero-padded epoch counters make lexicographic order chronological.
  std::sort(paths.rbegin(), paths.rend());
  return paths;
}

uint64_t Checkpointer::Resume(util::Rng& rng) {
  if (!options_.resume || options_.dir.empty()) return 0;
  for (const std::string& path : ListCheckpoints()) {
    auto read = CheckpointData::Read(path);
    if (!read.ok()) {
      WarnSkip(path, read.status());
      continue;
    }
    const CheckpointData& data = read.value();

    CheckpointMeta meta;
    util::Status status = data.ReadPod("meta", &meta);
    std::vector<char> trainer_tag;
    if (status.ok()) status = data.ReadVector("trainer", &trainer_tag);
    std::vector<uint64_t> rng_state;
    if (status.ok()) status = data.ReadVector("rng", &rng_state, 4);
    if (status.ok() &&
        std::string(trainer_tag.begin(), trainer_tag.end()) !=
            options_.trainer) {
      status = util::Status::InvalidArgument(
          path + ": trainer tag '" +
          std::string(trainer_tag.begin(), trainer_tag.end()) +
          "' does not match '" + options_.trainer + "'");
    }
    if (status.ok() &&
        (meta.total_steps != shape_.total_steps ||
         meta.steps_per_epoch != shape_.steps_per_epoch ||
         meta.shard_seed != shape_.shard_seed ||
         meta.lr_initial != shape_.lr.initial ||
         meta.lr_min_fraction != shape_.lr.min_fraction ||
         meta.lr_decay != static_cast<uint32_t>(shape_.lr.decay))) {
      status = util::Status::InvalidArgument(
          path + ": run shape does not match the current configuration");
    }
    // Commit point: trainer state last, rng only after everything loaded.
    if (status.ok()) status = load_(data);
    if (!status.ok()) {
      WarnSkip(path, status);
      continue;
    }
    rng.set_state({rng_state[0], rng_state[1], rng_state[2], rng_state[3]});
    if (obs::Enabled()) {
      obs::Registry::Default().GetCounter("checkpoint.resumes")->Add(1);
    }
    return meta.epochs_done;
  }
  return 0;
}

void Checkpointer::Write(const EpochEnd& end, const util::Rng& rng) {
  obs::TraceSpan span("checkpoint.write");
  // Times the whole write: sections, CRCs, streaming, fsync and publish.
  util::Timer write_timer;
  CheckpointWriter writer;
  CheckpointMeta meta;
  meta.epochs_done = end.epoch + 1;
  meta.next_step = end.next_step;
  meta.total_steps = shape_.total_steps;
  meta.steps_per_epoch = shape_.steps_per_epoch;
  meta.shard_seed = shape_.shard_seed;
  meta.lr_initial = shape_.lr.initial;
  meta.lr_min_fraction = shape_.lr.min_fraction;
  meta.lr_decay = static_cast<uint32_t>(shape_.lr.decay);
  writer.AddPod("meta", meta);
  writer.AddSection("trainer", options_.trainer.data(),
                    options_.trainer.size());
  const std::array<uint64_t, 4> rng_state = rng.state();
  writer.AddSection("rng", rng_state.data(), rng_state.size() * 8);
  save_(writer);

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  const util::Status status = writer.WriteAtomic(PathFor(meta.epochs_done));
  if (!status.ok()) {
    // Losing one checkpoint must not kill a multi-hour run.
    std::cerr << "[checkpoint] write failed: " << status.ToString() << "\n";
    return;
  }
  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("checkpoint.writes")->Add(1);
    registry.GetCounter("checkpoint.bytes")->Add(writer.ByteSize());
    registry.GetHistogram("checkpoint.write_seconds")
        ->Observe(write_timer.ElapsedSeconds());
  }
  since_last_write_.Reset();
  Prune();
}

void Checkpointer::Prune() const {
  if (options_.policy.keep_last == 0) return;
  const std::vector<std::string> paths = ListCheckpoints();
  for (size_t i = options_.policy.keep_last; i < paths.size(); ++i) {
    std::error_code ec;
    fs::remove(paths[i], ec);
  }
}

bool Checkpointer::AtEpochBoundary(const EpochEnd& end,
                                   const util::Rng& rng) {
  ++epochs_this_run_;
  if (enabled()) {
    const CheckpointPolicy& policy = options_.policy;
    if (end.last) {
      // The final boundary is only written on request (write_final): a
      // completed run needs no resume point, but warm-start consumers
      // need the fully-trained state.
      if (policy.write_final) Write(end, rng);
    } else {
      const bool epoch_due = policy.every_n_epochs > 0 &&
                             (end.epoch + 1) % policy.every_n_epochs == 0;
      const bool time_due =
          policy.every_seconds > 0.0 &&
          since_last_write_.ElapsedSeconds() >= policy.every_seconds;
      if (epoch_due || time_due) Write(end, rng);
    }
  }
  if (options_.stop_after_epochs > 0 &&
      epochs_this_run_ >= options_.stop_after_epochs && !end.last) {
    stopped_ = true;
  }
  return stopped_;
}

}  // namespace deepdirect::train

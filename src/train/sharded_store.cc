#include "train/sharded_store.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>

#include "train/checkpoint.h"
#include "util/check.h"

namespace deepdirect::train {

namespace fmt = graph::shard;

namespace {

util::Status Defect(const std::string& path, const std::string& what) {
  return util::Status::InvalidArgument("shard store: " + path + ": " + what);
}

util::Status EnsureDir(const std::string& dir) {
  // Parents included: a nested --shard-dir must not require pre-creation.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return util::Status::OK();
  return util::Status::IOError("cannot create directory " + dir + ": " +
                               ec.message());
}

/// Resolved layout of one container file: canonical offsets for the given
/// payload sizes, in table order.
struct Layout {
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> sizes;
  uint64_t file_size = 0;
};

Layout ComputeLayout(std::span<const uint64_t> sizes) {
  Layout layout;
  layout.sizes.assign(sizes.begin(), sizes.end());
  layout.offsets.resize(sizes.size());
  uint64_t cursor = fmt::TableEnd(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    layout.offsets[i] = fmt::AlignUp(cursor);
    cursor = layout.offsets[i] + sizes[i];
  }
  layout.file_size = cursor;
  return layout;
}

/// Writes the header (with the given flags) and the section table into
/// `base`. Payloads must already be in place when `with_crcs` is set; the
/// meta CRC is always stamped last, over the header+table bytes with the
/// field zeroed.
void WriteHeaderAndTable(unsigned char* base, const Layout& layout,
                         const char* const* order, uint32_t flags,
                         bool with_crcs) {
  fmt::Header header{};
  std::memcpy(header.magic, fmt::kMagic.data(), fmt::kMagic.size());
  header.version = fmt::kVersion;
  header.section_count = layout.sizes.size();
  header.file_size = layout.file_size;
  header.meta_crc = 0;
  header.flags = flags;
  std::memcpy(base, &header, sizeof(header));
  for (size_t i = 0; i < layout.sizes.size(); ++i) {
    fmt::SectionEntry entry{};
    std::strncpy(entry.name, order[i], fmt::kSectionNameSize - 1);
    entry.offset = layout.offsets[i];
    entry.size = layout.sizes[i];
    entry.crc =
        with_crcs ? Crc32(base + layout.offsets[i], layout.sizes[i]) : 0;
    entry.reserved = 0;
    std::memcpy(base + sizeof(fmt::Header) + i * sizeof(entry), &entry,
                sizeof(entry));
  }
  const uint64_t table_end = fmt::TableEnd(layout.sizes.size());
  const uint32_t meta_crc = Crc32(base, table_end);
  std::memcpy(base + offsetof(fmt::Header, meta_crc), &meta_crc,
              sizeof(meta_crc));
}

struct SectionRange {
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// The DDS1 every-byte validation contract, applied to a DDSH container:
/// header sanity + sealed flag, meta CRC over header+table, per-entry
/// name/order/canonical-offset/reserved/CRC checks, no trailing bytes,
/// and zero alignment padding. Section sizes are checked by the caller
/// once the meta payload is parsed.
util::Status ValidateContainer(const unsigned char* base, uint64_t file_size,
                               const char* const* order, uint64_t count,
                               const std::string& path,
                               std::vector<SectionRange>* ranges) {
  if (file_size < sizeof(fmt::Header)) {
    return Defect(path, "file too small for a DDSH header (" +
                            std::to_string(file_size) + " bytes)");
  }
  fmt::Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, fmt::kMagic.data(), fmt::kMagic.size()) != 0) {
    return Defect(path, "bad magic (not a DDSH file)");
  }
  if (header.version != fmt::kVersion) {
    return Defect(path,
                  "unsupported version " + std::to_string(header.version));
  }
  if ((header.flags & fmt::kFlagSealed) == 0) {
    return Defect(path, "file is not sealed (crashed or live training run)");
  }
  if ((header.flags & ~fmt::kFlagSealed) != 0) {
    return Defect(path, "unknown header flags");
  }
  if (header.file_size != file_size) {
    return Defect(path, "header file_size " +
                            std::to_string(header.file_size) +
                            " != actual size " + std::to_string(file_size));
  }
  if (header.section_count != count) {
    return Defect(path, "expected " + std::to_string(count) +
                            " sections, found " +
                            std::to_string(header.section_count));
  }
  const uint64_t table_end = fmt::TableEnd(count);
  if (file_size < table_end) {
    return Defect(path, "file too small for the section table");
  }
  std::vector<unsigned char> prefix(base, base + table_end);
  std::memset(prefix.data() + offsetof(fmt::Header, meta_crc), 0,
              sizeof(uint32_t));
  if (Crc32(prefix.data(), prefix.size()) != header.meta_crc) {
    return Defect(path, "header/table CRC mismatch");
  }

  ranges->assign(count, {});
  uint64_t cursor = table_end;
  for (uint64_t i = 0; i < count; ++i) {
    fmt::SectionEntry entry;
    std::memcpy(&entry, base + sizeof(fmt::Header) + i * sizeof(entry),
                sizeof(entry));
    const size_t len = strnlen(entry.name, fmt::kSectionNameSize);
    if (len == fmt::kSectionNameSize || std::strcmp(entry.name, order[i]) != 0) {
      return Defect(path, "section " + std::to_string(i) + " is not '" +
                              order[i] + "'");
    }
    for (size_t b = len; b < fmt::kSectionNameSize; ++b) {
      if (entry.name[b] != '\0') {
        return Defect(path, "section name not NUL-padded");
      }
    }
    if (entry.reserved != 0) {
      return Defect(path, "nonzero reserved word in section '" +
                              std::string(order[i]) + "'");
    }
    const uint64_t canonical = fmt::AlignUp(cursor);
    if (entry.offset != canonical) {
      return Defect(path, "section '" + std::string(order[i]) +
                              "' at non-canonical offset");
    }
    if (entry.size > file_size || entry.offset > file_size - entry.size) {
      return Defect(path, "section '" + std::string(order[i]) +
                              "' extends past end of file");
    }
    if (Crc32(base + entry.offset, entry.size) != entry.crc) {
      return Defect(path, "section '" + std::string(order[i]) +
                              "' payload CRC mismatch");
    }
    (*ranges)[i] = {entry.offset, entry.size};
    cursor = entry.offset + entry.size;
  }
  if (cursor != file_size) {
    return Defect(path, "trailing bytes after the last section");
  }
  // Alignment padding gaps must read as zeros — corruption there would
  // otherwise be invisible to every CRC.
  cursor = table_end;
  for (uint64_t i = 0; i < count; ++i) {
    for (uint64_t b = cursor; b < (*ranges)[i].offset; ++b) {
      if (base[b] != 0) {
        return Defect(path,
                      "nonzero padding byte at offset " + std::to_string(b));
      }
    }
    cursor = (*ranges)[i].offset + (*ranges)[i].size;
  }
  return util::Status::OK();
}

/// Expected per-section payload sizes of a graph file with this meta.
std::vector<uint64_t> GraphSectionSizes(const fmt::GraphMeta& meta) {
  return {sizeof(fmt::GraphMeta), (meta.num_nodes + 1) * sizeof(uint64_t),
          meta.num_arcs * sizeof(uint32_t), meta.num_arcs * sizeof(uint32_t),
          meta.num_arcs * sizeof(uint8_t)};
}

/// Expected per-section payload sizes of a shard file with this meta.
std::vector<uint64_t> ShardSectionSizes(const fmt::ShardMeta& meta) {
  const uint64_t arcs = meta.arc_end - meta.arc_begin;
  return {sizeof(fmt::ShardMeta),
          arcs * sizeof(uint32_t),
          meta.num_slots * sizeof(double),
          meta.num_slots * sizeof(uint8_t),
          meta.num_slots == 0 ? 0 : (meta.num_slots + 1) * sizeof(uint32_t),
          meta.num_triad_pairs * sizeof(fmt::TriadPair),
          arcs * meta.dimensions * sizeof(float),
          arcs * meta.dimensions * sizeof(float)};
}

}  // namespace

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const ShardedStoreOptions& options, const ShardedStoreInit& init,
    util::Rng& rng, float init_lo, float init_hi) {
  const size_t num_arcs = init.adjacency.size();
  DD_CHECK_GT(num_arcs, 0u);
  DD_CHECK_GT(options.num_shards, 0u);
  DD_CHECK_LE(options.num_shards, num_arcs);
  DD_CHECK_GT(init.dimensions, 0u);
  DD_CHECK_EQ(init.sources.size(), num_arcs);
  DD_CHECK_EQ(init.classes.size(), num_arcs);
  DD_CHECK_EQ(init.slot.size(), num_arcs);
  DD_CHECK_EQ(init.degree_pseudo_label.size(), init.degree_active.size());
  DD_CHECK_EQ(init.triad_offsets.size(), init.degree_pseudo_label.size() + 1);
  DD_RETURN_NOT_OK(EnsureDir(options.dir));

  std::unique_ptr<ShardedStore> store(new ShardedStore());
  store->dir_ = options.dir;
  store->budget_bytes_ =
      static_cast<uint64_t>(options.ram_budget_mb) * 1024 * 1024;

  fmt::GraphMeta meta{};
  meta.kind = fmt::kGraphKind;
  meta.num_nodes = init.offsets.size() - 1;
  meta.num_arcs = num_arcs;
  meta.dimensions = init.dimensions;
  meta.num_shards = options.num_shards;
  meta.num_connected_pairs = init.num_connected_pairs;
  meta.arc_hash = init.arc_hash;
  store->meta_ = meta;
  store->arcs_per_shard_ =
      (num_arcs + options.num_shards - 1) / options.num_shards;
  store->row_bytes_ = init.dimensions * sizeof(float);

  // --- Graph file: built in memory, written atomically, sealed at birth.
  const std::string graph_path = options.dir + "/" + fmt::GraphFileName();
  {
    const std::vector<uint64_t> sizes = GraphSectionSizes(meta);
    const Layout layout = ComputeLayout(sizes);
    std::vector<unsigned char> image(layout.file_size, 0);
    std::memcpy(image.data() + layout.offsets[0], &meta, sizeof(meta));
    uint64_t* offsets_out =
        reinterpret_cast<uint64_t*>(image.data() + layout.offsets[1]);
    for (size_t i = 0; i < init.offsets.size(); ++i) {
      offsets_out[i] = init.offsets[i];
    }
    std::memcpy(image.data() + layout.offsets[2], init.adjacency.data(),
                sizes[2]);
    std::memcpy(image.data() + layout.offsets[3], init.sources.data(),
                sizes[3]);
    std::memcpy(image.data() + layout.offsets[4], init.classes.data(),
                sizes[4]);
    WriteHeaderAndTable(image.data(), layout, fmt::kGraphSectionOrder,
                        fmt::kFlagSealed, /*with_crcs=*/true);
    DD_RETURN_NOT_OK(AtomicWriteFile(
        graph_path, std::string_view(
                        reinterpret_cast<const char*>(image.data()),
                        image.size())));
  }
  {
    auto mapped = serve::MmapFile::Open(graph_path, serve::MmapAdvice::kRandom);
    if (!mapped.ok()) return mapped.status();
    store->graph_file_ = std::move(mapped).value();
    std::vector<SectionRange> ranges;
    const auto* base =
        static_cast<const unsigned char*>(store->graph_file_.data());
    DD_RETURN_NOT_OK(ValidateContainer(base, store->graph_file_.size(),
                                       fmt::kGraphSectionOrder,
                                       fmt::kGraphSectionCount, graph_path,
                                       &ranges));
    store->offsets_ =
        reinterpret_cast<const uint64_t*>(base + ranges[1].offset);
    store->adj_ = reinterpret_cast<const uint32_t*>(base + ranges[2].offset);
    store->src_ = reinterpret_cast<const uint32_t*>(base + ranges[3].offset);
    store->classes_ = base + ranges[4].offset;
  }

  // --- Shard files: pattern arena partitioned by owning arc range, emb
  // filled from `rng` in global row-major arc order (shards are laid out
  // in arc order, so sequential per-shard fills consume the exact draw
  // sequence of ml::Matrix::FillUniform on the whole matrix).
  store->shards_.reset(new Shard[options.num_shards]);
  for (size_t s = 0; s < options.num_shards; ++s) {
    const uint64_t arc_begin = s * store->arcs_per_shard_;
    const uint64_t arc_end =
        std::min<uint64_t>(num_arcs, (s + 1) * store->arcs_per_shard_);
    const uint64_t arc_count = arc_end - arc_begin;

    // Gather this shard's pattern subset with re-numbered local slots.
    std::vector<uint32_t> local_slot(arc_count, UINT32_MAX);
    std::vector<double> local_label;
    std::vector<uint8_t> local_active;
    std::vector<uint32_t> local_triad_off;
    std::vector<fmt::TriadPair> local_pairs;
    for (uint64_t e = arc_begin; e < arc_end; ++e) {
      const uint32_t g = init.slot[e];
      if (g == UINT32_MAX) continue;
      local_slot[e - arc_begin] = static_cast<uint32_t>(local_label.size());
      local_label.push_back(init.degree_pseudo_label[g]);
      local_active.push_back(init.degree_active[g]);
      local_triad_off.push_back(static_cast<uint32_t>(local_pairs.size()));
      for (uint32_t t = init.triad_offsets[g]; t < init.triad_offsets[g + 1];
           ++t) {
        local_pairs.push_back(init.triad_pairs[t]);
      }
    }
    if (!local_label.empty()) {
      local_triad_off.push_back(static_cast<uint32_t>(local_pairs.size()));
    }

    fmt::ShardMeta smeta{};
    smeta.kind = fmt::kShardKind;
    smeta.shard_index = s;
    smeta.arc_begin = arc_begin;
    smeta.arc_end = arc_end;
    smeta.dimensions = init.dimensions;
    smeta.num_slots = local_label.size();
    smeta.num_triad_pairs = local_pairs.size();
    smeta.arc_hash = init.arc_hash;

    const std::vector<uint64_t> sizes = ShardSectionSizes(smeta);
    const Layout layout = ComputeLayout(sizes);
    const std::string path =
        options.dir + "/" + fmt::ShardFileName(s);
    auto mapped = serve::MmapRwFile::Create(path, layout.file_size,
                                            serve::MmapAdvice::kRandom);
    if (!mapped.ok()) return mapped.status();
    serve::MmapRwFile file = std::move(mapped).value();
    auto* base = static_cast<unsigned char*>(file.data());
    const auto put = [&](size_t i, const void* data) {
      if (sizes[i] > 0) std::memcpy(base + layout.offsets[i], data, sizes[i]);
    };
    std::memcpy(base + layout.offsets[0], &smeta, sizeof(smeta));
    put(1, local_slot.data());
    put(2, local_label.data());
    put(3, local_active.data());
    put(4, local_triad_off.data());
    put(5, local_pairs.data());
    float* emb = reinterpret_cast<float*>(base + layout.offsets[6]);
    const uint64_t values = arc_count * init.dimensions;
    for (uint64_t i = 0; i < values; ++i) {
      emb[i] = static_cast<float>(rng.NextDoubleIn(init_lo, init_hi));
    }
    // conn stays zero (the file is a sparse hole).
    WriteHeaderAndTable(base, layout, fmt::kShardSectionOrder, /*flags=*/0,
                        /*with_crcs=*/false);

    Shard& shard = store->shards_[s];
    shard.file = std::move(file);
    shard.arc_begin = arc_begin;
    shard.arc_end = arc_end;
    shard.num_slots = smeta.num_slots;
    base = static_cast<unsigned char*>(shard.file.data());
    shard.slot = reinterpret_cast<const uint32_t*>(base + layout.offsets[1]);
    shard.label = reinterpret_cast<const double*>(base + layout.offsets[2]);
    shard.active = base + layout.offsets[3];
    shard.triad_off =
        reinterpret_cast<const uint32_t*>(base + layout.offsets[4]);
    shard.triad_pairs =
        reinterpret_cast<const fmt::TriadPair*>(base + layout.offsets[5]);
    shard.emb = reinterpret_cast<float*>(base + layout.offsets[6]);
    shard.conn = reinterpret_cast<float*>(base + layout.offsets[7]);
    shard.evict_offset = layout.offsets[6];
    shard.evict_bytes = layout.file_size - layout.offsets[6];
    // Creation touched every emb page; start training with nothing
    // resident so admission accounting sees the true working set.
    shard.file.DropResident(shard.evict_offset, shard.evict_bytes);
  }
  store->LayOutBlocks();
  return store;
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& dir, size_t ram_budget_mb) {
  std::unique_ptr<ShardedStore> store(new ShardedStore());
  store->dir_ = dir;
  store->budget_bytes_ = static_cast<uint64_t>(ram_budget_mb) * 1024 * 1024;

  const std::string graph_path = dir + "/" + fmt::GraphFileName();
  auto mapped = serve::MmapFile::Open(graph_path, serve::MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  store->graph_file_ = std::move(mapped).value();
  const auto* base =
      static_cast<const unsigned char*>(store->graph_file_.data());
  std::vector<SectionRange> ranges;
  DD_RETURN_NOT_OK(ValidateContainer(base, store->graph_file_.size(),
                                     fmt::kGraphSectionOrder,
                                     fmt::kGraphSectionCount, graph_path,
                                     &ranges));
  fmt::GraphMeta meta;
  if (ranges[0].size != sizeof(meta)) {
    return Defect(graph_path, "meta section has the wrong size");
  }
  std::memcpy(&meta, base + ranges[0].offset, sizeof(meta));
  if (meta.kind != fmt::kGraphKind) {
    return Defect(graph_path, "meta kind is not a graph");
  }
  if (meta.reserved0 != 0) {
    return Defect(graph_path, "nonzero reserved meta field");
  }
  if (meta.num_arcs == 0 || meta.num_shards == 0 || meta.dimensions == 0 ||
      meta.num_shards > meta.num_arcs) {
    return Defect(graph_path, "degenerate meta geometry");
  }
  const std::vector<uint64_t> expected = GraphSectionSizes(meta);
  for (size_t i = 0; i < expected.size(); ++i) {
    if (ranges[i].size != expected[i]) {
      return Defect(graph_path,
                    std::string("section '") + fmt::kGraphSectionOrder[i] +
                        "' has the wrong size for the meta geometry");
    }
  }
  store->meta_ = meta;
  store->arcs_per_shard_ =
      (meta.num_arcs + meta.num_shards - 1) / meta.num_shards;
  store->row_bytes_ = meta.dimensions * sizeof(float);
  store->offsets_ = reinterpret_cast<const uint64_t*>(base + ranges[1].offset);
  store->adj_ = reinterpret_cast<const uint32_t*>(base + ranges[2].offset);
  store->src_ = reinterpret_cast<const uint32_t*>(base + ranges[3].offset);
  store->classes_ = base + ranges[4].offset;
  // CSR sanity: offsets must be monotone and end at num_arcs, and every
  // adjacency entry must be a valid node — the store samples from these
  // without bounds checks on the hot path.
  if (store->offsets_[0] != 0 ||
      store->offsets_[meta.num_nodes] != meta.num_arcs) {
    return Defect(graph_path, "CSR offsets do not span the arc set");
  }
  for (uint64_t v = 0; v < meta.num_nodes; ++v) {
    if (store->offsets_[v] > store->offsets_[v + 1]) {
      return Defect(graph_path, "CSR offsets not monotone");
    }
  }
  for (uint64_t e = 0; e < meta.num_arcs; ++e) {
    if (store->adj_[e] >= meta.num_nodes || store->src_[e] >= meta.num_nodes) {
      return Defect(graph_path, "arc endpoint out of range");
    }
  }

  store->shards_.reset(new Shard[meta.num_shards]);
  for (size_t s = 0; s < meta.num_shards; ++s) {
    DD_RETURN_NOT_OK(store->AttachShard(s, dir + "/" + fmt::ShardFileName(s)));
  }
  store->LayOutBlocks();
  return store;
}

util::Status ShardedStore::AttachShard(size_t index,
                                       const std::string& path) {
  auto mapped = serve::MmapRwFile::Open(path, serve::MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  serve::MmapRwFile file = std::move(mapped).value();
  auto* base = static_cast<unsigned char*>(file.data());
  std::vector<SectionRange> ranges;
  DD_RETURN_NOT_OK(ValidateContainer(base, file.size(),
                                     fmt::kShardSectionOrder,
                                     fmt::kShardSectionCount, path, &ranges));
  fmt::ShardMeta smeta;
  if (ranges[0].size != sizeof(smeta)) {
    return Defect(path, "meta section has the wrong size");
  }
  std::memcpy(&smeta, base + ranges[0].offset, sizeof(smeta));
  if (smeta.kind != fmt::kShardKind) {
    return Defect(path, "meta kind is not a shard");
  }
  if (smeta.shard_index != index) {
    return Defect(path, "shard index does not match its file name");
  }
  if (smeta.arc_hash != meta_.arc_hash ||
      smeta.dimensions != meta_.dimensions) {
    return Defect(path, "shard does not belong to this store's graph");
  }
  const uint64_t want_begin = index * arcs_per_shard_;
  const uint64_t want_end =
      std::min<uint64_t>(meta_.num_arcs, (index + 1) * arcs_per_shard_);
  if (smeta.arc_begin != want_begin || smeta.arc_end != want_end) {
    return Defect(path, "shard arc range disagrees with the partition");
  }
  const std::vector<uint64_t> expected = ShardSectionSizes(smeta);
  for (size_t i = 0; i < expected.size(); ++i) {
    if (ranges[i].size != expected[i]) {
      return Defect(path, std::string("section '") +
                              fmt::kShardSectionOrder[i] +
                              "' has the wrong size for the meta geometry");
    }
  }
  {
    // Local slots and triad CSR must stay in bounds — the training hot
    // path indexes through them unchecked.
    const auto* slot =
        reinterpret_cast<const uint32_t*>(base + ranges[1].offset);
    for (uint64_t e = 0; e < smeta.arc_end - smeta.arc_begin; ++e) {
      if (slot[e] != UINT32_MAX && slot[e] >= smeta.num_slots) {
        return Defect(path, "pattern slot out of range");
      }
    }
    if (smeta.num_slots > 0) {
      const auto* off =
          reinterpret_cast<const uint32_t*>(base + ranges[4].offset);
      if (off[0] != 0 || off[smeta.num_slots] != smeta.num_triad_pairs) {
        return Defect(path, "triad CSR does not span the pair arena");
      }
      for (uint64_t t = 0; t < smeta.num_slots; ++t) {
        if (off[t] > off[t + 1]) {
          return Defect(path, "triad CSR offsets not monotone");
        }
      }
      const auto* pairs =
          reinterpret_cast<const fmt::TriadPair*>(base + ranges[5].offset);
      for (uint64_t t = 0; t < smeta.num_triad_pairs; ++t) {
        if (pairs[t].first >= meta_.num_arcs ||
            pairs[t].second >= meta_.num_arcs) {
          return Defect(path, "triad pair arc index out of range");
        }
      }
    } else if (smeta.num_triad_pairs != 0) {
      return Defect(path, "triad pairs without pattern slots");
    }
  }

  Shard& shard = shards_[index];
  shard.file = std::move(file);
  base = static_cast<unsigned char*>(shard.file.data());
  shard.arc_begin = smeta.arc_begin;
  shard.arc_end = smeta.arc_end;
  shard.num_slots = smeta.num_slots;
  shard.slot = reinterpret_cast<const uint32_t*>(base + ranges[1].offset);
  shard.label = reinterpret_cast<const double*>(base + ranges[2].offset);
  shard.active = base + ranges[3].offset;
  shard.triad_off = reinterpret_cast<const uint32_t*>(base + ranges[4].offset);
  shard.triad_pairs =
      reinterpret_cast<const fmt::TriadPair*>(base + ranges[5].offset);
  shard.emb = reinterpret_cast<float*>(base + ranges[6].offset);
  shard.conn = reinterpret_cast<float*>(base + ranges[7].offset);
  shard.evict_offset = ranges[6].offset;
  shard.evict_bytes = shard.file.size() - ranges[6].offset;
  return util::Status::OK();
}

void ShardedStore::LayOutBlocks() {
  size_t num_blocks = 0;
  for (size_t i = 0; i < meta_.num_shards; ++i) {
    Shard& s = shards_[i];
    const auto* base = static_cast<const unsigned char*>(s.file.data());
    s.block_origin = s.evict_offset / kBlockBytes * kBlockBytes;
    s.emb_rel = s.evict_offset - s.block_origin;
    s.conn_rel = static_cast<uint64_t>(
                     reinterpret_cast<const unsigned char*>(s.conn) - base) -
                 s.block_origin;
    s.first_block = num_blocks;
    num_blocks += (s.file.size() - s.block_origin + kBlockBytes - 1) /
                  kBlockBytes;
    block_shard_.resize(num_blocks, static_cast<uint32_t>(i));
  }
  blocks_.reset(new Block[num_blocks]);
}

void ShardedStore::BlockRange(size_t b, uint64_t* begin,
                              uint64_t* bytes) const {
  const Shard& s = shards_[block_shard_[b]];
  const uint64_t start = s.block_origin + (b - s.first_block) * kBlockBytes;
  *begin = std::max(start, s.evict_offset);
  *bytes = std::min<uint64_t>(start + kBlockBytes, s.file.size()) - *begin;
}

void ShardedStore::Admit(size_t b) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  if (blocks_[b].resident.load(std::memory_order_relaxed) != 0) return;
  uint64_t begin = 0;
  uint64_t incoming = 0;
  BlockRange(b, &begin, &incoming);
  // CLOCK: sweep the hand, giving referenced blocks a second chance and
  // evicting the first unreferenced one, until the incoming block fits.
  // Block b is not resident, so resident_bytes_ > 0 guarantees a victim
  // within two revolutions; the budget can never force b itself out, so a
  // budget smaller than one block degrades to exactly-one-resident. Past
  // two revolutions, concurrent touches are re-referencing blocks as fast
  // as the hand clears them; the second chance is then withheld so
  // admission always terminates.
  const size_t num_blocks = block_shard_.size();
  size_t swept = 0;
  while (resident_bytes_ > 0 && resident_bytes_ + incoming > budget_bytes_) {
    const size_t victim = hand_;
    hand_ = hand_ + 1 == num_blocks ? 0 : hand_ + 1;
    Block& candidate = blocks_[victim];
    if (candidate.resident.load(std::memory_order_relaxed) == 0) continue;
    if (candidate.referenced.load(std::memory_order_relaxed) != 0 &&
        ++swept <= 2 * num_blocks) {
      candidate.referenced.store(0, std::memory_order_relaxed);
      continue;
    }
    candidate.resident.store(0, std::memory_order_relaxed);
    uint64_t victim_begin = 0;
    uint64_t victim_bytes = 0;
    BlockRange(victim, &victim_begin, &victim_bytes);
    shards_[block_shard_[victim]].file.DropResident(victim_begin,
                                                    victim_bytes);
    resident_bytes_ -= victim_bytes;
    ++evictions_;
  }
  resident_bytes_ += incoming;
  max_resident_bytes_ = std::max(max_resident_bytes_, resident_bytes_);
  ++admissions_;
  blocks_[b].resident.store(1, std::memory_order_relaxed);
}

util::Status ShardedStore::Seal() {
  for (size_t s = 0; s < meta_.num_shards; ++s) {
    Shard& shard = shards_[s];
    auto* base = static_cast<unsigned char*>(shard.file.data());
    // Sequential sweep for the CRC pass, back to random afterwards.
    shard.file.Advise(0, shard.file.size(), serve::MmapAdvice::kSequential);
    Layout layout;
    layout.offsets.resize(fmt::kShardSectionCount);
    layout.sizes.resize(fmt::kShardSectionCount);
    for (size_t i = 0; i < fmt::kShardSectionCount; ++i) {
      fmt::SectionEntry entry;
      std::memcpy(&entry, base + sizeof(fmt::Header) + i * sizeof(entry),
                  sizeof(entry));
      layout.offsets[i] = entry.offset;
      layout.sizes[i] = entry.size;
    }
    layout.file_size = shard.file.size();
    WriteHeaderAndTable(base, layout, fmt::kShardSectionOrder,
                        fmt::kFlagSealed, /*with_crcs=*/true);
    DD_RETURN_NOT_OK(shard.file.Sync());
    shard.file.Advise(0, shard.file.size(), serve::MmapAdvice::kRandom);
  }
  return util::Status::OK();
}

ShardedStore::Stats ShardedStore::GetStats() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Stats stats;
  stats.admissions = admissions_;
  stats.evictions = evictions_;
  stats.resident_bytes = resident_bytes_;
  stats.max_resident_bytes = max_resident_bytes_;
  stats.budget_bytes = budget_bytes_;
  return stats;
}

size_t ShardedStore::NumResidentBlocks() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  size_t count = 0;
  for (size_t b = 0; b < block_shard_.size(); ++b) {
    count += blocks_[b].resident.load(std::memory_order_relaxed);
  }
  return count;
}

}  // namespace deepdirect::train

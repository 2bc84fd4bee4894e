#include "serve/servable_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/directionality.h"
#include "core/servable_format.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "train/checkpoint.h"

namespace deepdirect::serve {

namespace fmt = core::servable;

namespace {

util::Status Defect(const std::string& what) {
  return util::Status::InvalidArgument("servable model: " + what);
}

/// Expected payload size per section, derived from the meta section.
uint64_t ExpectedSize(const char* name, const fmt::Meta& meta) {
  if (std::strcmp(name, fmt::kSectionMeta) == 0) return sizeof(fmt::Meta);
  if (std::strcmp(name, fmt::kSectionOffsets) == 0) {
    return (meta.num_nodes + 1) * sizeof(uint64_t);
  }
  if (std::strcmp(name, fmt::kSectionAdj) == 0) {
    return meta.num_arcs * sizeof(uint32_t);
  }
  if (std::strcmp(name, fmt::kSectionEmbeddings) == 0) {
    return meta.num_arcs * meta.dimensions * sizeof(float);
  }
  if (std::strcmp(name, fmt::kSectionDStepW) == 0) {
    return meta.dimensions * sizeof(double);
  }
  if (std::strcmp(name, fmt::kSectionDStepB) == 0) return sizeof(double);
  return 0;
}

}  // namespace

util::Result<ServableModel> ServableModel::Open(const std::string& path,
                                                const ServeOptions& options) {
  auto mapped = MmapFile::Open(path, MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  MmapFile file = std::move(mapped).value();
  const auto* base = static_cast<const unsigned char*>(file.data());
  const uint64_t file_size = file.size();

  // --- Header ----------------------------------------------------------
  if (file_size < sizeof(fmt::Header)) {
    return Defect("file too small for a DDS1 header (" +
                  std::to_string(file_size) + " bytes)");
  }
  fmt::Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, fmt::kMagic.data(), fmt::kMagic.size()) != 0) {
    return Defect("bad magic (not a DDS1 file)");
  }
  if (header.version != fmt::kVersion) {
    return Defect("unsupported version " + std::to_string(header.version));
  }
  if (header.reserved != 0) return Defect("nonzero reserved header field");
  if (header.file_size != file_size) {
    return Defect("file size mismatch: header says " +
                  std::to_string(header.file_size) + " bytes, file has " +
                  std::to_string(file_size));
  }
  if (header.section_count != fmt::kSectionCount) {
    return Defect("expected " + std::to_string(fmt::kSectionCount) +
                  " sections, found " + std::to_string(header.section_count));
  }
  const uint64_t table_end =
      sizeof(fmt::Header) + fmt::kSectionCount * sizeof(fmt::SectionEntry);
  if (file_size < table_end) {
    return Defect("file truncated inside the section table");
  }

  // --- Meta CRC over header (field zeroed) + table ----------------------
  std::vector<unsigned char> meta_bytes(base, base + table_end);
  std::memset(meta_bytes.data() + offsetof(fmt::Header, meta_crc), 0,
              sizeof(header.meta_crc));
  if (train::Crc32(meta_bytes.data(), meta_bytes.size()) != header.meta_crc) {
    return Defect("header/table CRC mismatch");
  }

  // --- Section table: names, order, canonical layout -------------------
  fmt::SectionEntry table[fmt::kSectionCount];
  std::memcpy(table, base + sizeof(fmt::Header), sizeof(table));
  fmt::Meta meta{};
  uint64_t cursor = table_end;
  for (uint64_t s = 0; s < fmt::kSectionCount; ++s) {
    const fmt::SectionEntry& entry = table[s];
    if (entry.name[fmt::kSectionNameSize - 1] != '\0') {
      return Defect("unterminated section name at index " + std::to_string(s));
    }
    if (std::strcmp(entry.name, fmt::kSectionOrder[s]) != 0) {
      return Defect("expected section '" + std::string(fmt::kSectionOrder[s]) +
                    "' at index " + std::to_string(s) + ", found '" +
                    entry.name + "'");
    }
    if (entry.reserved != 0) {
      return Defect("nonzero reserved field in section '" +
                    std::string(entry.name) + "'");
    }
    cursor = fmt::AlignUp(cursor);
    if (entry.offset != cursor) {
      return Defect("section '" + std::string(entry.name) +
                    "' is not at its canonical offset");
    }
    if (entry.size > file_size || entry.offset > file_size - entry.size) {
      return Defect("section '" + std::string(entry.name) +
                    "' extends past the end of the file");
    }
    if (s == 0) {
      if (entry.size != sizeof(fmt::Meta)) {
        return Defect("meta section has wrong size");
      }
      std::memcpy(&meta, base + entry.offset, sizeof(meta));
      if (meta.dimensions == 0) return Defect("zero embedding dimensions");
      // Guard the size arithmetic below against overflowing u64.
      const uint64_t limit = std::numeric_limits<uint64_t>::max();
      if (meta.num_nodes >= limit / sizeof(uint64_t) ||
          meta.num_arcs >= limit / sizeof(uint32_t) ||
          (meta.num_arcs != 0 &&
           meta.dimensions > limit / sizeof(float) / meta.num_arcs)) {
        return Defect("meta counts overflow");
      }
    }
    if (entry.size != ExpectedSize(entry.name, meta)) {
      return Defect("section '" + std::string(entry.name) +
                    "' has wrong size for the model in 'meta'");
    }
    if (train::Crc32(base + entry.offset, entry.size) != entry.crc) {
      return Defect("CRC mismatch in section '" + std::string(entry.name) +
                    "'");
    }
    cursor = entry.offset + entry.size;
  }
  if (cursor != file_size) {
    return Defect("trailing bytes after the last section");
  }

  // --- Alignment padding must be zero -----------------------------------
  // Together with the CRCs above this covers every byte of the file: any
  // single-byte corruption or truncation fails one of these checks.
  uint64_t gap_start = table_end;
  for (const fmt::SectionEntry& entry : table) {
    for (uint64_t b = gap_start; b < entry.offset; ++b) {
      if (base[b] != 0) {
        return Defect("nonzero padding byte at offset " + std::to_string(b));
      }
    }
    gap_start = entry.offset + entry.size;
  }

  // --- Assemble the model and sanity-check the CSR arrays ---------------
  ServableModel model;
  model.num_nodes_ = meta.num_nodes;
  model.num_arcs_ = meta.num_arcs;
  model.dimensions_ = meta.dimensions;
  model.arc_hash_ = meta.arc_hash;
  model.offsets_ = reinterpret_cast<const uint64_t*>(base + table[1].offset);
  model.adj_ = reinterpret_cast<const uint32_t*>(base + table[2].offset);
  model.embeddings_ = reinterpret_cast<const float*>(base + table[3].offset);
  model.weights_ = reinterpret_cast<const double*>(base + table[4].offset);
  std::memcpy(&model.bias_, base + table[5].offset, sizeof(model.bias_));

  if (model.offsets_[0] != 0 ||
      model.offsets_[model.num_nodes_] != model.num_arcs_) {
    return Defect("CSR offsets do not span the arc count");
  }
  for (uint64_t u = 0; u < model.num_nodes_; ++u) {
    if (model.offsets_[u] > model.offsets_[u + 1]) {
      return Defect("CSR offsets are not monotone at node " +
                    std::to_string(u));
    }
  }
  for (uint64_t e = 0; e < model.num_arcs_; ++e) {
    if (model.adj_[e] >= model.num_nodes_) {
      return Defect("adjacency destination out of range at arc " +
                    std::to_string(e));
    }
  }

  model.file_ = std::move(file);
  model.cache_ = std::make_unique<ShardedTieCache>(options.cache_capacity,
                                                   options.cache_ways);
  auto& registry = obs::Registry::Default();
  model.obs_queries_ = registry.GetCounter("serve.queries");
  model.obs_batch_size_ = registry.GetHistogram("serve.batch.size");
  return model;
}

uint64_t ServableModel::FindArc(graph::NodeId u, graph::NodeId v) const {
  if (u >= num_nodes_) return num_arcs_;
  const uint32_t* row_begin = adj_ + offsets_[u];
  const uint32_t* row_end = adj_ + offsets_[u + 1];
  const uint32_t* it = std::lower_bound(row_begin, row_end, v);
  if (it == row_end || *it != v) return num_arcs_;
  return offsets_[u] + static_cast<uint64_t>(it - row_begin);
}

double ServableModel::ScoreArc(uint64_t arc) const {
  // The one scorer the trained models use, so served values match theirs
  // exactly (the golden parity tests assert equality).
  return ml::Sigmoid(ml::LinearScore(
      weights_, bias_, embeddings_ + arc * dimensions_, dimensions_));
}

util::Result<double> ServableModel::Query(graph::NodeId u,
                                          graph::NodeId v) const {
  if (obs::Enabled()) {
    obs_queries_->Add();
    obs_batch_size_->Observe(1.0);
  }
  const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
  double value = 0.0;
  if (cache_->Lookup(key, &value)) return value;
  const uint64_t arc = FindArc(u, v);
  if (arc == num_arcs_) {
    return core::NoTieError(u, v);
  }
  value = ScoreArc(arc);
  cache_->Insert(key, value);
  return value;
}

util::Status ServableModel::QueryBatch(std::span<const TiePair> ties,
                                       std::span<double> out,
                                       MissingPolicy policy) const {
  if (ties.size() != out.size()) {
    return util::Status::InvalidArgument(
        "QueryBatch spans disagree: " + std::to_string(ties.size()) +
        " ties vs " + std::to_string(out.size()) + " output slots");
  }
  if (obs::Enabled()) {
    obs_queries_->Add(ties.size());
    obs_batch_size_->Observe(static_cast<double>(ties.size()));
  }
  for (size_t i = 0; i < ties.size(); ++i) {
    const TiePair& tie = ties[i];
    const uint64_t key =
        (static_cast<uint64_t>(tie.u) << 32) | tie.v;
    if (cache_->Lookup(key, &out[i])) continue;
    const uint64_t arc = FindArc(tie.u, tie.v);
    if (arc == num_arcs_) {
      if (policy == MissingPolicy::kError) {
        return util::Status::NotFound(
            "no tie between " + std::to_string(tie.u) + " and " +
            std::to_string(tie.v) + " in the training network (batch item " +
            std::to_string(i) + ")");
      }
      out[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    out[i] = ScoreArc(arc);
    cache_->Insert(key, out[i]);
  }
  return util::Status::OK();
}

}  // namespace deepdirect::serve

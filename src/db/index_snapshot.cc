#include "db/index_snapshot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/quant_kernels.h"

namespace mocemg {
namespace {

// Snapshot header: magic+version tag, payload byte count (detects
// truncation), FNV-1a64 checksum of the payload (detects corruption).
// The newline in the magic catches CRLF-mangling transfers early, the
// digit at offset 8 is the format version. Version 2 added the
// quantized code width (8- or 4-bit packed) to the options block and
// to every partition. Version 3 added the resolved exact-scan
// precision to the options block and the fp32 mirror (float block,
// float row norms, max |element|) to every partition; version-2 files
// are still read (their partitions simply carry no mirror and load
// with exact_precision=f64), version-1 files are rejected with the
// detected version named. Writers always emit version 3.
constexpr char kMagic[] = "MOCEMGIX3\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
// 8-byte family prefix (magic minus version digit and newline), for
// version-aware unframing.
constexpr char kMagicPrefix[] = "MOCEMGIX";
constexpr size_t kPrefixLen = 8;
constexpr int kMinReadVersion = 2;
constexpr int kWriteVersion = 3;

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- little-endian primitive encoding -------------------------------

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double d : v) PutDouble(out, d);
}

void PutIndices(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t i : v) PutU64(out, i);
}

void PutBytes(std::string* out, const std::vector<uint8_t>& v) {
  PutU64(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()), v.size());
}

void PutFloats(std::string* out, const std::vector<float>& v) {
  PutU64(out, v.size());
  for (float f : v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }
  }
}

/// Bounds-checked cursor over the payload; every read fails with
/// ParseError instead of walking off the end, so a payload that lies
/// about its internal sizes (yet passes the checksum because it was
/// *written* that way) still cannot crash the loader.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Result<uint64_t> U64() {
    if (size_ - pos_ < 8) {
      return Status::ParseError("index snapshot payload ended mid-field");
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<double> Double() {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::vector<double>> Doubles(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 8) {
      return Status::ParseError("index snapshot double array overruns payload");
    }
    std::vector<double> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      MOCEMG_ASSIGN_OR_RETURN(v[i], Double());
    }
    return v;
  }

  Result<std::vector<size_t>> Indices(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 8) {
      return Status::ParseError("index snapshot index array overruns payload");
    }
    std::vector<size_t> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      MOCEMG_ASSIGN_OR_RETURN(uint64_t x, U64());
      v[i] = static_cast<size_t>(x);
    }
    return v;
  }

  Result<std::vector<float>> Floats(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n * 4) {
      return Status::ParseError(
          "index snapshot float array overruns payload");
    }
    std::vector<float> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<uint32_t>(
                    static_cast<unsigned char>(data_[pos_ + b]))
                << (8 * b);
      }
      pos_ += 4;
      std::memcpy(&v[i], &bits, sizeof(bits));
    }
    return v;
  }

  Result<std::vector<uint8_t>> Bytes(uint64_t max_elems) {
    MOCEMG_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > max_elems || size_ - pos_ < n) {
      return Status::ParseError("index snapshot byte array overruns payload");
    }
    std::vector<uint8_t> v(n);
    if (n > 0) {
      // An empty vector's data() may be null, which memcpy's nonnull
      // contract forbids even at length 0.
      std::memcpy(v.data(), data_ + pos_, n);
    }
    pos_ += n;
    return v;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A validated snapshot frame: the format version the file declared
/// plus its checksummed payload window.
struct FramedPayload {
  int version = 0;
  const char* payload = nullptr;
  uint64_t size = 0;
};

/// Validates the header of `bytes` and returns the declared version
/// plus the payload window. The version digit is parsed even on
/// rejection, so an old or future file fails with its *detected*
/// version named (and a regeneration hint) instead of an opaque magic
/// mismatch.
Result<FramedPayload> UnframeSnapshot(const std::string& bytes) {
  if (bytes.size() < kMagicLen + 16) {
    return Status::ParseError("index snapshot shorter than its header");
  }
  const char version_digit = bytes[kPrefixLen];
  if (bytes.compare(0, kPrefixLen, kMagicPrefix) != 0 ||
      bytes[kPrefixLen + 1] != '\n' || version_digit < '0' ||
      version_digit > '9') {
    return Status::ParseError(
        std::string("index snapshot magic/version mismatch (expected ") +
        kMagicPrefix + static_cast<char>('0' + kWriteVersion) + ")");
  }
  const int version = version_digit - '0';
  if (version < kMinReadVersion || version > kWriteVersion) {
    return Status::ParseError(
        "index snapshot is container version " + std::to_string(version) +
        "; this reader supports versions " +
        std::to_string(kMinReadVersion) + ".." +
        std::to_string(kWriteVersion) +
        " — regenerate the snapshot by re-saving the index");
  }
  Reader header(bytes.data() + kMagicLen, 16);
  MOCEMG_ASSIGN_OR_RETURN(uint64_t payload_size, header.U64());
  MOCEMG_ASSIGN_OR_RETURN(uint64_t checksum, header.U64());
  const size_t have = bytes.size() - kMagicLen - 16;
  if (have != payload_size) {
    return Status::ParseError(
        "index snapshot truncated: header promises " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(have));
  }
  const char* payload = bytes.data() + kMagicLen + 16;
  const uint64_t actual = Fnv1a64(payload, payload_size);
  if (actual != checksum) {
    return Status::ParseError(
        "index snapshot checksum mismatch (stored " +
        std::to_string(checksum) + ", computed " + std::to_string(actual) +
        "): file is corrupted");
  }
  FramedPayload out;
  out.version = version;
  out.payload = payload;
  out.size = payload_size;
  return out;
}

}  // namespace

/// Friend of FeatureIndex: reads and writes the private representation
/// field-for-field so a restored index is bit-identical to the saved
/// one (same partitions, same blocks, same quantized grids, same
/// epoch).
class IndexSnapshotCodec {
 public:
  using Partition = FeatureIndex::Partition;

  static void PutPartition(std::string* p, const Partition& part) {
    PutDouble(p, part.radius);
    PutDouble(p, part.radius_sq);
    PutDouble(p, part.max_norm_sq);
    PutDouble(p, part.quant_scale);
    PutDouble(p, part.quant_err_sq);
    PutDouble(p, part.quant_box_sq);
    PutU64(p, part.quant_bits);
    PutIndices(p, part.record_indices);
    PutDoubles(p, part.block);
    PutDoubles(p, part.norms_sq);
    PutDoubles(p, part.quant_offsets);
    PutBytes(p, part.quant_codes);
    // Version 3: the fp32 mirror (empty when the partition is coded,
    // the precision is f64, or the norm gate rejected it).
    PutDouble(p, part.mirror_max_abs);
    PutFloats(p, part.block_f32);
    PutFloats(p, part.norms_f32);
  }

  static Status ReadPartition(Reader* r, int version, uint64_t n_records,
                              uint64_t dim, Partition* part) {
    MOCEMG_ASSIGN_OR_RETURN(part->radius, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->radius_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->max_norm_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_scale, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_err_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(part->quant_box_sq, r->Double());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t quant_bits, r->U64());
    if (quant_bits != 8 && quant_bits != 4) {
      return Status::ParseError(
          "index snapshot partition carries quantized code width " +
          std::to_string(quant_bits) + " bits; this reader supports 8 or 4");
    }
    part->quant_bits = static_cast<uint8_t>(quant_bits);
    MOCEMG_ASSIGN_OR_RETURN(part->record_indices, r->Indices(n_records));
    const uint64_t n = part->record_indices.size();
    for (size_t idx : part->record_indices) {
      if (idx >= n_records) {
        return Status::ParseError(
            "index snapshot record index " + std::to_string(idx) +
            " out of range for database of size " +
            std::to_string(n_records));
      }
    }
    MOCEMG_ASSIGN_OR_RETURN(part->block, r->Doubles(n * dim));
    if (part->block.size() != n * dim) {
      return Status::ParseError("index snapshot block size mismatch");
    }
    MOCEMG_ASSIGN_OR_RETURN(part->norms_sq, r->Doubles(n));
    if (part->norms_sq.size() != n) {
      return Status::ParseError("index snapshot norms size mismatch");
    }
    MOCEMG_ASSIGN_OR_RETURN(part->quant_offsets, r->Doubles(dim));
    MOCEMG_ASSIGN_OR_RETURN(part->quant_codes, r->Bytes(n * dim));
    // The code array must match the declared width exactly: n*dim bytes
    // at 8 bits, n*ceil(dim/2) nibble-packed bytes at 4 bits. A payload
    // whose width field and code bytes disagree is rejected here rather
    // than mis-scanned later.
    const uint64_t expect_codes =
        part->quant_bits == 4 ? n * PackedNibbleStride(static_cast<size_t>(dim))
                              : n * dim;
    if (!part->quant_codes.empty() &&
        (part->quant_codes.size() != expect_codes ||
         part->quant_offsets.size() != dim)) {
      return Status::ParseError(
          "index snapshot quantized tier malformed: " +
          std::to_string(part->quant_codes.size()) + " code bytes but " +
          std::to_string(quant_bits) + "-bit width implies " +
          std::to_string(expect_codes));
    }
    // The f64 tier's tiled copy is derived from the block, so the
    // format does not carry it: rebuild it for an uncoded partition.
    part->tiles.clear();
    if (part->quant_codes.empty()) part->PackTiles(static_cast<size_t>(dim));
    // Version-2 partitions predate the fp32 mirror; leave it empty
    // (the loaded index behaves exactly like an f64 build).
    part->mirror_max_abs = 0.0;
    part->block_f32.clear();
    part->norms_f32.clear();
    if (version >= 3) {
      MOCEMG_ASSIGN_OR_RETURN(part->mirror_max_abs, r->Double());
      MOCEMG_ASSIGN_OR_RETURN(part->block_f32, r->Floats(n * dim));
      MOCEMG_ASSIGN_OR_RETURN(part->norms_f32, r->Floats(n));
      // The mirror is all-or-nothing per partition: a float block of
      // any size other than rows×dim (or a norms array that disagrees)
      // would mis-index the fp32 scan, so reject it here.
      if (part->block_f32.empty() ? !part->norms_f32.empty()
                                  : (part->block_f32.size() != n * dim ||
                                     part->norms_f32.size() != n)) {
        return Status::ParseError(
            "index snapshot fp32 mirror malformed: " +
            std::to_string(part->block_f32.size()) + " floats and " +
            std::to_string(part->norms_f32.size()) + " norms for " +
            std::to_string(n) + " rows of dimension " +
            std::to_string(dim));
      }
    }
    return Status::OK();
  }

  static std::string Serialize(const FeatureIndex& index) {
    std::string p;
    PutU64(&p, index.built_epoch_);
    PutU64(&p, index.database_ ? index.database_->feature_dimension() : 0);
    PutU64(&p, index.max_partition_size_);
    // Build options, so a reloaded index Rebuild()s identically.
    PutU64(&p, index.options_.num_partitions);
    PutU64(&p, index.options_.seed);
    PutU64(&p, index.options_.quantized_scan ? 1 : 0);
    PutU64(&p, index.options_.quantized_min_rows);
    PutU64(&p, index.options_.quant_bits);
    // Version 3: the *resolved* exact-scan precision (Rebuild stores a
    // concrete f64/f32 back into the options before packing).
    PutU64(&p, static_cast<uint64_t>(index.options_.exact_precision));
    PutU64(&p, index.options_.parallel.max_threads);
    PutU64(&p, index.options_.parallel.grain);
    // Packed references.
    PutU64(&p, index.references_.rows());
    PutU64(&p, index.references_.cols());
    PutDoubles(&p, index.references_.data());
    // Partitions, in index order.
    PutU64(&p, index.partitions_.size());
    for (const Partition& part : index.partitions_) {
      PutPartition(&p, part);
    }
    return p;
  }

  static Result<FeatureIndex> Deserialize(const char* payload, size_t size,
                                          int version,
                                          const MotionDatabase* database) {
    Reader r(payload, size);
    FeatureIndex index;
    index.database_ = database;
    MOCEMG_ASSIGN_OR_RETURN(uint64_t epoch, r.U64());
    index.built_epoch_ = epoch;
    MOCEMG_ASSIGN_OR_RETURN(uint64_t dim, r.U64());
    if (dim != database->feature_dimension()) {
      return Status::ParseError(
          "index snapshot dimension " + std::to_string(dim) +
          " does not match database dimension " +
          std::to_string(database->feature_dimension()));
    }
    // max_partition_size: kept in the format for stability, but
    // recomputed below (RefreshDerived) instead of trusted.
    MOCEMG_RETURN_NOT_OK(r.U64().status());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_parts_opt, r.U64());
    index.options_.num_partitions = static_cast<size_t>(num_parts_opt);
    MOCEMG_ASSIGN_OR_RETURN(index.options_.seed, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qscan, r.U64());
    index.options_.quantized_scan = qscan != 0;
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qmin, r.U64());
    index.options_.quantized_min_rows = static_cast<size_t>(qmin);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t qbits, r.U64());
    if (qbits != 8 && qbits != 4) {
      return Status::ParseError(
          "index snapshot options carry quantized code width " +
          std::to_string(qbits) + " bits; this reader supports 8 or 4");
    }
    index.options_.quant_bits = static_cast<size_t>(qbits);
    if (version >= 3) {
      MOCEMG_ASSIGN_OR_RETURN(uint64_t precision, r.U64());
      if (precision != static_cast<uint64_t>(ExactPrecision::kF64) &&
          precision != static_cast<uint64_t>(ExactPrecision::kF32)) {
        return Status::ParseError(
            "index snapshot options carry exact precision tag " +
            std::to_string(precision) + "; this reader supports f64 (1) "
            "or f32 (2)");
      }
      index.options_.exact_precision =
          static_cast<ExactPrecision>(precision);
    } else {
      // Version-2 snapshots predate the fp32 tier and carry no
      // mirrors: they load as concrete f64 regardless of the
      // environment, so behavior is a property of the file, not of
      // where it is opened.
      index.options_.exact_precision = ExactPrecision::kF64;
    }
    MOCEMG_ASSIGN_OR_RETURN(uint64_t threads, r.U64());
    index.options_.parallel.max_threads = static_cast<size_t>(threads);
    MOCEMG_ASSIGN_OR_RETURN(uint64_t grain, r.U64());
    index.options_.parallel.grain = static_cast<size_t>(grain);

    MOCEMG_ASSIGN_OR_RETURN(uint64_t ref_rows, r.U64());
    MOCEMG_ASSIGN_OR_RETURN(uint64_t ref_cols, r.U64());
    // Every count below is sanity-capped against what the database and
    // dimension admit, so a crafted-size payload is rejected rather
    // than allocating unbounded memory.
    const uint64_t n_records = database->size();
    if (ref_cols != dim || ref_rows > n_records + 1) {
      return Status::ParseError("index snapshot references shape invalid");
    }
    MOCEMG_ASSIGN_OR_RETURN(std::vector<double> refs,
                            r.Doubles(ref_rows * ref_cols));
    if (refs.size() != ref_rows * ref_cols) {
      return Status::ParseError("index snapshot references size mismatch");
    }
    index.references_ = Matrix(static_cast<size_t>(ref_rows),
                               static_cast<size_t>(ref_cols));
    index.references_.mutable_data() = std::move(refs);

    MOCEMG_ASSIGN_OR_RETURN(uint64_t num_partitions, r.U64());
    if (num_partitions != ref_rows) {
      return Status::ParseError(
          "index snapshot partition count does not match references");
    }
    // The record → partition map ApplyUpdate needs, built while the
    // partitions are read: a record listed twice, or not at all, would
    // answer queries wrongly (a duplicate can crowd a true neighbour
    // out of the top k), so either fails the load.
    constexpr uint32_t kUnlisted = std::numeric_limits<uint32_t>::max();
    index.record_to_partition_.assign(static_cast<size_t>(n_records),
                                      kUnlisted);
    index.partitions_.resize(static_cast<size_t>(num_partitions));
    for (size_t pi = 0; pi < index.partitions_.size(); ++pi) {
      Partition& part = index.partitions_[pi];
      MOCEMG_RETURN_NOT_OK(
          ReadPartition(&r, version, n_records, dim, &part));
      for (size_t rec : part.record_indices) {
        if (index.record_to_partition_[rec] != kUnlisted) {
          return Status::ParseError(
              "index snapshot lists record " + std::to_string(rec) +
              " more than once");
        }
        index.record_to_partition_[rec] = static_cast<uint32_t>(pi);
      }
    }
    if (!r.exhausted()) {
      return Status::ParseError("index snapshot has trailing bytes");
    }
    for (size_t rec = 0; rec < index.record_to_partition_.size(); ++rec) {
      if (index.record_to_partition_[rec] == kUnlisted) {
        return Status::ParseError("index snapshot leaves record " +
                                  std::to_string(rec) +
                                  " out of every partition");
      }
    }
    index.RefreshDerived();
    return index;
  }
};

Result<std::string> SerializeFeatureIndex(const FeatureIndex& index) {
  if (index.num_partitions() == 0) {
    return Status::FailedPrecondition(
        "cannot snapshot an index that has not been built");
  }
  std::string payload = IndexSnapshotCodec::Serialize(index);
  std::string out;
  out.reserve(kMagicLen + 16 + payload.size());
  out.append(kMagic, kMagicLen);
  PutU64(&out, payload.size());
  PutU64(&out, Fnv1a64(payload.data(), payload.size()));
  out += payload;
  return out;
}

namespace {

/// Shared by DeserializeFeatureIndex and LoadFeatureIndex: unframe,
/// deserialize, and report the container version the file declared so
/// path-aware callers can log the v2→v3 regeneration hint.
Result<FeatureIndex> DeserializeFeatureIndexDetecting(
    const std::string& bytes, const MotionDatabase* database,
    int* detected_version) {
  if (database == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  MOCEMG_ASSIGN_OR_RETURN(
      FramedPayload window,
      UnframeSnapshot(bytes));
  if (detected_version != nullptr) *detected_version = window.version;
  return IndexSnapshotCodec::Deserialize(window.payload, window.size,
                                         window.version, database);
}

}  // namespace

Result<FeatureIndex> DeserializeFeatureIndex(
    const std::string& bytes, const MotionDatabase* database) {
  return DeserializeFeatureIndexDetecting(bytes, database, nullptr);
}

Status SaveFeatureIndex(const FeatureIndex& index, const std::string& path) {
  MOCEMG_ASSIGN_OR_RETURN(std::string bytes, SerializeFeatureIndex(index));
  // Write-then-rename: the incomplete state only ever exists under the
  // temporary name, so a crash between the two steps leaves the
  // previous snapshot at `path` untouched.
  const std::string tmp = path + ".tmp";
  MOCEMG_RETURN_NOT_OK(WriteStringToFile(tmp, bytes));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("failed to rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<FeatureIndex> LoadFeatureIndex(const std::string& path,
                                      const MotionDatabase* database) {
  MOCEMG_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  int version = 0;
  Result<FeatureIndex> index =
      DeserializeFeatureIndexDetecting(bytes, database, &version);
  if (!index.ok()) {
    return index.status().WithContext("loading index snapshot " + path);
  }
  if (version < kWriteVersion) {
    MOCEMG_LOG(kWarning)
        << "index snapshot " << path << " is container version "
        << version << " (pre-fp32-mirror); loaded with "
        << "exact_precision=f64 — re-save it to regenerate a version-"
        << kWriteVersion << " snapshot and enable the fp32 exact tier";
  }
  return index;
}

Result<FeatureIndex> LoadOrRebuildFeatureIndex(
    const std::string& path, const MotionDatabase* database,
    const FeatureIndexOptions& rebuild_options,
    IndexSnapshotLoadInfo* info) {
  if (database == nullptr) {
    return Status::InvalidArgument("database must not be null");
  }
  IndexSnapshotLoadInfo local;
  IndexSnapshotLoadInfo* out = info ? info : &local;
  *out = IndexSnapshotLoadInfo{};

  Result<FeatureIndex> loaded = LoadFeatureIndex(path, database);
  if (loaded.ok()) {
    if (loaded->built_epoch() == database->epoch()) {
      out->loaded_from_snapshot = true;
      return loaded;
    }
    out->fallback_reason =
        "snapshot built at epoch " + std::to_string(loaded->built_epoch()) +
        " but database is at epoch " + std::to_string(database->epoch());
  } else {
    out->fallback_reason = loaded.status().ToString();
  }
  MOCEMG_LOG(kWarning) << "index snapshot " << path
                       << " unusable, rebuilding from database: "
                       << out->fallback_reason;
  MOCEMG_ASSIGN_OR_RETURN(FeatureIndex rebuilt,
                          FeatureIndex::Build(database, rebuild_options));
  out->rebuilt = true;
  return rebuilt;
}

}  // namespace mocemg

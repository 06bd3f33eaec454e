// Binary model artifact serialisation (format in artifact.h). The writer
// packs explicit little-endian scalars into one flat buffer; the reader
// walks the same layout through a bounds-checked cursor, so a truncated or
// hostile file throws ArtifactError instead of reading out of range —
// memory consumed while loading is bounded by the bytes actually present.
#include "api/artifact.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "api/model.h"

#if defined(__unix__) || defined(__APPLE__)
#define MCDC_ARTIFACT_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mcdc::api {

std::uint32_t artifact_crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

// --- little-endian writer --------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- bounds-checked little-endian reader -----------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }

  const std::uint8_t* take(std::size_t bytes, const char* what) {
    if (bytes > remaining()) {
      throw ArtifactError("truncated: " + std::string(what) + " needs " +
                          std::to_string(bytes) + " bytes, " +
                          std::to_string(remaining()) + " remain");
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += bytes;
    return at;
  }

  std::uint32_t u32(const char* what) {
    const std::uint8_t* p = take(4, what);
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }

  std::uint64_t u64(const char* what) {
    const std::uint8_t* p = take(8, what);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    }
    return v;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }

  double f64(const char* what) {
    return std::bit_cast<double>(u64(what));
  }

  // Throws unless `count` elements of at least `bytes_each` bytes can
  // still fit in what remains — the check that runs before a section's
  // storage is reserved.
  void bound(std::uint64_t count, std::uint64_t bytes_each, const char* what) {
    if (count > remaining() / bytes_each) {
      throw ArtifactError("truncated: " + std::string(what) + " declares " +
                          std::to_string(count) + " entries, " +
                          std::to_string(remaining()) + " bytes remain");
    }
  }

  std::string str(const char* what) {
    const std::uint32_t len = u32(what);
    const std::uint8_t* p = take(len, what);
    return std::string(reinterpret_cast<const char*>(p), len);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kFlagDictionaries = 1;

}  // namespace

std::vector<std::uint8_t> Model::to_binary(bool include_training_labels) const {
  // A k = 0 online snapshot serialises fine (its schema is the payload);
  // only a schema-less default-constructed model has nothing to write.
  if (!has_schema()) {
    throw std::logic_error("Model::to_binary: unfitted model");
  }
  const std::size_t d = num_features();

  // Payload first; the header needs its size and checksum.
  std::vector<std::uint8_t> payload;
  put_str(payload, method_);
  for (const int m : cardinalities()) put_i32(payload, m);
  for (int l = 0; l < k(); ++l) {
    put_i32(payload, static_cast<std::int32_t>(bank_.size(l)));
  }
  for (int l = 0; l < k(); ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      for (data::Value v = 0; v < cardinalities()[r]; ++v) {
        put_i32(payload, static_cast<std::int32_t>(bank_.count(l, r, v)));
      }
    }
  }
  const std::uint64_t n =
      include_training_labels ? training_labels_.size() : 0;
  if (include_training_labels) {
    for (const int l : training_labels_) put_i32(payload, l);
  }
  put_u32(payload, static_cast<std::uint32_t>(kappa_.size()));
  for (const int kj : kappa_) put_i32(payload, kj);
  put_u32(payload, static_cast<std::uint32_t>(theta_.size()));
  for (const double t : theta_) put_f64(payload, t);
  const bool dictionaries = !values_.empty();
  if (dictionaries) {
    for (const auto& feature_values : values_) {
      for (const std::string& name : feature_values) put_str(payload, name);
    }
  }

  std::vector<std::uint8_t> out;
  out.reserve(kArtifactHeaderBytes + payload.size());
  for (const char c : kArtifactMagic) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  put_u32(out, kArtifactVersion);
  put_u32(out, static_cast<std::uint32_t>(kArtifactHeaderBytes));
  put_u64(out, payload.size());
  put_u32(out, artifact_crc32(payload.data(), payload.size()));
  put_u32(out, static_cast<std::uint32_t>(k()));
  put_u64(out, d);
  put_u64(out, n);
  put_u64(out, dictionaries ? kFlagDictionaries : 0);
  put_u64(out, 0);  // reserved
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Model Model::from_binary(const std::uint8_t* data, std::size_t size) {
  if (size < kArtifactHeaderBytes) {
    throw ArtifactError("truncated: " + std::to_string(size) +
                        " bytes is smaller than the " +
                        std::to_string(kArtifactHeaderBytes) + "-byte header");
  }
  Reader header(data, kArtifactHeaderBytes);
  const std::uint8_t* magic = header.take(8, "magic");
  if (std::memcmp(magic, kArtifactMagic, 8) != 0) {
    throw ArtifactError("bad magic (not an MCDC model artifact)");
  }
  const std::uint32_t version = header.u32("version");
  if (version != kArtifactVersion) {
    throw ArtifactError("unsupported format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kArtifactVersion) + ")");
  }
  const std::uint32_t header_bytes = header.u32("header size");
  if (header_bytes != kArtifactHeaderBytes) {
    throw ArtifactError("bad header size " + std::to_string(header_bytes));
  }
  const std::uint64_t payload_bytes = header.u64("payload size");
  if (payload_bytes != size - kArtifactHeaderBytes) {
    throw ArtifactError(
        "truncated: header promises " + std::to_string(payload_bytes) +
        " payload bytes, file carries " +
        std::to_string(size - kArtifactHeaderBytes));
  }
  const std::uint32_t stored_crc = header.u32("checksum");
  const std::uint32_t k = header.u32("k");
  const std::uint64_t d = header.u64("feature count");
  const std::uint64_t n = header.u64("label count");
  const std::uint64_t flags = header.u64("flags");
  // k = 0 is a valid empty online snapshot; a zero-feature schema is not.
  if (d == 0) throw ArtifactError("feature count must be > 0");

  // One linear pass over the payload — the only full scan a load performs.
  const std::uint8_t* payload = data + kArtifactHeaderBytes;
  const std::uint32_t computed_crc =
      artifact_crc32(payload, static_cast<std::size_t>(payload_bytes));
  if (computed_crc != stored_crc) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch (stored %08x, computed %08x)", stored_crc,
                  computed_crc);
    throw ArtifactError(buf);
  }

  // Every section's element count is bounded by the bytes left before
  // anything is reserved or allocated, so a forged count fails closed with
  // a typed error instead of a huge allocation.
  Reader body(payload, static_cast<std::size_t>(payload_bytes));
  Model model;
  model.method_ = body.str("method name");
  body.bound(d, 4, "cardinalities");
  std::vector<int> cardinalities;
  cardinalities.reserve(static_cast<std::size_t>(d));
  // Sum of cardinalities, saturated at the payload size: no section sized
  // by it can fit past that, and the sum cannot wrap before the bounds
  // below reject it.
  std::uint64_t cells = 0;
  for (std::uint64_t r = 0; r < d; ++r) {
    const std::int32_t m = body.i32("cardinality");
    if (m < 0) throw ArtifactError("negative cardinality");
    cardinalities.push_back(m);
    cells = std::min(cells + static_cast<std::uint64_t>(m), payload_bytes);
  }
  body.bound(k, 4, "cluster sizes");
  std::vector<int> sizes;
  sizes.reserve(k);
  for (std::uint32_t l = 0; l < k; ++l) {
    const std::int32_t s = body.i32("cluster size");
    if (s < 0) throw ArtifactError("negative cluster size");
    sizes.push_back(s);
  }
  // The k x sum(m_r) bank: bounded per cluster so the product cannot wrap.
  if (k > 0) {
    body.bound(cells, 4 * static_cast<std::uint64_t>(k), "histogram bank");
  }
  std::vector<int> counts;
  counts.reserve(static_cast<std::size_t>(k * cells));
  for (std::uint64_t c = 0; c < k * cells; ++c) {
    const std::int32_t count = body.i32("histogram count");
    if (count < 0) throw ArtifactError("negative histogram count");
    counts.push_back(count);
  }
  model.bank_ = core::ProfileSet::from_counts(cardinalities, sizes, counts);
  model.bank_.freeze();
  body.bound(n, 4, "training labels");
  model.training_labels_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    model.training_labels_.push_back(body.i32("training label"));
  }
  const std::uint32_t kappa_count = body.u32("kappa count");
  body.bound(kappa_count, 4, "kappa staircase");
  model.kappa_.reserve(kappa_count);
  for (std::uint32_t j = 0; j < kappa_count; ++j) {
    model.kappa_.push_back(body.i32("kappa"));
  }
  const std::uint32_t theta_count = body.u32("theta count");
  body.bound(theta_count, 8, "theta weights");
  model.theta_.reserve(theta_count);
  for (std::uint32_t j = 0; j < theta_count; ++j) {
    model.theta_.push_back(body.f64("theta"));
  }
  if ((flags & kFlagDictionaries) != 0) {
    // Every entry carries at least its 4-byte length prefix.
    body.bound(cells, 4, "dictionaries");
    model.values_.resize(static_cast<std::size_t>(d));
    for (std::uint64_t r = 0; r < d; ++r) {
      const auto m = static_cast<std::size_t>(
          cardinalities[static_cast<std::size_t>(r)]);
      model.values_[static_cast<std::size_t>(r)].reserve(m);
      for (std::size_t v = 0; v < m; ++v) {
        model.values_[static_cast<std::size_t>(r)].push_back(
            body.str("dictionary entry"));
      }
    }
  }
  if (body.remaining() != 0) {
    throw ArtifactError(std::to_string(body.remaining()) +
                        " trailing bytes after the last section");
  }
  return model;
}

void Model::save_binary(const std::string& path,
                        bool include_training_labels) const {
  const std::vector<std::uint8_t> bytes = to_binary(include_training_labels);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw ArtifactError("cannot open " + path + " for writing");
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw ArtifactError("short write to " + path);
}

Model Model::load_binary(const std::string& path) {
#if defined(MCDC_ARTIFACT_MMAP)
  // The O(header) + map load: the file is mapped read-only, validated and
  // walked in place; nothing is copied until a section lands in its Model
  // vector.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw ArtifactError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw ArtifactError("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw ArtifactError("empty file " + path);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) throw ArtifactError("cannot map " + path);
  try {
    Model model =
        from_binary(static_cast<const std::uint8_t*>(mapped), size);
    ::munmap(mapped, size);
    return model;
  } catch (...) {
    ::munmap(mapped, size);
    throw;
  }
#else
  std::ifstream file(path, std::ios::binary);
  if (!file) throw ArtifactError("cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  return from_binary(bytes.data(), bytes.size());
#endif
}

}  // namespace mcdc::api

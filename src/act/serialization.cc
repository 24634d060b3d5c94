#include "act/serialization.h"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "util/check.h"
#include "util/crc32c.h"

namespace actjoin::act {

namespace {

constexpr uint32_t kMagic = 0x4a544341;  // "ACTJ"
constexpr uint32_t kVersion = 2;

// Section tags, in file order.
constexpr uint32_t kOptionsTag = 1;
constexpr uint32_t kPolygonsTag = 2;
constexpr uint32_t kCoveringTag = 3;

void Fail(LoadError* error, LoadError what) {
  if (error != nullptr) *error = what;
}

// --- Section payload codecs ------------------------------------------------

void AppendOptions(const PolygonIndex& index, util::ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(index.grid().curve()));
  const BuildOptions& opts = index.options();
  w->PutU32(static_cast<uint32_t>(opts.approx.max_covering_cells));
  w->PutU32(static_cast<uint32_t>(opts.approx.max_covering_level));
  w->PutU32(static_cast<uint32_t>(opts.approx.max_interior_cells));
  w->PutU32(static_cast<uint32_t>(opts.approx.max_interior_level));
  w->PutU8(opts.precision_bound_m.has_value() ? 1 : 0);
  w->PutF64(opts.precision_bound_m.value_or(0.0));
  w->PutU32(static_cast<uint32_t>(opts.act.bits_per_level));
  w->PutU8(opts.act.use_root_prefix ? 1 : 0);
}

bool ParseOptions(std::span<const uint8_t> payload, geo::Grid* grid,
                  BuildOptions* opts, LoadError* error) {
  util::ByteReader r(payload);
  uint8_t curve = r.U8();
  opts->approx.max_covering_cells = static_cast<int>(r.U32());
  opts->approx.max_covering_level = static_cast<int>(r.U32());
  opts->approx.max_interior_cells = static_cast<int>(r.U32());
  opts->approx.max_interior_level = static_cast<int>(r.U32());
  uint8_t has_bound = r.U8();
  double bound = r.F64();
  int32_t bits = static_cast<int32_t>(r.U32());
  uint8_t root_prefix = r.U8();
  if (!r.AtEnd()) {
    // The CRC passed, so the length is as-written: a size mismatch means
    // the writer and reader disagree about the payload, not truncation.
    Fail(error, LoadError::kBadData);
    return false;
  }
  if (curve > 1 || has_bound > 1 || root_prefix > 1 || bits < 1 || bits > 8 ||
      !std::isfinite(bound)) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  *grid = geo::Grid(static_cast<geo::CurveType>(curve));
  if (has_bound != 0) opts->precision_bound_m = bound;
  opts->act.bits_per_level = bits;
  opts->act.use_root_prefix = root_prefix != 0;
  return true;
}

void AppendPolygons(const std::vector<geom::Polygon>& polygons,
                    util::ByteWriter* w) {
  w->PutU64(polygons.size());
  for (const geom::Polygon& poly : polygons) {
    w->PutU32(static_cast<uint32_t>(poly.rings().size()));
    for (const geom::Ring& ring : poly.rings()) {
      w->PutU32(static_cast<uint32_t>(ring.size()));
      for (const geom::Point& p : ring) {
        w->PutF64(p.x);
        w->PutF64(p.y);
      }
    }
  }
}

bool ParsePolygons(std::span<const uint8_t> payload,
                   std::vector<geom::Polygon>* polygons, LoadError* error) {
  util::ByteReader r(payload);
  uint64_t n_polys = r.U64();
  // The smallest real polygon costs 56 payload bytes (ring count + one
  // 3-vertex ring); bounding the reserve by what actually arrived keeps
  // a forged count's transient allocation at ~file size, not 50x it.
  if (!r.ok() || n_polys > payload.size() / 56 + 1) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  polygons->reserve(n_polys);
  for (uint64_t k = 0; k < n_polys; ++k) {
    uint32_t n_rings = r.U32();
    if (!r.ok() || n_rings == 0 || n_rings > r.remaining()) {
      Fail(error, LoadError::kBadData);
      return false;
    }
    geom::Polygon poly;
    for (uint32_t ring_i = 0; ring_i < n_rings; ++ring_i) {
      uint32_t n_verts = r.U32();
      if (!r.ok() || n_verts < 3 || n_verts > r.remaining() / 16 + 1) {
        Fail(error, LoadError::kBadData);
        return false;
      }
      geom::Ring ring;
      ring.reserve(n_verts);
      for (uint32_t v = 0; v < n_verts; ++v) {
        geom::Point p;
        p.x = r.F64();
        p.y = r.F64();
        if (!r.ok() || !std::isfinite(p.x) || !std::isfinite(p.y)) {
          Fail(error, LoadError::kBadData);
          return false;
        }
        ring.push_back(p);
      }
      poly.AddRing(std::move(ring));
    }
    polygons->push_back(std::move(poly));
  }
  if (!r.AtEnd()) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  return true;
}

void AppendCovering(const SuperCovering& sc, util::ByteWriter* w) {
  w->PutU64(sc.size());
  for (size_t i = 0; i < sc.size(); ++i) {
    w->PutU64(sc.cell(i).id());
    const std::span<const PolygonRef> refs = sc.refs(i);
    w->PutU32(static_cast<uint32_t>(refs.size()));
    for (const PolygonRef& r : refs) w->PutU32(r.Encode());
  }
}

bool ParseCovering(std::span<const uint8_t> payload, size_t n_polys,
                   SuperCovering* covering, LoadError* error) {
  util::ByteReader r(payload);
  uint64_t n_cells = r.U64();
  // A cell costs >= 16 payload bytes (id + ref count + one ref).
  if (!r.ok() || n_cells > payload.size() / 16 + 1) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  // Every cell costs 12 bytes besides its references, so the rest of a
  // well-formed payload is exactly the reference array.
  const uint64_t cell_bytes = n_cells * 12;
  SuperCovering out;
  out.Reserve(n_cells, r.remaining() > cell_bytes
                           ? (r.remaining() - cell_bytes) / 4
                           : 0);
  std::vector<PolygonRef> list;
  for (uint64_t k = 0; k < n_cells; ++k) {
    uint64_t id = r.U64();
    uint32_t n_refs = r.U32();
    if (!r.ok() || n_refs == 0 || n_refs > r.remaining() / 4 + 1) {
      Fail(error, LoadError::kBadData);
      return false;
    }
    geo::CellId cell(id);
    if (!cell.is_valid() || (k > 0 && !(out.cells().back() < cell))) {
      Fail(error, LoadError::kBadData);  // not sorted
      return false;
    }
    list.clear();
    for (uint32_t i = 0; i < n_refs; ++i) {
      PolygonRef ref = PolygonRef::Decode(r.U32());
      if (!r.ok() || ref.polygon_id >= n_polys) {
        Fail(error, LoadError::kBadData);
        return false;
      }
      list.push_back(ref);
    }
    out.Append(cell, list);
  }
  if (!r.AtEnd()) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  *covering = std::move(out);
  if (!covering->IsDisjoint()) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  return true;
}

}  // namespace

void AppendPolygonsBlob(const std::vector<geom::Polygon>& polygons,
                        util::ByteWriter* w) {
  AppendPolygons(polygons, w);
}

bool ParsePolygonsBlob(std::span<const uint8_t> payload,
                       std::vector<geom::Polygon>* polygons,
                       LoadError* error) {
  return ParsePolygons(payload, polygons, error);
}

const char* ToString(LoadError error) {
  switch (error) {
    case LoadError::kNone:
      return "ok";
    case LoadError::kMissing:
      return "missing";
    case LoadError::kTruncated:
      return "truncated";
    case LoadError::kBadMagic:
      return "bad magic";
    case LoadError::kBadVersion:
      return "unsupported version";
    case LoadError::kBadChecksum:
      return "checksum mismatch";
    case LoadError::kBadData:
      return "invalid data";
  }
  return "unknown";
}

size_t BeginSection(util::ByteWriter* w, uint32_t tag) {
  size_t begin = w->size();
  w->PutU32(tag);
  w->PutU64(0);  // payload length, patched by EndSection
  return begin;
}

void EndSection(util::ByteWriter* w, size_t begin) {
  const size_t payload_at = begin + 12;
  ACT_CHECK(payload_at <= w->size());
  const size_t payload_len = w->size() - payload_at;
  w->PatchU64(begin + 4, payload_len);
  w->PutU32(util::Crc32c(w->bytes().data() + payload_at, payload_len));
}

bool ReadSection(std::span<const uint8_t> bytes, size_t* offset,
                 uint32_t expect_tag, std::span<const uint8_t>* payload,
                 LoadError* error) {
  if (bytes.size() - *offset < kSectionOverheadBytes) {
    Fail(error, LoadError::kTruncated);
    return false;
  }
  util::ByteReader r(bytes.subspan(*offset, 12));
  uint32_t tag = r.U32();
  uint64_t len = r.U64();
  if (tag != expect_tag) {
    Fail(error, LoadError::kBadData);
    return false;
  }
  // Subtract, never add: len is untrusted and offset + len could wrap.
  if (len > bytes.size() - *offset - kSectionOverheadBytes) {
    Fail(error, LoadError::kTruncated);
    return false;
  }
  *payload = bytes.subspan(*offset + 12, len);
  util::ByteReader crc_r(bytes.subspan(*offset + 12 + len, 4));
  uint32_t want_crc = crc_r.U32();
  if (util::Crc32c(payload->data(), payload->size()) != want_crc) {
    Fail(error, LoadError::kBadChecksum);
    return false;
  }
  *offset += kSectionOverheadBytes + len;
  return true;
}

void AppendIndexBody(const PolygonIndex& index, util::ByteWriter* w) {
  size_t s = BeginSection(w, kOptionsTag);
  AppendOptions(index, w);
  EndSection(w, s);

  s = BeginSection(w, kPolygonsTag);
  AppendPolygons(index.polygons(), w);
  EndSection(w, s);

  s = BeginSection(w, kCoveringTag);
  AppendCovering(index.covering(), w);
  EndSection(w, s);
}

std::optional<PolygonIndex> ParseIndexBody(std::span<const uint8_t> bytes,
                                           size_t* offset, LoadError* error) {
  std::span<const uint8_t> payload;
  if (!ReadSection(bytes, offset, kOptionsTag, &payload, error)) {
    return std::nullopt;
  }
  geo::Grid grid;
  BuildOptions opts;
  if (!ParseOptions(payload, &grid, &opts, error)) return std::nullopt;

  if (!ReadSection(bytes, offset, kPolygonsTag, &payload, error)) {
    return std::nullopt;
  }
  std::vector<geom::Polygon> polygons;
  if (!ParsePolygons(payload, &polygons, error)) return std::nullopt;

  if (!ReadSection(bytes, offset, kCoveringTag, &payload, error)) {
    return std::nullopt;
  }
  SuperCovering covering;
  if (!ParseCovering(payload, polygons.size(), &covering, error)) {
    return std::nullopt;
  }
  return PolygonIndex::FromComponents(std::move(polygons), grid, opts,
                                      std::move(covering));
}

bool SaveIndex(const PolygonIndex& index, const std::string& path) {
  util::ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);
  AppendIndexBody(index, &w);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
  return out.good();
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out,
                   LoadError* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    Fail(error, LoadError::kMissing);
    return false;
  }
  std::streamoff size_off = in.tellg();
  if (size_off < 0) {
    // A path that opens but cannot report a size — a directory, most
    // likely — is "no file here", not a SIZE_MAX allocation.
    Fail(error, LoadError::kMissing);
    return false;
  }
  auto size = static_cast<size_t>(size_off);
  in.seekg(0);
  out->resize(size);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(size))) {
    Fail(error, LoadError::kTruncated);
    return false;
  }
  return true;
}

std::optional<PolygonIndex> LoadIndex(const std::string& path,
                                      LoadError* error) {
  Fail(error, LoadError::kNone);
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes, error)) return std::nullopt;
  if (bytes.size() < 8) {
    Fail(error, LoadError::kTruncated);
    return std::nullopt;
  }
  util::ByteReader r(bytes);
  if (r.U32() != kMagic) {
    Fail(error, LoadError::kBadMagic);
    return std::nullopt;
  }
  if (r.U32() != kVersion) {
    Fail(error, LoadError::kBadVersion);
    return std::nullopt;
  }
  size_t offset = 8;
  std::optional<PolygonIndex> index = ParseIndexBody(bytes, &offset, error);
  if (!index.has_value()) return std::nullopt;
  if (offset != bytes.size()) {
    // Trailing bytes after the last section: as malformed as truncation.
    Fail(error, LoadError::kBadData);
    return std::nullopt;
  }
  return index;
}

}  // namespace actjoin::act

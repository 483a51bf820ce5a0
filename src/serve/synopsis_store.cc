#include "serve/synopsis_store.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/fault_injection.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "view/view_matcher.h"

namespace viewrewrite {

namespace {

// ---- Binary encoding helpers (little-endian, doubles as bit patterns). ----

constexpr char kMagic[4] = {'V', 'R', 'S', 'Y'};
constexpr uint16_t kFormatVersion = 3;

constexpr uint32_t kSectionHeader = 'H';
constexpr uint32_t kSectionGeneration = 'G';
constexpr uint32_t kSectionView = 'V';
constexpr uint32_t kSectionEnd = 'E';

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double d : v) PutDouble(out, d);
}

/// Bounds-checked reader over a byte span. Every overrun is a Corruption
/// status, never undefined behavior — corrupted bundles must fail cleanly.
/// When a LimitTracker is attached, every materialized string/array is
/// charged against its arena budget before allocation.
class Reader {
 public:
  Reader(const char* data, size_t size, LimitTracker* tracker = nullptr)
      : data_(data), size_(size), tracker_(tracker) {}

  size_t remaining() const { return size_ - pos_; }
  LimitTracker* tracker() const { return tracker_; }

  Status Need(size_t n) {
    if (size_ - pos_ < n) {
      return Status::Corruption("truncated synopsis bundle (wanted " +
                                std::to_string(n) + " bytes, " +
                                std::to_string(size_ - pos_) + " left)");
    }
    return Status::OK();
  }

  /// Validates that `count` elements of `elem_size` serialized bytes each
  /// can still be present, without the multiply ever overflowing — the
  /// gate that makes a subsequent reserve(count) safe.
  Status NeedElements(uint64_t count, size_t elem_size) {
    if (count > remaining() / elem_size) {
      return Status::Corruption(
          "synopsis bundle declares " + std::to_string(count) +
          " elements but only " + std::to_string(remaining()) +
          " bytes remain");
    }
    return Status::OK();
  }

  /// Charges `n` bytes of materialization against the arena budget (no-op
  /// without a tracker).
  Status Charge(size_t n, const char* what) {
    if (tracker_ == nullptr) return Status::OK();
    return tracker_->AddBytes(n, what);
  }

  Result<uint8_t> U8() {
    VR_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint16_t> U16() {
    VR_RETURN_NOT_OK(Need(2));
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  Result<uint32_t> U32() {
    VR_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  Result<uint64_t> U64() {
    VR_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  Result<int64_t> I64() {
    VR_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }

  Result<double> Double() {
    VR_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> String() {
    VR_ASSIGN_OR_RETURN(uint64_t n, U64());
    VR_RETURN_NOT_OK(Need(n));
    VR_RETURN_NOT_OK(Charge(n, "bundle string"));
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  Result<std::vector<double>> Doubles() {
    VR_ASSIGN_OR_RETURN(uint64_t n, U64());
    // NeedElements instead of Need(n * 8): the multiply would wrap for
    // n >= 2^61, letting a hostile count through the bounds check.
    VR_RETURN_NOT_OK(NeedElements(n, 8));
    VR_RETURN_NOT_OK(Charge(n * sizeof(double), "bundle double array"));
    std::vector<double> v;
    v.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      VR_ASSIGN_OR_RETURN(double d, Double());
      v.push_back(d);
    }
    return v;
  }

  Result<std::string_view> Bytes(size_t n) {
    VR_RETURN_NOT_OK(Need(n));
    std::string_view s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

 private:
  const char* data_;
  size_t size_;
  LimitTracker* tracker_;
  size_t pos_ = 0;
};

// ---- Values, domains, expressions. ----------------------------------------

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, 0);
  } else if (v.is_int()) {
    PutU8(out, 1);
    PutI64(out, v.AsInt());
  } else if (v.is_double()) {
    PutU8(out, 2);
    PutDouble(out, v.AsDoubleExact());
  } else {
    PutU8(out, 3);
    PutString(out, v.AsString());
  }
}

Result<Value> ReadValue(Reader* r) {
  VR_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (tag) {
    case 0:
      return Value::Null();
    case 1: {
      VR_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Int(v);
    }
    case 2: {
      VR_ASSIGN_OR_RETURN(double v, r->Double());
      return Value::Double(v);
    }
    case 3: {
      VR_ASSIGN_OR_RETURN(std::string v, r->String());
      return Value::String(std::move(v));
    }
    default:
      return Status::Corruption("unknown value tag " + std::to_string(tag));
  }
}

void PutDomain(std::string* out, const ColumnDomain& d) {
  PutU8(out, static_cast<uint8_t>(d.kind));
  switch (d.kind) {
    case ColumnDomain::Kind::kNone:
      break;
    case ColumnDomain::Kind::kCategorical:
      PutU64(out, d.categories.size());
      for (const Value& v : d.categories) PutValue(out, v);
      break;
    case ColumnDomain::Kind::kIntBuckets:
      PutI64(out, d.lo);
      PutI64(out, d.hi);
      PutI64(out, d.buckets);
      break;
  }
}

Result<ColumnDomain> ReadDomain(Reader* r) {
  VR_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  switch (kind) {
    case static_cast<uint8_t>(ColumnDomain::Kind::kNone):
      return ColumnDomain::None();
    case static_cast<uint8_t>(ColumnDomain::Kind::kCategorical): {
      VR_ASSIGN_OR_RETURN(uint64_t n, r->U64());
      // Each serialized value occupies at least its 1-byte tag, so a
      // count beyond the remaining bytes is corrupt — checked before the
      // reserve so the declared count can never drive the allocation.
      VR_RETURN_NOT_OK(r->NeedElements(n, 1));
      VR_RETURN_NOT_OK(r->Charge(n * sizeof(Value), "bundle domain"));
      std::vector<Value> values;
      values.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        VR_ASSIGN_OR_RETURN(Value v, ReadValue(r));
        values.push_back(std::move(v));
      }
      return ColumnDomain::Categorical(std::move(values));
    }
    case static_cast<uint8_t>(ColumnDomain::Kind::kIntBuckets): {
      VR_ASSIGN_OR_RETURN(int64_t lo, r->I64());
      VR_ASSIGN_OR_RETURN(int64_t hi, r->I64());
      VR_ASSIGN_OR_RETURN(int64_t buckets, r->I64());
      if (buckets <= 0 || hi < lo) {
        return Status::Corruption("invalid bucket domain in bundle");
      }
      return ColumnDomain::IntBuckets(lo, hi, buckets);
    }
    default:
      return Status::Corruption("unknown domain kind " + std::to_string(kind));
  }
}

/// Expressions round-trip as canonical SQL. The parser's only entry point
/// is a full SELECT, so the expression travels as a one-item projection
/// over a placeholder relation.
std::string ExprToSql(const Expr& e) {
  return "SELECT " + ToSql(e) + " FROM vr_expr_holder";
}

Result<ExprPtr> ExprFromSql(const std::string& sql) {
  Result<SelectStmtPtr> stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return Status::Corruption("unparseable expression in bundle: " +
                              stmt.status().message());
  }
  if (stmt.value()->items.size() != 1 || !stmt.value()->items[0].expr) {
    return Status::Corruption("malformed expression record in bundle");
  }
  return std::move(stmt.value()->items[0].expr);
}

/// The view's FROM tree + baked WHERE travel the same way: rendered as a
/// canonical `SELECT count(*) FROM ... [WHERE ...]` and re-parsed into a
/// from-template on load.
std::string FromTemplateToSql(const SelectStmt& tmpl) {
  std::string sql = "SELECT count(*) FROM ";
  bool first = true;
  for (const auto& f : tmpl.from) {
    if (!first) sql += " , ";
    sql += ToSql(*f);
    first = false;
  }
  if (tmpl.where) sql += " WHERE " + ToSql(*tmpl.where);
  return sql;
}

Result<SelectStmtPtr> FromTemplateFromSql(const std::string& sql) {
  Result<SelectStmtPtr> stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return Status::Corruption("unparseable view template in bundle: " +
                              stmt.status().message());
  }
  SelectStmtPtr tmpl = std::move(stmt).value();
  tmpl->items.clear();  // the template carries only FROM + baked WHERE
  return tmpl;
}

// ---- View + synopsis sections. --------------------------------------------

/// The build statistics a release carries (τ, grid size, view ε); the
/// exact ones stay with the ground-truth twin and are never written.
void PutBuildStats(std::string* out, const Synopsis::BuildStats& s) {
  PutI64(out, s.tau);
  PutU64(out, s.cells);
  PutDouble(out, s.epsilon);
}

Result<Synopsis::BuildStats> ReadBuildStats(Reader* r) {
  Synopsis::BuildStats s;
  VR_ASSIGN_OR_RETURN(s.tau, r->I64());
  VR_ASSIGN_OR_RETURN(uint64_t cells, r->U64());
  VR_ASSIGN_OR_RETURN(s.epsilon, r->Double());
  s.cells = cells;
  return s;
}

/// One record per measure: key, the Laplace scale of its release, cells.
void PutMeasures(std::string* out, const SynopsisParts& parts) {
  PutU32(out, static_cast<uint32_t>(parts.noisy.size()));
  for (const auto& [key, cells] : parts.noisy) {
    auto scale = parts.noise_scales.find(key);
    PutString(out, key);
    PutDouble(out, scale == parts.noise_scales.end() ? 0.0 : scale->second);
    PutDoubles(out, cells);
  }
}

Status ReadMeasures(Reader* r, SynopsisParts* parts) {
  VR_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  for (uint32_t i = 0; i < n; ++i) {
    VR_ASSIGN_OR_RETURN(std::string key, r->String());
    VR_ASSIGN_OR_RETURN(double scale, r->Double());
    VR_ASSIGN_OR_RETURN(std::vector<double> cells, r->Doubles());
    if (!parts->noisy.try_emplace(key, std::move(cells)).second) {
      return Status::Corruption("view section repeats measure key '" + key +
                                "'");
    }
    parts->noise_scales.emplace(std::move(key), scale);
  }
  return Status::OK();
}

void PutViewSection(std::string* out, const ViewDef& view,
                    const SynopsisParts& parts) {
  PutString(out, view.signature());
  PutString(out, FromTemplateToSql(view.from_template()));

  PutU32(out, static_cast<uint32_t>(view.attributes().size()));
  for (const ViewAttribute& a : view.attributes()) {
    PutString(out, a.table);
    PutString(out, a.column);
    PutDomain(out, a.domain);
  }

  PutU32(out, static_cast<uint32_t>(view.measures().size()));
  for (const ViewMeasure& m : view.measures()) {
    PutU8(out, static_cast<uint8_t>(m.kind));
    PutString(out, m.key);
    PutDouble(out, m.value_bound);
    PutU8(out, m.expr ? 1 : 0);
    if (m.expr) PutString(out, ExprToSql(*m.expr));
  }

  PutU32(out, static_cast<uint32_t>(parts.dim_sizes.size()));
  for (int64_t d : parts.dim_sizes) PutI64(out, d);
  PutU64(out, parts.total_cells);
  PutBuildStats(out, parts.stats);
  PutMeasures(out, parts);
}

struct LoadedView {
  std::unique_ptr<ViewDef> view;
  SynopsisParts parts;
};

Result<LoadedView> ReadViewSection(Reader* r) {
  LoadedView out;
  VR_ASSIGN_OR_RETURN(std::string signature, r->String());
  VR_ASSIGN_OR_RETURN(std::string template_sql, r->String());
  VR_ASSIGN_OR_RETURN(SelectStmtPtr tmpl, FromTemplateFromSql(template_sql));
  out.view = std::make_unique<ViewDef>(signature, std::move(tmpl));

  VR_ASSIGN_OR_RETURN(uint32_t n_attrs, r->U32());
  for (uint32_t i = 0; i < n_attrs; ++i) {
    ViewAttribute a;
    VR_ASSIGN_OR_RETURN(a.table, r->String());
    VR_ASSIGN_OR_RETURN(a.column, r->String());
    VR_ASSIGN_OR_RETURN(a.domain, ReadDomain(r));
    out.view->AddAttribute(std::move(a));
  }

  VR_ASSIGN_OR_RETURN(uint32_t n_measures, r->U32());
  for (uint32_t i = 0; i < n_measures; ++i) {
    ViewMeasure m;
    VR_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
    if (kind > static_cast<uint8_t>(ViewMeasure::Kind::kAvg)) {
      return Status::Corruption("unknown measure kind " + std::to_string(kind));
    }
    m.kind = static_cast<ViewMeasure::Kind>(kind);
    VR_ASSIGN_OR_RETURN(m.key, r->String());
    VR_ASSIGN_OR_RETURN(m.value_bound, r->Double());
    VR_ASSIGN_OR_RETURN(uint8_t has_expr, r->U8());
    if (has_expr) {
      VR_ASSIGN_OR_RETURN(std::string expr_sql, r->String());
      VR_ASSIGN_OR_RETURN(m.expr, ExprFromSql(expr_sql));
    }
    out.view->AddMeasure(std::move(m));
  }

  VR_ASSIGN_OR_RETURN(uint32_t n_dims, r->U32());
  for (uint32_t i = 0; i < n_dims; ++i) {
    VR_ASSIGN_OR_RETURN(int64_t d, r->I64());
    out.parts.dim_sizes.push_back(d);
  }
  VR_ASSIGN_OR_RETURN(uint64_t total_cells, r->U64());
  out.parts.total_cells = total_cells;
  VR_ASSIGN_OR_RETURN(out.parts.stats, ReadBuildStats(r));
  VR_RETURN_NOT_OK(ReadMeasures(r, &out.parts));
  return out;
}

void AppendSection(std::string* out, uint32_t tag, const std::string& payload) {
  PutU32(out, tag);
  PutU64(out, payload.size());
  out->append(payload);
  PutU32(out, Crc32(payload.data(), payload.size()));
}

}  // namespace

// ---- SynopsisStore. --------------------------------------------------------

Result<SynopsisStore> SynopsisStore::FromManager(const ViewManager& manager,
                                                 const Schema& schema) {
  return FromManager(manager, schema, GenerationInfo());
}

Result<SynopsisStore> SynopsisStore::FromManager(const ViewManager& manager,
                                                 const Schema& schema,
                                                 GenerationInfo generation) {
  if (manager.NumPublished() == 0) {
    return Status::InvalidArgument(
        "nothing to snapshot: the manager has no published synopses "
        "(call Publish first)");
  }
  SynopsisStore store;
  store.schema_fingerprint_ = SchemaFingerprint(schema);
  store.generation_info_ = std::move(generation);
  if (const BudgetAccountant* acct = manager.accountant()) {
    store.ledger_.total_epsilon = acct->total();
    store.ledger_.spent_epsilon = acct->spent();
    store.ledger_.entries = static_cast<uint32_t>(acct->ledger().size());
    store.ledger_.poisoned = acct->poisoned();
    for (const auto& e : acct->ledger()) {
      if (e.refund) ++store.ledger_.refunds;
    }
  }
  for (const auto& view : manager.views()) {
    const Synopsis* syn = nullptr;
    auto it = manager.synopses().find(view->signature());
    if (it != manager.synopses().end()) syn = &it->second;
    if (syn == nullptr) continue;  // failed/unpublished view: nothing to serve
    std::unique_ptr<ViewDef> copy = view->Clone();
    VR_ASSIGN_OR_RETURN(Synopsis rebuilt,
                        Synopsis::FromParts(copy.get(), syn->ToParts()));
    const std::string& sig = copy->signature();
    ViewLifecycle cycle;
    auto gen_it = manager.view_data_generation().find(sig);
    if (gen_it != manager.view_data_generation().end()) {
      cycle.data_generation = gen_it->second;
    }
    auto out_it = manager.view_outdated_since().find(sig);
    if (out_it != manager.view_outdated_since().end()) {
      cycle.outdated_since = out_it->second;
    }
    store.lifecycle_.emplace(sig, cycle);
    store.view_index_[sig] = store.views_.size();
    store.synopses_.emplace(sig, std::move(rebuilt));
    store.views_.push_back(std::move(copy));
  }
  return store;
}

Status SynopsisStore::Save(const std::string& path) const {
  std::string blob;
  blob.append(kMagic, sizeof(kMagic));
  PutU16(&blob, kFormatVersion);
  PutU16(&blob, 0);  // reserved

  std::string header;
  PutU64(&header, schema_fingerprint_);
  PutU32(&header, static_cast<uint32_t>(views_.size()));
  PutDouble(&header, ledger_.total_epsilon);
  PutDouble(&header, ledger_.spent_epsilon);
  PutU32(&header, ledger_.entries);
  PutU32(&header, ledger_.refunds);
  // Optional trailing byte (absent in pre-flag bundles): accountant
  // poisoned at snapshot time.
  PutU8(&header, ledger_.poisoned ? 1 : 0);
  AppendSection(&blob, kSectionHeader, header);

  std::string gen;
  PutU64(&gen, generation_info_.generation);
  PutU64(&gen, generation_info_.parent_epoch);
  PutDouble(&gen, generation_info_.generation_epsilon);
  PutU32(&gen, static_cast<uint32_t>(generation_info_.changed_relations.size()));
  for (const std::string& rel : generation_info_.changed_relations) {
    PutString(&gen, rel);
  }
  PutU32(&gen, static_cast<uint32_t>(lifecycle_.size()));
  for (const auto& [sig, cycle] : lifecycle_) {
    PutString(&gen, sig);
    PutU64(&gen, cycle.data_generation);
    PutU64(&gen, cycle.outdated_since);
  }
  AppendSection(&blob, kSectionGeneration, gen);

  for (const auto& view : views_) {
    auto it = synopses_.find(view->signature());
    if (it == synopses_.end()) {
      return Status::Internal("store view without synopsis: " +
                              view->signature());
    }
    std::string payload;
    PutViewSection(&payload, *view, it->second.ToParts());
    AppendSection(&blob, kSectionView, payload);
  }
  AppendSection(&blob, kSectionEnd, std::string());

  // Atomic durable publish: write + fsync the temp file, then rename over
  // the target, then fsync the parent directory. A crash at any point
  // leaves either the previous bundle intact or the new one fully
  // durable — readers never observe a torn file. The temp name is unique
  // per process and per save so a concurrent or crashed earlier save can
  // never be renamed into place by this one.
  const std::string tmp = UniqueTempName(path);
  VR_RETURN_NOT_OK(WriteFileDurably(tmp, blob));
  // A kill here (the serve.save fault point simulates it) leaves a
  // complete, loadable temp file and the target untouched.
  VR_FAULT_POINT(faults::kServeSave);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::ExecutionError("cannot rename '" + tmp + "' to '" + path +
                                  "'");
  }
  VR_RETURN_NOT_OK(SyncParentDir(path));
  SweepOrphanTemps(path);
  return Status::OK();
}

Result<SynopsisStore> SynopsisStore::Load(const std::string& path,
                                          const Schema& schema,
                                          const ResourceLimits& limits) {
  VR_FAULT_POINT(faults::kServeLoad);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::NotFound("cannot open synopsis bundle '" + path + "'");
    }
    // Refuse oversized files before buffering: the file itself is the
    // first allocation an attacker controls.
    in.seekg(0, std::ios::end);
    const std::streamoff file_size = in.tellg();
    if (file_size < 0) {
      return Status::ExecutionError("cannot stat synopsis bundle '" + path +
                                    "'");
    }
    if (static_cast<uint64_t>(file_size) > limits.max_arena_bytes) {
      return Status::ResourceExhausted(
          "synopsis bundle '" + path + "' is " + std::to_string(file_size) +
          " bytes, exceeding the load budget (" +
          std::to_string(limits.max_arena_bytes) + ")");
    }
    in.seekg(0, std::ios::beg);
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    blob = std::move(buf);
  }

  LimitTracker tracker(limits);
  Reader r(blob.data(), blob.size(), &tracker);
  VR_ASSIGN_OR_RETURN(std::string_view magic, r.Bytes(sizeof(kMagic)));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("'" + path + "' is not a synopsis bundle "
                              "(bad magic)");
  }
  VR_ASSIGN_OR_RETURN(uint16_t version, r.U16());
  if (version != kFormatVersion) {
    return Status::Unsupported("synopsis bundle format version " +
                               std::to_string(version) +
                               " (this build reads version " +
                               std::to_string(kFormatVersion) + ")");
  }
  VR_ASSIGN_OR_RETURN(uint16_t reserved, r.U16());
  (void)reserved;

  SynopsisStore store;
  bool saw_header = false;
  bool saw_generation = false;
  bool saw_end = false;
  uint32_t declared_views = 0;
  while (!saw_end) {
    VR_ASSIGN_OR_RETURN(uint32_t tag, r.U32());
    VR_ASSIGN_OR_RETURN(uint64_t length, r.U64());
    VR_ASSIGN_OR_RETURN(std::string_view payload, r.Bytes(length));
    VR_ASSIGN_OR_RETURN(uint32_t stored_crc, r.U32());
    const uint32_t actual_crc = Crc32(payload.data(), payload.size());
    if (actual_crc != stored_crc) {
      return Status::Corruption(
          "checksum mismatch in synopsis bundle section '" +
          std::string(1, static_cast<char>(tag)) + "'");
    }
    Reader section(payload.data(), payload.size(), &tracker);
    switch (tag) {
      case kSectionHeader: {
        if (saw_header) {
          return Status::Corruption("duplicate header section in bundle");
        }
        saw_header = true;
        VR_ASSIGN_OR_RETURN(store.schema_fingerprint_, section.U64());
        VR_ASSIGN_OR_RETURN(declared_views, section.U32());
        VR_ASSIGN_OR_RETURN(store.ledger_.total_epsilon, section.Double());
        VR_ASSIGN_OR_RETURN(store.ledger_.spent_epsilon, section.Double());
        VR_ASSIGN_OR_RETURN(store.ledger_.entries, section.U32());
        VR_ASSIGN_OR_RETURN(store.ledger_.refunds, section.U32());
        // Optional trailing poisoned flag: absent in pre-flag bundles
        // (reads as false), ignored by pre-flag builds when present.
        if (section.remaining() >= 1) {
          VR_ASSIGN_OR_RETURN(uint8_t poisoned, section.U8());
          store.ledger_.poisoned = poisoned != 0;
        }
        const uint64_t expected = SchemaFingerprint(schema);
        if (store.schema_fingerprint_ != expected) {
          return Status::InvalidArgument(
              "schema drift: bundle was built against a different schema "
              "(fingerprint " + std::to_string(store.schema_fingerprint_) +
              ", current schema " + std::to_string(expected) + ")");
        }
        break;
      }
      case kSectionGeneration: {
        // Optional (pre-lifecycle bundles lack it and load as generation
        // 0), but at most one — two generation stamps would make the
        // bundle's provenance ambiguous.
        if (!saw_header) {
          return Status::Corruption(
              "generation section before header in bundle");
        }
        if (saw_generation) {
          return Status::Corruption("duplicate generation section in bundle");
        }
        saw_generation = true;
        GenerationInfo& info = store.generation_info_;
        VR_ASSIGN_OR_RETURN(info.generation, section.U64());
        VR_ASSIGN_OR_RETURN(info.parent_epoch, section.U64());
        VR_ASSIGN_OR_RETURN(info.generation_epsilon, section.Double());
        VR_ASSIGN_OR_RETURN(uint32_t n_changed, section.U32());
        VR_RETURN_NOT_OK(section.NeedElements(n_changed, 8));
        for (uint32_t i = 0; i < n_changed; ++i) {
          VR_ASSIGN_OR_RETURN(std::string rel, section.String());
          info.changed_relations.push_back(std::move(rel));
        }
        VR_ASSIGN_OR_RETURN(uint32_t n_cycles, section.U32());
        // Each lifecycle record costs at least its signature length prefix
        // plus two u64 stamps.
        VR_RETURN_NOT_OK(section.NeedElements(n_cycles, 24));
        for (uint32_t i = 0; i < n_cycles; ++i) {
          VR_ASSIGN_OR_RETURN(std::string sig, section.String());
          ViewLifecycle cycle;
          VR_ASSIGN_OR_RETURN(cycle.data_generation, section.U64());
          VR_ASSIGN_OR_RETURN(cycle.outdated_since, section.U64());
          if (!store.lifecycle_.emplace(std::move(sig), cycle).second) {
            return Status::Corruption(
                "duplicate view lifecycle record in bundle");
          }
        }
        if (section.remaining() != 0) {
          return Status::Corruption("trailing bytes in generation section");
        }
        break;
      }
      case kSectionView: {
        if (!saw_header) {
          return Status::Corruption("view section before header in bundle");
        }
        VR_ASSIGN_OR_RETURN(LoadedView loaded, ReadViewSection(&section));
        if (section.remaining() != 0) {
          return Status::Corruption("trailing bytes in view section");
        }
        const std::string& sig = loaded.view->signature();
        if (store.view_index_.count(sig)) {
          return Status::Corruption("duplicate view '" + sig + "' in bundle");
        }
        VR_ASSIGN_OR_RETURN(
            Synopsis syn,
            Synopsis::FromParts(loaded.view.get(), std::move(loaded.parts)));
        store.view_index_[sig] = store.views_.size();
        store.synopses_.emplace(sig, std::move(syn));
        store.views_.push_back(std::move(loaded.view));
        break;
      }
      case kSectionEnd:
        saw_end = true;
        break;
      default:
        return Status::Corruption("unknown section tag " + std::to_string(tag) +
                                  " in synopsis bundle");
    }
  }
  if (!saw_header) {
    return Status::Corruption("synopsis bundle has no header section");
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing garbage after end section");
  }
  if (store.views_.size() != declared_views) {
    return Status::Corruption(
        "bundle declares " + std::to_string(declared_views) + " views but " +
        std::to_string(store.views_.size()) + " were present");
  }
  // A process SIGKILLed between its temp write and rename never gets to
  // the post-Save sweep, so orphans from previous lives are reaped on the
  // next successful load instead. Only temps whose owning pid is dead are
  // touched: a live Republisher in another process (or this one) may have
  // a save in flight, and deleting its temp would fail that save.
  SweepOrphanTemps(path, /*only_dead_owners=*/true);
  return store;
}

const Synopsis* SynopsisStore::Find(const std::string& signature) const {
  auto it = synopses_.find(signature);
  return it == synopses_.end() ? nullptr : &it->second;
}

Result<BoundQuery> SynopsisStore::BindScalar(const SelectStmt& query,
                                             const BakePredicate& bake) const {
  VR_ASSIGN_OR_RETURN(ScalarQueryShape shape, AnalyzeScalarQuery(query, bake));
  auto it = view_index_.find(shape.signature);
  if (it == view_index_.end()) {
    return Status::NotFound(
        "no stored view matches the query's join structure (signature: " +
        shape.signature + ")");
  }
  VR_RETURN_NOT_OK(MatchShapeToView(shape, *views_[it->second]));
  BoundQuery bound;
  bound.view_signature = shape.signature;
  bound.cell_query = MakeCellQuery(query, shape);
  return bound;
}

Result<BoundQuery> SynopsisStore::BindGrouped(const SelectStmt& query,
                                              const BakePredicate& bake) const {
  VR_ASSIGN_OR_RETURN(GroupedQueryShape shape,
                      AnalyzeGroupedQuery(query, bake));
  auto it = view_index_.find(shape.base.signature);
  if (it == view_index_.end()) {
    return Status::NotFound(
        "no stored view matches the grouped query's join structure "
        "(signature: " +
        shape.base.signature + ")");
  }
  // MatchShapeToView checks WHERE attributes and measures; the group
  // columns were folded into shape.base.attributes by the analyzer, so
  // one check covers both.
  VR_RETURN_NOT_OK(MatchShapeToView(shape.base, *views_[it->second]));
  BoundQuery bound;
  bound.view_signature = shape.base.signature;
  bound.cell_query = query.Clone();
  return bound;
}

Result<BoundRewrittenQuery> SynopsisStore::Bind(const RewrittenQuery& rq,
                                                const BakePredicate& bake) const {
  BoundRewrittenQuery out;
  for (const ChainLink& link : rq.chain) {
    VR_ASSIGN_OR_RETURN(BoundQuery bq, BindScalar(*link.query, bake));
    out.chain.push_back({link.var, std::move(bq)});
  }
  for (const auto& term : rq.combination.terms) {
    Result<BoundQuery> bq = term.query->group_by.empty()
                                ? BindScalar(*term.query, bake)
                                : BindGrouped(*term.query, bake);
    VR_RETURN_NOT_OK(bq.status());
    out.terms.push_back({term.coeff, std::move(*bq)});
  }
  return out;
}

}  // namespace viewrewrite

#include "lsi/io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>

#include "lsi/doc_store.hpp"
#include "obs/trace.hpp"

namespace lsi::core {

namespace {
// The read/write helpers below throw std::runtime_error internally; the
// try_* entry points are the exception boundary, translating to Status
// (DataLoss for malformed input, Internal for write failures, NotFound for
// unopenable paths).

constexpr std::uint32_t kMagic = 0x4C534932;  // "LSI2"

/// Marker for the OPTIONAL trailing compressed-document section. Databases
/// written before this section existed simply end after global_weights, and
/// readers detect the section by peeking for more bytes — both directions
/// of the format remain compatible (old readers never see the section
/// because old writers never had a store; new readers load old files as
/// uncompressed).
constexpr std::uint64_t kBf16SectionMarker = 0x4246313656454331ULL;  // "BF16VEC1"

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("lsi::io: truncated stream");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bytes between the read position and the end of the stream; the largest
/// count when the stream cannot seek (its reads still fail at the end).
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here < 0) return std::numeric_limits<std::uint64_t>::max();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (!is || end < here) {
    throw std::runtime_error("lsi::io: cannot measure the stream");
  }
  return static_cast<std::uint64_t>(end - here);
}

/// Reads a count of items stored in at least `item_bytes` bytes each, and
/// rejects one the rest of the stream cannot hold before anything is sized
/// by it.
std::uint64_t read_count(std::istream& is, std::uint64_t item_bytes,
                         const char* what) {
  const std::uint64_t n = read_u64(is);
  if (n > bytes_left(is) / item_bytes) {
    throw std::runtime_error(std::string("lsi::io: ") + what +
                             " count exceeds the stream");
  }
  return n;
}

void check_finite(std::span<const double> values, const char* what) {
  for (const double x : values) {
    if (!std::isfinite(x)) {
      throw std::runtime_error(std::string("lsi::io: non-finite ") + what);
    }
  }
}

std::string read_string(std::istream& is) {
  const std::uint64_t len = read_u64(is);
  if (len > (1ULL << 32)) throw std::runtime_error("lsi::io: bad string");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (!is) throw std::runtime_error("lsi::io: truncated stream");
  return s;
}

void write_matrix(std::ostream& os, const la::DenseMatrix& m) {
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.rows() * m.cols() *
                                        sizeof(double)));
}

la::DenseMatrix read_matrix(std::istream& is, const char* what) {
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  constexpr std::uint64_t kMaxEntries = 1ULL << 34;
  if (cols != 0 && rows > kMaxEntries / cols) {
    throw std::runtime_error("lsi::io: matrix too large");
  }
  if (rows * cols > bytes_left(is) / sizeof(double)) {
    throw std::runtime_error("lsi::io: matrix exceeds the stream");
  }
  la::DenseMatrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(rows * cols * sizeof(double)));
  if (!is) throw std::runtime_error("lsi::io: truncated stream");
  check_finite({m.data(), static_cast<std::size_t>(rows * cols)}, what);
  return m;
}

}  // namespace

namespace {

void save_database_impl(std::ostream& os, const LsiDatabase& db) {
  write_u64(os, kMagic);
  write_matrix(os, db.space.u);
  write_u64(os, db.space.sigma.size());
  os.write(reinterpret_cast<const char*>(db.space.sigma.data()),
           static_cast<std::streamsize>(db.space.sigma.size() *
                                        sizeof(double)));
  write_matrix(os, db.space.v);
  write_u64(os, db.vocabulary.size());
  for (const auto& t : db.vocabulary.terms()) write_string(os, t);
  write_u64(os, db.doc_labels.size());
  for (const auto& l : db.doc_labels) write_string(os, l);
  write_u64(os, static_cast<std::uint64_t>(db.scheme.local));
  write_u64(os, static_cast<std::uint64_t>(db.scheme.global));
  write_u64(os, db.global_weights.size());
  os.write(reinterpret_cast<const char*>(db.global_weights.data()),
           static_cast<std::streamsize>(db.global_weights.size() *
                                        sizeof(double)));
  // Optional trailing section: the bf16 document store, present iff the
  // space has compression enabled. Only the encoded payload is serialized;
  // norms are recomputed on load from the payload + sigma, so a loaded
  // store is byte-identical to the one saved (and a resave round-trips).
  if (db.space.compress_docs()) {
    const Bf16DocStore* store = db.space.compressed_docs();
    write_u64(os, kBf16SectionMarker);
    write_u64(os, store->num_docs());
    write_u64(os, store->k());
    const auto payload = store->payload();
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size() *
                                          sizeof(std::uint16_t)));
  }
  if (!os) throw std::runtime_error("lsi::io: write failed");
}

LsiDatabase load_database_impl(std::istream& is) {
  if (read_u64(is) != kMagic) {
    throw std::runtime_error("lsi::io: bad magic (not an LSI database)");
  }
  LsiDatabase db;
  // Every count is bounded by the bytes left before it sizes anything, and
  // every shape is checked against the others: U is m x k, sigma has k
  // entries, V is n x k, with m terms and n labels (or none).
  db.space.u = read_matrix(is, "U entry");
  const std::uint64_t k = read_count(is, sizeof(double), "sigma");
  if (k != db.space.u.cols()) {
    throw std::runtime_error("lsi::io: sigma does not match U's columns");
  }
  db.space.sigma.resize(k);
  is.read(reinterpret_cast<char*>(db.space.sigma.data()),
          static_cast<std::streamsize>(k * sizeof(double)));
  if (!is) throw std::runtime_error("lsi::io: truncated stream");
  check_finite(db.space.sigma, "sigma");
  db.space.v = read_matrix(is, "V entry");
  if (db.space.v.cols() != k) {
    throw std::runtime_error("lsi::io: V's columns do not match sigma");
  }
  // A string is at least its 8-byte length.
  const std::uint64_t nterms = read_count(is, sizeof(std::uint64_t), "term");
  if (nterms != db.space.u.rows()) {
    throw std::runtime_error("lsi::io: vocabulary does not match U's rows");
  }
  std::vector<std::string> terms;
  terms.reserve(nterms);
  for (std::uint64_t i = 0; i < nterms; ++i) terms.push_back(read_string(is));
  db.vocabulary = text::Vocabulary(std::move(terms));
  // No labels is a database saved without them; otherwise one per row of V.
  const std::uint64_t nlabels =
      read_count(is, sizeof(std::uint64_t), "label");
  if (nlabels != 0 && nlabels != db.space.v.rows()) {
    throw std::runtime_error("lsi::io: labels do not match V's rows");
  }
  db.doc_labels.reserve(nlabels);
  for (std::uint64_t i = 0; i < nlabels; ++i) {
    db.doc_labels.push_back(read_string(is));
  }
  const std::uint64_t local = read_u64(is);
  const std::uint64_t global = read_u64(is);
  if (local > 3 || global > 4) {
    throw std::runtime_error("lsi::io: bad weighting scheme");
  }
  db.scheme.local = static_cast<weighting::LocalWeight>(local);
  db.scheme.global = static_cast<weighting::GlobalWeight>(global);
  const std::uint64_t ng = read_count(is, sizeof(double), "weight");
  if (ng > (1ULL << 32)) throw std::runtime_error("lsi::io: bad weights");
  db.global_weights.resize(ng);
  is.read(reinterpret_cast<char*>(db.global_weights.data()),
          static_cast<std::streamsize>(ng * sizeof(double)));
  if (!is) throw std::runtime_error("lsi::io: truncated stream");
  // Optional trailing bf16 section (see kBf16SectionMarker): detected by
  // peeking past the last mandatory field. EOF here means an uncompressed
  // database; anything else must be the marker.
  if (is.peek() != std::istream::traits_type::eof()) {
    if (read_u64(is) != kBf16SectionMarker) {
      throw std::runtime_error("lsi::io: bad trailing section marker");
    }
    const std::uint64_t ndocs = read_u64(is);
    const std::uint64_t kk = read_u64(is);
    if (ndocs != static_cast<std::uint64_t>(db.space.num_docs()) ||
        kk != static_cast<std::uint64_t>(db.space.k())) {
      throw std::runtime_error(
          "lsi::io: bf16 section shape does not match the space");
    }
    std::vector<std::uint16_t> payload(ndocs * kk);
    is.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() *
                                         sizeof(std::uint16_t)));
    if (!is) throw std::runtime_error("lsi::io: truncated stream");
    db.space.adopt_compressed_docs(Bf16DocStore::from_payload(
        static_cast<index_t>(ndocs), static_cast<index_t>(kk),
        std::move(payload), db.space.sigma));
  }
  return db;
}

}  // namespace

Status try_save_database(std::ostream& os, const LsiDatabase& db) {
  LSI_OBS_SPAN(span, "io.save");
  try {
    save_database_impl(os, db);
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  return Status::Ok();
}

Expected<LsiDatabase> try_load_database(std::istream& is) {
  LSI_OBS_SPAN(span, "io.load");
  try {
    return load_database_impl(is);
  } catch (const std::exception& e) {
    return Status::DataLoss(e.what());
  }
}

Status try_save_database_file(const std::string& path,
                              const LsiDatabase& db) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::NotFound("lsi::io: cannot open " + path);
  return try_save_database(os, db);
}

Expected<LsiDatabase> try_load_database_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("lsi::io: cannot open " + path);
  return try_load_database(is);
}

}  // namespace lsi::core

// Tests for model serialization: round-trip fidelity and corruption
// rejection (failure injection on the binary format).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/model_io.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/io.hpp"

namespace culda::core {
namespace {

struct Trained {
  corpus::Corpus corpus;
  CuldaConfig cfg;
  GatheredModel model;
};

Trained TrainSmall() {
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 200;
  p.avg_doc_length = 30;
  Trained t{corpus::GenerateCorpus(p), {}, {}};
  t.cfg.num_topics = 16;
  CuldaTrainer trainer(t.corpus, t.cfg, {});
  trainer.Train(3);
  t.model = trainer.Gather();
  return t;
}

std::string Serialize(const GatheredModel& m) {
  std::ostringstream out(std::ios::binary);
  SaveModel(m, out);
  return out.str();
}

TEST(ModelIo, RoundTripPreservesEverything) {
  const Trained t = TrainSmall();
  std::stringstream buf(std::ios::binary | std::ios::in | std::ios::out);
  SaveModel(t.model, buf);
  const GatheredModel loaded = LoadModel(buf);

  EXPECT_EQ(loaded.num_topics, t.model.num_topics);
  EXPECT_EQ(loaded.vocab_size, t.model.vocab_size);
  EXPECT_EQ(loaded.num_docs, t.model.num_docs);
  ASSERT_EQ(loaded.theta.nnz(), t.model.theta.nnz());
  for (size_t i = 0; i < loaded.theta.nnz(); ++i) {
    ASSERT_EQ(loaded.theta.col_idx()[i], t.model.theta.col_idx()[i]);
    ASSERT_EQ(loaded.theta.values()[i], t.model.theta.values()[i]);
  }
  for (size_t i = 0; i < loaded.phi.flat().size(); ++i) {
    ASSERT_EQ(loaded.phi.flat()[i], t.model.phi.flat()[i]);
  }
  EXPECT_EQ(loaded.nk, t.model.nk);
  loaded.Validate(t.corpus);

  // Semantics preserved: identical log-likelihood.
  EXPECT_DOUBLE_EQ(LogLikelihoodPerToken(loaded, t.cfg),
                   LogLikelihoodPerToken(t.model, t.cfg));
}

TEST(ModelIo, FileRoundTrip) {
  const Trained t = TrainSmall();
  const std::string path = ::testing::TempDir() + "/culda_model.bin";
  SaveModelToFile(t.model, path);
  const GatheredModel loaded = LoadModelFromFile(path);
  loaded.Validate(t.corpus);
}

TEST(ModelIo, RejectsBadMagic) {
  std::string bytes = Serialize(TrainSmall().model);
  bytes[0] = 'X';
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(LoadModel(in), Error);
}

TEST(ModelIo, RejectsBadVersion) {
  std::string bytes = Serialize(TrainSmall().model);
  bytes[8] = 99;  // version field follows the 8-byte magic
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(LoadModel(in), Error);
}

TEST(ModelIo, RejectsTruncation) {
  const std::string bytes = Serialize(TrainSmall().model);
  for (const double frac : {0.1, 0.5, 0.9, 0.999}) {
    std::istringstream in(
        bytes.substr(0, static_cast<size_t>(bytes.size() * frac)),
        std::ios::binary);
    EXPECT_THROW(LoadModel(in), Error) << "fraction " << frac;
  }
}

TEST(ModelIo, RejectsCorruptNk) {
  // Flip a φ count so n_k no longer matches its row sum.
  std::string bytes = Serialize(TrainSmall().model);
  // φ sits near the end of the file; corrupt a byte in its region.
  bytes[bytes.size() - 16 * 4 - 100] ^= 0xFF;
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(LoadModel(in), Error);
}

// ------------------------------------------------------- file boundary --
//
// φ is word-major in memory and topic-major in the file: SaveModel
// transposes it piece by piece (at most io::kIoPieceBytes each) and
// LoadModel row by row, both skipping zero runs 16 cells at a time. These
// shapes put zero runs and nonzero cells across 16-cell skip blocks and
// piece edges, including pieces inside one row.

struct Shape {
  const char* name;
  uint32_t k, v;
  std::function<uint16_t(uint32_t k, uint32_t v)> count;
};

GatheredModel MakeModel(const Shape& s) {
  GatheredModel m;
  m.num_topics = s.k;
  m.vocab_size = s.v;
  m.num_docs = 1;
  m.phi = WordMajorPhi(s.k, s.v);
  m.nk.assign(s.k, 0);
  int32_t total = 0;
  for (uint32_t k = 0; k < s.k; ++k) {
    for (uint32_t v = 0; v < s.v; ++v) {
      m.phi(k, v) = s.count(k, v);
      m.nk[k] += m.phi(k, v);
    }
    total += m.nk[k];
  }
  m.theta = ThetaMatrix(1, s.k, {0, 1}, {0}, {total});
  return m;
}

/// The model file as a plain writer lays it out, φ one topic row at a time:
/// the reference the streamed SaveModel must match byte for byte.
std::string ReferenceBytes(const GatheredModel& m) {
  std::string payload;
  const auto put = [&](const void* p, size_t n) {
    payload.append(static_cast<const char*>(p), n);
  };
  put(&m.num_topics, sizeof(m.num_topics));
  put(&m.vocab_size, sizeof(m.vocab_size));
  put(&m.num_docs, sizeof(m.num_docs));
  const uint64_t nnz = m.theta.nnz();
  put(&nnz, sizeof(nnz));
  put(m.theta.row_ptr().data(), m.theta.row_ptr().size_bytes());
  put(m.theta.col_idx().data(), m.theta.col_idx().size_bytes());
  put(m.theta.values().data(), m.theta.values().size_bytes());
  std::vector<uint16_t> row(m.vocab_size);
  for (uint32_t k = 0; k < m.num_topics; ++k) {
    for (uint32_t v = 0; v < m.vocab_size; ++v) row[v] = m.phi(k, v);
    put(row.data(), row.size() * sizeof(uint16_t));
  }
  put(m.nk.data(), m.nk.size() * sizeof(int32_t));

  const uint32_t version = 2;
  const uint64_t size = payload.size();
  std::string header(12, '\0');
  std::memcpy(header.data(), &version, sizeof(version));
  std::memcpy(header.data() + 4, &size, sizeof(size));
  const uint32_t crc = io::Crc32(payload, io::Crc32(header));
  std::string bytes = "CULDAMDL" + header + payload;
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

class FileBoundary : public ::testing::TestWithParam<Shape> {};

TEST_P(FileBoundary, SaveMatchesRowByRowWriterAndLoadSaveIsByteEqual) {
  const GatheredModel m = MakeModel(GetParam());
  const std::string reference = ReferenceBytes(m);
  const std::string saved = Serialize(m);
  EXPECT_TRUE(saved == reference);
  std::istringstream in(saved, std::ios::binary);
  const GatheredModel loaded = LoadModel(in);
  EXPECT_TRUE(std::ranges::equal(loaded.phi.flat(), m.phi.flat()));
  EXPECT_EQ(loaded.nk, m.nk);
  EXPECT_TRUE(Serialize(loaded) == reference);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FileBoundary,
    ::testing::Values(
        Shape{"OneTopic", 1, 37,
              [](uint32_t, uint32_t v) -> uint16_t { return v % 3 == 0; }},
        // Neither K = 70 nor V = 71 is a multiple of the 16-cell skip
        // block; the nonzero bands leave zero runs across block edges in
        // both the file's rows and the model's words.
        Shape{"ZeroRunsAcrossBlocks", 70, 71,
              [](uint32_t k, uint32_t v) -> uint16_t {
                if (v >= 60 && v < 66) return static_cast<uint16_t>(k + 1);
                if (k >= 62 && k < 67) return static_cast<uint16_t>(v + 2);
                return 0;
              }},
        Shape{"NoZeros", 33, 50,
              [](uint32_t k, uint32_t v) -> uint16_t {
                return static_cast<uint16_t>(1 + (7 * k + v) % 5);
              }},
        // 20 × 40,000 cells: the first 1 MiB piece ends inside row 13, so
        // pieces start and end mid-row around whole rows.
        Shape{"PiecesEndMidRow", 20, 40000,
              [](uint32_t k, uint32_t v) -> uint16_t {
                return (v * 31 + k * 17) % 53 == 0 ? 0xFFFF : 0;
              }},
        // A row longer than a piece: pieces lie inside one row, or span the
        // end of one row and the start of the next with no whole row.
        Shape{"RowLongerThanPiece", 2, 700001,
              [](uint32_t k, uint32_t v) -> uint16_t {
                return static_cast<uint16_t>((v + k) % 97 == 0 ? v % 9 : 0);
              }}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name);
    });

TEST(ModelIo, RejectsNkThatDisagreesWithPhi) {
  // A file with a valid frame and CRC whose n_k does not match φ's row
  // sums: only the φ / n_k check can reject it.
  GatheredModel m = MakeModel(
      {"", 4, 50, [](uint32_t k, uint32_t v) -> uint16_t {
         return (k + v) % 6 == 0 ? 3 : 0;
       }});
  m.nk[2] += 1;
  std::istringstream in(Serialize(m), std::ios::binary);
  try {
    LoadModel(in);
    FAIL() << "n_k mismatch was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("n_k[2] mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(LoadModelFromFile("/nonexistent/model.bin"), Error);
}

}  // namespace
}  // namespace culda::core

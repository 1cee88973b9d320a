// Fault-injection suite for the persistence layer (docs/persistence.md):
// truncation at every prefix length, hundreds of random single-bit flips,
// and hostile hand-crafted headers for each on-disk artifact (model,
// checkpoint, UCI corpus) — every corruption must surface as a clean
// culda::Error (never a crash, hang, bad_alloc, or silent load) — plus the
// container-format round trip, the atomic-write/rotate protocol, and the
// kill-mid-checkpoint resume path.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/model_io.hpp"
#include "core/online.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/uci_reader.hpp"
#include "util/io.hpp"
#include "util/philox.hpp"

namespace culda {
namespace {

// The artifact magics, restated here so the tests can craft hostile files
// byte-for-byte (the writers keep theirs private on purpose).
constexpr char kModelMagic[8] = {'C', 'U', 'L', 'D', 'A', 'M', 'D', 'L'};
constexpr char kCkptMagic[8] = {'C', 'U', 'L', 'D', 'A', 'C', 'K', 'P'};
constexpr uint32_t kFormatVersion = 2;

const corpus::Corpus& SmallCorpus() {
  static const corpus::Corpus c = [] {
    corpus::SyntheticProfile p;
    p.num_docs = 40;
    p.vocab_size = 50;
    p.avg_doc_length = 12;
    p.seed = 7;
    return corpus::GenerateCorpus(p);
  }();
  return c;
}

core::CuldaConfig SmallConfig() {
  core::CuldaConfig cfg;
  cfg.num_topics = 8;
  return cfg;
}

// Artifacts are built once; the sweeps below corrupt them thousands of ways.
const std::string& ModelBytes() {
  static const std::string bytes = [] {
    core::CuldaTrainer trainer(SmallCorpus(), SmallConfig(), {});
    trainer.Train(2);
    std::ostringstream out(std::ios::binary);
    core::SaveModel(trainer.Gather(), out);
    return out.str();
  }();
  return bytes;
}

const std::string& CheckpointBytes() {
  static const std::string bytes = [] {
    core::CuldaTrainer trainer(SmallCorpus(), SmallConfig(), {});
    trainer.Train(2);
    std::ostringstream out(std::ios::binary);
    trainer.SaveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

const std::string& UciBytes() {
  static const std::string bytes = [] {
    std::ostringstream out;
    corpus::WriteUciBagOfWords(SmallCorpus(), out);
    return out.str();
  }();
  return bytes;
}

std::string FrameContainer(const io::ContainerWriter& w,
                           const char (&magic)[8],
                           uint32_t version = kFormatVersion) {
  std::ostringstream out(std::ios::binary);
  w.Finish(out, magic, version);
  return out.str();
}

void ExpectModelRejected(const std::string& bytes, const std::string& why) {
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(core::LoadModel(in), Error) << why;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint16_t> PhiFingerprint(const core::CuldaTrainer& trainer) {
  const auto m = trainer.Gather();
  return {m.phi.flat().begin(), m.phi.flat().end()};
}

// ------------------------------------------------------- container format

TEST(IoContainer, Crc32KnownAnswerAndChaining) {
  const std::string check = "123456789";
  EXPECT_EQ(io::Crc32(check), 0xCBF43926u);
  // Incremental == one-shot.
  const uint32_t partial = io::Crc32({check.data(), 4});
  EXPECT_EQ(io::Crc32({check.data() + 4, 5}, partial), 0xCBF43926u);
}

/// The byte-at-a-time table loop io::Crc32 used to be: the oracle for the
/// sliced implementation.
uint32_t ReferenceCrc32(std::span<const char> data, uint32_t crc = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  PhiloxStream rng(seed, 0);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBelow(256));
  return bytes;
}

TEST(IoContainer, Crc32MatchesByteLoopAtEveryLengthAndAlignment) {
  // Every length 0..300 from every start offset 0..15: misaligned heads,
  // whole sliced blocks, and every tail length.
  const std::string bytes = RandomBytes(16 + 300, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::span<const char> s(bytes.data() + offset, len);
      ASSERT_EQ(io::Crc32(s), ReferenceCrc32(s))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(io::Crc32(s, 0x12345678u), ReferenceCrc32(s, 0x12345678u))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST(IoContainer, Crc32ChainsAtEverySplitPoint) {
  const std::string bytes = RandomBytes(1024, 2);
  const uint32_t whole = ReferenceCrc32(bytes);
  ASSERT_EQ(io::Crc32(bytes), whole);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = io::Crc32({bytes.data(), split});
    ASSERT_EQ(io::Crc32({bytes.data() + split, bytes.size() - split}, head),
              whole)
        << "split " << split;
  }
}

TEST(IoContainer, Crc32MatchesByteLoopOnALargeBuffer) {
  const std::string bytes = RandomBytes(12 << 20, 3);
  EXPECT_EQ(io::Crc32(bytes), ReferenceCrc32(bytes));
}

TEST(IoContainer, RoundTripPreservesSections) {
  io::ContainerWriter w;
  w.WritePod<uint32_t>(42);
  w.WritePod<uint64_t>(1ull << 40);
  const std::vector<int32_t> vals = {1, -2, 3};
  w.WriteSpan(std::span<const int32_t>(vals));
  const std::string framed = FrameContainer(w, kModelMagic);

  std::istringstream in(framed, std::ios::binary);
  const std::string payload =
      io::ReadContainer(in, kModelMagic, kFormatVersion, "model");
  io::ByteReader r(payload, "model");
  EXPECT_EQ(r.ReadPod<uint32_t>(), 42u);
  EXPECT_EQ(r.ReadPod<uint64_t>(), 1ull << 40);
  EXPECT_EQ(r.ReadVector<int32_t>(3), vals);
  r.ExpectEnd();
}

// The writer holds sections by reference until Finish, so an owning
// temporary must not be accepted where it would dangle.
template <typename V>
concept WriterAccepts = requires(io::ContainerWriter w, V&& v) {
  w.WriteSpan(std::forward<V>(v));
};
static_assert(WriterAccepts<const std::vector<int32_t>&>);
static_assert(!WriterAccepts<std::vector<int32_t>>);

TEST(IoContainer, ByteReaderRejectsOversizedCountWithoutAllocating) {
  const std::string payload(64, '\0');
  io::ByteReader r(payload, "test");
  // 2^60 elements would be an exabyte — must fail on the bound, not OOM.
  EXPECT_THROW(r.ReadVector<uint64_t>(1ull << 60), Error);
  EXPECT_THROW(r.ReadVector<uint16_t>(UINT64_MAX), Error);
}

TEST(IoContainer, RejectsWrongMagicVersionAndTrailer) {
  io::ContainerWriter w;
  w.WritePod<uint32_t>(7);
  {
    std::string bytes = FrameContainer(w, kModelMagic);
    bytes[2] ^= 0x01;  // magic
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(io::ReadContainer(in, kModelMagic, kFormatVersion, "model"),
                 Error);
  }
  {
    // Version mismatch is reported before the payload is consumed.
    const std::string bytes = FrameContainer(w, kModelMagic, /*version=*/1);
    std::istringstream in(bytes, std::ios::binary);
    try {
      io::ReadContainer(in, kModelMagic, kFormatVersion, "model");
      FAIL() << "v1 container accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
          << e.what();
    }
  }
  {
    std::string bytes = FrameContainer(w, kModelMagic);
    bytes.back() ^= 0x80;  // CRC trailer
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(io::ReadContainer(in, kModelMagic, kFormatVersion, "model"),
                 Error);
  }
  {
    std::string bytes = FrameContainer(w, kModelMagic) + "garbage";
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(io::ReadContainer(in, kModelMagic, kFormatVersion, "model"),
                 Error);
  }
}

TEST(IoContainer, HostileDeclaredLengthDoesNotAllocate) {
  // Hand-build a frame whose header declares an absurd payload length; the
  // reader must fail on the actual stream end, allocating at most one chunk.
  std::string bytes(kModelMagic, 8);
  const uint32_t version = kFormatVersion;
  const uint64_t declared = 1ull << 62;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&declared), 8);
  bytes.append("short", 5);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(io::ReadContainer(in, kModelMagic, kFormatVersion, "model"),
               Error);
}

// --------------------------------------------------------- atomic writing

TEST(AtomicWrite, ReplacesAtomicallyAndRotatesPrevious) {
  const std::string path = ::testing::TempDir() + "/culda_atomic.txt";
  const std::string prev = path + ".prev";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  std::remove(tmp.c_str());

  io::AtomicWriteFile(
      path, [](std::ostream& out) { out << "one"; }, /*keep_previous=*/true);
  EXPECT_EQ(Slurp(path), "one");
  EXPECT_FALSE(io::FileExists(prev));
  EXPECT_FALSE(io::FileExists(tmp));

  io::AtomicWriteFile(
      path, [](std::ostream& out) { out << "two"; }, /*keep_previous=*/true);
  EXPECT_EQ(Slurp(path), "two");
  EXPECT_EQ(Slurp(prev), "one");
  EXPECT_FALSE(io::FileExists(tmp));
}

TEST(AtomicWrite, FailedWriterLeavesTargetAndPreviousIntact) {
  const std::string path = ::testing::TempDir() + "/culda_atomic_fail.txt";
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  io::AtomicWriteFile(path, [](std::ostream& out) { out << "keep"; }, true);

  EXPECT_THROW(io::AtomicWriteFile(
                   path,
                   [](std::ostream& out) {
                     out << "half-written";
                     throw Error("simulated crash mid-serialization");
                   },
                   true),
               Error);
  EXPECT_EQ(Slurp(path), "keep") << "torn write must not reach the target";
  EXPECT_FALSE(io::FileExists(prev));
}

// ------------------------------------------------------------ model faults

TEST(ModelFaults, TruncationAtEveryPrefixThrows) {
  const std::string& bytes = ModelBytes();
  ASSERT_GT(bytes.size(), 100u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(core::LoadModel(in), Error) << "prefix " << len;
  }
}

TEST(ModelFaults, RandomSingleBitFlipsAlwaysDetected) {
  const std::string& bytes = ModelBytes();
  PhiloxStream rng(2024, 1);
  for (int i = 0; i < 256; ++i) {
    std::string copy = bytes;
    const size_t byte = rng.NextBelow(static_cast<uint32_t>(copy.size()));
    const int bit = static_cast<int>(rng.NextBelow(8));
    copy[byte] = static_cast<char>(copy[byte] ^ (1 << bit));
    ExpectModelRejected(copy, "bit " + std::to_string(bit) + " of byte " +
                                  std::to_string(byte));
  }
}

TEST(ModelFaults, TrailingGarbageRejected) {
  ExpectModelRejected(ModelBytes() + std::string(1, '\0'),
                      "one trailing NUL");
  ExpectModelRejected(ModelBytes() + "extra", "trailing text");
}

TEST(ModelFaults, HostileHeaderCountsFailCleanlyBeforeAllocation) {
  struct Case {
    const char* name;
    uint32_t k, v;
    uint64_t docs, nnz;
  };
  // Each declares section sizes far beyond the actual payload; all must be
  // rejected on the stream-length bound, never reach the allocator.
  const Case cases[] = {
      {"huge docs", 8, 50, 1ull << 60, 10},
      {"docs wrap (u64 max + 1 == 0 rows)", 8, 50, UINT64_MAX, 10},
      {"huge nnz", 8, 50, 4, UINT64_MAX},
      {"huge K*V", 65536, UINT32_MAX, 4, 10},
      {"zero topics", 0, 50, 4, 10},
      {"K above u16 topic-id range", 1u << 20, 50, 4, 10},
  };
  for (const Case& c : cases) {
    io::ContainerWriter w;
    w.WritePod(c.k);
    w.WritePod(c.v);
    w.WritePod(c.docs);
    w.WritePod(c.nnz);
    w.WritePod<uint64_t>(0);  // a token stub of "section" bytes
    ExpectModelRejected(FrameContainer(w, kModelMagic), c.name);
  }
}

TEST(ModelFaults, ThetaRowPointersMustStartAtZero) {
  // A CRC-valid file whose first θ row pointer is 1 would otherwise load
  // with doc 0 silently short an entry; it must be rejected by name.
  // Re-frame the payload so only the parser can catch it.
  const std::string& bytes = ModelBytes();
  constexpr size_t kHeader = 8 + 4 + 8;  // magic, version, payload size
  std::string payload = bytes.substr(kHeader, bytes.size() - kHeader - 4);
  constexpr size_t kRowPtr0 = 4 + 4 + 8 + 8;  // after K, V, D, nnz
  uint64_t row_ptr0 = 0;
  std::memcpy(&row_ptr0, payload.data() + kRowPtr0, sizeof(row_ptr0));
  ASSERT_EQ(row_ptr0, 0u);
  row_ptr0 = 1;
  std::memcpy(payload.data() + kRowPtr0, &row_ptr0, sizeof(row_ptr0));
  io::ContainerWriter w;
  w.WriteSpan(std::span<const char>(payload));
  std::istringstream in(FrameContainer(w, kModelMagic), std::ios::binary);
  try {
    core::LoadModel(in);
    FAIL() << "model with row_ptr[0] = 1 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the first is 1, not 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelFaults, LegacyV1Rejected) {
  // A v1 file is magic + u32 version + unframed fields; the reader must
  // identify it by version, not choke on a garbage length.
  std::string bytes(kModelMagic, 8);
  const uint32_t v1 = 1;
  bytes.append(reinterpret_cast<const char*>(&v1), 4);
  bytes.append(64, '\x5a');
  std::istringstream in(bytes, std::ios::binary);
  try {
    core::LoadModel(in);
    FAIL() << "legacy v1 model accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- checkpoint faults

TEST(CheckpointFaults, TruncationAtEveryPrefixThrowsAndLeavesTrainerUsable) {
  const std::string& bytes = CheckpointBytes();
  core::CuldaTrainer trainer(SmallCorpus(), SmallConfig(), {});
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(trainer.RestoreCheckpoint(in), Error) << "prefix " << len;
  }
  // Restore is transactional: after every failure above the trainer still
  // trains, bit-identically to a fresh one.
  core::CuldaTrainer fresh(SmallCorpus(), SmallConfig(), {});
  trainer.Train(1);
  fresh.Train(1);
  EXPECT_EQ(PhiFingerprint(trainer), PhiFingerprint(fresh));
}

TEST(CheckpointFaults, RandomSingleBitFlipsAlwaysDetected) {
  const std::string& bytes = CheckpointBytes();
  core::CuldaTrainer trainer(SmallCorpus(), SmallConfig(), {});
  PhiloxStream rng(2024, 2);
  for (int i = 0; i < 256; ++i) {
    std::string copy = bytes;
    const size_t byte = rng.NextBelow(static_cast<uint32_t>(copy.size()));
    const int bit = static_cast<int>(rng.NextBelow(8));
    copy[byte] = static_cast<char>(copy[byte] ^ (1 << bit));
    std::istringstream in(copy, std::ios::binary);
    EXPECT_THROW(trainer.RestoreCheckpoint(in), Error)
        << "bit " << bit << " of byte " << byte;
  }
}

TEST(CheckpointFaults, HostileChunkStructureRejected) {
  const auto& corpus = SmallCorpus();
  const auto cfg = SmallConfig();
  core::CuldaTrainer trainer(corpus, cfg, {});

  const auto craft = [&](uint32_t num_chunks, uint64_t chunk_len) {
    io::ContainerWriter w;
    w.WritePod(cfg.num_topics);
    w.WritePod(cfg.seed);
    w.WritePod(corpus.num_tokens());
    w.WritePod(static_cast<uint64_t>(corpus.num_docs()));
    w.WritePod(corpus.vocab_size());
    w.WritePod<uint32_t>(1);  // iteration
    w.WritePod(num_chunks);
    w.WritePod(chunk_len);
    return FrameContainer(w, kCkptMagic);
  };

  for (const auto& [bytes, why] :
       {std::pair{craft(UINT32_MAX, 8), "absurd chunk count"},
        std::pair{craft(0, 8), "zero chunks"},
        std::pair{craft(1, UINT64_MAX), "absurd chunk length"},
        std::pair{craft(1, corpus.num_tokens() + 1),
                  "chunk longer than the corpus"}}) {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(trainer.RestoreCheckpoint(in), Error) << why;
  }
}

TEST(CheckpointFaults, KillMidCheckpointResumesFromLastGoodBitIdentically) {
  const auto& corpus = SmallCorpus();
  const auto cfg = SmallConfig();
  const std::string path = ::testing::TempDir() + "/culda_ckpt.bin";
  const std::string prev = path + ".prev";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  std::remove(tmp.c_str());

  core::CuldaTrainer writer(corpus, cfg, {});
  writer.Train(2);
  writer.SaveCheckpointToFile(path);  // path = @2
  writer.Train(2);
  writer.SaveCheckpointToFile(path);  // path = @4, prev = @2
  const std::string at4 = Slurp(path);
  ASSERT_EQ(Slurp(prev), CheckpointBytes()) << "prev should be the @2 state";

  core::CuldaTrainer reference(corpus, cfg, {});
  reference.Train(6);

  // Crash mode 1: the primary is torn (e.g. truncated by a dying disk) —
  // resume degrades to the retained last-good and continues bit-identically.
  Spit(path, at4.substr(0, at4.size() / 2));
  {
    core::CuldaTrainer resumed(corpus, cfg, {});
    EXPECT_EQ(resumed.RestoreCheckpointFromFile(path), prev);
    EXPECT_EQ(resumed.iteration(), 2u);
    resumed.Train(4);
    EXPECT_EQ(PhiFingerprint(resumed), PhiFingerprint(reference));
  }

  // Crash mode 2: killed between the two renames — the primary name is
  // missing entirely, a stray .tmp holds the unfinished write.
  std::remove(path.c_str());
  Spit(tmp, at4.substr(0, 10));
  {
    core::CuldaTrainer resumed(corpus, cfg, {});
    EXPECT_EQ(resumed.RestoreCheckpointFromFile(path), prev);
    EXPECT_EQ(resumed.iteration(), 2u);
    resumed.Train(4);
    EXPECT_EQ(PhiFingerprint(resumed), PhiFingerprint(reference));
  }

  // Healthy primary is preferred over prev.
  Spit(path, at4);
  {
    core::CuldaTrainer resumed(corpus, cfg, {});
    EXPECT_EQ(resumed.RestoreCheckpointFromFile(path), path);
    EXPECT_EQ(resumed.iteration(), 4u);
    resumed.Train(2);
    EXPECT_EQ(PhiFingerprint(resumed), PhiFingerprint(reference));
  }

  // Neither file usable: a descriptive error, not a fallback loop.
  std::remove(path.c_str());
  std::remove(prev.c_str());
  {
    core::CuldaTrainer resumed(corpus, cfg, {});
    EXPECT_THROW(resumed.RestoreCheckpointFromFile(path), Error);
  }
}

// -------------------------------------------------------------- UCI faults

TEST(UciFaults, TruncationAtEveryPrefixThrows) {
  const std::string& bytes = UciBytes();
  ASSERT_GT(bytes.size(), 100u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_THROW(corpus::ReadUciBagOfWords(in), Error) << "prefix " << len;
  }
}

TEST(UciFaults, RandomSingleBitFlipsNeverCrashOrOverrun) {
  // A checksumless text format cannot promise detection of every flip (a
  // digit may turn into another digit); it must still never crash, hang,
  // over-allocate, or produce a structurally invalid corpus.
  const std::string& bytes = UciBytes();
  const uint64_t original_tokens = SmallCorpus().num_tokens();
  PhiloxStream rng(2024, 3);
  for (int i = 0; i < 256; ++i) {
    std::string copy = bytes;
    const size_t byte = rng.NextBelow(static_cast<uint32_t>(copy.size()));
    copy[byte] = static_cast<char>(copy[byte] ^
                                   (1 << rng.NextBelow(8)));
    std::istringstream in(copy);
    try {
      const corpus::Corpus parsed = corpus::ReadUciBagOfWords(in);
      parsed.Validate();
      // One flipped digit can at most multiply one count by ~10.
      EXPECT_LE(parsed.num_tokens(), original_tokens * 16) << "byte " << byte;
    } catch (const Error&) {
      // Rejection is the expected outcome; anything else escapes and fails.
    }
  }
}

TEST(UciFaults, NegativeFieldsRejectedExplicitly) {
  // `-1` must be rejected as negative, not wrap to 2^64−1 through unsigned
  // stream extraction (which would expand ~2^64 tokens, one by one).
  for (const char* text : {"-3\n5\n1\n1 1 1\n", "3\n-5\n1\n1 1 1\n",
                           "3\n5\n-1\n1 1 1\n", "3\n5\n1\n-1 1 1\n",
                           "3\n5\n1\n1 -1 1\n", "3\n5\n1\n1 1 -1\n"}) {
    std::istringstream in(text);
    try {
      corpus::ReadUciBagOfWords(in);
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos)
          << e.what();
    }
  }
}

TEST(UciFaults, HostileHeaderRejectedBeforeAllocation) {
  for (const char* text : {
           "99999999999999999\n5\n1\n1 1 1\n",   // D over the cap
           "3\n99999999999999999\n1\n1 1 1\n",   // W over the cap
           "3\n5\n99999999999999999\n1 1 1\n",   // NNZ over the cap
           "99999999999999999999999\n5\n1\n",    // D beyond int64: malformed
       }) {
    std::istringstream in(text);
    EXPECT_THROW(corpus::ReadUciBagOfWords(in), Error) << text;
  }
}

TEST(UciFaults, TokenExpansionCapEnforced) {
  {
    // 10^10 tokens from one entry exceeds the default 2^32 cap.
    std::istringstream in("1\n1\n1\n1 1 10000000000\n");
    EXPECT_THROW(corpus::ReadUciBagOfWords(in), Error);
  }
  {
    corpus::UciReadLimits tight;
    tight.max_tokens = 100;
    std::istringstream in("1\n1\n2\n1 1 60\n1 1 41\n");
    EXPECT_THROW(corpus::ReadUciBagOfWords(in, tight), Error);
  }
  {
    corpus::UciReadLimits tight;
    tight.max_tokens = 101;
    std::istringstream in("1\n1\n2\n1 1 60\n1 1 41\n");
    EXPECT_EQ(corpus::ReadUciBagOfWords(in, tight).num_tokens(), 101u);
  }
}

TEST(UciFaults, UnterminatedOrTrailingInputRejected) {
  {
    // Missing final newline: "5" could be a truncated "50" — reject.
    std::istringstream in("1\n1\n1\n1 1 5");
    EXPECT_THROW(corpus::ReadUciBagOfWords(in), Error);
  }
  {
    std::istringstream in("1\n1\n1\n1 1 5\nbogus trailing entry\n");
    EXPECT_THROW(corpus::ReadUciBagOfWords(in), Error);
  }
  {
    // Trailing whitespace after the terminator is fine.
    std::istringstream in("1\n1\n1\n1 1 5\n  \n\n");
    EXPECT_EQ(corpus::ReadUciBagOfWords(in).num_tokens(), 5u);
  }
}

// ------------------------------------------------------- online checkpoint

TEST(OnlineCheckpoint, RoundTripsThroughTheHardenedFormat) {
  core::OnlineTrainer a(SmallCorpus(), SmallConfig(), {}, 2);
  std::stringstream ckpt(std::ios::binary | std::ios::in | std::ios::out);
  a.SaveCheckpoint(ckpt);

  core::OnlineTrainer b(SmallCorpus(), SmallConfig(), {}, 1);
  b.RestoreCheckpoint(ckpt);
  EXPECT_EQ(b.iteration(), a.iteration());
  const auto ma = a.Gather(), mb = b.Gather();
  EXPECT_EQ(std::vector<uint16_t>(ma.phi.flat().begin(),
                                  ma.phi.flat().end()),
            std::vector<uint16_t>(mb.phi.flat().begin(),
                                  mb.phi.flat().end()));
}

TEST(OnlineCheckpoint, PendingDocumentsBlockCheckpointing) {
  core::OnlineTrainer t(SmallCorpus(), SmallConfig(), {}, 1);
  t.AddDocument({0, 1, 2});
  std::stringstream buf(std::ios::binary | std::ios::in | std::ios::out);
  EXPECT_THROW(t.SaveCheckpoint(buf), Error);
  EXPECT_THROW(t.RestoreCheckpoint(buf), Error);
  // After absorbing, checkpointing is allowed again.
  t.Absorb(1);
  t.SaveCheckpoint(buf);
  EXPECT_GT(buf.str().size(), 0u);
}

}  // namespace
}  // namespace culda

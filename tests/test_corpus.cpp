// Unit tests for corpus storage, the synthetic generator, and UCI I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <optional>
#include <sstream>

#include "corpus/corpus.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/uci_reader.hpp"
#include "util/check.hpp"

namespace culda::corpus {
namespace {

Corpus Tiny() {
  // doc0 = [w0 w1 w1], doc1 = [w2], doc2 = []
  return Corpus(3, {0, 3, 4, 4}, {0, 1, 1, 2});
}

TEST(Corpus, BasicAccessors) {
  const Corpus c = Tiny();
  EXPECT_EQ(c.num_docs(), 3u);
  EXPECT_EQ(c.num_tokens(), 4u);
  EXPECT_EQ(c.DocLength(0), 3u);
  EXPECT_EQ(c.DocLength(2), 0u);
  EXPECT_EQ(c.DocTokens(0)[1], 1u);
  EXPECT_EQ(c.MaxDocLength(), 3u);
  EXPECT_NEAR(c.AvgDocLength(), 4.0 / 3.0, 1e-12);
}

TEST(Corpus, WordFrequencies) {
  const auto freq = Tiny().WordFrequencies();
  EXPECT_EQ(freq, (std::vector<uint64_t>{1, 2, 1}));
}

TEST(Corpus, ValidateRejectsBadOffsets) {
  EXPECT_THROW(Corpus(3, {0, 2, 1, 4}, {0, 1, 1, 2}), Error);
  EXPECT_THROW(Corpus(3, {0, 3, 4, 5}, {0, 1, 1, 2}), Error);
  EXPECT_THROW(Corpus(3, {1, 3, 4, 4}, {0, 1, 1, 2}), Error);
}

TEST(Corpus, ValidateRejectsOutOfRangeWord) {
  EXPECT_THROW(Corpus(2, {0, 1}, {5}), Error);
}

TEST(Corpus, SummaryMentionsCounts) {
  const std::string s = Tiny().Summary("tiny");
  EXPECT_NE(s.find("#Tokens=4"), std::string::npos);
  EXPECT_NE(s.find("#Documents=3"), std::string::npos);
}

// ------------------------------------------------------------- synthetic --

TEST(Synthetic, DeterministicInSeed) {
  SyntheticProfile p;
  p.num_docs = 50;
  p.vocab_size = 200;
  const Corpus a = GenerateCorpus(p);
  const Corpus b = GenerateCorpus(p);
  EXPECT_EQ(a.num_tokens(), b.num_tokens());
  EXPECT_TRUE(std::equal(a.words().begin(), a.words().end(),
                         b.words().begin()));
}

TEST(Synthetic, SeedChangesCorpus) {
  SyntheticProfile p;
  p.num_docs = 50;
  p.vocab_size = 200;
  const Corpus a = GenerateCorpus(p);
  p.seed += 1;
  const Corpus b = GenerateCorpus(p);
  EXPECT_FALSE(a.num_tokens() == b.num_tokens() &&
               std::equal(a.words().begin(), a.words().end(),
                          b.words().begin()));
}

TEST(Synthetic, RespectsDocAndVocabCounts) {
  SyntheticProfile p;
  p.num_docs = 123;
  p.vocab_size = 456;
  const Corpus c = GenerateCorpus(p);
  c.Validate();
  EXPECT_EQ(c.num_docs(), 123u);
  EXPECT_EQ(c.vocab_size(), 456u);
}

TEST(Synthetic, AverageLengthNearProfile) {
  SyntheticProfile p;
  p.num_docs = 2000;
  p.vocab_size = 500;
  p.avg_doc_length = 100;
  const Corpus c = GenerateCorpus(p);
  EXPECT_NEAR(c.AvgDocLength(), 100.0, 15.0);
}

TEST(Synthetic, MinDocLengthEnforced) {
  SyntheticProfile p;
  p.num_docs = 500;
  p.vocab_size = 100;
  p.avg_doc_length = 6;
  p.min_doc_length = 4;
  const Corpus c = GenerateCorpus(p);
  for (size_t d = 0; d < c.num_docs(); ++d) {
    EXPECT_GE(c.DocLength(d), 4u);
  }
}

TEST(Synthetic, WordFrequenciesAreSkewed) {
  // The Zipfian base measure must produce a heavy head: the most frequent
  // word should dwarf the median (this drives Figure 6's heavy-word split).
  SyntheticProfile p;
  p.num_docs = 1000;
  p.vocab_size = 2000;
  p.avg_doc_length = 80;
  const Corpus c = GenerateCorpus(p);
  auto freq = c.WordFrequencies();
  std::sort(freq.begin(), freq.end());
  const uint64_t top = freq.back();
  const uint64_t median = freq[freq.size() / 2];
  EXPECT_GT(top, 20 * std::max<uint64_t>(median, 1));
}

TEST(Synthetic, NyTimesProfileShape) {
  const SyntheticProfile p = NyTimesProfile(0.01);
  EXPECT_NEAR(p.avg_doc_length, 332, 1);
  EXPECT_EQ(p.num_docs, static_cast<uint64_t>(299752 * 0.01));
  const SyntheticProfile full = NyTimesProfile(1.0);
  EXPECT_EQ(full.num_docs, 299752u);
  EXPECT_EQ(full.vocab_size, 101636u);
}

TEST(Synthetic, PubMedProfileShape) {
  const SyntheticProfile p = PubMedProfile(0.001);
  EXPECT_NEAR(p.avg_doc_length, 90, 3);
  const SyntheticProfile full = PubMedProfile(1.0);
  EXPECT_EQ(full.num_docs, 8200000u);
  EXPECT_EQ(full.vocab_size, 141043u);
}

TEST(Synthetic, PubMedDocsShorterThanNyTimes) {
  // Table 3's contrast (332 vs 92 avg tokens) drives the Figure 7 variance
  // difference; the generator must preserve it.
  Corpus ny = GenerateCorpus([] {
    auto p = NyTimesProfile(0.002);
    p.num_docs = 300;
    p.vocab_size = 1000;
    return p;
  }());
  Corpus pm = GenerateCorpus([] {
    auto p = PubMedProfile(0.0001);
    p.num_docs = 300;
    p.vocab_size = 1000;
    return p;
  }());
  EXPECT_GT(ny.AvgDocLength(), 2.5 * pm.AvgDocLength());
}

TEST(Synthetic, InvalidScaleRejected) {
  EXPECT_THROW(NyTimesProfile(0.0), Error);
  EXPECT_THROW(NyTimesProfile(1.5), Error);
}

// ------------------------------------------------------------------- UCI --

TEST(Uci, ParsesWellFormedInput) {
  std::istringstream in("2\n3\n3\n1 1 2\n1 3 1\n2 2 4\n");
  const Corpus c = ReadUciBagOfWords(in);
  EXPECT_EQ(c.num_docs(), 2u);
  EXPECT_EQ(c.vocab_size(), 3u);
  EXPECT_EQ(c.num_tokens(), 7u);
  EXPECT_EQ(c.DocLength(0), 3u);  // 2×w0 + 1×w2
  EXPECT_EQ(c.DocLength(1), 4u);  // 4×w1
}

TEST(Uci, RoundTripsThroughWriter) {
  SyntheticProfile p;
  p.num_docs = 40;
  p.vocab_size = 100;
  p.avg_doc_length = 30;
  const Corpus original = GenerateCorpus(p);

  std::stringstream buf;
  WriteUciBagOfWords(original, buf);
  const Corpus parsed = ReadUciBagOfWords(buf);

  ASSERT_EQ(parsed.num_docs(), original.num_docs());
  ASSERT_EQ(parsed.num_tokens(), original.num_tokens());
  // Token multisets per document must match (order inside a doc may differ).
  for (size_t d = 0; d < original.num_docs(); ++d) {
    auto a = std::vector<uint32_t>(original.DocTokens(d).begin(),
                                   original.DocTokens(d).end());
    auto b = std::vector<uint32_t>(parsed.DocTokens(d).begin(),
                                   parsed.DocTokens(d).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "doc " << d;
  }
}

TEST(Uci, RejectsMalformedHeader) {
  std::istringstream in("not a number\n");
  EXPECT_THROW(ReadUciBagOfWords(in), Error);
}

TEST(Uci, RejectsOutOfRangeIds) {
  std::istringstream doc_oob("1\n2\n1\n2 1 1\n");
  EXPECT_THROW(ReadUciBagOfWords(doc_oob), Error);
  std::istringstream word_oob("1\n2\n1\n1 3 1\n");
  EXPECT_THROW(ReadUciBagOfWords(word_oob), Error);
}

TEST(Uci, RejectsTruncatedEntries) {
  std::istringstream in("1\n2\n2\n1 1 1\n");
  EXPECT_THROW(ReadUciBagOfWords(in), Error);
}

TEST(Uci, RejectsZeroCount) {
  std::istringstream in("1\n2\n1\n1 1 0\n");
  EXPECT_THROW(ReadUciBagOfWords(in), Error);
}

TEST(Uci, MissingFileThrows) {
  EXPECT_THROW(ReadUciBagOfWordsFile("/nonexistent/path.txt"), Error);
}

// ------------------------------------------------------------ UCI parity --
//
// The reader parses its input in pieces of at most 1 MiB. Each case below
// was checked against the earlier `istream >>` parser: the accepted inputs
// produce exactly these corpora and the rejected ones exactly these
// messages, through both the stream and the file overload.

constexpr size_t kMiB = size_t{1} << 20;

struct UciParityCase {
  std::string name;
  std::string text;
  UciReadLimits limits;
  std::optional<Corpus> corpus;  ///< set when the input is accepted
  std::string error;             ///< the message when it is rejected
};

/// `head`, then spaces, then `tail`, so that byte `tail_at` of `tail` lands
/// at offset `at` of the input.
std::string PlaceAt(const std::string& head, size_t at,
                    const std::string& tail, size_t tail_at) {
  std::string text = head;
  text.append(at - tail_at - head.size(), ' ');
  return text + tail;
}

/// D = V = 1000 and `nnz` entries "d w 1" in document order: entry i is
/// word 1 + i % 1000 of document 1 + i * 1000 / nnz.
std::string ManyEntries(uint64_t nnz) {
  std::string text = "1000\n1000\n" + std::to_string(nnz) + "\n";
  for (uint64_t i = 0; i < nnz; ++i) {
    text += std::to_string(1 + i * 1000 / nnz) + " " +
            std::to_string(1 + i % 1000) + " 1\n";
  }
  return text;
}

Corpus ManyEntriesCorpus(uint64_t nnz) {
  std::vector<uint64_t> offsets(1001, 0);
  std::vector<uint32_t> words;
  for (uint64_t i = 0; i < nnz; ++i) {
    words.push_back(static_cast<uint32_t>(i % 1000));
    ++offsets[1 + i * 1000 / nnz];
  }
  for (size_t d = 1; d < offsets.size(); ++d) offsets[d] += offsets[d - 1];
  return Corpus(1000, std::move(offsets), std::move(words));
}

/// One document: `times` × `word`, then `then_times` × `then_word`.
Corpus RepeatedWord(uint32_t vocab, uint32_t word, uint64_t times,
                    uint32_t then_word, uint64_t then_times) {
  std::vector<uint32_t> words(times, word);
  words.insert(words.end(), then_times, then_word);
  const uint64_t n = words.size();
  return Corpus(vocab, {0, n}, std::move(words));
}

std::vector<UciParityCase> UciParityCases() {
  const Corpus two_docs(3, {0, 2, 3}, {0, 0, 2});  // "1 1 2", "2 3 1"
  std::vector<UciParityCase> cases = {
      {"plain", "2\n3\n2\n1 1 2\n2 3 1\n", {}, two_docs, ""},
      {"leading_plus", "+2\n+3\n+2\n+1 +1 +2\n2 +3 1\n", {}, two_docs, ""},
      {"crlf", "2\r\n3\r\n2\r\n1 1 2\r\n2 3 1\r\n", {}, two_docs, ""},
      {"tab_vt_ff", "2\t3\v2\f1\t1\v2\f2\t3\t1\f", {}, two_docs, ""},
      {"sign_glues_numbers", "2\n3\n2\n1 1 2+2 3 1\n", {}, two_docs, ""},
      {"leading_zeros_20_digits",
       "2\n3\n2\n00000000000000000001 1 2\n2 00000000000000000003 1\n", {},
       two_docs, ""},
      {"minus_zero_nnz", "2\n3\n-0\n", {}, Corpus(3, {0, 0, 0}, {}), ""},
      {"empty_unterminated_header", "2\n3\n0", {}, Corpus(3, {0, 0, 0}, {}),
       ""},
      {"out_of_doc_order",
       "3\n4\n5\n3 1 1\n1 2 2\n3 4 1\n2 1 1\n1 3 1\n", {},
       Corpus(4, {0, 3, 4, 6}, {1, 1, 2, 0, 0, 3}), ""},
      {"minus_zero_count", "1\n1\n1\n1 1 -0\n", {}, std::nullopt,
       "zero count at entry 0"},
      {"minus_zero_doc", "1\n1\n1\n-0 1 1\n", {}, std::nullopt,
       "doc id 0 out of [1, 1]"},
      {"int64_min", "1\n1\n1\n-9223372036854775808 1 1\n", {}, std::nullopt,
       "UCI entry 0 contains a negative value (-9223372036854775808 1 1)"},
      {"int64_max", "1\n1\n1\n1 9223372036854775807 1\n", {}, std::nullopt,
       "word id 9223372036854775807 out of [1, 1]"},
      {"int64_overflow", "1\n1\n1\n1 1 9223372036854775808\n", {},
       std::nullopt, "UCI entry 0 malformed (expected 1 entries)"},
      {"int64_underflow", "1\n1\n1\n-9223372036854775809 1 1\n", {},
       std::nullopt, "UCI entry 0 malformed (expected 1 entries)"},
      {"20_digit_id", "1\n1\n1\n12345678901234567890 1 1\n", {},
       std::nullopt, "UCI entry 0 malformed (expected 1 entries)"},
      {"plus_minus", "1\n1\n1\n+-1 1 1\n", {}, std::nullopt,
       "UCI entry 0 malformed (expected 1 entries)"},
      {"lone_sign", "1\n1\n1\n1 - 1\n", {}, std::nullopt,
       "UCI entry 0 malformed (expected 1 entries)"},
      {"negative_before_malformed", "1\n1\n1\n-1 1 x\n", {}, std::nullopt,
       "UCI entry 0 malformed (expected 1 entries)"},
      {"hex_header", "0x10\n5\n1\n", {}, std::nullopt,
       "UCI header (D, W, NNZ) missing or malformed"},
      {"empty_input", "", {}, std::nullopt,
       "UCI header (D, W, NNZ) missing or malformed"},
      {"non_c_space", "1\n1\n1\n1\xa0" "1 1\n", {}, std::nullopt,
       "UCI entry 0 malformed (expected 1 entries)"},
      {"nul_separator", std::string("1\n1\n1\n1\0" "1 1\n", 12), {},
       std::nullopt, "UCI entry 0 malformed (expected 1 entries)"},
      {"glued_garbage", "1\n1\n1\n1 1 1x\n", {}, std::nullopt,
       "UCI input ends unterminated after the last entry (truncated?)"},
      {"garbage_after_empty", "2\n3\n0x", {}, std::nullopt,
       "trailing garbage after 0 UCI entries"},
      {"trailing_garbage", "1\n1\n1\n1 1 5\n x", {}, std::nullopt,
       "trailing garbage after 1 UCI entries"},
  };

  // A count split across the first piece boundary, in each position.
  for (size_t split = 1; split <= 6; ++split) {
    cases.push_back({"count_straddles_" + std::to_string(split),
                     PlaceAt("1\n7\n2\n1 7 ", kMiB, "123456\n1 3 2\n", split),
                     {}, RepeatedWord(7, 6, 123456, 2, 2), ""});
  }
  cases.push_back({"sign_ends_piece",
                   PlaceAt("1\n7\n2\n1 7 ", kMiB, "+12\n1 3 2\n", 1), {},
                   RepeatedWord(7, 6, 12, 2, 2), ""});
  cases.push_back({"minus_ends_piece",
                   PlaceAt("1\n7\n2\n1 7 ", kMiB, "-12\n1 3 2\n", 1), {},
                   std::nullopt,
                   "UCI entry 0 contains a negative value (1 7 -12)"});
  cases.push_back({"zeros_span_pieces",
                   "1\n7\n1\n1 7 " + std::string(3 * kMiB, '0') + "5\n", {},
                   RepeatedWord(7, 6, 5, 0, 0), ""});
  cases.push_back({"digits_span_pieces",
                   "1\n7\n1\n1 7 1" + std::string(3 * kMiB, '0') + "\n", {},
                   std::nullopt, "UCI entry 0 malformed (expected 1 entries)"});
  cases.push_back({"terminator_opens_next_piece",
                   PlaceAt("1\n7\n1\n1 7 ", kMiB, "12\n", 2), {},
                   RepeatedWord(7, 6, 12, 0, 0), ""});
  cases.push_back({"input_ends_at_piece_end",
                   PlaceAt("1\n7\n1\n1 7 ", kMiB, "12", 2), {}, std::nullopt,
                   "UCI input ends unterminated after the last entry "
                   "(truncated?)"});
  cases.push_back({"garbage_opens_next_piece",
                   PlaceAt("1\n7\n1\n1 7 ", kMiB, "12\nx", 3), {},
                   std::nullopt, "trailing garbage after 1 UCI entries"});

  // Each limit, on a file of nearly 2 MiB.
  const uint64_t nnz = 200000;
  const std::string many = ManyEntries(nnz);
  EXPECT_GT(many.size(), kMiB * 3 / 2);
  cases.push_back({"many_entries", many, {}, ManyEntriesCorpus(nnz), ""});
  UciReadLimits docs;
  docs.max_docs = 999;
  cases.push_back({"max_docs", many, docs, std::nullopt,
                   "UCI header declares 1000 documents, above the limit 999"});
  UciReadLimits vocab;
  vocab.max_vocab = 999;
  cases.push_back({"max_vocab", many, vocab, std::nullopt,
                   "UCI header declares a vocabulary of 1000, above the "
                   "limit 999"});
  UciReadLimits entries;
  entries.max_nnz = nnz - 1;
  cases.push_back({"max_nnz", many, entries, std::nullopt,
                   "UCI header declares 200000 entries, above the limit "
                   "199999"});
  UciReadLimits tokens;
  tokens.max_tokens = 150000;  // entry 150000 starts past the first MiB
  cases.push_back({"max_tokens", many, tokens, std::nullopt,
                   "entry 150000 (count 1) pushes the token total past the "
                   "limit 150000"});
  return cases;
}

void ExpectSameCorpus(const Corpus& got, const Corpus& want) {
  EXPECT_EQ(got.vocab_size(), want.vocab_size());
  EXPECT_TRUE(std::ranges::equal(got.doc_offsets(), want.doc_offsets()));
  EXPECT_TRUE(std::ranges::equal(got.words(), want.words()));
}

void ExpectParity(const UciParityCase& c, const std::function<Corpus()>& read) {
  try {
    const Corpus got = read();
    ASSERT_TRUE(c.corpus.has_value()) << "accepted, expected: " << c.error;
    ExpectSameCorpus(got, *c.corpus);
  } catch (const Error& e) {
    const std::string what = e.what();
    const size_t sep = what.find(" — ");
    ASSERT_NE(sep, std::string::npos) << what;
    EXPECT_FALSE(c.corpus.has_value()) << "rejected: " << what;
    EXPECT_EQ(what.substr(sep + std::strlen(" — ")), c.error);
  }
}

TEST(UciParity, StreamAndFileMatchTheStreamParser) {
  const std::string path = ::testing::TempDir() + "/culda_uci_parity.txt";
  for (const UciParityCase& c : UciParityCases()) {
    SCOPED_TRACE(c.name);
    ExpectParity(c, [&] {
      std::istringstream in(c.text);
      return ReadUciBagOfWords(in, c.limits);
    });
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.text;
    }
    ExpectParity(c, [&] { return ReadUciBagOfWordsFile(path, c.limits); });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace culda::corpus

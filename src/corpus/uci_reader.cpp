#include "corpus/uci_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/io.hpp"

namespace culda::corpus {

namespace {

/// One parsed entry, 0-based. Buffering entries (instead of pre-sizing a
/// per-document bucket array from the header) keeps parse memory
/// proportional to the input actually read: a header declaring 10^18
/// documents costs nothing until real entries arrive.
struct UciEntry {
  uint32_t doc;
  uint32_t word;
  uint64_t count;
};

/// The six separators `std::isspace` accepts in the C locale.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// int64 holds at most 19 significant decimal digits.
constexpr size_t kMaxDigits = 19;

/// Reads the input in pieces of at most io::kIoPieceBytes and splits it into
/// numbers exactly as `istream >> int64_t` does in the C locale: leading
/// whitespace is skipped, a number is an optional sign and at least one
/// digit, it ends at the first byte that is not a digit, and a value
/// outside int64 is a failure. A number cut by a piece boundary is carried
/// into the next piece.
class NumberReader {
 public:
  explicit NumberReader(std::istream& in)
      : in_(in), buf_(io::kIoPieceBytes + 1 + kMaxDigits) {}

  /// Parses the next number into `out`; false where stream extraction
  /// would fail (end of input, no digits, or out of range).
  bool Next(int64_t& out) {
    SkipSpace();
    while (true) {
      char* first = buf_.data() + pos_;
      const char* end = buf_.data() + end_;
      const bool sign = first < end && (*first == '+' || *first == '-');
      char* digits = first + (sign ? 1 : 0);
      const char* last = digits;
      while (last < end && IsDigit(*last)) ++last;
      if (last < end || eof_) {
        pos_ = static_cast<size_t>(last - buf_.data());
        if (last == digits) return false;
        if (*first == '-') digits = first;  // from_chars takes no '+'
        const auto [ptr, ec] = std::from_chars(digits, last, out);
        return ec == std::errc() && ptr == last;
      }
      // The number runs to the end of the buffer, so it continues in the
      // next piece. Leading zeros do not change its value: the carry keeps
      // at most one, and a carry with more significant digits than int64
      // holds cannot parse.
      const char* kept = digits;
      while (kept + 1 < last && *kept == '0') ++kept;
      const size_t kept_len = static_cast<size_t>(last - kept);
      if (kept_len > kMaxDigits) return false;
      std::memmove(digits, kept, kept_len);
      end_ = static_cast<size_t>(digits + kept_len - buf_.data());
      Fill();
    }
  }

  /// True when another byte follows and it is whitespace.
  bool NextIsSpace() { return (pos_ < end_ || Fill()) && IsSpace(buf_[pos_]); }

  /// Skips whitespace; true when the input ends there.
  bool SkipSpaceToEnd() {
    SkipSpace();
    return pos_ == end_;
  }

 private:
  void SkipSpace() {
    do {
      const char* p = buf_.data() + pos_;
      const char* end = buf_.data() + end_;
      while (p < end && IsSpace(*p)) ++p;
      pos_ = static_cast<size_t>(p - buf_.data());
    } while (pos_ == end_ && Fill());
  }

  /// Moves the unparsed tail to the front and appends the next piece;
  /// false when no byte was added.
  bool Fill() {
    if (eof_) return false;
    const size_t carry = end_ - pos_;
    CULDA_DCHECK(carry <= 1 + kMaxDigits);
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    in_.read(buf_.data() + carry,
             static_cast<std::streamsize>(io::kIoPieceBytes));
    const size_t got = static_cast<size_t>(in_.gcount());
    eof_ = got < io::kIoPieceBytes;
    pos_ = 0;
    end_ = carry + got;
    return got > 0;
  }

  std::istream& in_;
  std::vector<char> buf_;
  size_t pos_ = 0;  ///< next unparsed byte
  size_t end_ = 0;  ///< end of the bytes read so far
  bool eof_ = false;
};

}  // namespace

Corpus ReadUciBagOfWords(std::istream& in, const UciReadLimits& limits) {
  // doc/word ids are carried in 32 bits below; a wider limit would truncate.
  CULDA_CHECK_MSG(limits.max_docs <= UINT32_MAX &&
                      limits.max_vocab <= UINT32_MAX,
                  "UciReadLimits doc/vocab caps must fit in 32 bits");
  NumberReader reader(in);

  // Signed parsing so a leading '-' is seen as a negative number (and
  // rejected below) instead of wrapping to 2^64−1; values beyond int64
  // range fail to parse outright.
  int64_t num_docs_s = 0, vocab_s = 0, nnz_s = 0;
  CULDA_CHECK_MSG(reader.Next(num_docs_s) && reader.Next(vocab_s) &&
                      reader.Next(nnz_s),
                  "UCI header (D, W, NNZ) missing or malformed");
  CULDA_CHECK_MSG(num_docs_s >= 0 && vocab_s >= 0 && nnz_s >= 0,
                  "UCI header contains a negative value (D=" << num_docs_s
                      << ", W=" << vocab_s << ", NNZ=" << nnz_s << ")");
  CULDA_CHECK_MSG(num_docs_s > 0 && vocab_s > 0, "empty UCI header");
  const uint64_t num_docs = static_cast<uint64_t>(num_docs_s);
  const uint64_t vocab = static_cast<uint64_t>(vocab_s);
  const uint64_t nnz = static_cast<uint64_t>(nnz_s);
  CULDA_CHECK_MSG(num_docs <= limits.max_docs,
                  "UCI header declares " << num_docs
                                         << " documents, above the limit "
                                         << limits.max_docs);
  CULDA_CHECK_MSG(vocab <= limits.max_vocab,
                  "UCI header declares a vocabulary of "
                      << vocab << ", above the limit " << limits.max_vocab);
  CULDA_CHECK_MSG(nnz <= limits.max_nnz,
                  "UCI header declares " << nnz
                                         << " entries, above the limit "
                                         << limits.max_nnz);

  std::vector<UciEntry> entries;
  entries.reserve(static_cast<size_t>(std::min<uint64_t>(nnz, 1u << 20)));
  uint64_t total_tokens = 0;
  bool in_doc_order = true;
  for (uint64_t i = 0; i < nnz; ++i) {
    int64_t doc_id = 0, word_id = 0, count = 0;
    CULDA_CHECK_MSG(reader.Next(doc_id) && reader.Next(word_id) &&
                        reader.Next(count),
                    "UCI entry " << i << " malformed (expected " << nnz
                                 << " entries)");
    CULDA_CHECK_MSG(doc_id >= 0 && word_id >= 0 && count >= 0,
                    "UCI entry " << i << " contains a negative value ("
                                 << doc_id << " " << word_id << " " << count
                                 << ")");
    CULDA_CHECK_MSG(doc_id >= 1 && static_cast<uint64_t>(doc_id) <= num_docs,
                    "doc id " << doc_id << " out of [1, " << num_docs
                              << "]");
    CULDA_CHECK_MSG(word_id >= 1 && static_cast<uint64_t>(word_id) <= vocab,
                    "word id " << word_id << " out of [1, " << vocab << "]");
    CULDA_CHECK_MSG(count >= 1, "zero count at entry " << i);
    CULDA_CHECK_MSG(static_cast<uint64_t>(count) <=
                        limits.max_tokens - total_tokens,
                    "entry " << i << " (count " << count
                             << ") pushes the token total past the limit "
                             << limits.max_tokens);
    total_tokens += static_cast<uint64_t>(count);
    const uint32_t doc = static_cast<uint32_t>(doc_id - 1);
    if (!entries.empty() && doc < entries.back().doc) in_doc_order = false;
    entries.push_back({doc, static_cast<uint32_t>(word_id - 1),
                       static_cast<uint64_t>(count)});
  }

  // The final number must be terminated by whitespace: without this, a file
  // truncated inside its last count (e.g. "… 12" → "… 1") still parses and
  // loads silently with the wrong corpus.
  if (nnz > 0) {
    CULDA_CHECK_MSG(
        reader.NextIsSpace(),
        "UCI input ends unterminated after the last entry (truncated?)");
  }
  CULDA_CHECK_MSG(reader.SkipSpaceToEnd(),
                  "trailing garbage after " << nnz << " UCI entries");

  // Entries may arrive in any doc order; a stable sort groups them per
  // document while preserving the input order within each (matching the
  // historical per-document bucketing). Input already in document order,
  // as UCI files are written, needs none.
  if (!in_doc_order) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const UciEntry& a, const UciEntry& b) {
                       return a.doc < b.doc;
                     });
  }

  std::vector<uint64_t> doc_offsets;
  doc_offsets.reserve(num_docs + 1);
  doc_offsets.push_back(0);
  std::vector<uint32_t> words;
  words.reserve(static_cast<size_t>(total_tokens));
  size_t e = 0;
  for (uint64_t d = 0; d < num_docs; ++d) {
    for (; e < entries.size() && entries[e].doc == d; ++e) {
      words.insert(words.end(), entries[e].count, entries[e].word);
    }
    doc_offsets.push_back(words.size());
  }
  return Corpus(static_cast<uint32_t>(vocab), std::move(doc_offsets),
                std::move(words));
}

Corpus ReadUciBagOfWordsFile(const std::string& path,
                             const UciReadLimits& limits) {
  std::ifstream in(path);
  CULDA_CHECK_MSG(in.good(), "cannot open UCI file '" << path << "'");
  return ReadUciBagOfWords(in, limits);
}

void WriteUciBagOfWords(const Corpus& corpus, std::ostream& out) {
  // Count (doc, word) pairs.
  uint64_t nnz = 0;
  std::vector<std::map<uint32_t, uint32_t>> counts(corpus.num_docs());
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    for (const uint32_t w : corpus.DocTokens(d)) ++counts[d][w];
    nnz += counts[d].size();
  }
  out << corpus.num_docs() << "\n" << corpus.vocab_size() << "\n" << nnz
      << "\n";
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    for (const auto& [w, c] : counts[d]) {
      out << (d + 1) << " " << (w + 1) << " " << c << "\n";
    }
  }
}

}  // namespace culda::corpus

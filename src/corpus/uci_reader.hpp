// UCI "bag of words" format I/O.
//
// Both of the paper's datasets (NYTimes, PubMed) ship in this format from
// the UCI repository:
//
//   D          (number of documents)
//   W          (vocabulary size)
//   NNZ        (number of (doc, word) pairs)
//   docID wordID count        (1-based ids, NNZ lines)
//
// ReadUciBagOfWords expands counts into tokens so real datasets drop into
// the trainer unchanged; WriteUciBagOfWords round-trips synthetic corpora
// for interchange and tests.
//
// The reader parses its input in pieces of at most 1 MiB
// (io::kIoPieceBytes), carrying a number cut by a piece boundary into the
// next piece, so it holds no more than one piece of input beyond the
// entries it has accepted. Numbers follow `istream >> int64_t` in the C
// locale: any C-locale whitespace separates them, a sign is optional, and
// a value outside int64 is malformed.
//
// The reader treats its input as untrusted: header dimensions are capped
// (UciReadLimits), memory during parsing grows with the entries actually
// present rather than with declared sizes, negative fields are rejected
// explicitly (they would otherwise wrap to huge unsigned values), the
// expanded token total is validated against a configurable cap as each
// entry arrives and before any expansion, the final entry must be
// terminated by whitespace (so a truncated trailing number cannot load
// silently), and bytes after the NNZ-th entry are rejected as trailing
// garbage.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "corpus/corpus.hpp"

namespace culda::corpus {

/// Ceilings applied to untrusted UCI headers before anything is allocated
/// or expanded. The defaults clear the paper's corpora (PubMed: 8.2M docs,
/// 141k vocab, 483M nnz, 738M tokens) with two orders of magnitude to
/// spare; raise them explicitly for larger corpora.
struct UciReadLimits {
  uint64_t max_docs = 1ull << 28;    ///< 268M documents
  uint64_t max_vocab = 1ull << 27;   ///< 134M words
  uint64_t max_nnz = 1ull << 32;     ///< 4.3B (doc, word) entries
  uint64_t max_tokens = 1ull << 32;  ///< 4.3B expanded tokens
};

/// Parses a UCI bag-of-words stream, read to its end in bounded pieces.
/// Throws culda::Error on malformed, truncated, or hostile input
/// (non-monotonic doc ids are accepted; ids out of range, negative fields,
/// over-limit dimensions, and trailing garbage are not).
Corpus ReadUciBagOfWords(std::istream& in, const UciReadLimits& limits = {});

/// Convenience overload opening `path`.
Corpus ReadUciBagOfWordsFile(const std::string& path,
                             const UciReadLimits& limits = {});

/// Writes `corpus` in UCI bag-of-words format (tokens of equal (doc, word)
/// are merged into counts, as the format requires).
void WriteUciBagOfWords(const Corpus& corpus, std::ostream& out);

}  // namespace culda::corpus

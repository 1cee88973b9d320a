// Trained-model serialization.
//
// Binary format (little-endian, versioned, v2): the util/io container frame
//   magic "CULDAMDL", u32 version, u64 payload_size, payload, u32 crc32
// with payload
//   u32 K, u32 V, u64 D,
//   θ as CSR  (u64 nnz, D+1 × u64 row_ptr, nnz × u16 col, nnz × i32 val),
//   φ dense   (K×V × u16, topic-major: the in-memory model is word-major,
//              so SaveModel and LoadModel transpose at this boundary),
//   n_k       (K × i32).
// Loads verify the declared length and CRC32 before parsing, validate every
// section count against the bytes actually present before allocating, and
// reject trailing bytes — a truncated, bit-flipped, or hostile file yields a
// clean culda::Error, never an OOM or a silent load (see docs/persistence.md;
// the unframed v1 layout is rejected explicitly). Writes to a path are
// atomic (tmp + rename). This is the "collect the trained model" endpoint of
// Algorithm 1 made durable — the paper's motivating online services consume
// exactly this artifact.
#pragma once

#include <iosfwd>
#include <string>

#include "core/model.hpp"

namespace culda::core {

/// Writes `model` to `out`. Throws culda::Error on stream failure.
void SaveModel(const GatheredModel& model, std::ostream& out);
void SaveModelToFile(const GatheredModel& model, const std::string& path);

/// Reads a model; throws culda::Error on malformed/corrupt input.
GatheredModel LoadModel(std::istream& in);
GatheredModel LoadModelFromFile(const std::string& path);

}  // namespace culda::core

#include "core/model_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/io.hpp"

namespace culda::core {

namespace {

constexpr char kMagic[8] = {'C', 'U', 'L', 'D', 'A', 'M', 'D', 'L'};
// v1 was the pre-hardening layout without the length/CRC frame; it cannot be
// validated against corruption, so it is rejected explicitly rather than
// parsed on faith.
constexpr uint32_t kVersion = 2;
// θ topic indices and z assignments are u16 (Section 6.1.3), so any header
// claiming more topics is corrupt by construction.
constexpr uint64_t kMaxTopics = 1ull << 16;

}  // namespace

void SaveModel(const GatheredModel& model, std::ostream& out) {
  CULDA_OBS_SPAN("model_io/save");
  CULDA_OBS_TIMED("model_io.save_s");
  model.theta.Validate();
  // The writer holds θ, φ and n_k by reference and streams them straight
  // from the model through one running CRC.
  io::ContainerWriter w;
  w.WritePod(model.num_topics);
  w.WritePod(model.vocab_size);
  w.WritePod(model.num_docs);
  w.WritePod(static_cast<uint64_t>(model.theta.nnz()));
  w.WriteSpan(model.theta.row_ptr());
  w.WriteSpan(model.theta.col_idx());
  w.WriteSpan(model.theta.values());
  w.WriteSpan(model.phi.flat());
  w.WriteSpan(model.nk);
  w.Finish(out, kMagic, kVersion);
  CULDA_CHECK_MSG(out.good(), "failed writing model");
}

void SaveModelToFile(const GatheredModel& model, const std::string& path) {
  io::AtomicWriteFile(path,
                      [&](std::ostream& out) { SaveModel(model, out); });
}

GatheredModel LoadModel(std::istream& in) {
  CULDA_OBS_SPAN("model_io/load");
  CULDA_OBS_TIMED("model_io.load_s");
  // ReadContainer verifies the version, declared length, and CRC32 before
  // any field is parsed, reading in bounded chunks — a hostile header cannot
  // OOM here, and the unframed v1 layout is rejected by its version.
  const std::string payload = io::ReadContainer(in, kMagic, kVersion, "model");
  io::ByteReader r(payload, "model");

  GatheredModel model;
  model.num_topics = r.ReadPod<uint32_t>();
  model.vocab_size = r.ReadPod<uint32_t>();
  model.num_docs = r.ReadPod<uint64_t>();
  CULDA_CHECK_MSG(model.num_topics >= 1 && model.num_topics <= kMaxTopics &&
                      model.vocab_size >= 1,
                  "model header dimensions invalid (K="
                      << model.num_topics << ", V=" << model.vocab_size
                      << ")");
  // Guard num_docs + 1 below against wrap; the row-pointer section itself is
  // then bounds-checked by ReadVector before allocating.
  CULDA_CHECK_MSG(model.num_docs <= r.remaining() / sizeof(uint64_t),
                  "model header declares " << model.num_docs
                                           << " documents, more than the "
                                              "payload can hold");

  const uint64_t nnz = r.ReadPod<uint64_t>();
  auto row_ptr = r.ReadVector<uint64_t>(model.num_docs + 1);
  // Named here because it is the corruption a reader is likeliest to meet:
  // a non-zero start would drop document 0's first entries. The adopting
  // constructor validates the rest of the CSR structure (monotonic row
  // pointers ending at nnz, topic ids below K).
  CULDA_CHECK_MSG(row_ptr.front() == 0,
                  "corrupt θ row pointers: the first is "
                      << row_ptr.front() << ", not 0");
  auto col = r.ReadVector<uint16_t>(nnz);
  auto val = r.ReadVector<int32_t>(nnz);
  model.theta = ThetaMatrix(model.num_docs, model.num_topics,
                            std::move(row_ptr), std::move(col),
                            std::move(val));

  // K ≤ 2^16 and V < 2^32, so the element count cannot overflow u64; its
  // byte bound is checked before φ is allocated. φ is then copied from the
  // payload straight into place, one topic row at a time, and each row is
  // summed while it is still in cache for the n_k check below.
  r.RequireElements<uint16_t>(static_cast<uint64_t>(model.num_topics) *
                              model.vocab_size);
  model.phi = PhiMatrix(model.num_topics, model.vocab_size);
  std::vector<int64_t> row_sums(model.num_topics);
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    const std::span<uint16_t> row = model.phi.Row(k);
    r.ReadInto(row);
    int64_t sum = 0;
    for (const uint16_t c : row) sum += c;
    row_sums[k] = sum;
  }
  model.nk = r.ReadVector<int32_t>(model.num_topics);
  r.ExpectEnd();

  // φ / n_k consistency.
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    CULDA_CHECK_MSG(row_sums[k] == model.nk[k],
                    "corrupt model: n_k[" << k << "] mismatch");
  }
  return model;
}

GatheredModel LoadModelFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CULDA_CHECK_MSG(in.good(), "cannot open model file '" << path << "'");
  return LoadModel(in);
}

}  // namespace culda::core

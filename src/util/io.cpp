#include "util/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/obs.hpp"

namespace culda::io {

namespace {

/// kCrcTables[0] is the byte-at-a-time table of the reflected IEEE
/// polynomial; kCrcTables[s][b] is the CRC of byte b followed by s zero
/// bytes, so sixteen lookups advance the CRC over sixteen bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 16> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 16> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kCrcTables = MakeCrcTables();

/// Best-effort durability: rename gives atomicity, fsync gives persistence
/// across power loss. Failure to sync is not fatal (some filesystems refuse
/// it); failure to *write* is caught earlier via the stream state.
void FsyncPath(const std::string& path) {
  CULDA_OBS_TIMED("io.fsync_s");
  CULDA_OBS_COUNT("io.fsyncs", 1);
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

uint32_t Crc32(std::span<const char> data, uint32_t crc) {
  const auto& t = kCrcTables;
  const char* p = data.data();
  size_t n = data.size();
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 16; p += 16, n -= 16) {
      uint64_t a = 0, b = 0;
      std::memcpy(&a, p, sizeof(a));
      std::memcpy(&b, p + 8, sizeof(b));
      a ^= crc;
      crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
            t[13][(a >> 16) & 0xFF] ^ t[12][(a >> 24) & 0xFF] ^
            t[11][(a >> 32) & 0xFF] ^ t[10][(a >> 40) & 0xFF] ^
            t[9][(a >> 48) & 0xFF] ^ t[8][a >> 56] ^ t[7][b & 0xFF] ^
            t[6][(b >> 8) & 0xFF] ^ t[5][(b >> 16) & 0xFF] ^
            t[4][(b >> 24) & 0xFF] ^ t[3][(b >> 32) & 0xFF] ^
            t[2][(b >> 40) & 0xFF] ^ t[1][(b >> 48) & 0xFF] ^ t[0][b >> 56];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void ContainerWriter::Record(const char* data, size_t size) {
  payload_size_ += size;
  if (data == nullptr) {
    // Consecutive PODs share one section of the owned buffer.
    if (!sections_.empty() && sections_.back().data == nullptr) {
      sections_.back().size += size;
      return;
    }
    sections_.push_back({nullptr, pods_.size() - size, size});
  } else if (size > 0) {
    sections_.push_back({data, 0, size});
  }
}

void ContainerWriter::WriteGenerated(size_t size, const PieceFill& fill) {
  payload_size_ += size;
  if (size > 0) sections_.push_back({nullptr, 0, size, &fill});
}

void ContainerWriter::Finish(std::ostream& out, const char (&magic)[8],
                             uint32_t version) const {
  char header[12];
  const uint64_t size = payload_size_;
  std::memcpy(header, &version, sizeof(version));
  std::memcpy(header + 4, &size, sizeof(size));
  out.write(magic, 8);
  out.write(header, sizeof(header));
  uint32_t crc = Crc32({header, sizeof(header)});
  std::vector<char> piece;  // generated sections' one reused buffer
  for (const Section& s : sections_) {
    // Checksum each chunk just before writing it, while it is cache-hot.
    for (size_t done = 0; done < s.size;) {
      const size_t step = static_cast<size_t>(
          std::min<uint64_t>(kIoPieceBytes, s.size - done));
      const char* chunk;
      if (s.fill != nullptr) {
        piece.resize(step);
        (*s.fill)(done, piece);
        chunk = piece.data();
      } else if (s.data != nullptr) {
        chunk = s.data + done;
      } else {
        chunk = pods_.data() + s.pod_offset + done;
      }
      crc = Crc32({chunk, step}, crc);
      out.write(chunk, static_cast<std::streamsize>(step));
      done += step;
    }
  }
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  CULDA_OBS_COUNT("io.crc_bytes", sizeof(header) + size);
  CULDA_CHECK_MSG(out.good(), "failed writing container payload ("
                                  << size << " bytes)");
}

std::string ReadContainer(std::istream& in, const char (&magic)[8],
                          uint32_t expected_version,
                          std::string_view context, bool require_eof) {
  char got_magic[8];
  in.read(got_magic, sizeof(got_magic));
  CULDA_CHECK_MSG(in.gcount() == sizeof(got_magic) &&
                      std::memcmp(got_magic, magic, sizeof(got_magic)) == 0,
                  "not a CuLDA " << context << " file (bad magic)");

  char header[12];
  in.read(header, sizeof(header));
  CULDA_CHECK_MSG(in.gcount() == sizeof(header),
                  context << " truncated inside the container header");
  uint32_t version = 0;
  uint64_t declared = 0;
  std::memcpy(&version, header, sizeof(version));
  std::memcpy(&declared, header + 4, sizeof(declared));
  CULDA_CHECK_MSG(
      version == expected_version,
      context << " format version " << version
              << " is not supported by this build (expected "
              << expected_version
              << (version < expected_version
                      ? "); pre-checksum files must be regenerated"
                      : "); this file was written by a newer build"));

  // Bounded chunked read: allocation tracks bytes actually present, so a
  // hostile `declared` costs at most one chunk of over-allocation before the
  // truncation is detected — never an OOM. Each chunk is checksummed as it
  // arrives, while it is cache-hot.
  std::string payload;
  uint32_t crc = Crc32({header, sizeof(header)});
  uint64_t got = 0;
  while (got < declared) {
    const size_t step = static_cast<size_t>(
        std::min<uint64_t>(kIoPieceBytes, declared - got));
    payload.resize(static_cast<size_t>(got) + step);
    in.read(payload.data() + got, static_cast<std::streamsize>(step));
    const uint64_t n = static_cast<uint64_t>(in.gcount());
    CULDA_CHECK_MSG(n == step,
                    context << " truncated: header declares " << declared
                            << " payload bytes but the stream ends after "
                            << got + n);
    crc = Crc32({payload.data() + got, step}, crc);
    got += n;
  }
  CULDA_OBS_COUNT("io.crc_bytes", sizeof(header) + declared);

  uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  CULDA_CHECK_MSG(in.gcount() == sizeof(stored_crc),
                  context << " truncated: CRC32 trailer missing");
  CULDA_CHECK_MSG(crc == stored_crc,
                  context << " corrupt: CRC32 mismatch (stored 0x" << std::hex
                          << stored_crc << ", computed 0x" << crc << ")");

  if (require_eof) {
    CULDA_CHECK_MSG(in.peek() == std::char_traits<char>::eof(),
                    context << " has trailing garbage after the CRC trailer");
  }
  return payload;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& write,
                     bool keep_previous) {
  CULDA_OBS_TIMED("io.atomic_write_s");
  CULDA_OBS_COUNT("io.files_written", 1);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    CULDA_CHECK_MSG(out.good(), "cannot open '" << tmp << "' for writing");
    write(out);
    out.flush();
    CULDA_CHECK_MSG(out.good(), "failed writing '" << tmp << "'");
    const auto pos = out.tellp();
    if (pos > 0) {
      CULDA_OBS_COUNT("io.bytes_written", static_cast<uint64_t>(pos));
    }
  }
  FsyncPath(tmp);
  if (keep_previous && FileExists(path)) {
    const std::string prev = path + ".prev";
    std::remove(prev.c_str());
    CULDA_CHECK_MSG(std::rename(path.c_str(), prev.c_str()) == 0,
                    "cannot rotate '" << path << "' to '" << prev << "'");
  }
  CULDA_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot rename '" << tmp << "' over '" << path << "'");
}

}  // namespace culda::io

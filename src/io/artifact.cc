#include "io/artifact.h"

#include <unistd.h>

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace tsfm::io {

namespace {

// Slicing-by-8 CRC-32 tables (reflected 0xEDB88320), generated once at
// first use. Row 0 is the classic bytewise table; row s advances row s-1
// by one more zero byte, so one step folds 8 input bytes through 8 lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& CrcTable() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t s = 1; s < t.size(); ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;
constexpr size_t kTrailerBytes = 4;

template <typename T>
void AppendRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T ReadRaw(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  // The 8-byte step reads its words in memory order.
  static_assert(std::endian::native == std::endian::little);
  const CrcTables& t = CrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  Status result = Status::OK();
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return Status::IoError("cannot open for writing: " + tmp);
    result = writer(&os);
    if (result.ok()) {
      os.flush();
      if (!os) result = Status::IoError("write failed: " + tmp);
    }
  }
  if (result.ok()) {
    // Push the temp file's bytes to stable storage before the rename makes
    // it visible: otherwise a crash can expose a renamed-but-empty file.
    std::FILE* f = std::fopen(tmp.c_str(), "rb");
    if (f == nullptr) {
      result = Status::IoError("cannot reopen for fsync: " + tmp);
    } else {
      if (::fsync(fileno(f)) != 0) {
        result = Status::IoError("fsync failed: " + tmp);
      }
      std::fclose(f);
    }
  }
  if (result.ok()) {
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      result = Status::IoError("rename " + tmp + " -> " + path + ": " +
                               ec.message());
    }
  }
  if (!result.ok()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best-effort cleanup; path untouched
  }
  return result;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  return WriteFileAtomic(path, [contents](std::ostream* os) {
    os->write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    return Status::OK();
  });
}

Status WriteArtifact(const std::string& path, uint64_t magic,
                     uint32_t version, std::string_view payload) {
  std::string header;
  header.reserve(kHeaderBytes);
  AppendRaw(&header, magic);
  AppendRaw(&header, version);
  AppendRaw(&header, uint32_t{0});
  AppendRaw(&header, static_cast<uint64_t>(payload.size()));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  return WriteFileAtomic(path, [&](std::ostream* os) {
    os->write(header.data(), static_cast<std::streamsize>(header.size()));
    os->write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os->write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return Status::OK();
  });
}

Result<std::string> ReadArtifactPayload(const std::string& path,
                                        uint64_t magic,
                                        uint32_t expected_version) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return Status::NotFound("no such artifact: " + path);
  }
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return Status::IoError("cannot open for reading: " + path);
  const int64_t file_size = static_cast<int64_t>(is.tellg());
  is.seekg(0);
  if (file_size < static_cast<int64_t>(kHeaderBytes + kTrailerBytes)) {
    return Status::IoError("truncated artifact (no header): " + path);
  }
  char header[kHeaderBytes];
  if (!is.read(header, kHeaderBytes)) {
    return Status::IoError("truncated artifact header: " + path);
  }
  if (ReadRaw<uint64_t>(header) != magic) {
    return Status::IoError("bad magic (not this artifact type, or a stale "
                           "pre-v2 file): " + path);
  }
  if (ReadRaw<uint32_t>(header + 8) != expected_version) {
    return Status::IoError("unsupported artifact version in " + path);
  }
  if (ReadRaw<uint32_t>(header + 12) != 0) {
    return Status::IoError("corrupt artifact header (reserved != 0): " +
                           path);
  }
  const uint64_t payload_size = ReadRaw<uint64_t>(header + 16);
  // The declared size must match the bytes actually on disk exactly; this
  // both detects truncation and bounds the allocation below by the real
  // file size — an oversized length field cannot demand gigabytes.
  if (payload_size !=
      static_cast<uint64_t>(file_size) - kHeaderBytes - kTrailerBytes) {
    return Status::IoError("artifact size mismatch (truncated or corrupt "
                           "header): " + path);
  }
  std::string payload(payload_size, '\0');
  if (payload_size > 0 &&
      !is.read(payload.data(), static_cast<std::streamsize>(payload_size))) {
    return Status::IoError("truncated artifact payload: " + path);
  }
  uint32_t stored_crc = 0;
  if (!is.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc))) {
    return Status::IoError("truncated artifact trailer: " + path);
  }
  if (Crc32(payload.data(), payload.size()) != stored_crc) {
    return Status::IoError("artifact checksum mismatch (corrupt file): " +
                           path);
  }
  return payload;
}

}  // namespace tsfm::io

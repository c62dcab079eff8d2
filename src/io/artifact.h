#ifndef TSFM_IO_ARTIFACT_H_
#define TSFM_IO_ARTIFACT_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tsfm::io {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant). `crc` chains
/// incremental computation: pass the previous return value to continue a
/// running checksum; start from 0.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// Writes a file atomically: the contents land in `<path>.tmp.<pid>`, are
/// flushed to stable storage (fsync), and the temp file is renamed over
/// `path`. A crash, full disk, or writer error at any point leaves the
/// previous `path` (if any) untouched; the temp file is removed on failure.
///
/// `writer` streams the contents; returning a non-OK status aborts the write
/// (this is also how tests simulate a mid-write failure).
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// Convenience overload for contents already in memory.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Durable artifact container (format v2) shared by checkpoints, adapter
/// files and classifier stats:
///
///   u64 magic           type tag ("TSFMCKP2", "TSFMADP2", ...)
///   u32 version         format version of the payload
///   u32 reserved        zero
///   u64 payload_size    exact byte count of the payload
///   ...payload...
///   u32 crc32           CRC-32 of the payload bytes
///
/// Every field is checked on read: wrong magic (including pre-v2 files),
/// unsupported version, a payload_size that disagrees with the file length,
/// or a CRC mismatch all return IoError — a corrupt or truncated artifact
/// can never be parsed, and never triggers an allocation larger than the
/// file that actually exists on disk.

/// Wraps `payload` in the container and writes it atomically.
Status WriteArtifact(const std::string& path, uint64_t magic,
                     uint32_t version, std::string_view payload);

/// Reads and validates an artifact, returning the payload bytes.
/// NotFound when the file does not exist; IoError for every corruption.
Result<std::string> ReadArtifactPayload(const std::string& path,
                                        uint64_t magic,
                                        uint32_t expected_version);

}  // namespace tsfm::io

#endif  // TSFM_IO_ARTIFACT_H_

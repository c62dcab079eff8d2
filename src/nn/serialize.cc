#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>

#include "io/artifact.h"

namespace tsfm::nn {

namespace {

// Checkpoint format v2: the record stream below rides inside the
// io::WriteArtifact container (magic + version + size header, CRC-32
// trailer, atomic replace). v1 files ("TSFM0001", no integrity data) are
// rejected by the container's magic check and re-pretrained by callers.
constexpr uint64_t kMagic = 0x32504B434D465354ULL;  // "TSFMCKP2"
constexpr uint32_t kVersion = 2;

// Plausibility caps: a parameter path is a short slash-separated string and
// tensors are at most (batch, time, channel, head)-shaped. Anything larger
// is a corrupt or hostile length field, not a real checkpoint.
constexpr uint64_t kMaxNameLen = 1 << 12;
constexpr uint64_t kMaxNdim = 8;

void WriteU64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Bounded reader over the (CRC-verified) payload: every length field is
// checked against the bytes actually remaining, so no field can demand an
// allocation beyond the file's real size.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload)
      : p_(payload.data()), remaining_(payload.size()) {}

  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }

  // The next `n` bytes, or null when fewer remain.
  const char* Skip(size_t n) {
    if (remaining_ < n) return nullptr;
    const char* at = p_;
    p_ += n;
    remaining_ -= n;
    return at;
  }

  bool ReadBytes(void* dst, size_t n) {
    if (remaining_ < n) return false;
    std::memcpy(dst, p_, n);
    p_ += n;
    remaining_ -= n;
    return true;
  }

  size_t remaining() const { return remaining_; }

 private:
  const char* p_;
  size_t remaining_;
};

// Walks the checkpoint at `path` record by record, checking every length
// field against the bytes that remain, and hands each record's name, shape
// and float32 data to `visit`.
Status ForEachRecord(
    const std::string& path,
    const std::function<void(std::string, Shape, const char*)>& visit) {
  TSFM_ASSIGN_OR_RETURN(const std::string payload,
                        io::ReadArtifactPayload(path, kMagic, kVersion));
  PayloadReader in(payload);
  uint64_t count = 0;
  if (!in.ReadU64(&count)) return Status::IoError("truncated checkpoint");
  // Each record needs at least its two length fields.
  if (count > in.remaining() / 16) {
    return Status::IoError("implausible parameter count in checkpoint");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!in.ReadU64(&name_len)) return Status::IoError("truncated checkpoint");
    if (name_len > kMaxNameLen || name_len > in.remaining()) {
      return Status::IoError("implausible parameter name length");
    }
    std::string name(name_len, '\0');
    if (!in.ReadBytes(name.data(), name_len)) {
      return Status::IoError("truncated checkpoint (name)");
    }
    uint64_t ndim = 0;
    if (!in.ReadU64(&ndim)) return Status::IoError("truncated checkpoint");
    if (ndim > kMaxNdim) {
      return Status::IoError("implausible tensor rank in checkpoint");
    }
    Shape shape(ndim);
    uint64_t numel = 1;
    for (uint64_t d = 0; d < ndim; ++d) {
      uint64_t dim = 0;
      if (!in.ReadU64(&dim)) return Status::IoError("truncated checkpoint");
      // Overflow-safe bound: the element count can never exceed the float
      // capacity of the bytes still unread, so divide before multiplying.
      if (dim == 0 || dim > (in.remaining() / sizeof(float)) / numel) {
        return Status::IoError("non-positive or oversized dim in checkpoint");
      }
      shape[d] = static_cast<int64_t>(dim);
      numel *= dim;
    }
    const char* data = in.Skip(numel * sizeof(float));
    if (data == nullptr) return Status::IoError("truncated checkpoint data");
    visit(std::move(name), std::move(shape), data);
  }
  if (in.remaining() != 0) {
    return Status::IoError("trailing bytes after checkpoint records");
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const Module& module, const std::string& path) {
  const auto params = module.NamedParameters();
  std::ostringstream os;
  WriteU64(os, params.size());
  for (const auto& [name, p] : params) {
    WriteU64(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    const Tensor t = p.value().Contiguous();  // views serialize packed
    WriteU64(os, static_cast<uint64_t>(t.ndim()));
    for (int64_t d : t.shape()) WriteU64(os, static_cast<uint64_t>(d));
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  return io::WriteArtifact(path, kMagic, kVersion, os.str());
}

Result<std::map<std::string, Shape>> ReadCheckpointShapes(
    const std::string& path) {
  std::map<std::string, Shape> shapes;
  TSFM_RETURN_IF_ERROR(ForEachRecord(
      path, [&](std::string name, Shape shape, const char* /*data*/) {
        shapes.emplace(std::move(name), std::move(shape));
      }));
  return shapes;
}

Status LoadCheckpoint(Module* module, const std::string& path) {
  std::map<std::string, Tensor> records;
  TSFM_RETURN_IF_ERROR(ForEachRecord(
      path, [&](std::string name, Shape shape, const char* data) {
        Tensor t = Tensor::Empty(std::move(shape));
        std::memcpy(t.mutable_data(), data,
                    static_cast<size_t>(t.numel()) * sizeof(float));
        records.emplace(std::move(name), std::move(t));
      }));

  auto params = module->NamedParameters();
  if (params.size() != records.size()) {
    return Status::InvalidArgument(
        "checkpoint/module parameter count mismatch: file has " +
        std::to_string(records.size()) + ", module has " +
        std::to_string(params.size()));
  }
  for (auto& [name, p] : params) {
    auto it = records.find(name);
    if (it == records.end()) {
      return Status::NotFound("parameter missing from checkpoint: " + name);
    }
    if (it->second.shape() != p.value().shape()) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": file " +
          ShapeToString(it->second.shape()) + " vs module " +
          ShapeToString(p.value().shape()));
    }
    p.SetValue(it->second);
  }
  return Status::OK();
}

}  // namespace tsfm::nn

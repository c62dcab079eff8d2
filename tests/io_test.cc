// Durable artifact store: atomic writes, CRC-validated containers, the
// content-addressed embedding cache, and the corruption matrix — every
// truncation, bit flip, oversized length field or stale-magic file must come
// back as an error Status, never a crash or a gigabyte allocation, and a
// cache hit must be bit-identical to the miss path at any thread count.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adapter.h"
#include "core/io_util.h"
#include "data/uea_like.h"
#include "finetune/finetune.h"
#include "pipeline/stages.h"
#include "io/artifact.h"
#include "io/embed_cache.h"
#include "io/hash.h"
#include "models/moment.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"

namespace tsfm {
namespace {

namespace fs = std::filesystem;

// Container magics, duplicated from the implementation on purpose: they are
// on-disk format constants, and the crafted-payload tests below need to
// build syntactically valid containers around hostile payloads.
constexpr uint64_t kCkptMagic = 0x32504B434D465354ULL;    // "TSFMCKP2"
constexpr uint64_t kAdapterMagic = 0x325044414D465354ULL;  // "TSFMADP2"

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(os)) << path;
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Instance().GetCounter(name)->value();
}

// Scopes the embedding cache to a private directory and restores the
// process-wide configuration afterwards, so io_test never leaks cache state
// into other tests (or picks up a TSFM_CACHE_DIR from the environment).
class CacheDirGuard {
 public:
  explicit CacheDirGuard(const std::string& name, int64_t max_bytes = 0)
      : dir_(FreshDir(name)) {
    io::SetEmbedCacheDir(dir_);
    io::SetEmbedCacheMaxBytes(max_bytes);
  }
  ~CacheDirGuard() {
    io::SetEmbedCacheDir("");
    io::SetEmbedCacheMaxBytes(0);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The IEEE 802.3 / zlib check value.
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = io::Crc32(data.data(), data.size());
  uint32_t chained = io::Crc32(data.data(), 10);
  chained = io::Crc32(data.data() + 10, data.size() - 10, chained);
  EXPECT_EQ(chained, one_shot);
}

// The bytewise table loop the slicing-by-8 version replaced.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len, uint32_t crc) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// Every length from 0 to 300 at every start offset within an 8-byte word,
// from a zero and a non-zero seed: the 8-byte steps, the bytewise tail and
// unaligned loads must all agree with the bytewise reference.
TEST(Crc32Test, MatchesBytewiseReference) {
  std::vector<unsigned char> buf(8 + 300);
  Rng rng(99);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(256));
  }
  for (uint32_t seed : {0u, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 300; ++len) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(io::Crc32(p, len, seed), BytewiseCrc32(p, len, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

TEST(AtomicWriteTest, RoundTripAndOverwrite) {
  const std::string path = TempPath("atomic_roundtrip.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, "first contents").ok());
  EXPECT_EQ(ReadAll(path), "first contents");
  ASSERT_TRUE(io::WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadAll(path), "second");
}

TEST(AtomicWriteTest, FailedWriterKeepsOldFileAndLeavesNoTemp) {
  const std::string dir = FreshDir("atomic_fail");
  const std::string path = dir + "/artifact.bin";
  ASSERT_TRUE(io::WriteFileAtomic(path, "precious old bytes").ok());

  // The writer streams half a file and then reports a failure (a full disk,
  // say). The visible file must be untouched and the temp file cleaned up.
  Status s = io::WriteFileAtomic(path, [](std::ostream* os) {
    *os << "garbage that must never become visible";
    return Status::IoError("simulated mid-write failure");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ReadAll(path), "precious old bytes");
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "artifact.bin");
  }
  EXPECT_EQ(entries, 1);
}

// ---------------------------------------------------------------------------
// Artifact container
// ---------------------------------------------------------------------------

TEST(ArtifactTest, RoundTrip) {
  const std::string path = TempPath("artifact_roundtrip.bin");
  const std::string payload = "payload bytes \x00\x01\x02 with nulls";
  ASSERT_TRUE(io::WriteArtifact(path, kCkptMagic, 2, payload).ok());
  auto read = io::ReadArtifactPayload(path, kCkptMagic, 2);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(ArtifactTest, EmptyPayloadRoundTrips) {
  const std::string path = TempPath("artifact_empty.bin");
  ASSERT_TRUE(io::WriteArtifact(path, kCkptMagic, 2, "").ok());
  auto read = io::ReadArtifactPayload(path, kCkptMagic, 2);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->empty());
}

TEST(ArtifactTest, MissingFileIsNotFound) {
  auto read = io::ReadArtifactPayload(TempPath("does_not_exist.bin"),
                                      kCkptMagic, 2);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactTest, WrongMagicAndVersionRejected) {
  const std::string path = TempPath("artifact_magic.bin");
  ASSERT_TRUE(io::WriteArtifact(path, kCkptMagic, 2, "abc").ok());
  EXPECT_FALSE(io::ReadArtifactPayload(path, kAdapterMagic, 2).ok());
  EXPECT_FALSE(io::ReadArtifactPayload(path, kCkptMagic, 3).ok());
}

TEST(ArtifactTest, EveryTruncationAndBitFlipRejected) {
  const std::string path = TempPath("artifact_matrix.bin");
  const std::string mutant = TempPath("artifact_mutant.bin");
  ASSERT_TRUE(io::WriteArtifact(path, kCkptMagic, 2, "corruption matrix "
                                                     "payload").ok());
  const std::string good = ReadAll(path);

  // Truncation at every byte boundary, including the empty file.
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(mutant, good.substr(0, len));
    EXPECT_FALSE(io::ReadArtifactPayload(mutant, kCkptMagic, 2).ok())
        << "truncated to " << len << " bytes";
  }
  // A single flipped bit in every byte: magic, version, reserved, size
  // field, payload and CRC trailer are each covered by some check.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    WriteAll(mutant, bad);
    EXPECT_FALSE(io::ReadArtifactPayload(mutant, kCkptMagic, 2).ok())
        << "bit flip at byte " << i;
  }
  // Extra appended bytes break the exact payload_size == file-size check.
  WriteAll(mutant, good + "x");
  EXPECT_FALSE(io::ReadArtifactPayload(mutant, kCkptMagic, 2).ok());
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RoundTripRestoresExactBytes) {
  Rng rng(7);
  nn::Linear src(3, 2, &rng);
  const std::string path = TempPath("ckpt_roundtrip.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(src, path).ok());

  Rng rng2(99);
  nn::Linear dst(3, 2, &rng2);
  Status s = nn::LoadCheckpoint(&dst, path);
  ASSERT_TRUE(s.ok()) << s.ToString();

  const auto a = src.NamedParameters();
  const auto b = dst.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Tensor ta = a[i].second.value().Contiguous();
    const Tensor tb = b[i].second.value().Contiguous();
    ASSERT_EQ(ta.numel(), tb.numel());
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0)
        << a[i].first;
  }
}

TEST(CheckpointTest, FailedSaveLeavesPriorCheckpointIntact) {
  Rng rng(7);
  nn::Linear module(3, 2, &rng);
  const std::string path = TempPath("ckpt_atomic.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(module, path).ok());
  const std::string before = ReadAll(path);

  // SaveCheckpoint routes through WriteFileAtomic; simulate the write
  // failing partway on the same path and verify the old file survives and
  // still loads.
  Status s = io::WriteFileAtomic(path, [](std::ostream* os) {
    *os << "half a checkpoint";
    return Status::IoError("simulated crash during save");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ReadAll(path), before);
  Rng rng2(99);
  nn::Linear reload(3, 2, &rng2);
  EXPECT_TRUE(nn::LoadCheckpoint(&reload, path).ok());
}

TEST(CheckpointTest, EveryTruncationAndBitFlipRejected) {
  Rng rng(7);
  nn::Linear module(3, 2, &rng);
  const std::string path = TempPath("ckpt_matrix.ckpt");
  const std::string mutant = TempPath("ckpt_mutant.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(module, path).ok());
  const std::string good = ReadAll(path);

  Rng rng2(99);
  nn::Linear target(3, 2, &rng2);
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(mutant, good.substr(0, len));
    EXPECT_FALSE(nn::LoadCheckpoint(&target, mutant).ok())
        << "truncated to " << len << " bytes";
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    WriteAll(mutant, bad);
    EXPECT_FALSE(nn::LoadCheckpoint(&target, mutant).ok())
        << "bit flip at byte " << i;
  }
}

TEST(CheckpointTest, StalePreV2FileRejected) {
  // A file in the old unchecksummed format: bare magic + record count, no
  // container. The v2 loader must refuse it instead of parsing garbage.
  const std::string path = TempPath("ckpt_stale.ckpt");
  std::string old;
  AppendU64(&old, 0x313030304D465354ULL);  // "TSFM0001"
  AppendU64(&old, 2);
  old.append(64, '\0');
  WriteAll(path, old);
  Rng rng(7);
  nn::Linear module(3, 2, &rng);
  EXPECT_FALSE(nn::LoadCheckpoint(&module, path).ok());
}

// Crafted payloads wrapped in a *valid* container (correct magic, size and
// CRC) so only the payload-level bounds checks stand between a hostile
// length field and a huge allocation.
TEST(CheckpointTest, OversizedFieldsInValidContainerRejected) {
  const std::string path = TempPath("ckpt_crafted.ckpt");
  Rng rng(7);
  nn::Linear module(3, 2, &rng);

  auto expect_rejected = [&](const std::string& payload, const char* what) {
    ASSERT_TRUE(io::WriteArtifact(path, kCkptMagic, 2, payload).ok());
    EXPECT_FALSE(nn::LoadCheckpoint(&module, path).ok()) << what;
  };

  {  // A parameter count far beyond what the payload could hold.
    std::string p;
    AppendU64(&p, uint64_t{1} << 40);
    expect_rejected(p, "huge count");
  }
  {  // name_len larger than the remaining payload.
    std::string p;
    AppendU64(&p, 1);
    AppendU64(&p, uint64_t{1} << 40);
    expect_rejected(p, "huge name_len");
  }
  {  // Implausible rank.
    std::string p;
    AppendU64(&p, 1);
    AppendU64(&p, 1);
    p.push_back('w');
    AppendU64(&p, 9);  // ndim > 8
    expect_rejected(p, "ndim > 8");
  }
  {  // Zero dimension.
    std::string p;
    AppendU64(&p, 1);
    AppendU64(&p, 1);
    p.push_back('w');
    AppendU64(&p, 1);
    AppendU64(&p, 0);
    expect_rejected(p, "zero dim");
  }
  {  // Dims whose product overflows any sane allocation.
    std::string p;
    AppendU64(&p, 1);
    AppendU64(&p, 1);
    p.push_back('w');
    AppendU64(&p, 2);
    AppendU64(&p, uint64_t{1} << 31);
    AppendU64(&p, uint64_t{1} << 31);
    expect_rejected(p, "overflowing dims");
  }
  {  // A correct record followed by trailing junk.
    std::string p;
    AppendU64(&p, 0);
    p.append("trailing", 8);
    expect_rejected(p, "trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// Adapter files
// ---------------------------------------------------------------------------

std::unique_ptr<core::Adapter> FittedVarAdapter() {
  core::AdapterOptions ao;
  ao.out_channels = 3;
  auto adapter = core::CreateAdapter(core::AdapterKind::kVar, ao);
  Rng rng(3);
  const Tensor x = Tensor::RandN({6, 16, 5}, &rng);
  std::vector<int64_t> y(6, 0);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int64_t>(i % 2);
  EXPECT_TRUE(adapter->Fit(x, y).ok());
  return adapter;
}

TEST(AdapterFileTest, EveryTruncationAndBitFlipRejected) {
  auto adapter = FittedVarAdapter();
  core::AdapterOptions ao;
  ao.out_channels = 3;
  const std::string path = TempPath("adapter_matrix.adp");
  const std::string mutant = TempPath("adapter_mutant.adp");
  ASSERT_TRUE(core::SaveAdapter(*adapter, ao, path).ok());
  ASSERT_TRUE(core::LoadAdapter(path).ok());
  const std::string good = ReadAll(path);

  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(mutant, good.substr(0, len));
    EXPECT_FALSE(core::LoadAdapter(mutant).ok())
        << "truncated to " << len << " bytes";
  }
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    WriteAll(mutant, bad);
    EXPECT_FALSE(core::LoadAdapter(mutant).ok()) << "bit flip at byte " << i;
  }
}

TEST(AdapterFileTest, OversizedVectorInValidContainerRejected) {
  // kind=kVar with a selected-channels vector claiming 2^40 entries; the
  // ReadInt64Vector bound must reject it before any allocation.
  std::string p;
  AppendU64(&p, static_cast<uint64_t>(core::AdapterKind::kVar));
  AppendU64(&p, 3);   // out_channels
  AppendU64(&p, 0);   // pca_scale
  AppendU64(&p, 1);   // pca_patch_window
  AppendU64(&p, 0);   // top_k
  AppendU64(&p, 42);  // seed
  AppendU64(&p, 5);   // state: in_channels
  AppendU64(&p, uint64_t{1} << 40);  // vector length
  const std::string path = TempPath("adapter_crafted.adp");
  ASSERT_TRUE(io::WriteArtifact(path, kAdapterMagic, 2, p).ok());
  EXPECT_FALSE(core::LoadAdapter(path).ok());
}

// ---------------------------------------------------------------------------
// io_util primitive bounds
// ---------------------------------------------------------------------------

TEST(IoUtilTest, ReadInt64VectorRejectsHugeLength) {
  std::string bytes;
  AppendU64(&bytes, uint64_t{1} << 40);
  std::istringstream is(bytes);
  std::vector<int64_t> v;
  Status s = core::io::ReadInt64Vector(&is, &v);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(v.empty());
}

TEST(IoUtilTest, ReadTensorRejectsNonPositiveAndOversizedDims) {
  {
    std::string bytes;
    AppendU64(&bytes, 1);  // ndim
    AppendU64(&bytes, 0);  // dim == 0
    std::istringstream is(bytes);
    Tensor t;
    EXPECT_FALSE(core::io::ReadTensor(&is, &t).ok());
  }
  {
    std::string bytes;
    AppendU64(&bytes, 2);
    AppendU64(&bytes, uint64_t{1} << 20);
    AppendU64(&bytes, uint64_t{1} << 20);  // product 2^40 > kMaxTensorElements
    std::istringstream is(bytes);
    Tensor t;
    EXPECT_FALSE(core::io::ReadTensor(&is, &t).ok());
  }
}

// ---------------------------------------------------------------------------
// Content hash
// ---------------------------------------------------------------------------

TEST(HashBuilderTest, DeterministicAndWellFormed) {
  io::HashBuilder a, b;
  a.AddString("hello");
  a.AddU64(42);
  b.AddString("hello");
  b.AddU64(42);
  EXPECT_EQ(a.HexDigest(), b.HexDigest());
  EXPECT_EQ(a.HexDigest().size(), 32u);
  EXPECT_EQ(a.HexDigest().find_first_not_of("0123456789abcdef"),
            std::string::npos);
}

TEST(HashBuilderTest, FieldBoundariesDoNotAlias) {
  io::HashBuilder ab_c, a_bc;
  ab_c.AddString("ab");
  ab_c.AddString("c");
  a_bc.AddString("a");
  a_bc.AddString("bc");
  EXPECT_NE(ab_c.HexDigest(), a_bc.HexDigest());
}

TEST(HashBuilderTest, TensorShapeMatters) {
  Rng rng(5);
  Tensor t = Tensor::RandN({2, 3}, &rng);
  Tensor r = t.Reshape({3, 2});
  io::HashBuilder h1, h2;
  h1.AddTensor(t);
  h2.AddTensor(r);
  EXPECT_NE(h1.HexDigest(), h2.HexDigest());
}

// ---------------------------------------------------------------------------
// Embedding cache
// ---------------------------------------------------------------------------

TEST(EmbedCacheTest, DisabledByDefault) {
  io::SetEmbedCacheDir("");
  if (io::EmbedCacheEnabled()) {
    GTEST_SKIP() << "TSFM_CACHE_DIR set in the environment";
  }
  auto miss = io::EmbedCacheLookup("0123456789abcdef0123456789abcdef");
  EXPECT_FALSE(miss.ok());
}

TEST(EmbedCacheTest, StoreLookupRoundTripIsBitIdentical) {
  CacheDirGuard cache("embed_cache_roundtrip");
  Rng rng(5);
  const Tensor t = Tensor::RandN({4, 7}, &rng);
  const std::string key = "00112233445566778899aabbccddeeff";

  const uint64_t miss0 = CounterValue("cache.miss");
  auto miss = io::EmbedCacheLookup(key);
  EXPECT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue("cache.miss"), miss0 + 1);

  ASSERT_TRUE(io::EmbedCacheStore(key, t).ok());
  const uint64_t hit0 = CounterValue("cache.hit");
  auto hit = io::EmbedCacheLookup(key);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(CounterValue("cache.hit"), hit0 + 1);
  ASSERT_EQ(hit->ndim(), t.ndim());
  for (int64_t d = 0; d < t.ndim(); ++d) EXPECT_EQ(hit->dim(d), t.dim(d));
  EXPECT_EQ(std::memcmp(hit->Contiguous().data(), t.Contiguous().data(),
                        static_cast<size_t>(t.numel()) * sizeof(float)),
            0);
}

TEST(EmbedCacheTest, CorruptEntryIsReportedAndDeleted) {
  CacheDirGuard cache("embed_cache_corrupt");
  Rng rng(5);
  const std::string key = "ffeeddccbbaa99887766554433221100";
  ASSERT_TRUE(io::EmbedCacheStore(key, Tensor::RandN({8}, &rng)).ok());

  const std::string entry = cache.dir() + "/" + key + ".emb";
  std::string bytes = ReadAll(entry);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteAll(entry, bytes);

  const uint64_t corrupt0 = CounterValue("cache.corrupt");
  auto lookup = io::EmbedCacheLookup(key);
  EXPECT_FALSE(lookup.ok());
  EXPECT_EQ(lookup.status().code(), StatusCode::kIoError);
  EXPECT_EQ(CounterValue("cache.corrupt"), corrupt0 + 1);
  EXPECT_FALSE(fs::exists(entry)) << "corrupt entry must be evicted";
  // The corrupt entry is gone, so the next lookup is a clean miss.
  EXPECT_EQ(io::EmbedCacheLookup(key).status().code(), StatusCode::kNotFound);
}

TEST(EmbedCacheTest, LruEvictionRespectsSizeCap) {
  CacheDirGuard cache("embed_cache_lru");
  Rng rng(5);
  const Tensor t = Tensor::RandN({256}, &rng);  // ~1 KiB per entry
  const std::string a = "aa112233445566778899aabbccddeeff";
  const std::string b = "bb112233445566778899aabbccddeeff";
  const std::string c = "cc112233445566778899aabbccddeeff";
  ASSERT_TRUE(io::EmbedCacheStore(a, t).ok());
  ASSERT_TRUE(io::EmbedCacheStore(b, t).ok());

  // Make the LRU order deterministic regardless of filesystem timestamp
  // granularity: entry `a` is clearly the oldest.
  const auto now = fs::last_write_time(cache.dir() + "/" + b + ".emb");
  fs::last_write_time(cache.dir() + "/" + a + ".emb",
                      now - std::chrono::seconds(10));

  const int64_t entry_bytes =
      static_cast<int64_t>(fs::file_size(cache.dir() + "/" + a + ".emb"));
  io::SetEmbedCacheMaxBytes(2 * entry_bytes + entry_bytes / 2);
  const uint64_t evict0 = CounterValue("cache.evictions");
  ASSERT_TRUE(io::EmbedCacheStore(c, t).ok());

  EXPECT_EQ(io::EmbedCacheLookup(a).status().code(), StatusCode::kNotFound)
      << "oldest entry should have been evicted";
  EXPECT_TRUE(io::EmbedCacheLookup(b).ok());
  EXPECT_TRUE(io::EmbedCacheLookup(c).ok());
  EXPECT_GE(CounterValue("cache.evictions"), evict0 + 1);
}

TEST(EmbedCacheTest, ScanAndClear) {
  CacheDirGuard cache("embed_cache_scan");
  Rng rng(5);
  const std::string a = "0a112233445566778899aabbccddeeff";
  const std::string b = "0b112233445566778899aabbccddeeff";
  ASSERT_TRUE(io::EmbedCacheStore(a, Tensor::RandN({16}, &rng)).ok());
  ASSERT_TRUE(io::EmbedCacheStore(b, Tensor::RandN({16}, &rng)).ok());

  auto entries = io::EmbedCacheScan(cache.dir(), /*verify=*/true);
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& e : entries) {
    EXPECT_TRUE(e.valid) << e.key;
    EXPECT_GT(e.bytes, 0);
  }

  // Corrupt one entry; a verifying scan must flag it (but keep it — only a
  // lookup or `tsfm cache clear` removes files).
  const std::string entry = cache.dir() + "/" + a + ".emb";
  std::string bytes = ReadAll(entry);
  bytes.back() = static_cast<char>(bytes.back() ^ 1);
  WriteAll(entry, bytes);
  entries = io::EmbedCacheScan(cache.dir(), /*verify=*/true);
  ASSERT_EQ(entries.size(), 2u);
  int invalid = 0;
  for (const auto& e : entries) invalid += e.valid ? 0 : 1;
  EXPECT_EQ(invalid, 1);

  auto removed = io::EmbedCacheClear(cache.dir());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2);
  EXPECT_TRUE(io::EmbedCacheScan(cache.dir(), false).empty());
}

// ---------------------------------------------------------------------------
// Cached embedding path: bit-identical to the miss path, at any thread count
// ---------------------------------------------------------------------------

data::DatasetPair SmallProblem(uint64_t seed = 1) {
  data::UeaDatasetSpec spec{"toy", "toy", 48, 32, 8, 32, 2, 3};
  return data::GenerateUeaLike(spec, seed, data::GeneratorCaps{});
}

std::shared_ptr<models::MomentModel> TinyMoment(uint64_t seed = 11) {
  Rng rng(seed);
  auto model =
      std::make_shared<models::MomentModel>(models::MomentTestConfig(), &rng);
  models::PretrainOptions po;
  po.corpus_size = 48;
  po.series_length = 32;
  po.epochs = 2;
  EXPECT_TRUE(model->Pretrain(po).ok());
  return model;
}

TEST(EmbedCacheTest, EmbedDatasetCachedHitMatchesMissBitwise) {
  auto model = TinyMoment();
  auto pair = SmallProblem();
  const Tensor x = pair.train.x;

  // Reference: the plain (uncached) embed pass.
  io::SetEmbedCacheDir("");
  const Tensor plain = pipeline::EmbedDataset(*model, x, 16);

  CacheDirGuard cache("embed_cache_dataset");
  const uint64_t store0 = CounterValue("cache.store");
  const Tensor miss =
      pipeline::EmbedDatasetCached(*model, x, 16, "t", nullptr, nullptr);
  EXPECT_EQ(CounterValue("cache.store"), store0 + 1);
  const uint64_t hit0 = CounterValue("cache.hit");
  const Tensor hit =
      pipeline::EmbedDatasetCached(*model, x, 16, "t", nullptr, nullptr);
  EXPECT_EQ(CounterValue("cache.hit"), hit0 + 1);

  ASSERT_EQ(plain.numel(), miss.numel());
  ASSERT_EQ(plain.numel(), hit.numel());
  const size_t bytes = static_cast<size_t>(plain.numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(plain.Contiguous().data(), miss.Contiguous().data(),
                        bytes),
            0);
  EXPECT_EQ(std::memcmp(plain.Contiguous().data(), hit.Contiguous().data(),
                        bytes),
            0);

  // A different salt (strategy/adapter tag) must not collide.
  const uint64_t store1 = CounterValue("cache.store");
  pipeline::EmbedDatasetCached(*model, x, 16, "other", nullptr, nullptr);
  EXPECT_EQ(CounterValue("cache.store"), store1 + 1);
}

TEST(EmbedCacheTest, FineTuneSecondRunHitsCacheWithIdenticalAccuracy) {
  const int saved_threads = runtime::NumThreads();
  auto model = TinyMoment();
  auto pair = SmallProblem();
  finetune::FineTuneOptions options;
  options.strategy = finetune::Strategy::kHeadOnly;
  options.head_epochs = 40;
  options.batch_size = 16;

  CacheDirGuard cache("embed_cache_finetune");
  auto cold = finetune::FineTune(model.get(), nullptr, pair.train, pair.test,
                                 options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Second identical run: both embed passes (train + test) must come from
  // the cache and the result must be bit-identical, not merely close.
  const uint64_t hit0 = CounterValue("cache.hit");
  auto warm = finetune::FineTune(model.get(), nullptr, pair.train, pair.test,
                                 options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(CounterValue("cache.hit"), hit0 + 2);
  EXPECT_EQ(cold->test_accuracy, warm->test_accuracy);
  EXPECT_EQ(cold->train_accuracy, warm->train_accuracy);
  EXPECT_EQ(cold->final_loss, warm->final_loss);

  // And a run at a different thread count must hit the same entries (the
  // key hashes content, not schedule) with the same exact numbers.
  runtime::SetNumThreads(3);
  const uint64_t hit1 = CounterValue("cache.hit");
  auto threaded = finetune::FineTune(model.get(), nullptr, pair.train,
                                     pair.test, options);
  runtime::SetNumThreads(saved_threads);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_GE(CounterValue("cache.hit"), hit1 + 2);
  EXPECT_EQ(cold->test_accuracy, threaded->test_accuracy);
  EXPECT_EQ(cold->train_accuracy, threaded->train_accuracy);
  EXPECT_EQ(cold->final_loss, threaded->final_loss);
}

}  // namespace
}  // namespace tsfm

// Tests for the region-bundle subsystem (src/bundle/): the XXH64
// checksum on its published vectors and every tail branch, build ->
// mmap -> serve round trip, bit-identity of bundle-loaded regions
// against scratch-built ones, zero LP solves at load, the offline client
// bundle (no solved nodes), robustness against truncation at every
// section boundary, bit flips in every section, version skew, wrong
// magic, and hostile edits with recomputed checksums, and the
// service-level LoadRegionFromBundle path, including its failures and
// its cold-node solves.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "bundle/builder.h"
#include "bundle/format.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"
#include "prior/prior.h"
#include "rng/alias_sampler.h"
#include "rng/rng.h"
#include "service/sanitization_service.h"

namespace geopriv::bundle {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A small real region: ~1.1 km box, granularity 2 — a few dozen internal
// nodes, so full prewarm stays fast while still exercising multi-level
// walks.
RegionSpec SmallSpec() {
  RegionSpec spec;
  spec.min_lat = 30.19;
  spec.min_lon = -97.87;
  spec.max_lat = 30.20;
  spec.max_lon = -97.86;
  spec.eps = 1.2;
  spec.granularity = 2;
  spec.rho = 0.8;
  spec.prior_granularity = 16;
  for (int i = 0; i < 200; ++i) {
    spec.checkins.push_back(
        {30.19 + 0.01 * (i % 10) / 10.0, -97.87 + 0.01 * (i % 7) / 7.0});
  }
  return spec;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Builds the shared test bundle once; every test reuses the same file.
const std::string& SharedBundlePath() {
  static const std::string path = [] {
    const std::string p = TempPath("region_v2_shared.gpb");
    BuildBundleOptions options;
    options.prewarm_nodes = 0;  // full prewarm: every internal node
    auto result = BuildRegionBundle(SmallSpec(), options, p);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->nodes, 0u);
    return p;
  }();
  return path;
}

// SmallSpec's budget covers one level only; at eps 12 it splits over two
// (root plus four level-2 nodes), for the edits that need a second level.
const std::string& TwoLevelBundlePath() {
  static const std::string path = [] {
    const std::string p = TempPath("region_v2_two_level.gpb");
    RegionSpec spec = SmallSpec();
    spec.eps = 12.0;
    auto result = BuildRegionBundle(spec, BuildBundleOptions{}, p);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->nodes, 5u);
    return p;
  }();
  return path;
}

core::LocationSanitizer ScratchSanitizer(uint64_t seed,
                                         const RegionSpec& spec = SmallSpec()) {
  auto built = core::LocationSanitizer::Builder()
                   .SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                                    spec.max_lon)
                   .SetEpsilon(spec.eps)
                   .SetGranularity(spec.granularity)
                   .SetRho(spec.rho)
                   .SetPriorGranularity(spec.prior_granularity)
                   .SetUtilityMetric(spec.metric)
                   .SetSeed(seed)
                   .AddCheckinsLatLon(spec.checkins)
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Byte offsets of the fields the hostile-edit tests below rewrite, read
// from a valid bundle.
struct Layout {
  std::vector<SectionEntry> sections;
  size_t config = 0;   // kConfig section start
  size_t budgets = 0;  // kBudgets section start
  size_t nodes = 0;    // kNodes section start
  std::vector<NodeDirEntry> dir;
  size_t height = 0;
};

Layout LayoutOf(const RegionBundleView& view) {
  Layout layout;
  layout.sections = view.sections();
  for (const SectionEntry& section : layout.sections) {
    if (section.id == kConfig) layout.config = section.offset;
    if (section.id == kBudgets) layout.budgets = section.offset;
    if (section.id == kNodes) layout.nodes = section.offset;
  }
  for (size_t i = 0; i < view.node_count(); ++i) {
    layout.dir.push_back(view.node_entry(i));
  }
  layout.height = view.level_budgets().size();
  return layout;
}

size_t ConfigEps(const Layout& l) { return l.config + 32; }
size_t Budget(const Layout& l, size_t level) {
  return l.budgets + 8 + 8 * level;
}
size_t DirEntry(const Layout& l, size_t i) { return l.nodes + 8 + 32 * i; }
size_t Blob(const Layout& l, size_t i) { return l.nodes + l.dir[i].offset; }
// Start of node i's x/y-interleaved locations.
size_t Locations(const Layout& l, size_t i) {
  return Blob(l, i) + kNodeBlobHeaderBytes;
}
// Start of node i's K; its alias_prob, alias_alias and alias_normalized
// tables follow, n*n entries each.
size_t K(const Layout& l, size_t i) {
  const size_t n = l.dir[i].n;
  return Locations(l, i) + 8 * 3 * n;
}
size_t AliasProb(const Layout& l, size_t i) {
  const size_t n = l.dir[i].n;
  return K(l, i) + 8 * n * n;
}

template <typename T>
void Put(std::string& bytes, size_t at, T value) {
  std::memcpy(&bytes[at], &value, sizeof(value));
}
template <typename T>
T Get(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, &bytes[at], sizeof(value));
  return value;
}

using Edit = std::function<void(std::string& bytes, const Layout& layout)>;

// Applies `edit` to a copy of the bundle at `source_path` and recomputes
// every TOC checksum, so only the semantic checks stand between the edit
// and the server. Writes the result to a file of the running test's own
// and returns its path.
std::string WriteEdited(const Edit& edit, const std::string& source_path) {
  std::string bytes = ReadAll(source_path);
  auto source = RegionBundleView::Open(source_path);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  const Layout layout = LayoutOf(*source);
  edit(bytes, layout);
  for (size_t i = 0; i < layout.sections.size(); ++i) {
    const SectionEntry& section = layout.sections[i];
    Put<uint64_t>(bytes, kHeaderBytes + i * kTocEntryBytes + 24,
                  Xxh64(bytes.data() + section.offset, section.size));
  }
  // One file per test: ctest runs tests as parallel processes, and
  // rewriting a file another process has mapped would fault its reads.
  const std::string path = TempPath(
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".gpb");
  WriteAll(path, bytes);
  return path;
}

// Opens, loads, and serves one report from the edited bundle, returning
// the first non-OK status (OK when all three accept the file).
Status OpenLoadAndServeEdited(
    const Edit& edit, const std::string& source_path = SharedBundlePath()) {
  const std::string path = WriteEdited(edit, source_path);
  const Status status = [&]() -> Status {
    GEOPRIV_ASSIGN_OR_RETURN(const RegionBundleView view,
                             RegionBundleView::Open(path));
    GEOPRIV_ASSIGN_OR_RETURN(LoadedRegion loaded, LoadRegion(view));
    rng::Rng rng(3);
    return loaded.sanitizer.SanitizeLatLonOrStatus(30.195, -97.865, rng)
        .status();
  }();
  std::remove(path.c_str());
  return status;
}

// XXH64 (seed 0) of `s`, for the checksum vectors below.
uint64_t Xxh64Of(const std::string& s) { return Xxh64(s.data(), s.size()); }

TEST(RegionBundleV2Test, ChecksumMatchesThePublishedXxh64Vectors) {
  EXPECT_EQ(Xxh64Of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(Xxh64Of("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one 32-byte stripe through the four lanes, then the tails.
  EXPECT_EQ(Xxh64Of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(RegionBundleV2Test, ChecksumCoversEveryTailBranch) {
  // Prefixes of one text, one length per combination of the short-input
  // path or 1-3 stripes with the 8-, 4- and 1-byte tails. The low 32 bits
  // of each value agree with the content checksum of a zstd frame, which
  // is XXH64 computed by an independent implementation.
  std::string text;
  for (int i = 0; i < 3; ++i) text += "Nobody inspects the spammish repetition";
  const std::pair<size_t, uint64_t> vectors[] = {
      {2, 0x3561a2d89a87b722ull},    // 1-byte tail only
      {4, 0x265faa35d7afec64ull},    // 4-byte tail only
      {7, 0xb0e815555cf3e789ull},    // 4 + 1 + 1 + 1
      {8, 0x93fc083b5a3f012cull},    // 8-byte tail only
      {12, 0xa45d439f3f93e297ull},   // 8 + 4
      {15, 0xbbb5df1ca276ff74ull},   // 8 + 4 + 1 + 1 + 1
      {31, 0xc1a0e0ae86e1d78cull},   // longest input without a stripe
      {32, 0x96f5bfcbfe7f0d1aull},   // one stripe, no tail
      {33, 0x977f4aa19d128181ull},   // stripe + 1
      {36, 0xfde2562a393270b7ull},   // stripe + 4
      {40, 0xd9138fd97a74b6d8ull},   // stripe + 8
      {63, 0x9c282837b18c4135ull},   // stripe + 8 + 8 + 8 + 4 + 1 + 1 + 1
      {64, 0xc3391970d5fcc409ull},   // two stripes
      {100, 0x14a22035e1bdf78bull},  // three stripes + 4
  };
  for (const auto& [size, want] : vectors) {
    EXPECT_EQ(Xxh64(text.data(), size), want) << "length " << size;
  }
}

TEST(RegionBundleV2Test, OpenValidatesAndExposesTheConfig) {
  auto view = RegionBundleView::Open(SharedBundlePath());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const RegionSpec spec = SmallSpec();
  EXPECT_DOUBLE_EQ(view->config().eps, spec.eps);
  EXPECT_DOUBLE_EQ(view->config().rho, spec.rho);
  EXPECT_EQ(static_cast<int>(view->config().granularity), spec.granularity);
  EXPECT_EQ(static_cast<int>(view->config().prior_granularity),
            spec.prior_granularity);
  EXPECT_EQ(view->level_budgets().size(),
            static_cast<size_t>(view->config().height));
  EXPECT_EQ(view->prior_masses().size(),
            static_cast<size_t>(spec.prior_granularity) *
                static_cast<size_t>(spec.prior_granularity));
  EXPECT_GT(view->node_count(), 0u);

  // Every stored node decodes, with self-consistent table sizes.
  for (size_t i = 0; i < view->node_count(); ++i) {
    auto node = view->node(i);
    ASSERT_TRUE(node.ok()) << i << ": " << node.status().ToString();
    const size_t n = static_cast<size_t>(node->n);
    EXPECT_EQ(node->locations_xy.size(), 2 * n);
    EXPECT_EQ(node->prior.size(), n);
    EXPECT_EQ(node->k.size(), n * n);
    EXPECT_EQ(node->alias_prob.size(), n * n);
    EXPECT_EQ(node->alias_alias.size(), n * n);
    EXPECT_EQ(node->alias_normalized.size(), n * n);
    // Each K row is a conditional distribution.
    for (size_t x = 0; x < n; ++x) {
      double row = 0.0;
      for (size_t z = 0; z < n; ++z) row += node->k[x * n + z];
      EXPECT_NEAR(row, 1.0, 1e-9);
    }
  }
}

TEST(RegionBundleV2Test, LoadedRegionServesWithZeroLpSolves) {
  auto view = RegionBundleView::Open(SharedBundlePath());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto loaded = LoadRegion(view.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->nodes_loaded, 0u);
  EXPECT_GT(loaded->plan_nodes, 0u);
  EXPECT_EQ(loaded->bytes_mapped, view->bytes_mapped());

  // Zero solver work at load...
  EXPECT_EQ(loaded->sanitizer.mechanism().stats().lp_solves, 0);
  // ...and zero under traffic: a fully-prewarmed bundle covers every
  // internal node, so no walk can miss.
  rng::Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    auto out = loaded->sanitizer.SanitizeLatLonOrStatus(
        30.19 + 0.01 * (i % 8) / 8.0, -97.87 + 0.01 * (i % 5) / 5.0, rng);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  EXPECT_EQ(loaded->sanitizer.mechanism().stats().lp_solves, 0);
}

TEST(RegionBundleV2Test, LoadedRegionIsBitIdenticalToScratchBuild) {
  // The serve tier's correctness claim: under the same seed, a region
  // rehydrated from the mmapped bundle must produce *bit-identical*
  // reports to one built from scratch — the stored alias tables and K
  // matrices are the same bytes the solver produced, so the RNG draw
  // sequence and every selected cell must match exactly.
  constexpr uint64_t kSeed = 0xB17B17ull;
  auto view = RegionBundleView::Open(SharedBundlePath());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  RegionLoadOptions options;
  options.seed = kSeed;
  auto loaded = LoadRegion(view.value(), options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::LocationSanitizer scratch = ScratchSanitizer(kSeed);
  ASSERT_EQ(scratch.PrewarmTopNodes(INT_MAX).status().code(),
            StatusCode::kOk);

  rng::Rng r1(kSeed), r2(kSeed);
  for (int i = 0; i < 200; ++i) {
    const double lat = 30.19 + 0.01 * ((i * 37) % 100) / 100.0;
    const double lon = -97.87 + 0.01 * ((i * 53) % 100) / 100.0;
    auto from_bundle = loaded->sanitizer.SanitizeLatLonOrStatus(lat, lon, r1);
    auto from_scratch = scratch.SanitizeLatLonOrStatus(lat, lon, r2);
    ASSERT_TRUE(from_bundle.ok());
    ASSERT_TRUE(from_scratch.ok());
    // Bit identity, not near-equality.
    EXPECT_EQ(from_bundle->lat, from_scratch->lat) << i;
    EXPECT_EQ(from_bundle->lon, from_scratch->lon) << i;
  }
}

TEST(RegionBundleV2Test, OpenRejectsTruncationAtEverySectionBoundary) {
  const std::string bytes = ReadAll(SharedBundlePath());
  auto view = RegionBundleView::Open(SharedBundlePath());
  ASSERT_TRUE(view.ok());

  std::vector<size_t> cuts = {0, 16, kHeaderBytes - 1, kHeaderBytes};
  for (const SectionEntry& section : view->sections()) {
    cuts.push_back(static_cast<size_t>(section.offset));
    cuts.push_back(static_cast<size_t>(section.offset) +
                   static_cast<size_t>(section.size) / 2);
  }
  cuts.push_back(bytes.size() - 1);
  const std::string path = TempPath("region_v2_trunc.gpb");
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    WriteAll(path, bytes.substr(0, cut));
    auto truncated = RegionBundleView::Open(path);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut << " accepted";
  }
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, ChecksumsCatchABitFlipInEverySection) {
  const std::string bytes = ReadAll(SharedBundlePath());
  auto view = RegionBundleView::Open(SharedBundlePath());
  ASSERT_TRUE(view.ok());

  const std::string path = TempPath("region_v2_flip.gpb");
  for (const SectionEntry& section : view->sections()) {
    std::string corrupt = bytes;
    const size_t at = static_cast<size_t>(section.offset) +
                      static_cast<size_t>(section.size) / 2;
    ASSERT_LT(at, corrupt.size());
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    WriteAll(path, corrupt);
    auto flipped = RegionBundleView::Open(path);
    EXPECT_FALSE(flipped.ok())
        << "bit flip in section " << section.id << " accepted";
  }
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, RejectsVersionSkewInBothDirections) {
  // A version-2 file (FNV-1a checksums, otherwise the same layout) and a
  // future version 4 in the same envelope: each is refused by its version,
  // before any checksum is read, with both versions and the rebuild
  // command in the message.
  std::string bytes = ReadAll(SharedBundlePath());
  const std::string path = TempPath("region_v2_skew.gpb");
  for (const int version : {2, 4}) {
    bytes[8] = static_cast<char>(version);  // version (u32 LE at offset 8)
    WriteAll(path, bytes);
    auto skewed = RegionBundleView::Open(path);
    ASSERT_FALSE(skewed.ok()) << "version " << version << " accepted";
    const std::string& message = skewed.status().message();
    EXPECT_EQ(skewed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(message.find("version " + std::to_string(version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("version 3"), std::string::npos) << message;
    EXPECT_NE(message.find("geopriv_bundle build"), std::string::npos)
        << message;
    EXPECT_EQ(message.find("checksum"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, PartialPrewarmBundleStoresOnlyWarmNodes) {
  const std::string path = TempPath("region_v2_partial.gpb");
  BuildBundleOptions options;
  options.prewarm_nodes = 1;  // root only
  auto result = BuildRegionBundle(SmallSpec(), options, path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->nodes, 1u);

  // The loader still serves: missing nodes rebuild lazily from the
  // stored budgets, paying LP solves only on the cold paths.
  auto view = RegionBundleView::Open(path);
  ASSERT_TRUE(view.ok());
  auto loaded = LoadRegion(view.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sanitizer.mechanism().stats().lp_solves, 0);
  rng::Rng rng(7);
  auto out = loaded->sanitizer.SanitizeLatLonOrStatus(30.195, -97.865, rng);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, UneditedBundleWithRecomputedChecksumsServes) {
  // The control for the hostile edits below: recomputing the checksums of
  // an unedited bundle changes nothing.
  for (const std::string& path : {SharedBundlePath(), TwoLevelBundlePath()}) {
    const Status status =
        OpenLoadAndServeEdited([](std::string&, const Layout&) {}, path);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(RegionBundleV2Test, RejectsAConfigEpsThatIsNotAPositiveNumber) {
  for (const double eps : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.2}) {
    const Status status =
        OpenLoadAndServeEdited([eps](std::string& bytes, const Layout& l) {
          Put(bytes, ConfigEps(l), eps);
        });
    EXPECT_FALSE(status.ok()) << "eps " << eps << " accepted";
  }
}

TEST(RegionBundleV2Test, RejectsBudgetsThatDoNotSumToEps) {
  // The stored budgets sum to 1.2 and the node blobs hold matrices solved
  // at them; a config claiming eps = 0.1 must not rescale them silently.
  const Status status =
      OpenLoadAndServeEdited([](std::string& bytes, const Layout& l) {
        Put(bytes, ConfigEps(l), 0.1);
      });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sum to eps"), std::string::npos)
      << status.ToString();
}

TEST(RegionBundleV2Test, RejectsALevelBudgetThatIsNotAPositiveNumber) {
  for (const double budget : {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    const Status status =
        OpenLoadAndServeEdited([budget](std::string& bytes, const Layout& l) {
          Put(bytes, Budget(l, 0), budget);
        });
    EXPECT_FALSE(status.ok()) << "budget " << budget << " accepted";
  }
  // Zero and negative level budgets, with the next level absorbing the
  // difference so the sum still matches eps.
  for (const double scale : {0.0, -1.0}) {
    const Status status = OpenLoadAndServeEdited(
        [scale](std::string& bytes, const Layout& l) {
          ASSERT_EQ(l.height, 2u);
          const double b0 = Get<double>(bytes, Budget(l, 0));
          const double b1 = Get<double>(bytes, Budget(l, 1));
          Put(bytes, Budget(l, 0), scale * b0);
          Put(bytes, Budget(l, 1), b1 + (1.0 - scale) * b0);
        },
        TwoLevelBundlePath());
    EXPECT_FALSE(status.ok()) << "budget scale " << scale << " accepted";
    EXPECT_NE(status.message().find("level budget"), std::string::npos)
        << status.ToString();
  }
}

TEST(RegionBundleV2Test, RejectsAliasIndexesPastTheCandidateCount) {
  // Every alias of node 0 points far past its n candidates and every
  // probability forces the alias branch: a server that trusted the table
  // would read out of bounds on the first request.
  Status status =
      OpenLoadAndServeEdited([](std::string& bytes, const Layout& l) {
        const size_t nn = size_t{l.dir[0].n} * l.dir[0].n;
        for (size_t k = 0; k < nn; ++k) {
          Put(bytes, AliasProb(l, 0) + 8 * k, 0.0);
          Put<uint64_t>(bytes, AliasProb(l, 0) + 8 * (nn + k), 1000000);
        }
      });
  EXPECT_FALSE(status.ok());
  // One index exactly at n is just as far out.
  status = OpenLoadAndServeEdited([](std::string& bytes, const Layout& l) {
    const size_t nn = size_t{l.dir[0].n} * l.dir[0].n;
    Put<uint64_t>(bytes, AliasProb(l, 0) + 8 * nn, l.dir[0].n);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("alias"), std::string::npos)
      << status.ToString();
}

TEST(RegionBundleV2Test, RejectsANodeStoredAtTheWrongIndexLevel) {
  // Swapping the ids of the root (level 1) and a level-2 node keeps every
  // id unique and every blob intact, but each mechanism would serve the
  // other node's cell.
  Status status = OpenLoadAndServeEdited(
      [](std::string& bytes, const Layout& l) {
        ASSERT_EQ(l.dir[0].level, 1u);
        ASSERT_EQ(l.dir[1].level, 2u);
        Put<int64_t>(bytes, DirEntry(l, 0), l.dir[1].node);
        Put<int64_t>(bytes, DirEntry(l, 1), l.dir[0].node);
      },
      TwoLevelBundlePath());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("wrong index level"), std::string::npos)
      << status.ToString();
  for (const int64_t id : {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
    status = OpenLoadAndServeEdited([id](std::string& bytes, const Layout& l) {
      Put<int64_t>(bytes, DirEntry(l, 0), id);
    });
    EXPECT_FALSE(status.ok()) << "node id " << id << " accepted";
  }
}

TEST(RegionBundleV2Test, RejectsStoredLocationsThatAreNotTheChildCenters) {
  // Every node's K becomes the identity, with the alias tables a builder
  // would write for it: each report is the true cell, which is no privacy.
  const Edit identity = [](std::string& bytes, const Layout& l) {
    for (size_t i = 0; i < l.dir.size(); ++i) {
      const size_t n = l.dir[i].n;
      const size_t nn = n * n;
      for (size_t x = 0; x < n; ++x) {
        std::vector<double> row(n, 0.0);
        row[x] = 1.0;
        auto sampler = rng::AliasSampler::Create(row);
        ASSERT_TRUE(sampler.ok());
        for (size_t z = 0; z < n; ++z) {
          const size_t at = 8 * (x * n + z);
          Put(bytes, K(l, i) + at, row[z]);
          Put(bytes, AliasProb(l, i) + at, sampler->prob_table()[z]);
          Put<uint64_t>(bytes, AliasProb(l, i) + 8 * nn + at,
                        sampler->alias_table()[z]);
          Put(bytes, AliasProb(l, i) + 16 * nn + at,
              sampler->normalized_table()[z]);
        }
      }
    }
  };
  // The control: over the stored child centers, the audit sees the leak.
  const std::string path = WriteEdited(identity, SharedBundlePath());
  auto view = RegionBundleView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto report = audit::AuditBundle(*view);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->max_violation, 0.1);
  std::remove(path.c_str());

  // Scaling every stored location by 1000 puts each candidate pair 1000
  // times farther apart, where the identity passes the e^(eps*d) bound.
  // Serving would still report the real child centers, so the loader
  // must refuse the bundle rather than let the audit measure other points.
  const Status status =
      OpenLoadAndServeEdited([&](std::string& bytes, const Layout& l) {
        identity(bytes, l);
        for (size_t i = 0; i < l.dir.size(); ++i) {
          for (size_t j = 0; j < 2 * size_t{l.dir[i].n}; ++j) {
            const size_t at = Locations(l, i) + 8 * j;
            Put(bytes, at, 1000.0 * Get<double>(bytes, at));
          }
        }
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("child centers"), std::string::npos)
      << status.ToString();
}

TEST(RegionBundleV2Test, RejectsANodeWhoseCandidateCountIsNotTheFanout) {
  // n = 1, consistently in the directory (n and size) and in the blob: a
  // well-formed blob for a node that must have granularity^2 candidates.
  const Status status =
      OpenLoadAndServeEdited([](std::string& bytes, const Layout& l) {
        Put<uint32_t>(bytes, DirEntry(l, 0) + 12, 1);
        Put<uint64_t>(bytes, DirEntry(l, 0) + 24, NodeBlobBytes(1));
        Put<uint64_t>(bytes, Blob(l, 0) + 16, 1);
      });
  EXPECT_FALSE(status.ok());
}

TEST(RegionBundleV2Test, RejectsANodeSolvedAtAnEpsOtherThanItsLevelBudget) {
  const Status status =
      OpenLoadAndServeEdited([](std::string& bytes, const Layout& l) {
        Put(bytes, Blob(l, 0), 1.5 * Get<double>(bytes, Blob(l, 0)));
      });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("level budget"), std::string::npos)
      << status.ToString();
}

TEST(RegionBundleV2Test, OpenRejectsAByteSwappedSentinel) {
  // A well-formed magic followed by the endian sentinel in big-endian
  // byte order — what a big-endian writer ignoring the LE contract would
  // produce. The reader must refuse rather than misparse every field.
  std::string bytes = "GPB2";
  bytes += std::string("\x01\x02\x03\x04", 4);
  bytes.append(kHeaderBytes, '\0');
  const std::string path = TempPath("region_v2_swapped.gpb");
  WriteAll(path, bytes);
  auto view = RegionBundleView::Open(path);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(view.status().message().find("byte-swapped"), std::string::npos)
      << view.status().message();
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, OpenRejectsWrongMagic) {
  // Arbitrary bytes, and a retired v1 ("GPB1") client bundle: neither is
  // a region bundle.
  const std::string path = TempPath("region_v2_magic.gpb");
  for (const std::string head : {"definitely not a bundle", "GPB1"}) {
    WriteAll(path, head + std::string(kHeaderBytes, '\0'));
    auto view = RegionBundleView::Open(path);
    ASSERT_FALSE(view.ok()) << head;
    EXPECT_NE(view.status().message().find("not a region bundle"),
              std::string::npos)
        << view.status().message();
  }
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, OpenReportsAMissingFileAsAnIoError) {
  auto view = RegionBundleView::Open("/nonexistent/region.gpb");
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIoError);
}

TEST(RegionBundleV2Test, RewriteInPlaceLeavesNoStagingFileAndTheNewOneWins) {
  const std::string path = TempPath("region_v2_rewrite.gpb");
  RegionSpec spec = SmallSpec();
  ASSERT_TRUE(WriteRegionBundle(ScratchSanitizer(1, spec), spec, path).ok());
  spec.eps = 0.7;
  ASSERT_TRUE(WriteRegionBundle(ScratchSanitizer(1, spec), spec, path).ok());
  // The crash-atomic writer stages into "<path>.tmp.<pid>.<n>" and
  // renames; success must leave no staging file behind.
  const std::filesystem::path target(path);
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_EQ(entry.path().filename().string().find(
                  target.filename().string() + ".tmp"),
              std::string::npos)
        << "staging file left behind: " << entry.path();
  }
  auto view = RegionBundleView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_DOUBLE_EQ(view->config().eps, 0.7);
  std::remove(path.c_str());
}

TEST(RegionBundleV2Test, OfflineBundleRoundTripSolvesNodesLazily) {
  // The paper's offline client bundle: a region that has solved nothing,
  // written as config, budgets, and prior with no node section.
  const RegionSpec spec = SmallSpec();
  const core::LocationSanitizer source = ScratchSanitizer(1);
  ASSERT_EQ(source.mechanism().cache_size(), 0u);
  const std::string path = TempPath("region_v2_client.gpb");
  auto written = WriteRegionBundle(source, spec, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->nodes, 0u);

  auto view = RegionBundleView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const SectionEntry& section : view->sections()) {
    EXPECT_NE(section.id, kNodes);
  }
  EXPECT_EQ(view->node_count(), 0u);
  // Budgets and prior are the source's, bit for bit.
  const std::vector<double>& budgets = source.budget().per_level;
  ASSERT_EQ(view->level_budgets().size(), budgets.size());
  for (size_t l = 0; l < budgets.size(); ++l) {
    EXPECT_EQ(view->level_budgets()[l], budgets[l]) << l;
  }
  const prior::Prior& prior = source.mechanism().prior();
  ASSERT_EQ(view->prior_masses().size(),
            static_cast<size_t>(prior.grid().num_cells()));
  for (int i = 0; i < prior.grid().num_cells(); ++i) {
    EXPECT_EQ(view->prior_masses()[static_cast<size_t>(i)], prior.mass(i))
        << i;
  }

  auto loaded = LoadRegion(view.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->nodes_loaded, 0u);
  const core::MultiStepMechanism& msm = loaded->sanitizer.mechanism();
  EXPECT_EQ(msm.stats().lp_solves, 0);
  rng::Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    auto out = loaded->sanitizer.SanitizeLatLonOrStatus(
        spec.min_lat + (spec.max_lat - spec.min_lat) * (i % 8) / 8.0,
        spec.min_lon + (spec.max_lon - spec.min_lon) * (i % 5) / 5.0, rng);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GE(out->lat, spec.min_lat);
    EXPECT_LE(out->lat, spec.max_lat);
    EXPECT_GE(out->lon, spec.min_lon);
    EXPECT_LE(out->lon, spec.max_lon);
  }
  // Each node the reports walked through was solved once, on first touch.
  EXPECT_GT(msm.stats().lp_solves, 0);
  EXPECT_EQ(static_cast<size_t>(msm.stats().lp_solves), msm.cache_size());
  std::remove(path.c_str());
}

TEST(ServiceBundleTest, LoadRegionFromBundleServesAndReportsMetrics) {
  service::ServiceOptions options;
  options.num_workers = 2;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  ASSERT_TRUE(
      (*service)->LoadRegionFromBundle("austin", SharedBundlePath()).ok());
  // Duplicate registration fails fast, bundle or not.
  EXPECT_EQ(
      (*service)->LoadRegionFromBundle("austin", SharedBundlePath()).code(),
      StatusCode::kFailedPrecondition);

  std::vector<std::future<service::SanitizeResult>> replies;
  for (int i = 0; i < 32; ++i) {
    replies.push_back((*service)->SubmitFuture(
        {"austin", {30.19 + 0.01 * (i % 6) / 6.0, -97.865}, 0.0}));
  }
  for (auto& reply : replies) {
    const service::SanitizeResult r = reply.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.used_fallback);
  }

  auto info = (*service)->GetRegionInfo("austin");
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->bundle_bytes_mapped, 0u);
  EXPECT_GT(info->plan_warm_at_startup, 0u);
  EXPECT_GT(info->prewarmed_nodes, 0);
  EXPECT_EQ(info->msm.lp_solves, 0);

  const std::string json = (*service)->MetricsJson();
  EXPECT_NE(json.find("\"bundle_loads\":1"), std::string::npos) << json;
  const std::string text = (*service)->MetricsText();
  EXPECT_NE(text.find("geopriv_bundle_loads_total 1"), std::string::npos);
  EXPECT_NE(text.find("geopriv_region_bundle_bytes_mapped{region=\"austin\"}"),
            std::string::npos);

  EXPECT_FALSE(
      (*service)->LoadRegionFromBundle("nowhere", "/nonexistent/r.gpb2").ok());
}

// A load that fails — missing file, truncated file — publishes nothing and
// releases the id it reserved, so the id can still be registered.
TEST(ServiceBundleTest, FailedLoadReleasesTheId) {
  service::ServiceOptions options;
  options.num_workers = 1;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  const std::string truncated = TempPath("region_v2_service_trunc.gpb");
  const std::string bytes = ReadAll(SharedBundlePath());
  WriteAll(truncated, bytes.substr(0, bytes.size() / 2));
  for (const std::string& path : {std::string("/nonexistent/r.gpb2"),
                                  truncated}) {
    EXPECT_FALSE((*service)->LoadRegionFromBundle("austin", path).ok())
        << path;
    EXPECT_EQ((*service)->snapshot_epoch(), 0u) << path;
  }
  std::remove(truncated.c_str());

  const RegionSpec spec = SmallSpec();
  service::RegionConfig config;
  config.min_lat = spec.min_lat;
  config.min_lon = spec.min_lon;
  config.max_lat = spec.max_lat;
  config.max_lon = spec.max_lon;
  config.eps = spec.eps;
  config.granularity = spec.granularity;
  EXPECT_TRUE((*service)->RegisterRegion("austin", config).ok());
  EXPECT_EQ((*service)->snapshot_epoch(), 1u);
}

// A region loaded from a client bundle solves each node on first touch,
// on the worker that walks into it, and queues nothing of its own: while
// one worker solves the cold root, the only slot of a capacity-1 queue
// stays free for the next request.
TEST(ServiceBundleTest, ColdNodeSolveLeavesTheQueueToRequests) {
  RegionSpec spec;
  spec.min_lat = 30.1927;
  spec.min_lon = -97.8698;
  spec.max_lat = 30.3723;
  spec.max_lon = -97.6618;
  spec.eps = 0.5;
  spec.granularity = 5;  // the cold root LP has n = 25 candidates
  spec.prior_granularity = 32;
  const std::string path = TempPath("region_v2_service_cold.gpb");
  auto written = WriteRegionBundle(ScratchSanitizer(1, spec), spec, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(written->nodes, 0u);

  service::ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->LoadRegionFromBundle("austin", path).ok());
  std::atomic<bool> first_done{false};
  ASSERT_TRUE((*service)
                  ->SubmitAsync({"austin", {30.2672, -97.7431}, 0.0},
                                [&first_done](const service::SanitizeResult&) {
                                  first_done.store(true);
                                })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_FALSE(first_done.load()) << "the cold solve finished in 5 ms";
  std::future<service::SanitizeResult> second =
      (*service)->SubmitFuture({"austin", {30.2700, -97.7400}, 0.0});
  const service::SanitizeResult r = second.get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.used_fallback);
  (*service)->Drain();
  EXPECT_TRUE(first_done.load());
  EXPECT_EQ((*service)->metrics().Snapshot().requests_rejected, 0u);
  EXPECT_GT((*service)->GetRegionInfo("austin")->msm.lp_solves, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geopriv::bundle

// Checkpoint/restore tests (blocks_to_list / list_to_blocks, paper §IV-C):
// round trips within a run, across runs, and across different worker
// counts.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "sial/compiler.hpp"
#include "sial/program.hpp"
#include "sip/checkpoint.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

// A directory path no other process (a concurrent ctest run on the same
// host) and no other test in this process uses.
std::string scratch_path(const char* name) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          (std::string(name) + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

SipConfig ck_config(int workers, const std::string& scratch = "") {
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = 3;
  config.scratch_dir = scratch;
  config.constants = {{"n", 9}};
  return config;
}

constexpr const char* kFillAndCheckpoint = R"(
sial writer
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
pardo i, j
  execute fill_coords t(i,j)
  put d(i,j) = t(i,j)
endpardo i, j
checkpoint d "state"
endsial
)";

constexpr const char* kRestoreAndVerify = R"(
sial reader
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
restore d "state"
pardo i, j
  get d(i,j)
  execute fill_coords t(i,j)
  u(i,j) = d(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
endsial
)";

TEST(CheckpointTest, RoundTripWithinOneSip) {
  Sip sip(ck_config(3));
  sip.run_source(kFillAndCheckpoint);
  const RunResult result = sip.run_source(kRestoreAndVerify);
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

TEST(CheckpointTest, RestoreUnderDifferentWorkerCount) {
  // The paper's restart facility: write with 4 workers, restart with 2.
  const std::string scratch = scratch_path("sia_ck_test");
  std::filesystem::remove_all(scratch);
  {
    Sip sip(ck_config(4, scratch));
    sip.run_source(kFillAndCheckpoint);
  }
  {
    Sip sip(ck_config(2, scratch));
    const RunResult result = sip.run_source(kRestoreAndVerify);
    EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
  }
  std::filesystem::remove_all(scratch);
}

TEST(CheckpointTest, RestoreOverwritesExistingContent) {
  Sip sip(ck_config(2));
  sip.run_source(kFillAndCheckpoint);
  // Fill d with junk, then restore: values must come back.
  const RunResult result = sip.run_source(R"(
sial reader
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  t(i,j) = -99.0
  put d(i,j) = t(i,j)
endpardo i, j
restore d "state"
pardo i, j
  get d(i,j)
  execute fill_coords t(i,j)
  u(i,j) = d(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
endsial
)");
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

TEST(CheckpointTest, RestoreUnderDifferentSegmentSizeFails) {
  // The checkpoint is written in block units; restoring under a
  // different segment grid must fail loudly, not corrupt data.
  const std::string scratch = scratch_path("sia_ck_seg_test");
  std::filesystem::remove_all(scratch);
  {
    Sip sip(ck_config(2, scratch));
    sip.run_source(kFillAndCheckpoint);
  }
  {
    SipConfig config = ck_config(2, scratch);
    config.default_segment = 9;  // one block per dimension instead of 3
    Sip sip(config);
    EXPECT_THROW(sip.run_source(kRestoreAndVerify), RuntimeError);
  }
  std::filesystem::remove_all(scratch);
}

TEST(CheckpointTest, WriterKilledBeforeManifestKeepsPreviousCheckpoint) {
  // A checkpoint writer that dies after its parts reach disk and before
  // the manifest names them must leave the previous checkpoint whole.
  const std::string scratch = scratch_path("sia_ck_crash");
  std::filesystem::remove_all(scratch);
  {
    Sip sip(ck_config(2, scratch));
    sip.run_source(kFillAndCheckpoint);
  }
  // The dying writer's parts: every block of d, filled with junk.
  const sial::ResolvedProgram program(sial::compile_sial(kFillAndCheckpoint),
                                      ck_config(2, scratch));
  const auto& arrays = program.arrays();
  const auto d = std::find_if(arrays.begin(), arrays.end(),
                              [](const auto& a) { return a.name == "d"; });
  ASSERT_NE(d, arrays.end());
  const int array_id = static_cast<int>(d - arrays.begin());
  std::unordered_map<BlockId, BlockPtr, BlockIdHash> junk;
  for (std::int64_t linear = 0; linear < d->total_blocks; ++linear) {
    const BlockId id =
        BlockId::from_linear(array_id, linear, d->num_segments);
    auto block = std::make_shared<Block>(program.grid_block_shape(
        *d, {id.segments.data(), static_cast<std::size_t>(id.rank)}));
    std::fill(block->data().begin(), block->data().end(), -7.0);
    junk.emplace(id, std::move(block));
  }
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int part = 0; part < 2; ++part) {
      checkpoint::write_part(scratch, "state", part, program, array_id,
                             junk);
    }
    ::_exit(0);  // dies before write_manifest
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  {
    Sip sip(ck_config(2, scratch));
    const RunResult result = sip.run_source(kRestoreAndVerify);
    EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
  }
  std::filesystem::remove_all(scratch);
}

TEST(CheckpointTest, RestoreOfWrongArrayNameFails) {
  Sip sip(ck_config(2));
  sip.run_source(kFillAndCheckpoint);
  EXPECT_THROW(sip.run_source(R"(
sial reader
moindex i = 1, n
moindex j = 1, n
distributed other(i,j)
restore other "state"
endsial
)"),
               RuntimeError);
}

TEST(CheckpointTest, RestoreOfMissingKeyFails) {
  Sip sip(ck_config(2));
  EXPECT_THROW(sip.run_source(R"(
sial reader
moindex i = 1, n
distributed d(i)
restore d "never_written"
endsial
)"),
               RuntimeError);
}

// ---------------------------------------------------------------------
// Low-level file format.

TEST(CheckpointFormatTest, SanitizeKey) {
  using checkpoint::sanitize_key;
  EXPECT_EQ(sanitize_key("simple-name_1"), "simple-name_1");
  EXPECT_EQ(sanitize_key("../evil/path"), "___evil_path");
  EXPECT_EQ(sanitize_key(""), "checkpoint");
}

TEST(CheckpointFormatTest, ManifestRoundTrip) {
  const std::string dir = scratch_path("sia_manifest_test");
  std::filesystem::create_directories(dir);
  checkpoint::Manifest manifest;
  manifest.array_name = "amps";
  manifest.parts = 5;
  manifest.total_blocks = 77;
  checkpoint::write_manifest(dir, "key1", manifest);
  const checkpoint::Manifest got = checkpoint::read_manifest(dir, "key1");
  EXPECT_EQ(got.array_name, "amps");
  EXPECT_EQ(got.parts, 5);
  EXPECT_EQ(got.total_blocks, 77);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFormatTest, MissingManifestThrows) {
  const std::string dir = scratch_path("sia_manifest_missing");
  std::filesystem::create_directories(dir);
  EXPECT_THROW(checkpoint::read_manifest(dir, "absent"), RuntimeError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sia::sip

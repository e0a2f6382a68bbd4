// CSV spill round-trip: a 100k-row stream spilled in small chunks must
// re-read to exactly the bytes the incremental digest hashed, and the
// replay validator must reject truncated files and mid-row corruption.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "metrics/streaming.hpp"
#include "metrics/trace.hpp"
#include "workflow/builders.hpp"

namespace xanadu::metrics {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kResults = 25'000;  // x kNodes records = 100k rows.

/// Synthetic but plausible result: varied timings, cold flags, retries and
/// invoked_by edges so the rendered rows exercise every CSV column.
platform::RequestResult synthetic_result(std::size_t index, common::Rng& rng) {
  platform::RequestResult result;
  result.id = common::RequestId{index};
  result.workflow = common::WorkflowId{0};
  result.submitted = sim::TimePoint{static_cast<std::int64_t>(index) * 1000};
  result.failed = rng.bernoulli(0.05);
  result.node_records.resize(kNodes);
  sim::TimePoint cursor = result.submitted;
  for (std::size_t n = 0; n < kNodes; ++n) {
    platform::NodeRecord& record = result.node_records[n];
    record.status = platform::NodeStatus::Completed;
    record.trigger_time = cursor;
    record.exec_start = cursor + sim::Duration::from_micros(
                                     1 + static_cast<std::int64_t>(
                                             rng.uniform_int(5000)));
    record.exec_duration = sim::Duration::from_micros(
        100 + static_cast<std::int64_t>(rng.uniform_int(20'000)));
    record.exec_end = record.exec_start + record.exec_duration;
    record.cold = rng.bernoulli(0.3);
    if (record.cold) {
      record.provision_wait = sim::Duration::from_micros(
          static_cast<std::int64_t>(rng.uniform_int(500'000)));
    }
    record.retries = rng.bernoulli(0.1) ? 1 : 0;
    if (n > 0) record.invoked_by.push_back(common::NodeId{n - 1});
    cursor = record.exec_end;
  }
  result.completed = cursor;
  return result;
}

std::string spill_file(const char* name) {
  return ::testing::TempDir() + name;
}

/// Streams kResults synthetic results through a StreamingTrace spilling to
/// `path` with a deliberately tiny chunk size (many flush boundaries).
/// Returns the trace's incremental digest.
std::uint64_t stream_with_spill(const std::string& path) {
  const workflow::WorkflowDag dag =
      workflow::linear_chain(kNodes, workflow::BuildOptions{});
  StreamOptions options;
  options.spill_path = path;
  options.spill_chunk_bytes = 4096;  // ~60 rows per flush: many chunks.
  StreamingTrace stream{options};
  const std::size_t source = stream.add_source(dag, "spill");
  common::Rng rng{0x5f111edULL};
  for (std::size_t i = 0; i < kResults; ++i) {
    stream.consume(source, synthetic_result(i, rng));
  }
  stream.finish();
  return stream.digest();
}

TEST(TraceSpillTest, HundredThousandRowRoundTrip) {
  const std::string path = spill_file("spill_roundtrip.csv");
  const std::uint64_t digest = stream_with_spill(path);

  const SpillReplay replay = replay_spill(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.digest, digest);
  EXPECT_EQ(replay.rows, kResults * kNodes);
}

TEST(TraceSpillTest, SpillBytesAreExactlyTheDigestedBytes) {
  const std::string path = spill_file("spill_bytes.csv");
  const std::uint64_t digest = stream_with_spill(path);

  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good());
  const std::string content{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
  EXPECT_EQ(common::fnv1a(content), digest);
}

TEST(TraceSpillTest, RejectsTruncatedFile) {
  const std::string path = spill_file("spill_truncated.csv");
  (void)stream_with_spill(path);

  std::ifstream in{path, std::ios::binary};
  std::string content{std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{}};
  in.close();
  ASSERT_GT(content.size(), 10u);
  content.resize(content.size() - 10);  // Chop mid-row: no trailing newline.
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
  out.close();

  const SpillReplay replay = replay_spill(path);
  EXPECT_FALSE(replay.ok);
  EXPECT_NE(replay.error.find("truncated"), std::string::npos)
      << replay.error;
}

TEST(TraceSpillTest, RejectsMidRowCorruption) {
  const std::string path = spill_file("spill_corrupt.csv");
  (void)stream_with_spill(path);

  std::ifstream in{path, std::ios::binary};
  std::string content{std::istreambuf_iterator<char>{in},
                      std::istreambuf_iterator<char>{}};
  in.close();
  // Smash the request-id field of a mid-file row with garbage, keeping the
  // line structure (same length, same commas) intact.
  const std::size_t mid = content.find('\n', content.size() / 2);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_LT(mid + 1, content.size());
  content[mid + 1] = 'x';
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
  out.close();

  const SpillReplay replay = replay_spill(path);
  EXPECT_FALSE(replay.ok);
  EXPECT_FALSE(replay.error.empty());
}

TEST(TraceSpillTest, RejectsWrongFieldCount) {
  const std::string good = "7,0,f1,completed,0,0.5,1,0.5,0,0,0,0,\n";
  const auto replay_rows = [](const std::string& name,
                              const std::string& rows) {
    const std::string path = spill_file(name.c_str());
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << trace_csv_header() << rows;
    out.close();
    return replay_spill(path);
  };
  EXPECT_TRUE(replay_rows("spill_good_row.csv", good).ok);
  const SpillReplay short_row = replay_rows(
      "spill_short_row.csv", good + "7,1,f2,completed,0,0.5,1,0.5,0,0,0,0\n");
  EXPECT_FALSE(short_row.ok);
  EXPECT_EQ(short_row.error, "row 3: expected 13 fields, got 12");
  const SpillReplay long_row =
      replay_rows("spill_long_row.csv", "7,0,f1,completed,0,0,0,0,0,0,0,0,,,\n");
  EXPECT_FALSE(long_row.ok);
  EXPECT_EQ(long_row.error, "row 2: expected 13 fields, got 15");
}

TEST(TraceSpillTest, RejectsMissingFile) {
  const SpillReplay replay =
      replay_spill(spill_file("does_not_exist.csv"));
  EXPECT_FALSE(replay.ok);
}

TEST(TraceSpillTest, RejectsBadHeader) {
  const std::string path = spill_file("spill_bad_header.csv");
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << "not,the,right,header\n";
  out.close();
  const SpillReplay replay = replay_spill(path);
  EXPECT_FALSE(replay.ok);
}

}  // namespace
}  // namespace xanadu::metrics

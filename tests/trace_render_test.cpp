// Byte-equality tests for the trace row renderer.
//
// The pinned trace digests hash the rendered CSV text, so the renderer's
// number formatting is part of the determinism contract.  The oracle below
// is the iostream renderer the digests were first recorded with, imbued with
// the classic locale; append_trace_csv must reproduce its bytes exactly on
// hand-picked edge cases and on a seeded sweep of random timings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/trace.hpp"
#include "workflow/builders.hpp"

namespace xanadu {
namespace {

using common::NodeId;
using common::RequestId;
using platform::NodeRecord;
using platform::NodeStatus;
using platform::RequestResult;
using sim::Duration;
using sim::TimePoint;

const char* oracle_status(NodeStatus status) {
  switch (status) {
    case NodeStatus::Pending: return "pending";
    case NodeStatus::Triggered: return "triggered";
    case NodeStatus::Executing: return "executing";
    case NodeStatus::Completed: return "completed";
    case NodeStatus::Skipped: return "skipped";
  }
  return "unknown";
}

// Reference renderer: default ostream double formatting (%.6g) under the
// classic locale.
std::string oracle_rows(const RequestResult& result,
                        const workflow::WorkflowDag& dag) {
  const auto name_of = [&dag](std::size_t node) -> const std::string& {
    return dag.node(NodeId{node}).fn.name;
  };
  std::ostringstream out;
  out.imbue(std::locale::classic());
  for (std::size_t i = 0; i < result.node_records.size(); ++i) {
    const NodeRecord& record = result.node_records[i];
    out << result.id.value() << ',' << i << ',' << name_of(i) << ','
        << oracle_status(record.status) << ',';
    if (record.status == NodeStatus::Completed) {
      out << record.trigger_time.millis() << ',' << record.exec_start.millis()
          << ',' << record.exec_end.millis() << ','
          << record.exec_duration.millis();
    } else {
      out << ",,,";
    }
    out << ',' << (record.cold ? 1 : 0) << ','
        << record.provision_wait.millis() << ',' << record.retries << ','
        << (result.failed ? 1 : 0) << ',';
    for (std::size_t p = 0; p < record.invoked_by.size(); ++p) {
      if (p > 0) out << ';';
      out << name_of(record.invoked_by[p].value());
    }
    out << '\n';
  }
  return out.str();
}

std::vector<std::string_view> interned_names(const workflow::WorkflowDag& dag) {
  std::vector<std::string_view> names;
  for (std::size_t i = 0; i < dag.node_count(); ++i) {
    names.emplace_back(dag.node(NodeId{i}).fn.name);
  }
  return names;
}

NodeRecord completed(std::int64_t trigger_us, std::int64_t start_us,
                     std::int64_t end_us, std::int64_t duration_us,
                     std::int64_t wait_us) {
  NodeRecord record;
  record.status = NodeStatus::Completed;
  record.trigger_time = TimePoint{trigger_us};
  record.exec_start = TimePoint{start_us};
  record.exec_end = TimePoint{end_us};
  record.exec_duration = Duration::from_micros(duration_us);
  record.provision_wait = Duration::from_micros(wait_us);
  return record;
}

// Asserts that both append_trace_csv overloads render `result` exactly as
// the oracle does.
void expect_oracle_bytes(const RequestResult& result,
                         const workflow::WorkflowDag& dag) {
  const std::string expected = oracle_rows(result, dag);
  std::string from_dag;
  metrics::append_trace_csv(from_dag, result, dag);
  EXPECT_EQ(from_dag, expected);
  std::string from_names;
  metrics::append_trace_csv(from_names, result, interned_names(dag));
  EXPECT_EQ(from_names, expected);
}

TEST(TraceRender, EdgeCasesMatchOracle) {
  const workflow::WorkflowDag dag = workflow::linear_chain(9);
  RequestResult result;
  result.id = RequestId{123456789};
  auto& rows = result.node_records;
  // Zero and one microsecond.
  rows.push_back(completed(0, 0, 1, 1, 0));
  // Sub-millisecond values.
  rows.push_back(completed(12, 999, 1000, 1, 500));
  // Six-significant-digit rounding, including near-ties.
  rows.push_back(completed(1234565, 1234575, 9999995, 123456789, 1000001));
  // The switch to exponent form at >= 1e6 ms.
  rows.push_back(completed(999999500, 999999499, 3600000000, 1000000000,
                           1234567890123));
  // Non-completed rows render empty timings.
  NodeRecord pending;
  rows.push_back(pending);
  NodeRecord skipped;
  skipped.status = NodeStatus::Skipped;
  skipped.provision_wait = Duration::from_micros(2500);
  rows.push_back(skipped);
  NodeRecord executing;
  executing.status = NodeStatus::Executing;
  executing.trigger_time = TimePoint{42};
  rows.push_back(executing);
  // Retries, a cold start, and a multi-parent invoked_by list.
  NodeRecord joined = completed(5000, 5001, 7000, 1999, 4);
  joined.cold = true;
  joined.retries = 12;
  joined.invoked_by = {NodeId{0}, NodeId{3}, NodeId{6}};
  rows.push_back(joined);
  // Negative values keep their sign.
  rows.push_back(completed(-1, -999, -1234565, -3600000000, -7));

  const std::string expected = oracle_rows(result, dag);
  EXPECT_NE(expected.find(",0,0,0.001,0.001,0,0,0,"), std::string::npos);
  EXPECT_NE(expected.find(",1e+06,"), std::string::npos);
  EXPECT_NE(expected.find(",3.6e+06,"), std::string::npos);
  EXPECT_NE(expected.find(",pending,,,,,0,0,0,0,\n"), std::string::npos);
  EXPECT_NE(expected.find(",1,0.004,12,0,f1;f4;f7\n"), std::string::npos);
  expect_oracle_bytes(result, dag);

  result.failed = true;
  expect_oracle_bytes(result, dag);
}

TEST(TraceRender, SeededSweepMatchesOracle) {
  // 20k rows x 5 timing columns = 100k values, log-uniform over
  // 1 us .. 1e12 us so every decimal exponent is covered.
  constexpr std::size_t kResults = 2500;
  constexpr std::size_t kRowsPerResult = 8;
  static_assert(kResults * kRowsPerResult * 5 >= 100000);
  const workflow::WorkflowDag dag = workflow::linear_chain(kRowsPerResult);
  std::mt19937_64 rng{0x7ace5eedULL};
  std::uniform_real_distribution<double> exponent{0.0, 12.0};
  std::uniform_int_distribution<int> coin{0, 1};
  const auto draw = [&] {
    return static_cast<std::int64_t>(std::pow(10.0, exponent(rng)));
  };

  for (std::size_t r = 0; r < kResults; ++r) {
    RequestResult result;
    result.id = RequestId{rng()};
    result.failed = coin(rng) == 1;
    for (std::size_t n = 0; n < kRowsPerResult; ++n) {
      NodeRecord record = completed(draw(), draw(), draw(), draw(), draw());
      record.cold = coin(rng) == 1;
      result.node_records.push_back(record);
    }
    std::string rendered;
    metrics::append_trace_csv(rendered, result, dag);
    ASSERT_EQ(rendered, oracle_rows(result, dag)) << "result " << r;
  }
}

TEST(TraceRender, BatchCsvIsHeaderPlusAppendedRows) {
  const workflow::WorkflowDag dag = workflow::linear_chain(2);
  std::vector<RequestResult> results(3);
  std::string expected = metrics::trace_csv_header();
  for (std::size_t r = 0; r < results.size(); ++r) {
    results[r].id = RequestId{r};
    const auto base = static_cast<std::int64_t>(r) * 1000003;
    results[r].node_records = {completed(base, base + 7, base + 99, 92, 3),
                               completed(base + 99, base + 100, base + 2000,
                                         1900, 0)};
    results[r].node_records[1].invoked_by = {NodeId{0}};
    expected += oracle_rows(results[r], dag);
  }
  EXPECT_EQ(metrics::trace_csv(results, dag), expected);
}

}  // namespace
}  // namespace xanadu

#include "metrics/trace.hpp"

#include <array>
#include <charconv>

#include "common/hash.hpp"

namespace xanadu::metrics {

namespace {

const char* status_name(platform::NodeStatus status) {
  switch (status) {
    case platform::NodeStatus::Pending: return "pending";
    case platform::NodeStatus::Triggered: return "triggered";
    case platform::NodeStatus::Executing: return "executing";
    case platform::NodeStatus::Completed: return "completed";
    case platform::NodeStatus::Skipped: return "skipped";
  }
  return "unknown";
}

void append_uint(std::string& text, std::uint64_t value) {
  std::array<char, 24> buf{};
  text.append(buf.data(), std::to_chars(buf.data(), buf.data() + buf.size(),
                                        value).ptr);
}

// Milliseconds render as std::to_chars(general, 6), which the standard
// defines to equal printf("%.6g") -- the iostream default the pinned
// GoldenDigestGuard digests were recorded with -- and which, unlike an
// ostream, never consults the global locale.
void append_millis(std::string& text, double millis) {
  std::array<char, 32> buf{};
  text.append(buf.data(),
              std::to_chars(buf.data(), buf.data() + buf.size(), millis,
                            std::chars_format::general, 6)
                  .ptr);
}

// Shared row renderer, parameterized on the node-name lookup so the dag and
// interned-name paths emit byte-identical text.  Appends straight into
// `text`: no stream, no per-row temporaries.
template <typename NameOf>
void append_rows(std::string& text, const platform::RequestResult& result,
                 NameOf&& name_of) {
  for (std::size_t i = 0; i < result.node_records.size(); ++i) {
    const platform::NodeRecord& record = result.node_records[i];
    append_uint(text, result.id.value());
    text += ',';
    append_uint(text, i);
    text += ',';
    text += name_of(i);
    text += ',';
    text += status_name(record.status);
    text += ',';
    if (record.status == platform::NodeStatus::Completed) {
      append_millis(text, record.trigger_time.millis());
      text += ',';
      append_millis(text, record.exec_start.millis());
      text += ',';
      append_millis(text, record.exec_end.millis());
      text += ',';
      append_millis(text, record.exec_duration.millis());
    } else {
      text += ",,,";
    }
    text += record.cold ? ",1," : ",0,";
    append_millis(text, record.provision_wait.millis());
    text += ',';
    append_uint(text, record.retries);
    text += result.failed ? ",1," : ",0,";
    for (std::size_t p = 0; p < record.invoked_by.size(); ++p) {
      if (p > 0) text += ';';
      text += name_of(record.invoked_by[p].value());
    }
    text += '\n';
  }
}

}  // namespace

std::string trace_csv_header() {
  return "request,node,function,status,trigger_ms,exec_start_ms,exec_end_ms,"
         "exec_duration_ms,cold,provision_wait_ms,retries,failed,invoked_by\n";
}

void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag) {
  append_rows(out, result, [&dag](std::size_t node) -> const std::string& {
    return dag.node(common::NodeId{node}).fn.name;
  });
}

void append_trace_csv(std::string& out, const platform::RequestResult& result,
                      const std::vector<std::string_view>& node_names) {
  append_rows(out, result, [&node_names](std::size_t node) {
    return node_names[node];
  });
}

std::string trace_csv(const platform::RequestResult& result,
                      const workflow::WorkflowDag& dag) {
  std::string out;
  append_trace_csv(out, result, dag);
  return out;
}

std::string trace_csv(const std::vector<platform::RequestResult>& results,
                      const workflow::WorkflowDag& dag) {
  std::string out = trace_csv_header();
  for (const auto& result : results) append_trace_csv(out, result, dag);
  return out;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t seed) {
  return common::fnv1a(text, seed);
}

std::uint64_t trace_digest(const platform::RequestResult& result,
                           const workflow::WorkflowDag& dag) {
  return fnv1a(trace_csv(result, dag));
}

std::uint64_t trace_digest(const std::vector<platform::RequestResult>& results,
                           const workflow::WorkflowDag& dag) {
  return fnv1a(trace_csv(results, dag));
}

std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace xanadu::metrics

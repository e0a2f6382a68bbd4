#include "metrics/trace.hpp"

#include <array>
#include <charconv>
#include <cstdint>

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

// printf("%.6g") of a millisecond double, via std::to_chars(general, 6),
// which the standard defines to match printf and which, unlike an ostream,
// never consults the global locale.  Only append_micros' fallback uses it.
void append_millis(std::string& text, double millis) {
  std::array<char, 32> buf{};
  text.append(buf.data(),
              std::to_chars(buf.data(), buf.data() + buf.size(), millis,
                            std::chars_format::general, 6)
                  .ptr);
}

constexpr std::array<std::uint64_t, 16> kPow10 = [] {
  std::array<std::uint64_t, 16> pow10{};
  pow10[0] = 1;
  for (std::size_t i = 1; i < pow10.size(); ++i) pow10[i] = pow10[i - 1] * 10;
  return pow10;
}();

/// Integer rendering is exact below 10^15 us (see append_micros).
constexpr std::int64_t kExactMicrosLimit = 1'000'000'000'000'000;

}  // namespace

// Contract: the text is printf("%.6g") of micros / 1e3 -- the number format
// the pinned digests were recorded with -- computed from the integer.  With
// D decimal digits, a value above 6 digits rounds half-up on the remainder
// below its 6th digit; the leading digit sits at 10^(D-4) ms, which picks
// fixed or exponent notation exactly as %g does.  This is exact because the
// true value of every non-tie lies >= 1 us from its rounding boundary while
// the double micros / 1e3 is off by < 0.2 us below 10^15 us, so the double
// rounds the same way.  At an exact tie the double's binary value (just
// above or below the boundary) decides, so ties -- like negative values and
// values >= 10^15 us -- take the std::to_chars path itself.
void append_micros(std::string& text, std::int64_t micros) {
  if (micros == 0) {
    text += '0';
    return;
  }
  if (micros < 0 || micros >= kExactMicrosLimit) {
    append_millis(text, static_cast<double>(micros) / 1e3);
    return;
  }
  auto significand = static_cast<std::uint64_t>(micros);
  std::size_t digits = 1;
  while (significand >= kPow10[digits]) ++digits;
  std::size_t kept = digits;  // Significant digits rendered (<= 6).
  if (digits > 6) {
    const std::uint64_t unit = kPow10[digits - 6];
    const std::uint64_t remainder = significand % unit;
    significand /= unit;
    if (remainder == unit / 2) {
      append_millis(text, static_cast<double>(micros) / 1e3);
      return;
    }
    if (remainder > unit / 2 && ++significand == kPow10[6]) {
      significand = kPow10[5];  // Carry: 999999.5 rounds up to 1000000.
      ++digits;
    }
    kept = 6;
  }
  std::array<char, 6> digit{};
  for (std::size_t i = kept; i-- > 0;) {
    digit[i] = static_cast<char>('0' + significand % 10);
    significand /= 10;
  }
  std::size_t used = kept;  // Digits left after stripping trailing zeros.
  while (used > 1 && digit[used - 1] == '0') --used;

  const int exponent = static_cast<int>(digits) - 4;  // Leading digit, in ms.
  if (exponent >= 6) {
    text += digit[0];
    if (used > 1) {
      text += '.';
      text.append(digit.data() + 1, used - 1);
    }
    text += "e+";
    text += static_cast<char>('0' + exponent / 10);
    text += static_cast<char>('0' + exponent % 10);
  } else if (exponent < 0) {
    text += "0.";
    text.append(static_cast<std::size_t>(-exponent - 1), '0');
    text.append(digit.data(), used);
  } else {
    const std::size_t whole = digits - 3;  // exponent + 1
    text.append(digit.data(), whole);
    if (used > whole) {
      text += '.';
      text.append(digit.data() + whole, used - whole);
    }
  }
}

namespace {

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
      append_micros(text, record.trigger_time.micros());
      text += ',';
      append_micros(text, record.exec_start.micros());
      text += ',';
      append_micros(text, record.exec_end.micros());
      text += ',';
      append_micros(text, record.exec_duration.micros());
    } else {
      text += ",,,";
    }
    text += record.cold ? ",1," : ",0,";
    append_micros(text, record.provision_wait.micros());
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

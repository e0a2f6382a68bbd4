#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#if defined(XANADU_RNG_TRACE)
#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string_view>
#endif

namespace xanadu::common {

std::size_t Rng::weighted_index(const std::vector<double>& weights
                                    XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  return weighted_index_impl(weights.data(), weights.size());
}

std::size_t Rng::weighted_index(const double* weights, std::size_t count
                                    XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  return weighted_index_impl(weights, count);
}

std::size_t Rng::weighted_index_impl(const double* weights,
                                     std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument{"Rng::weighted_index: empty weights"};
  }
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (weights[i] < 0.0) {
      throw std::invalid_argument{"Rng::weighted_index: negative weight"};
    }
    total += weights[i];
  }
  if (total <= 0.0) {
    throw std::invalid_argument{"Rng::weighted_index: all weights zero"};
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < count; ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return count - 1;  // Guard against floating-point underrun.
}

double Rng::exponential(double mean XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  if (mean <= 0.0) throw std::invalid_argument{"Rng::exponential: mean <= 0"};
  // uniform() is in [0, 1); use 1 - u to avoid log(0).
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal(double mean, double stddev XANADU_RNG_SITE_DECL) {
  XANADU_RNG_RECORD();
  if (stddev < 0.0) throw std::invalid_argument{"Rng::normal: stddev < 0"};
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace xanadu::common

#if defined(XANADU_RNG_TRACE)

namespace xanadu::common::rng_trace {

namespace {

/// One raw draw site as the compiler reports it.  The file name is a
/// string literal, so a (pointer, line) key interns a site without building
/// a string: record() allocates only the first time it sees a site.
struct Site {
  const char* file;
  std::uint_least32_t line;
};

struct SiteLess {
  bool operator()(const Site& a, const Site& b) const {
    if (a.file != b.file) return std::less<const char*>{}(a.file, b.file);
    return a.line < b.line;
  }
};

/// Global interned draw-site set.  Guarded by site_mutex(): independent
/// simulations may draw from their own Rngs on separate threads of one
/// process.
std::set<Site, SiteLess>& site_set() {
  static std::set<Site, SiteLess> sites;
  return sites;
}

std::mutex& site_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// Normalises a compiler-reported path to start at a repository-root
/// component (src/, bench/, tests/, tools/, examples/) so labels match the
/// repo-relative paths tools/flow_lint.py emits.  Falls back to the
/// basename for paths outside the repository (standard library headers).
std::string normalise(std::string_view path) {
  static constexpr std::string_view kRoots[] = {"src/", "bench/", "tests/",
                                                "tools/", "examples/"};
  std::size_t best = std::string_view::npos;
  for (const std::string_view root : kRoots) {
    // Match "/<root>" so "mysrc/" style prefixes cannot alias.
    for (std::size_t at = path.find(root); at != std::string_view::npos;
         at = path.find(root, at + 1)) {
      if (at == 0 || path[at - 1] == '/') {
        if (best == std::string_view::npos || at < best) best = at;
        break;
      }
    }
  }
  if (best != std::string_view::npos) return std::string{path.substr(best)};
  const std::size_t slash = path.rfind('/');
  return std::string{slash == std::string_view::npos
                         ? path
                         : path.substr(slash + 1)};
}

}  // namespace

void record(const std::source_location& site) {
  // Runs on every draw, so it only interns the raw site; normalising and
  // filtering wait for observed_sites().  insert() allocates a node only
  // for a site not seen before.
  const std::lock_guard<std::mutex> lock(site_mutex());
  site_set().insert(Site{site.file_name(), site.line()});
}

std::vector<std::string> observed_sites() {
  std::set<std::string> labels;
  const std::lock_guard<std::mutex> lock(site_mutex());
  for (const Site& site : site_set()) {
    const std::string path = normalise(site.file);
    // Internal delegation (uniform() calling next(), Box-Muller calling
    // uniform()) reports sites inside the Rng implementation itself; skip
    // them so the labels name only outermost textual draw sites.
    if (path == "src/common/rng.hpp" || path == "src/common/rng.cpp") continue;
    // One header site can reach the set under several file-name pointers
    // (one per including TU); the label set merges them.
    labels.insert(path + ":" + std::to_string(site.line));
  }
  return {labels.begin(), labels.end()};
}

void clear() {
  const std::lock_guard<std::mutex> lock(site_mutex());
  site_set().clear();
}

}  // namespace xanadu::common::rng_trace

#endif  // XANADU_RNG_TRACE

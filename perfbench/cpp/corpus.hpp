// The benchmark's seeded input generator and its correctness oracles.
//
// Every input is a `.rsc` text: the program under test receives nothing
// else. Texts come from seven templates (the web shop example, the five
// core::library systems and a wide diagram of 100 identical blocks) with
// their rates perturbed by a deterministic generator, so one
// (seed, template, index) triple always yields the same text on every
// platform. Oracles do not share code with the solver: single repairable
// units and lean transparent K-of-N blocks are checked against
// rascad::baselines closed forms, system availability against
// baselines::series_availability over the block table, and the default
// seed's first text of each template against a stored digest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "mg/system.hpp"
#include "spec/ast.hpp"

namespace perfbench {

/// SplitMix64: a fixed, platform-independent stream (the standard library
/// distributions are implementation-defined, which would make the corpus
/// depend on the toolchain).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// exp(uniform(log lo, log hi)).
  double log_uniform(double lo, double hi);
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Mixes words into one seed (order-sensitive).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);

struct Template {
  std::string name;
  rascad::spec::ModelSpec model;
  /// All blocks share one perturbation (the wide diagram stays a diagram
  /// of identical blocks, which the solve cache can share within an op).
  bool shared_factors = false;
};

/// The seven corpus_cold templates. Reads examples/models/web_shop.rsc
/// relative to the working directory (the repository root).
std::vector<Template> load_templates();

/// Text number `index` of template `t` for `seed`: every block's MTBF,
/// transient rate, corrective MTTR and service response scaled by factors
/// drawn log-uniformly from [0.8, 1.25].
std::string corpus_text(const Template& t, std::uint64_t seed,
                        std::uint64_t index);

/// The deep_sweep model: a chassis, a redundant power pair and the deep
/// Type 4 block "Deep Pool" (N units, K = 1, nontransparent recovery and
/// repair) in diagram "Deep", rates perturbed from `seed`.
std::string deep_text(unsigned n, std::uint64_t seed);
constexpr const char* kDeepDiagram = "Deep";
constexpr const char* kDeepBlock = "Deep Pool";

/// Relative tolerance of the closed-form and series oracles on
/// availability: with unavailabilities of 1e-5 to 1e-3 it still resolves
/// a relative error of 1e-6 in the downtime.
constexpr double kOracleRel = 1e-11;

/// Checks every block whose chain has a closed form: Type 0 blocks (one
/// repairable unit, a renewal process with permanent and transient failure
/// modes) and lean Type 1 blocks (transparent K-of-N birth-death chains).
/// Returns how many blocks were checked.
std::size_t check_closed_forms(const rascad::mg::SystemModel& system,
                               Checks& checks, const std::string& where);

/// System steady availability against the series product of the block
/// availabilities (every diagram is a serial composition).
void check_series(const rascad::mg::SystemModel& system, Checks& checks,
                  const std::string& where);

/// Blocks of the op that duplicate another block of the same op (equal
/// chain signatures), and the op's block count.
struct DuplicateCount {
  std::size_t blocks = 0;
  std::size_t duplicates = 0;
};
DuplicateCount count_duplicates(const rascad::mg::SystemModel& system);

/// Stored measures of the default seed's first round, by key
/// ("web_shop.A", "deep.n57.p0.A", ...). Written by --write-digest.
using Digest = std::map<std::string, double>;
Digest read_digest(const std::string& path);
/// Tolerance of the digest comparison, |got - want| <= rel * |want| + abs:
/// loose enough for curve and solver rewrites that move results by up to
/// 1e-12 absolute (the abs floor covers measures near 0, such as the wide
/// diagram's one-year reliability).
constexpr double kDigestRel = 1e-9;
constexpr double kDigestAbs = 1e-12;

/// Compares `value` against digest[key] when the digest has the key;
/// records the pair into `written` when that is non-null (--write-digest).
void digest_check(const Digest& digest, Digest* written,
                  const std::string& key, double value, Checks& checks);

}  // namespace perfbench

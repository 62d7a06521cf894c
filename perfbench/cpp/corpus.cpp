#include "corpus.hpp"

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "baselines/baselines.hpp"
#include "core/library.hpp"
#include "mg/generator.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"

namespace perfbench {

namespace spec = rascad::spec;
namespace mg = rascad::mg;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(std::log(lo) + uniform() * (std::log(hi) - std::log(lo)));
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng r(a);
  std::uint64_t h = r.next();
  r = Rng(h ^ (b * 0xD6E8FEB86659FD93ULL));
  h = r.next();
  r = Rng(h ^ (c * 0xA0761D6478BD642FULL));
  return r.next();
}

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char ch : s) h = (h ^ ch) * 0x100000001B3ULL;
  return h;
}

/// The wide W=100 diagram of bench_scalability: 100 parameter-identical
/// Type 3 blocks (N=4, K=2, nontransparent recovery, transparent repair).
spec::ModelSpec wide_model() {
  spec::ModelSpec m;
  m.title = "Wide W100";
  spec::DiagramSpec d;
  d.name = "Wide";
  for (unsigned i = 0; i < 100; ++i) {
    spec::BlockSpec b;
    b.name = "blk" + std::to_string(i);
    b.quantity = 4;
    b.min_quantity = 2;
    b.mtbf_h = 100'000.0;
    b.transient_fit = 2'000.0;
    b.mttr_corrective_min = 45.0;
    b.service_response_h = 4.0;
    b.p_correct_diagnosis = 0.95;
    b.p_latent_fault = 0.05;
    b.mttdlf_h = 48.0;
    b.recovery = spec::Transparency::kNontransparent;
    b.ar_time_min = 6.0;
    b.p_spf = 0.01;
    b.t_spf_min = 30.0;
    b.repair = spec::Transparency::kTransparent;
    d.blocks.push_back(b);
  }
  m.diagrams.push_back(std::move(d));
  return m;
}

struct Factors {
  double mtbf = 1.0;
  double transient = 1.0;
  double mttr = 1.0;
  double response = 1.0;
};

Factors draw_factors(Rng& rng) {
  Factors f;
  f.mtbf = rng.log_uniform(0.8, 1.25);
  f.transient = rng.log_uniform(0.8, 1.25);
  f.mttr = rng.log_uniform(0.8, 1.25);
  f.response = rng.log_uniform(0.8, 1.25);
  return f;
}

void apply(spec::BlockSpec& b, const Factors& f) {
  b.mtbf_h *= f.mtbf;
  b.transient_fit *= f.transient;
  b.mttr_corrective_min *= f.mttr;
  b.service_response_h *= f.response;
}

void perturb(spec::ModelSpec& model, Rng& rng, bool shared) {
  const Factors common = draw_factors(rng);
  for (auto& d : model.diagrams) {
    for (auto& b : d.blocks) {
      if (!b.has_own_failures()) continue;
      apply(b, shared ? common : draw_factors(rng));
    }
  }
}

}  // namespace

std::vector<Template> load_templates() {
  std::vector<Template> out;
  out.push_back({"web_shop",
                 spec::parse_model_file("examples/models/web_shop.rsc"),
                 false});
  for (const auto& entry : rascad::core::library::all_models()) {
    out.push_back({entry.name, entry.factory(), false});
  }
  out.push_back({"wide_w100", wide_model(), true});
  return out;
}

std::string corpus_text(const Template& t, std::uint64_t seed,
                        std::uint64_t index) {
  Rng rng(mix_seed(seed, fnv1a(t.name), index));
  spec::ModelSpec model = t.model;
  perturb(model, rng, t.shared_factors);
  model.title = t.model.title + " #" + std::to_string(index);
  return spec::to_rsc_string(model);
}

std::string deep_text(unsigned n, std::uint64_t seed) {
  spec::ModelSpec m;
  m.title = "Deep N=" + std::to_string(n);
  spec::DiagramSpec d;
  d.name = kDeepDiagram;
  {
    spec::BlockSpec b;
    b.name = "Chassis";
    b.mtbf_h = 400'000.0;
    b.mttr_corrective_min = 60.0;
    b.service_response_h = 4.0;
    d.blocks.push_back(b);
  }
  {
    spec::BlockSpec b;
    b.name = "Power";
    b.quantity = 2;
    b.min_quantity = 1;
    b.mtbf_h = 150'000.0;
    b.mttr_corrective_min = 30.0;
    b.service_response_h = 4.0;
    b.recovery = spec::Transparency::kTransparent;
    b.repair = spec::Transparency::kTransparent;
    d.blocks.push_back(b);
  }
  {
    spec::BlockSpec b;
    b.name = kDeepBlock;
    b.quantity = n;
    b.min_quantity = 1;
    b.mtbf_h = 100'000.0;
    b.transient_fit = 2'000.0;
    b.mttr_corrective_min = 45.0;
    b.service_response_h = 4.0;
    b.p_correct_diagnosis = 0.95;
    b.p_latent_fault = 0.05;
    b.mttdlf_h = 48.0;
    b.recovery = spec::Transparency::kNontransparent;
    b.ar_time_min = 6.0;
    b.p_spf = 0.01;
    b.t_spf_min = 30.0;
    b.repair = spec::Transparency::kNontransparent;
    b.reintegration_min = 8.0;
    d.blocks.push_back(b);
  }
  m.diagrams.push_back(std::move(d));
  Rng rng(mix_seed(seed, n, 0xDEE9));
  perturb(m, rng, false);
  return spec::to_rsc_string(m);
}

namespace {

/// Closed-form availability of a block's chain, when it has one.
std::optional<double> closed_form(const mg::SystemModel::BlockEntry& e,
                                  const spec::GlobalParams& g) {
  const spec::BlockSpec& b = e.block;
  const mg::DerivedRates d = mg::derive_rates(b, g);
  const double n = static_cast<double>(b.quantity);
  if (e.type == mg::MarkovModelType::kType0) {
    // Renewal from the single up state: a permanent fault costs
    // Tresp + MTTR plus MTTRFID after a wrong diagnosis; a transient fault
    // costs one reboot.
    const double lp = n * d.lambda_p;
    const double lt = n * d.lambda_t;
    if (lp > 0.0 && !(d.t_resp_h > 0.0 && d.mttr_h > 0.0)) return std::nullopt;
    const double mdt_p = d.t_resp_h + d.mttr_h +
                         (1.0 - b.p_correct_diagnosis) * d.mttrfid_h;
    const double mdt = (lp * mdt_p + lt * d.t_boot_h) / (lp + lt);
    return rascad::baselines::single_unit_availability(1.0 / (lp + lt), mdt);
  }
  const bool lean_type1 =
      e.type == mg::MarkovModelType::kType1 && b.transient_fit == 0.0 &&
      b.p_latent_fault == 0.0 && b.p_spf == 0.0 &&
      b.p_correct_diagnosis == 1.0 && d.lambda_p > 0.0 &&
      d.immediate_repair_h() > 0.0 && d.deferred_repair_h() > 0.0;
  if (lean_type1) {
    // Birth-death over failed units: deferred repair while redundancy
    // holds, an immediate call once the block is down.
    const unsigned m = b.quantity - b.min_quantity;
    std::vector<double> birth;
    std::vector<double> death;
    for (unsigned i = 0; i <= m; ++i) {
      birth.push_back(static_cast<double>(b.quantity - i) * d.lambda_p);
      death.push_back(i < m ? 1.0 / d.deferred_repair_h()
                            : 1.0 / d.immediate_repair_h());
    }
    const std::vector<double> pi =
        rascad::baselines::birth_death_stationary(birth, death);
    double up = 0.0;
    for (unsigned i = 0; i <= m; ++i) up += pi[i];
    return up;
  }
  return std::nullopt;
}

}  // namespace

std::size_t check_closed_forms(const mg::SystemModel& system, Checks& checks,
                               const std::string& where) {
  std::size_t checked = 0;
  for (const auto& e : system.blocks()) {
    const std::optional<double> want = closed_form(e, system.spec().globals);
    if (!want) continue;
    ++checked;
    checks.near(e.availability, *want, kOracleRel,
                where + " block '" + e.block.name + "' vs closed form");
  }
  return checked;
}

void check_series(const mg::SystemModel& system, Checks& checks,
                  const std::string& where) {
  std::vector<double> a;
  for (const auto& e : system.blocks()) a.push_back(e.availability);
  checks.near(system.availability(),
              rascad::baselines::series_availability(a), kOracleRel,
              where + " system availability vs series product");
}

DuplicateCount count_duplicates(const mg::SystemModel& system) {
  DuplicateCount c;
  std::unordered_set<rascad::cache::Signature, rascad::cache::SignatureHash>
      seen;
  for (const auto& e : system.blocks()) {
    ++c.blocks;
    if (!seen.insert(e.signature).second) ++c.duplicates;
  }
  return c;
}

Digest read_digest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest " + path);
  Digest out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key;
    double value = 0.0;
    if (!(is >> key >> value)) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    out[key] = value;
  }
  return out;
}

void digest_check(const Digest& digest, Digest* written,
                  const std::string& key, double value, Checks& checks) {
  if (written) (*written)[key] = value;
  const auto it = digest.find(key);
  if (it != digest.end()) {
    checks.near(value, it->second, kDigestRel, "digest " + key, kDigestAbs);
  }
}

}  // namespace perfbench

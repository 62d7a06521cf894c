#include "mg/system.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "markov/absorbing.hpp"
#include "markov/transient.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "spec/validate.hpp"

namespace rascad::mg {

namespace {

/// Piecewise-linear interpolation of a sampled curve over [0, horizon];
/// clamps outside the range.
rbd::TimeFunction interpolate(std::shared_ptr<const linalg::Vector> curve,
                              double horizon) {
  return [curve = std::move(curve), horizon](double t) {
    const auto& c = *curve;
    if (t <= 0.0) return c.front();
    if (t >= horizon) return c.back();
    const double pos =
        t / horizon * static_cast<double>(c.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    return c[lo] * (1.0 - frac) + c[lo + 1] * frac;
  };
}

/// Collects the chain-bearing blocks in visit order (own chain first, then
/// the subdiagram's blocks): the order of SystemModel::blocks() and of the
/// leaf index compose_tree passes to its factory.
void collect_chain_blocks(
    const spec::ModelSpec& model, const spec::DiagramSpec& diagram,
    std::vector<std::pair<const spec::DiagramSpec*, const spec::BlockSpec*>>&
        out) {
  for (const auto& block : diagram.blocks) {
    if (block.has_own_failures()) out.emplace_back(&diagram, &block);
    if (block.subdiagram) {
      const spec::DiagramSpec* sub = model.find_diagram(*block.subdiagram);
      if (!sub) {
        throw std::invalid_argument("SystemModel: dangling subdiagram '" +
                                    *block.subdiagram + "'");
      }
      collect_chain_blocks(model, *sub, out);
    }
  }
}

/// Makes the leaf of the i-th chain-bearing block in visit order.
using LeafFactory =
    std::function<rbd::RbdNodePtr(std::size_t, const spec::BlockSpec&)>;

rbd::RbdNodePtr compose_diagram(const spec::ModelSpec& model,
                                const spec::DiagramSpec& diagram,
                                const LeafFactory& leaf, std::size_t& cursor) {
  std::vector<rbd::RbdNodePtr> children;
  children.reserve(diagram.blocks.size());
  for (const auto& block : diagram.blocks) {
    rbd::RbdNodePtr own;
    if (block.has_own_failures()) own = leaf(cursor++, block);
    rbd::RbdNodePtr sub;
    if (block.subdiagram) {
      const spec::DiagramSpec* d = model.find_diagram(*block.subdiagram);
      if (!d) {
        throw std::invalid_argument("SystemModel: dangling subdiagram '" +
                                    *block.subdiagram + "'");
      }
      sub = compose_diagram(model, *d, leaf, cursor);
    }
    if (own && sub) {
      children.push_back(
          rbd::RbdNode::series(block.name, {std::move(own), std::move(sub)}));
    } else if (own) {
      children.push_back(std::move(own));
    } else if (sub) {
      children.push_back(std::move(sub));
    } else {
      throw std::invalid_argument("SystemModel: block '" + block.name +
                                  "' contributes nothing");
    }
  }
  return rbd::RbdNode::series(diagram.name, std::move(children));
}

/// The one walk that turns the diagram hierarchy into the serial RBD,
/// shared by the steady-state build and the per-query transient,
/// reliability and override trees: each block's own-chain leaf comes from
/// `leaf`, indexed like the solved block table.
rbd::RbdNodePtr compose_tree(const spec::ModelSpec& model,
                             const LeafFactory& leaf) {
  std::size_t cursor = 0;
  return compose_diagram(model, model.root(), leaf, cursor);
}

/// Steady-state RBD over the solved block table.
rbd::RbdNodePtr steady_tree(const spec::ModelSpec& model,
                            const std::vector<SystemModel::BlockEntry>& blocks) {
  return compose_tree(model, [&blocks](std::size_t i,
                                       const spec::BlockSpec& block) {
    return rbd::RbdNode::leaf(block.name, blocks.at(i).availability);
  });
}

// Curve-kind discriminants for the sampled-curve memo key. A curve is a
// pure function of the generated chain, so the chain signature (without
// the solver words) plus these fully determines the sampled values.
constexpr std::uint64_t kCurveAvailability = 1;
constexpr std::uint64_t kCurveReliability = 2;

cache::Signature curve_key(const cache::Signature& block_sig,
                           std::uint64_t kind, double horizon,
                           std::size_t steps) {
  cache::Signature key = block_sig;
  key.append_word(kind);
  key.append_double(horizon);
  key.append_word(steps);
  return key;
}

/// One block's curve of `kind` on `steps` segments over (0, horizon): the
/// point availability of its chain, or the survival of its absorbing
/// variant.
linalg::Vector sample_curve(const SystemModel::BlockEntry& b,
                            std::uint64_t kind, double horizon,
                            std::size_t steps) {
  if (kind == kCurveAvailability) {
    const linalg::Vector pi0 = markov::point_mass(*b.chain, b.initial);
    return markov::reward_curve(*b.chain, pi0, horizon, steps);
  }
  const markov::Ctmc rel = markov::make_down_states_absorbing(*b.chain);
  if (rel.down_states().empty()) {
    // Block cannot fail; survival is identically 1.
    return linalg::Vector(steps + 1, 1.0);
  }
  const linalg::Vector pi0 = markov::point_mass(rel, b.initial);
  // Survival = probability mass on transient states; reward 1 on up
  // transient states equals survival because absorbed states are down.
  return markov::reward_curve(rel, pi0, horizon, steps);
}

/// Memoized sampling of one block curve: consult `cache` (may be null),
/// otherwise sample it and insert the result. `stop` bounds a wait on
/// another caller's sampling of the same curve.
std::shared_ptr<const linalg::Vector> sample_curve_cached(
    const SystemModel::BlockEntry& block, std::uint64_t kind, double horizon,
    std::size_t steps, cache::SolveCache* cache,
    const robust::CancelToken& stop) {
  obs::Span span("curve.sample");
  const auto sample = [&] {
    return std::make_shared<const linalg::Vector>(
        sample_curve(block, kind, horizon, steps));
  };
  if (!cache) {
    if (span.active()) {
      span.set_detail(block.diagram + "/" + block.block.name + " sampled");
    }
    return sample();
  }
  auto found = cache->get_or_fill_curve(
      curve_key(block.signature, kind, horizon, steps), std::cref(sample),
      stop);
  if (span.active()) {
    span.set_detail(block.diagram + "/" + block.block.name +
                    (found.filled ? " sampled" : " hit"));
  }
  return std::move(found.value);
}

/// Per-query transient RBD: every block's `kind` curve, sampled in
/// parallel by block index, becomes its leaf's point-availability
/// (kCurveAvailability) or reliability function.
rbd::RbdNodePtr curve_tree(const SystemModel& sm, std::uint64_t kind,
                           double horizon, std::size_t steps) {
  const auto& blocks = sm.blocks();
  const SystemModel::Options& opts = sm.options();
  std::vector<std::shared_ptr<const linalg::Vector>> curves(blocks.size());
  exec::parallel_for(
      blocks.size(),
      [&](std::size_t i) {
        curves[i] = sample_curve_cached(blocks[i], kind, horizon, steps,
                                        opts.cache, opts.parallel.cancel);
      },
      opts.parallel);
  return compose_tree(sm.spec(), [&](std::size_t i,
                                     const spec::BlockSpec& block) {
    const std::shared_ptr<const linalg::Vector>& curve = curves.at(i);
    if (kind == kCurveAvailability) {
      return rbd::RbdNode::leaf(block.name, curve->back(),
                                interpolate(curve, horizon));
    }
    return rbd::RbdNode::leaf(block.name, 1.0, nullptr,
                              interpolate(curve, horizon));
  });
}

}  // namespace

cache::Signature solver_signature(const resilience::ResilienceConfig& config) {
  cache::Signature s;
  s.append_double(config.base.tolerance);
  s.append_word(config.max_states);
  // The stop token is deliberately NOT keyed: it never changes the
  // accepted numbers, only whether the episode is allowed to finish.
  s.append_double(config.health.clamp_tolerance);
  s.append_double(config.health.residual_factor);
  return s;
}

SystemModel::BlockEntry solve_block_cached(
    const std::string& diagram, const spec::BlockSpec& block,
    const spec::GlobalParams& globals,
    const resilience::ResilienceConfig& config,
    const cache::Signature& solver_sig, cache::SolveCache* cache) {
  obs::Span solve_span("block.solve");
  SystemModel::BlockEntry entry;
  entry.diagram = diagram;
  entry.block = block;
  entry.type = classify(block);
  entry.signature = chain_signature(block, globals);

  const auto solve = [&] {
    GeneratedModel generated = [&] {
      obs::Span gen_span("mg.generate");
      if (gen_span.active()) gen_span.set_detail(diagram + "/" + block.name);
      return generate(block, globals);
    }();
    resilience::ResilientResult solved =
        resilience::solve_steady_state_resilient(generated.chain, config);
    cache::CachedBlockSolve value;
    value.initial = generated.initial;
    value.availability =
        markov::expected_reward(generated.chain, solved.result.pi);
    value.eq_failure_rate =
        markov::equivalent_failure_rate(generated.chain, solved.result.pi);
    value.chain =
        std::make_shared<const markov::Ctmc>(std::move(generated.chain));
    value.trace = std::move(solved.trace);
    value.trace.source = resilience::SolveSource::kFresh;  // the producer
    return value;
  };
  cache::SolveCache::Lookup<cache::CachedBlockSolve> found;
  if (cache) {
    cache::Signature key = entry.signature;
    key.append(solver_sig);
    // std::cref: the fill is wrapped by reference, so a hit allocates
    // nothing for the fill it does not run.
    found = cache->get_or_fill_block(key, std::cref(solve),
                                     config.base.cancel);
  } else {
    found = {solve(), true};
  }

  cache::CachedBlockSolve& value = found.value;
  entry.chain = std::move(value.chain);
  entry.initial = value.initial;
  entry.availability = value.availability;
  entry.yearly_downtime_min = yearly_downtime_minutes(value.availability);
  entry.eq_failure_rate = value.eq_failure_rate;
  entry.solve_trace = std::move(value.trace);
  entry.solve_trace.source = found.filled ? resilience::SolveSource::kFresh
                                          : resilience::SolveSource::kCacheHit;
  if (solve_span.active()) {
    solve_span.set_detail(diagram + "/" + block.name + " " +
                          to_string(entry.solve_trace.source));
  }
  return entry;
}

SystemModel SystemModel::build(spec::ModelSpec model, const Options& opts) {
  obs::Span build_span("system.build");
  if (obs::enabled()) {
    static obs::Counter& builds =
        obs::Registry::global().counter("system.builds");
    builds.inc();
  }
  spec::validate_or_throw(model);
  SystemModel sm;
  sm.spec_ = std::move(model);
  sm.opts_ = opts;

  const resilience::ResilienceConfig solve_config =
      resilience::config_from(opts.steady, opts.parallel.cancel);
  const cache::Signature solver_sig = solver_signature(solve_config);

  // Generate and solve every block chain in parallel. Entries are written
  // by visit index, so the block table — and each entry's SolveTrace —
  // is identical to the serial build's. Parameter-identical blocks share
  // one memo entry (and one Ctmc) through opts.cache.
  std::vector<std::pair<const spec::DiagramSpec*, const spec::BlockSpec*>>
      pending;
  collect_chain_blocks(sm.spec_, sm.spec_.root(), pending);
  if (build_span.active()) {
    build_span.set_detail("blocks=" + std::to_string(pending.size()));
  }
  sm.blocks_.resize(pending.size());
  exec::parallel_for(
      pending.size(),
      [&](std::size_t i) {
        sm.blocks_[i] = solve_block_cached(
            pending[i].first->name, *pending[i].second, sm.spec_.globals,
            solve_config, solver_sig, opts.cache);
      },
      opts.parallel);

  sm.root_ = steady_tree(sm.spec_, sm.blocks_);
  return sm;
}

double SystemModel::eq_failure_rate() const {
  double acc = 0.0;
  for (const auto& b : blocks_) acc += b.eq_failure_rate;
  return acc;
}

double SystemModel::mtbf_h() const {
  const double rate = eq_failure_rate();
  return rate > 0.0 ? 1.0 / rate : 0.0;
}

double SystemModel::interval_availability(double horizon) const {
  obs::Span span("system.interval_availability");
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "SystemModel::interval_availability: horizon must be positive");
  }
  return curve_tree(*this, kCurveAvailability, horizon, opts_.curve_steps)
      ->interval_availability(horizon, opts_.curve_steps);
}

double SystemModel::reliability(double horizon) const {
  obs::Span span("system.reliability");
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "SystemModel::reliability: horizon must be positive");
  }
  return curve_tree(*this, kCurveReliability, horizon, opts_.curve_steps)
      ->reliability(horizon);
}

double SystemModel::mttf_numeric_h(double horizon) const {
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(
        "SystemModel::mttf_numeric_h: horizon must be positive");
  }
  const std::size_t steps = std::max<std::size_t>(opts_.curve_steps, 1024);
  return curve_tree(*this, kCurveReliability, horizon, steps)
      ->mttf_numeric(horizon, steps);
}

double SystemModel::availability_with_override(const std::string& diagram,
                                               const std::string& block,
                                               double value) const {
  if (value < 0.0 || value > 1.0) {
    throw std::invalid_argument(
        "availability_with_override: value outside [0, 1]");
  }
  bool found = false;
  const rbd::RbdNodePtr tree = compose_tree(
      spec_, [&](std::size_t i, const spec::BlockSpec& blk) {
        const BlockEntry& entry = blocks_.at(i);
        const bool target =
            entry.diagram == diagram && entry.block.name == block;
        found = found || target;
        return rbd::RbdNode::leaf(blk.name,
                                  target ? value : entry.availability);
      });
  if (!found) {
    throw std::invalid_argument("availability_with_override: no block '" +
                                block + "' in diagram '" + diagram + "'");
  }
  return tree->availability();
}

std::size_t SystemModel::total_states() const {
  std::size_t acc = 0;
  for (const auto& b : blocks_) acc += b.chain->size();
  return acc;
}

std::size_t SystemModel::total_transitions() const {
  std::size_t acc = 0;
  for (const auto& b : blocks_) acc += b.chain->transition_count();
  return acc;
}

}  // namespace rascad::mg

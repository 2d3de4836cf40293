//! The morphing controller — the paper's third differentiator: the
//! "intelligence to automatically interleave and cascade the optimizations,
//! depending on the dimension of a specific CNN layer and available
//! resources".
//!
//! At each network position the controller:
//!
//! 1. enumerates candidate fusion depths (cascading) and, for each, a menu
//!    of morph configurations (tiling × parallelism × loop order × codecs ×
//!    buffering — the interleaving);
//! 2. discards candidates whose working set does not fit the scratchpad
//!    (available resources);
//! 3. scores the survivors with the analytical planner, in parallel;
//! 4. picks the best under the configured [`Objective`].
//!
//! Prior-art accelerators are modelled as [`Policy`] variants that lock the
//! search to a single optimization — the inflexibility the abstract
//! contrasts MOCHA against.

use crate::cache::{est_bits, CachedValue, DecisionKey, DecisionShard};
use crate::exec::default_morph;
use crate::fusion::{can_extend, MAX_GROUP_DEPTH};
use crate::morph::{CompressionChoice, LoopOrder, MorphConfig, Objective, Parallelism, Tiling};
use crate::plan::{plan_group, plan_layer, LayerPlan, PlanContext, SparsityEstimate};
use crate::tiling::reduction_depth;
use mocha_compress::Codec;
use mocha_fabric::Buffering;
use mocha_model::layer::{Layer, LayerKind};

/// Accelerator policy: MOCHA's full search, its no-compression ablation, or
/// a prior-art fixed-optimization design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Full morphable search (the paper's contribution).
    Mocha {
        /// Objective to minimize.
        objective: Objective,
    },
    /// MOCHA with compression disabled — isolates the morphing gains.
    MochaNoCompression {
        /// Objective to minimize.
        objective: Objective,
    },
    /// Prior art that exploits locality through *tiling only*: per-layer
    /// tile-shape search, fixed inter-fmap mapping, no fusion, no codecs.
    TilingOnly,
    /// Prior art that exploits locality through *layer merging only*:
    /// always fuses as deep as legal, fixed tile ladder, no codecs.
    FusionOnly,
    /// Prior art that exploits *intra/inter feature-map parallelism only*:
    /// per-layer parallelism choice, fixed tile ladder, no fusion/codecs.
    ParallelismOnly,
}

impl Policy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Mocha { .. } => "mocha",
            Policy::MochaNoCompression { .. } => "mocha-nc",
            Policy::TilingOnly => "tiling",
            Policy::FusionOnly => "fusion",
            Policy::ParallelismOnly => "parallel",
        }
    }
}

/// The controller's decision at one network position.
#[derive(Debug, Clone)]
pub struct Decision {
    /// How many layers the next group covers (1 = no fusion).
    pub group_len: usize,
    /// The chosen configuration.
    pub morph: MorphConfig,
    /// The winning plan.
    pub plan: LayerPlan,
    /// Candidates scored (diagnostics; 1 for fixed policies that don't
    /// search).
    pub candidates: usize,
}

/// Scalar score of a plan under an objective (lower is better).
pub fn score(plan: &LayerPlan, objective: Objective) -> f64 {
    match objective {
        Objective::Throughput => plan.cycles as f64,
        Objective::Energy => plan.energy_pj,
        Objective::Edp => plan.edp(),
        Objective::Storage => plan.spm_peak as f64,
    }
}

/// Combines group scores along the network: additive for time/energy,
/// maximum for storage (the scratchpad is reused between groups).
fn combine(a: f64, b: f64, objective: Objective) -> f64 {
    match objective {
        Objective::Storage => a.max(b),
        _ => a + b,
    }
}

/// Tile-shape menu for a (group-final) layer. Shapes exceeding the layer
/// clamp to it, so the menu always contains usable entries; duplicates after
/// clamping are removed.
fn tiling_menu(layer: &Layer) -> Vec<Tiling> {
    let out = layer.output();
    let depth = reduction_depth(layer);
    // Weight-stationary execution pins a `tile_oc × depth × k²` kernel
    // block; very deep layers (VGG's fc6 reduces over 25088 inputs) need an
    // output-channel tile small enough for that block to fit on-chip at all.
    let kk = match layer.kind {
        LayerKind::Conv { k, .. } | LayerKind::DwConv { k, .. } => k * k,
        _ => 1,
    };
    let safe_oc = (16 * 1024 / (depth * kk).max(1)).max(1);
    let mut menu = Vec::new();
    for oc in [8usize, 32, 128, safe_oc] {
        for (oh, ow) in [(8usize, 8usize), (16, 16), (32, 32)] {
            for ic in [64usize, 512, depth] {
                menu.push(
                    Tiling {
                        tile_oc: oc,
                        tile_oh: oh,
                        tile_ow: ow,
                        tile_ic: ic,
                    }
                    .clamp(out.c, out.h, out.w, depth),
                );
            }
        }
    }
    menu.push(Tiling::whole(out.c, out.h, out.w, depth));
    menu.sort_by_key(|t| (t.tile_oc, t.tile_oh, t.tile_ow, t.tile_ic));
    menu.dedup();
    menu
}

/// Parallelism menu.
fn parallelism_menu() -> Vec<Parallelism> {
    vec![
        Parallelism::InterFmap,
        Parallelism::IntraFmap,
        Parallelism::Hybrid { fmap_groups: 2 },
        Parallelism::Hybrid { fmap_groups: 8 },
    ]
}

/// Codec menu under a policy, respecting the fabric's codec stations.
fn codec_menu(policy: Policy, has_codecs: bool) -> Vec<CompressionChoice> {
    let compression_allowed = has_codecs && matches!(policy, Policy::Mocha { .. });
    if !compression_allowed {
        return vec![CompressionChoice::OFF];
    }
    vec![
        CompressionChoice::OFF,
        CompressionChoice::ON,
        CompressionChoice {
            ifmap: Codec::Zrle,
            kernel: Codec::Bitmask,
            ofmap: Codec::None,
        },
        CompressionChoice {
            ifmap: Codec::None,
            kernel: Codec::Bitmask,
            ofmap: Codec::None,
        },
        CompressionChoice {
            ifmap: Codec::Zrle,
            kernel: Codec::None,
            ofmap: Codec::Zrle,
        },
        CompressionChoice {
            ifmap: Codec::Nibble,
            kernel: Codec::Bitmask,
            ofmap: Codec::None,
        },
        CompressionChoice {
            ifmap: Codec::Nibble,
            kernel: Codec::Bitmask,
            ofmap: Codec::Nibble,
        },
    ]
}

/// All morph candidates for a group ending in `last` under `policy`.
/// Public for the DSE module ([`crate::dse`]), which explores the same
/// space the controller searches.
pub fn candidate_configs(
    policy: Policy,
    last: &Layer,
    fused: bool,
    has_codecs: bool,
) -> Vec<MorphConfig> {
    let tilings = tiling_menu(last);
    let codecs = codec_menu(policy, has_codecs);
    match policy {
        Policy::Mocha { .. } | Policy::MochaNoCompression { .. } => {
            let mut out = Vec::new();
            // Fused groups pin whole kernels and traverse spatially; the loop
            // order degree of freedom only applies to singletons.
            let orders = if fused {
                vec![LoopOrder::WeightStationary]
            } else {
                vec![LoopOrder::WeightStationary, LoopOrder::InputStationary]
            };
            for &tiling in &tilings {
                for &parallelism in &parallelism_menu() {
                    for &loop_order in &orders {
                        for &compression in &codecs {
                            for buffering in [Buffering::Double, Buffering::Single] {
                                out.push(MorphConfig {
                                    tiling,
                                    parallelism,
                                    loop_order,
                                    compression,
                                    buffering,
                                });
                            }
                        }
                    }
                }
            }
            out
        }
        Policy::TilingOnly => tilings
            .iter()
            .map(|&tiling| MorphConfig {
                tiling,
                parallelism: Parallelism::InterFmap,
                loop_order: LoopOrder::WeightStationary,
                compression: CompressionChoice::OFF,
                buffering: Buffering::Double,
            })
            .collect(),
        Policy::FusionOnly => fallback_ladder(last),
        Policy::ParallelismOnly => parallelism_menu()
            .into_iter()
            .flat_map(|parallelism| {
                fallback_ladder(last)
                    .into_iter()
                    .map(move |m| MorphConfig { parallelism, ..m })
            })
            .collect(),
    }
}

/// A fixed feasibility ladder of generic configurations: the default morph
/// followed by progressively smaller tiles. Fixed-function designs don't
/// search — they take the first rung that fits.
fn fallback_ladder(layer: &Layer) -> Vec<MorphConfig> {
    let base = default_morph(layer);
    let mut ladder = vec![base];
    for shrink in [2usize, 4, 8, 16] {
        ladder.push(MorphConfig {
            tiling: Tiling {
                tile_oc: (base.tiling.tile_oc / shrink).max(1),
                tile_oh: (base.tiling.tile_oh / shrink).max(1),
                tile_ow: (base.tiling.tile_ow / shrink).max(1),
                tile_ic: (base.tiling.tile_ic / shrink).max(1),
            },
            ..base
        });
    }
    ladder
}

/// Plans a group of `layers[0..len]` under one morph config.
fn plan_for(
    ctx: &PlanContext<'_>,
    layers: &[Layer],
    len: usize,
    morph: &MorphConfig,
    est: &SparsityEstimate,
    store_output: bool,
) -> Result<LayerPlan, mocha_fabric::CapacityError> {
    if len == 1 {
        plan_layer(ctx, &layers[0], morph, est, store_output)
    } else {
        plan_group(ctx, &layers[..len], morph, est, store_output)
    }
}

/// What every group search of one decision shares.
struct Search<'a, 'c> {
    ctx: &'a PlanContext<'c>,
    policy: Policy,
    objective: Objective,
    store_output: bool,
}

/// Searches the best (config, plan) for a group of the first `len` layers,
/// consulting the morph-decision cache shard first. Returns `None` when no
/// candidate fits the fabric — which is itself a memoizable result.
fn search_group(
    search: &Search<'_, '_>,
    layers: &[Layer],
    len: usize,
    est: &SparsityEstimate,
    shard: &mut DecisionShard<'_>,
) -> Option<(MorphConfig, LayerPlan, usize)> {
    if !shard.enabled() {
        return search_group_fresh(search, layers, len, est);
    }
    let key = DecisionKey::group(
        search.ctx.fabric,
        search.policy,
        search.objective,
        layers,
        len,
        est,
        search.store_output,
    );
    let bits = est_bits(est);
    match shard.get(&key, &bits) {
        Some(CachedValue::Group(g)) => return g,
        Some(CachedValue::Decide(_)) => unreachable!("Group key resolved to a Decide value"),
        None => {}
    }
    let g = search_group_fresh(search, layers, len, est);
    shard.insert(key, bits, CachedValue::Group(g));
    g
}

/// The uncached group search.
fn search_group_fresh(
    search: &Search<'_, '_>,
    layers: &[Layer],
    len: usize,
    est: &SparsityEstimate,
) -> Option<(MorphConfig, LayerPlan, usize)> {
    let Search {
        ctx,
        policy,
        objective,
        store_output,
    } = *search;
    let cands = candidate_configs(policy, &layers[len - 1], len > 1, ctx.fabric.has_codecs());
    if policy == Policy::FusionOnly {
        // Fixed-function: first feasible rung of the ladder.
        for (i, morph) in cands.iter().enumerate() {
            if let Ok(plan) = plan_for(ctx, layers, len, morph, est, store_output) {
                return Some((*morph, plan, i + 1));
            }
        }
        return None;
    }
    let n = cands.len();
    // Scored on the process-default engine; the min_by below keys on the
    // canonical candidate index, so the winner is worker-count independent.
    let best = mocha_engine::Engine::configured()
        .map_vec(cands, |i, morph| {
            plan_for(ctx, layers, len, &morph, est, store_output)
                .ok()
                .map(|plan| (i, morph, plan))
        })
        .into_iter()
        .flatten()
        .min_by(|(ia, _, pa), (ib, _, pb)| {
            score(pa, objective)
                .total_cmp(&score(pb, objective))
                .then(ia.cmp(ib)) // deterministic tiebreak
        })?;
    Some((best.1, best.2, n))
}

/// Propagates sparsity statistics through one layer, for estimating the
/// inputs of downstream layers the controller has not seen yet. ReLU layers
/// produce ~half zeros on symmetric data; pooling mostly preserves the
/// input's statistics (max-pool densifies, so we damp the estimate).
pub fn propagate_estimate(layer: &Layer, est: &SparsityEstimate) -> SparsityEstimate {
    let (ofmap_sparsity, ofmap_mean_run) = match layer.kind {
        LayerKind::Conv { relu, .. }
        | LayerKind::Fc { relu, .. }
        | LayerKind::DwConv { relu, .. }
        | LayerKind::Pointwise { relu, .. } => {
            if relu {
                (0.5, 2.0)
            } else {
                (0.1, 1.0)
            }
        }
        LayerKind::Pool {
            kind: mocha_model::PoolKind::Max,
            ..
        } => (
            (est.ifmap_sparsity - 0.3).max(0.0),
            (est.ifmap_mean_run / 2.0).max(1.0),
        ),
        LayerKind::Pool { .. } => (est.ifmap_sparsity, est.ifmap_mean_run),
    };
    SparsityEstimate {
        ifmap_sparsity: ofmap_sparsity,
        ifmap_mean_run: ofmap_mean_run,
        kernel_sparsity: est.kernel_sparsity,
        ofmap_sparsity: 0.5,
        ofmap_mean_run: 2.0,
    }
}

/// Maximum legal fusion depth at the head of `layers`.
fn max_depth(layers: &[Layer]) -> usize {
    if !layers[0].has_weights() || matches!(layers[0].kind, LayerKind::Fc { .. }) {
        return 1;
    }
    let mut depth = 1;
    while depth < layers.len().min(MAX_GROUP_DEPTH)
        && can_extend(depth, &layers[depth - 1], &layers[depth])
    {
        depth += 1;
    }
    depth
}

/// [`decide`] restricted to a resource lease: the search runs on the
/// sub-fabric the lease carves out of `ctx.fabric`, so the chosen plan can
/// never use more PEs, scratchpad banks or memory-path bandwidth than the
/// lease grants. This is how the multi-tenant runtime maps each admitted
/// job onto its slice of the machine.
///
/// # Panics
/// Panics if the lease is invalid for `ctx.fabric`, plus everything
/// [`decide`] panics on.
pub fn decide_with_lease(
    ctx: &PlanContext<'_>,
    lease: &mocha_fabric::FabricPartition,
    policy: Policy,
    layers: &[Layer],
    est: &SparsityEstimate,
    store_output: bool,
) -> Decision {
    decide_with_lease_cached(
        ctx,
        lease,
        policy,
        layers,
        est,
        store_output,
        &mut DecisionShard::disabled(),
    )
}

/// [`decide_with_lease`] consulting a morph-decision cache shard. The cache
/// key is built from the lease's *sub-fabric* — which is offset-free — so
/// permuted-but-equivalent lease rectangles share cached decisions.
pub fn decide_with_lease_cached(
    ctx: &PlanContext<'_>,
    lease: &mocha_fabric::FabricPartition,
    policy: Policy,
    layers: &[Layer],
    est: &SparsityEstimate,
    store_output: bool,
    shard: &mut DecisionShard<'_>,
) -> Decision {
    lease
        .validate(ctx.fabric)
        .unwrap_or_else(|e| panic!("invalid lease: {e}"));
    let sub = lease.sub_config(ctx.fabric);
    let sub_ctx = PlanContext {
        fabric: &sub,
        codec_costs: ctx.codec_costs,
        energy: ctx.energy,
    };
    decide_cached(&sub_ctx, policy, layers, est, store_output, shard)
}

/// Decides the next group (fusion depth + morph config) at the head of
/// `layers`.
///
/// `est` describes the *live* input tensor (the simulator measures it);
/// deeper alternatives are compared against chains of singleton decisions
/// using propagated estimates.
///
/// # Panics
/// Panics if `layers` is empty or no candidate configuration fits the
/// fabric at all (the fallback ladders make this unreachable for any layer
/// whose single output element fits on-chip).
pub fn decide(
    ctx: &PlanContext<'_>,
    policy: Policy,
    layers: &[Layer],
    est: &SparsityEstimate,
    store_output: bool,
) -> Decision {
    decide_cached(
        ctx,
        policy,
        layers,
        est,
        store_output,
        &mut DecisionShard::disabled(),
    )
}

/// [`decide`] consulting a morph-decision cache shard: the whole decision
/// is memoized under a [`DecisionKey`], and on a miss each inner group
/// search is memoized too, so partial work is reused across fusion-depth
/// comparisons and across calls. With a disabled shard this is exactly the
/// pre-cache controller.
pub fn decide_cached(
    ctx: &PlanContext<'_>,
    policy: Policy,
    layers: &[Layer],
    est: &SparsityEstimate,
    store_output: bool,
    shard: &mut DecisionShard<'_>,
) -> Decision {
    assert!(!layers.is_empty());
    let objective = match policy {
        Policy::Mocha { objective } | Policy::MochaNoCompression { objective } => objective,
        _ => Objective::Edp,
    };
    let search = Search {
        ctx,
        policy,
        objective,
        store_output,
    };
    if !shard.enabled() {
        return decide_searched(&search, layers, est, shard);
    }
    let key = DecisionKey::decide(ctx.fabric, policy, objective, layers, est, store_output);
    let bits = est_bits(est);
    match shard.get(&key, &bits) {
        Some(CachedValue::Decide(d)) => return d,
        Some(CachedValue::Group(_)) => unreachable!("Decide key resolved to a Group value"),
        None => {}
    }
    let d = decide_searched(&search, layers, est, shard);
    shard.insert(key, bits, CachedValue::Decide(d.clone()));
    d
}

/// The fusion-depth search behind [`decide`], group-level memoization
/// included.
fn decide_searched(
    search: &Search<'_, '_>,
    layers: &[Layer],
    est: &SparsityEstimate,
    shard: &mut DecisionShard<'_>,
) -> Decision {
    let (policy, objective) = (search.policy, search.objective);
    let fusion_allowed = matches!(
        policy,
        Policy::Mocha { .. } | Policy::MochaNoCompression { .. } | Policy::FusionOnly
    );
    let deepest = if fusion_allowed { max_depth(layers) } else { 1 };

    if policy == Policy::FusionOnly {
        // Fixed-function fusion engine: the deepest legal group whose
        // working set fits — big kernels (e.g. AlexNet conv2's 614 KB) can
        // make deep groups infeasible at any tile size, since fused groups
        // pin member kernels whole.
        for d in (1..=deepest).rev() {
            if let Some((morph, plan, candidates)) = search_group(search, layers, d, est, shard) {
                return Decision {
                    group_len: d,
                    morph,
                    plan,
                    candidates,
                };
            }
        }
        panic!("no feasible configuration for layer {}", layers[0].name);
    }

    // Baseline: chain of singleton scores for the first `d` layers, used to
    // judge whether fusing `d` layers beats running them separately.
    let mut best: Option<(usize, MorphConfig, LayerPlan, usize, f64)> = None;
    let mut singleton_chain_score = 0.0f64;
    let mut chain_est = *est;
    let mut total_candidates = 0usize;
    for d in 1..=deepest {
        // Extend the singleton chain by layer d-1.
        let single = search_group(search, &layers[d - 1..], 1, &chain_est, shard);
        if let Some((m, p, c)) = &single {
            total_candidates += c;
            singleton_chain_score = if d == 1 {
                score(p, objective)
            } else {
                combine(singleton_chain_score, score(p, objective), objective)
            };
            if d == 1 {
                best = Some((1, *m, *p, *c, singleton_chain_score));
            }
        } else if d == 1 {
            panic!("no feasible configuration for layer {}", layers[0].name);
        }
        chain_est = propagate_estimate(&layers[d - 1], &chain_est);

        if d > 1 {
            if let Some((m, p, c)) = search_group(search, layers, d, est, shard) {
                total_candidates += c;
                let s = score(&p, objective);
                if s < singleton_chain_score && best.as_ref().map(|b| s < b.4).unwrap_or(true) {
                    best = Some((d, m, p, c, s));
                }
            }
        }
    }

    let (group_len, morph, plan, _, _) = best.expect("no feasible configuration");
    Decision {
        group_len,
        morph,
        plan,
        candidates: total_candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_compress::CodecCostTable;
    use mocha_energy::EnergyTable;
    use mocha_fabric::FabricConfig;
    use mocha_model::network;

    fn contexts() -> (FabricConfig, CodecCostTable, EnergyTable) {
        (
            FabricConfig::mocha(),
            CodecCostTable::default(),
            EnergyTable::default(),
        )
    }

    fn nominal_est() -> SparsityEstimate {
        SparsityEstimate {
            ifmap_sparsity: 0.6,
            ifmap_mean_run: 3.0,
            kernel_sparsity: 0.3,
            ofmap_sparsity: 0.5,
            ofmap_mean_run: 2.0,
        }
    }

    #[test]
    fn tiling_menu_is_deduped_and_clamped() {
        let net = network::tiny();
        let menu = tiling_menu(&net.layers()[0]); // out 16x32x32, depth 3
        for t in &menu {
            assert!(t.tile_oc <= 16 && t.tile_oh <= 32 && t.tile_ow <= 32 && t.tile_ic <= 3);
        }
        let mut sorted = menu.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), menu.len(), "menu has duplicates");
    }

    #[test]
    fn mocha_decides_feasible_configs_for_every_tiny_layer() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let mut i = 0;
        while i < net.len() {
            let d = decide(
                &ctx,
                Policy::Mocha {
                    objective: Objective::Edp,
                },
                &net.layers()[i..],
                &nominal_est(),
                true,
            );
            assert!(d.group_len >= 1);
            assert!(d.plan.spm_peak <= fabric.spm_bytes());
            assert!(
                d.candidates > 10,
                "mocha should search broadly, got {}",
                d.candidates
            );
            i += d.group_len;
        }
    }

    #[test]
    fn baseline_policies_never_compress() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        for policy in [
            Policy::TilingOnly,
            Policy::FusionOnly,
            Policy::ParallelismOnly,
        ] {
            let d = decide(&ctx, policy, net.layers(), &nominal_est(), true);
            assert!(!d.morph.compression.any(), "{} compressed", policy.name());
        }
    }

    #[test]
    fn mocha_no_compression_ablation_never_compresses() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let d = decide(
            &ctx,
            Policy::MochaNoCompression {
                objective: Objective::Edp,
            },
            net.layers(),
            &nominal_est(),
            true,
        );
        assert!(!d.morph.compression.any());
    }

    #[test]
    fn codecless_fabric_forces_compression_off() {
        let (_, costs, energy) = contexts();
        let fabric = FabricConfig::baseline();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let d = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Edp,
            },
            net.layers(),
            &nominal_est(),
            true,
        );
        assert!(!d.morph.compression.any());
    }

    #[test]
    fn tiling_only_never_fuses() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let d = decide(&ctx, Policy::TilingOnly, net.layers(), &nominal_est(), true);
        assert_eq!(d.group_len, 1);
    }

    #[test]
    fn fusion_only_always_fuses_when_legal() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        // tiny starts conv1, pool1, conv2 — deepest legal group is 3.
        let d = decide(&ctx, Policy::FusionOnly, net.layers(), &nominal_est(), true);
        assert_eq!(d.group_len, 3);
    }

    #[test]
    fn fc_layers_never_fuse() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        // Position of fc4 in tiny is index 5.
        let d = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Edp,
            },
            &net.layers()[5..],
            &nominal_est(),
            true,
        );
        assert_eq!(d.group_len, 1);
    }

    #[test]
    fn objectives_change_the_winner() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let layers = &net.layers()[..1];
        let throughput = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Throughput,
            },
            layers,
            &nominal_est(),
            true,
        );
        let storage = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Storage,
            },
            layers,
            &nominal_est(),
            true,
        );
        // The storage-optimal plan must not take more scratchpad than the
        // throughput-optimal one, and typically takes (much) less.
        assert!(storage.plan.spm_peak <= throughput.plan.spm_peak);
        // The throughput-optimal plan must be at least as fast.
        assert!(throughput.plan.cycles <= storage.plan.cycles);
    }

    #[test]
    fn every_policy_is_feasible_on_hard_vgg16_positions() {
        // VGG-16's fc6 reduces over 25088 inputs: a pinned kernel block at
        // the menu's smallest generic tile_oc would exceed the scratchpad,
        // so the safe_oc menu entry must keep every policy feasible. Only
        // the hardest positions are checked here (the full walk lives in
        // the release-mode experiment suite): the deepest conv block and
        // the three fc layers.
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = mocha_model::network::vgg16();
        let fc6 = net.layers().iter().position(|l| l.name == "fc6").unwrap();
        let conv5 = net
            .layers()
            .iter()
            .position(|l| l.name == "conv5_1")
            .unwrap();
        for policy in [
            Policy::Mocha {
                objective: Objective::Edp,
            },
            Policy::TilingOnly,
            Policy::FusionOnly,
            Policy::ParallelismOnly,
        ] {
            for start in [conv5, fc6, fc6 + 1, fc6 + 2] {
                let d = decide(&ctx, policy, &net.layers()[start..], &nominal_est(), true);
                assert!(d.group_len >= 1);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let a = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Edp,
            },
            net.layers(),
            &nominal_est(),
            true,
        );
        let b = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Edp,
            },
            net.layers(),
            &nominal_est(),
            true,
        );
        assert_eq!(a.morph, b.morph);
        assert_eq!(a.group_len, b.group_len);
        assert_eq!(a.plan.cycles, b.plan.cycles);
    }

    #[test]
    fn sparse_input_turns_compression_on_dense_turns_it_off() {
        let (fabric, costs, energy) = contexts();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::single_conv(32, 32, 32, 32, 3, 1, 1);
        let sparse = SparsityEstimate {
            ifmap_sparsity: 0.85,
            ifmap_mean_run: 6.0,
            kernel_sparsity: 0.6,
            ofmap_sparsity: 0.6,
            ofmap_mean_run: 3.0,
        };
        let d_sparse = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Energy,
            },
            net.layers(),
            &sparse,
            true,
        );
        assert!(
            d_sparse.morph.compression.any(),
            "sparse input should enable codecs"
        );

        let dense = SparsityEstimate {
            ifmap_sparsity: 0.02,
            ifmap_mean_run: 1.0,
            kernel_sparsity: 0.02,
            ofmap_sparsity: 0.05,
            ofmap_mean_run: 1.0,
        };
        let d_dense = decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Energy,
            },
            net.layers(),
            &dense,
            true,
        );
        assert!(
            d_dense.morph.compression.ifmap == Codec::None,
            "dense input should not pay ZRLE inflation, chose {}",
            d_dense.morph.compression
        );
    }
}

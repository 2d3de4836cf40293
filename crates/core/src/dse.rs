//! Design-space exploration beyond single-objective decisions: Pareto
//! fronts over (cycles, energy, storage).
//!
//! The morphing controller answers "what is the best config for objective
//! X"; architects also ask "what does the *trade-off surface* look like" —
//! e.g. how much storage buys how much throughput on a given layer. This
//! module enumerates the same candidate space and returns the
//! non-dominated set, scored with the analytical planner in parallel.

use crate::controller::Policy;
use crate::morph::{MorphConfig, Objective};
use crate::plan::{plan_layer, LayerPlan, PlanContext, SparsityEstimate};
use mocha_engine::Engine;
use mocha_model::layer::Layer;

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The configuration.
    pub morph: MorphConfig,
    /// Its predicted plan.
    pub plan: LayerPlan,
}

impl DesignPoint {
    /// The three objective coordinates `(cycles, energy_pj, spm_peak)`.
    pub fn coords(&self) -> (u64, f64, usize) {
        (self.plan.cycles, self.plan.energy_pj, self.plan.spm_peak)
    }

    /// True if `self` dominates `other`: no worse on every coordinate and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let (c1, e1, s1) = self.coords();
        let (c2, e2, s2) = other.coords();
        let no_worse = c1 <= c2 && e1 <= e2 && s1 <= s2;
        let better = c1 < c2 || e1 < e2 || s1 < s2;
        no_worse && better
    }
}

/// Computes the Pareto front (non-dominated set) of `points`, sorted by
/// cycles ascending. Ties on all three coordinates keep the first point.
pub fn pareto_front(mut points: Vec<DesignPoint>) -> Vec<DesignPoint> {
    // Deterministic order first so duplicate-coordinate ties are stable.
    points.sort_by(|a, b| {
        a.plan
            .cycles
            .cmp(&b.plan.cycles)
            .then(a.plan.energy_pj.total_cmp(&b.plan.energy_pj))
            .then(a.plan.spm_peak.cmp(&b.plan.spm_peak))
    });
    let mut front: Vec<DesignPoint> = Vec::new();
    for p in points {
        if front
            .iter()
            .any(|f| f.dominates(&p) || f.coords() == p.coords())
        {
            continue;
        }
        front.retain(|f| !p.dominates(f));
        front.push(p);
    }
    front.sort_by_key(|p| p.plan.cycles);
    front
}

/// Enumerates the full MOCHA candidate space for a single layer and returns
/// its Pareto front over (cycles, energy, storage), scored on the
/// process-default [`Engine`] (see [`mocha_engine::set_default_threads`]).
pub fn explore_layer(
    ctx: &PlanContext<'_>,
    layer: &Layer,
    est: &SparsityEstimate,
    store_output: bool,
) -> Vec<DesignPoint> {
    explore_layer_on(&Engine::configured(), ctx, layer, est, store_output)
}

/// [`explore_layer`] with an explicit engine. Candidates are scored in
/// parallel but reduced in canonical enumeration order, so the front is
/// byte-identical for every worker count.
pub fn explore_layer_on(
    engine: &Engine,
    ctx: &PlanContext<'_>,
    layer: &Layer,
    est: &SparsityEstimate,
    store_output: bool,
) -> Vec<DesignPoint> {
    let candidates = crate::controller::candidate_configs(
        Policy::Mocha {
            objective: Objective::Edp,
        },
        layer,
        false,
        ctx.fabric.has_codecs(),
    );
    let points: Vec<DesignPoint> = engine
        .map_vec(candidates, |_, morph| {
            plan_layer(ctx, layer, &morph, est, store_output)
                .ok()
                .map(|plan| DesignPoint { morph, plan })
        })
        .into_iter()
        .flatten()
        .collect();
    pareto_front(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_compress::CodecCostTable;
    use mocha_energy::{EnergyTable, EventCounts};
    use mocha_fabric::FabricConfig;
    use mocha_model::network;

    const EST: SparsityEstimate = SparsityEstimate {
        ifmap_sparsity: 0.6,
        ifmap_mean_run: 3.0,
        kernel_sparsity: 0.3,
        ofmap_sparsity: 0.5,
        ofmap_mean_run: 2.0,
    };

    fn point(cycles: u64, energy: f64, spm: usize) -> DesignPoint {
        DesignPoint {
            morph: crate::exec::default_morph(&network::tiny().layers()[0]),
            plan: LayerPlan {
                cycles,
                events: EventCounts::default(),
                energy_pj: energy,
                spm_peak: spm,
                dram_bytes: 0,
                tiles: 1,
            },
        }
    }

    #[test]
    fn domination_is_strict() {
        let a = point(10, 10.0, 10);
        let b = point(10, 10.0, 10);
        assert!(!a.dominates(&b), "equal points must not dominate");
        let c = point(9, 10.0, 10);
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
        // Incomparable points.
        let d = point(5, 20.0, 10);
        assert!(!c.dominates(&d) && !d.dominates(&c));
    }

    #[test]
    fn pareto_front_filters_dominated_points() {
        let front = pareto_front(vec![
            point(10, 10.0, 10),
            point(5, 20.0, 10),  // trades cycles for energy: keeps
            point(11, 11.0, 11), // dominated by the first: drops
            point(20, 5.0, 30),  // trades energy: keeps
            point(10, 10.0, 10), // duplicate: drops
        ]);
        let coords: Vec<(u64, f64, usize)> = front.iter().map(DesignPoint::coords).collect();
        assert_eq!(coords, vec![(5, 20.0, 10), (10, 10.0, 10), (20, 5.0, 30)]);
    }

    #[test]
    fn front_of_single_point_is_itself() {
        let front = pareto_front(vec![point(1, 1.0, 1)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn front_of_chain_is_the_minimum() {
        // Strictly ordered chain: only the best survives.
        let front = pareto_front(vec![point(3, 3.0, 3), point(2, 2.0, 2), point(1, 1.0, 1)]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].coords(), (1, 1.0, 1));
    }

    #[test]
    fn explored_front_is_mutually_non_dominated_and_covers_objectives() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let energy = EnergyTable::default();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::tiny();
        let est = EST;
        let front = explore_layer(&ctx, &net.layers()[0], &est, true);
        assert!(
            front.len() >= 2,
            "trade-off surface should have >1 point, got {}",
            front.len()
        );
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "front contains dominated point");
                }
            }
        }
        // The single-objective controller's pick must not dominate the whole
        // front (it IS on the front for its own objective).
        let fastest = front.iter().map(|p| p.plan.cycles).min().unwrap();
        let d = crate::controller::decide(
            &ctx,
            Policy::Mocha {
                objective: Objective::Throughput,
            },
            &net.layers()[..1],
            &est,
            true,
        );
        assert_eq!(
            d.plan.cycles, fastest,
            "controller's throughput pick must match the front's fastest point"
        );
    }

    /// Candidates are scored in parallel but reduced in enumeration order,
    /// so every layer's front is identical — every coordinate bit and
    /// config — at any worker count.
    #[test]
    fn explored_fronts_are_identical_across_engine_widths() {
        let fabric = FabricConfig::mocha();
        let costs = CodecCostTable::default();
        let energy = EnergyTable::default();
        let ctx = PlanContext {
            fabric: &fabric,
            codec_costs: &costs,
            energy: &energy,
        };
        let net = network::lenet5();
        let fingerprint = |threads: usize| -> Vec<Vec<String>> {
            let engine = Engine::new(threads);
            net.layers()
                .iter()
                .map(|l| {
                    let front = explore_layer_on(&engine, &ctx, l, &EST, true);
                    front
                        .iter()
                        .map(|p| {
                            let (cycles, energy, spm) = p.coords();
                            format!("{cycles}|{}|{spm}|{}", energy.to_bits(), p.morph)
                        })
                        .collect()
                })
                .collect()
        };
        let base = fingerprint(1);
        assert!(base.iter().all(|front| !front.is_empty()));
        for threads in [2, 8] {
            assert_eq!(
                fingerprint(threads),
                base,
                "front differs at {threads} threads"
            );
        }
    }
}

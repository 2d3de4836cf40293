//! Cross-layer invariant: the tile walks agree with `model::accounting`'s
//! closed form on every singleton candidate the controller scores, under
//! every policy (MOCHA, its no-compression ablation and the three prior-art
//! designs).
//!
//! * Planned MACs, issued plus bitmask-skipped, equal the layer's MACs.
//! * Without compression, no plan or execution reads fewer DRAM bytes than
//!   the unique-touched floor (each in-bounds input once, plus the weights).
//! * Every execution's output equals the golden model's, so the tile
//!   kernel is checked over the controller's real tilings.
//!
//! Every candidate is planned on `tiny`, `lenet5`, `mobilenet` and
//! `alexnet`, and on the first three a stride of the uncompressed ones is
//! also executed. AlexNet is planned only: its golden forward pass and
//! layer executions take minutes in a debug build, and an uncompressed
//! execution's traffic equals its plan's (pinned by
//! `plan_equals_exec_exactly_when_uncompressed`). VGG-16 is planned by a
//! release-only test (`cargo test --release -p mocha-core --test
//! accounting_invariant -- --ignored`).

use mocha_compress::CodecCostTable;
use mocha_core::controller::{candidate_configs, Policy};
use mocha_core::exec::{execute_layer, ExecContext};
use mocha_core::plan::{plan_layer, PlanContext, SparsityEstimate};
use mocha_core::Objective;
use mocha_energy::EnergyTable;
use mocha_fabric::FabricConfig;
use mocha_model::gen::{SparsityProfile, Workload};
use mocha_model::{accounting, golden, network, Network};

const EST: SparsityEstimate = SparsityEstimate {
    ifmap_sparsity: 0.6,
    ifmap_mean_run: 3.0,
    kernel_sparsity: 0.3,
    ofmap_sparsity: 0.5,
    ofmap_mean_run: 2.0,
};

/// Every `EXEC_STRIDE`-th uncompressed candidate is also executed.
const EXEC_STRIDE: usize = 97;

/// Checks every singleton candidate of every policy on `nets` (`true` also
/// executes a stride of the uncompressed ones), on both presets, and
/// returns the plans and executions checked.
fn check_singletons(nets: Vec<(Network, bool)>) -> (usize, usize) {
    let costs = CodecCostTable::default();
    let energy = EnergyTable::default();
    let objective = Objective::Edp;
    let policies = [
        Policy::Mocha { objective },
        Policy::MochaNoCompression { objective },
        Policy::TilingOnly,
        Policy::FusionOnly,
        Policy::ParallelismOnly,
    ];
    let mut violations = Vec::new();
    let (mut plans, mut execs, mut uncompressed) = (0usize, 0usize, 0usize);
    for (net, execute) in nets {
        let w = Workload::generate(net, SparsityProfile::NOMINAL, 3);
        let golden_outs = if execute {
            golden::forward(&w)
        } else {
            Vec::new()
        };
        for fabric in [FabricConfig::mocha(), FabricConfig::mocha_quad()] {
            let pctx = PlanContext {
                fabric: &fabric,
                codec_costs: &costs,
                energy: &energy,
            };
            let ectx = ExecContext {
                fabric: &fabric,
                codec_costs: &costs,
            };
            for (i, layer) in w.network.layers().iter().enumerate() {
                let floor = accounting::layer(layer);
                let candidates = policies
                    .iter()
                    .flat_map(|&p| candidate_configs(p, layer, false, fabric.has_codecs()));
                for morph in candidates {
                    let Ok(plan) = plan_layer(&pctx, layer, &morph, &EST, true) else {
                        continue;
                    };
                    plans += 1;
                    let macs = plan.events.macs + plan.events.macs_skipped;
                    if macs != floor.macs {
                        violations.push(format!(
                            "{} {morph}: planned {macs} MACs, accounting {}",
                            layer.name, floor.macs
                        ));
                    }
                    if morph.compression.any() {
                        continue;
                    }
                    if plan.events.dram_read_bytes < floor.dram_read_bytes {
                        violations.push(format!(
                            "{} {morph}: planned {} DRAM read bytes < floor {}",
                            layer.name, plan.events.dram_read_bytes, floor.dram_read_bytes
                        ));
                    }
                    uncompressed += 1;
                    if !execute || uncompressed % EXEC_STRIDE != 0 {
                        continue;
                    }
                    execs += 1;
                    let input = if i == 0 {
                        &w.input
                    } else {
                        &golden_outs[i - 1]
                    };
                    let run =
                        execute_layer(&ectx, layer, input, w.kernels[i].as_ref(), &morph, true)
                            .expect("an uncompressed plan that fits executes");
                    if run.events.dram_read_bytes < floor.dram_read_bytes {
                        violations.push(format!(
                            "{} {morph}: executed {} DRAM read bytes < floor {}",
                            layer.name, run.events.dram_read_bytes, floor.dram_read_bytes
                        ));
                    }
                    if run.output != golden_outs[i] {
                        violations.push(format!(
                            "{} {morph}: executed output differs from the golden model",
                            layer.name
                        ));
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "{} of {plans} plans and {execs} executions break the invariant, e.g.\n{}",
        violations.len(),
        violations[..violations.len().min(10)].join("\n")
    );
    (plans, execs)
}

#[test]
fn singleton_walks_respect_the_accounting_floor() {
    let (plans, execs) = check_singletons(vec![
        (network::tiny(), true),
        (network::lenet5(), true),
        (network::mobilenet(), true),
        (network::alexnet(), false),
    ]);
    assert!(plans > 10_000 && execs > 50, "{plans} plans, {execs} execs");
}

/// VGG-16, planned only; too slow for a debug build.
#[test]
#[ignore]
fn vgg16_singleton_walks_respect_the_accounting_floor() {
    let (plans, _) = check_singletons(vec![(network::vgg16(), false)]);
    assert!(plans > 10_000, "{plans} plans");
}

//! Cross-layer invariant: the tile walks agree with `model::accounting`'s
//! closed form on every singleton candidate the MOCHA controller scores.
//!
//! * Planned MACs, issued plus bitmask-skipped, equal the layer's MACs.
//! * Without compression, no plan or execution reads fewer DRAM bytes than
//!   the unique-touched floor (each in-bounds input once, plus the weights).
//!
//! Every candidate is planned on `tiny`, `lenet5`, `mobilenet` and
//! `alexnet`, and on the first three a stride of the uncompressed ones is
//! also executed. AlexNet is planned only: its golden forward pass and
//! layer executions take minutes in a debug build, and an uncompressed
//! execution's traffic equals its plan's (pinned by
//! `plan_equals_exec_exactly_when_uncompressed`).

use mocha_compress::CodecCostTable;
use mocha_core::controller::{candidate_configs, Policy};
use mocha_core::exec::{execute_layer, ExecContext};
use mocha_core::plan::{plan_layer, PlanContext, SparsityEstimate};
use mocha_core::Objective;
use mocha_energy::EnergyTable;
use mocha_fabric::FabricConfig;
use mocha_model::gen::{SparsityProfile, Workload};
use mocha_model::{accounting, golden, network};

const EST: SparsityEstimate = SparsityEstimate {
    ifmap_sparsity: 0.6,
    ifmap_mean_run: 3.0,
    kernel_sparsity: 0.3,
    ofmap_sparsity: 0.5,
    ofmap_mean_run: 2.0,
};

/// Every `EXEC_STRIDE`-th uncompressed candidate is also executed.
const EXEC_STRIDE: usize = 97;

#[test]
fn singleton_walks_respect_the_accounting_floor() {
    let costs = CodecCostTable::default();
    let energy = EnergyTable::default();
    let policy = Policy::Mocha {
        objective: Objective::Edp,
    };
    let mut violations = Vec::new();
    let (mut plans, mut execs, mut uncompressed) = (0usize, 0usize, 0usize);
    for (net, execute) in [
        (network::tiny(), true),
        (network::lenet5(), true),
        (network::mobilenet(), true),
        (network::alexnet(), false),
    ] {
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
                for morph in candidate_configs(policy, layer, false, fabric.has_codecs()) {
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
                }
            }
        }
    }
    assert!(plans > 10_000 && execs > 50, "{plans} plans, {execs} execs");
    assert!(
        violations.is_empty(),
        "{} of {plans} plans and {execs} executions break the accounting floor, e.g.\n{}",
        violations.len(),
        violations[..violations.len().min(10)].join("\n")
    );
}

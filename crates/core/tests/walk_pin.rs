//! Pins the tile walks' results on the zoo, byte for byte.
//!
//! For `tiny`, `lenet5` and `mobilenet` on [`FabricConfig::mocha`] and
//! [`FabricConfig::mocha_quad`], every policy's candidate list is walked at
//! every network position and every legal group length. A fixed stride of
//! those candidates is planned (cycles, energy, scratchpad peak, DRAM bytes,
//! tiles and the event counts, f64s printed with `{:?}` so they are
//! bit-exact), and a coarser stride is executed on live tensors (an output
//! digest, cycles, events, scratchpad peak, compression stats and a digest
//! of the tile phases). The text must equal `baselines/walk-pin.txt`.
//!
//! On a mismatch the test writes the text it produced to
//! `target/tmp/walk-pin.txt`. Regenerate the baseline, from the repo root,
//! with:
//!
//! ```text
//! cargo test -p mocha-core --test walk_pin; cp target/tmp/walk-pin.txt baselines/walk-pin.txt
//! ```

use std::fmt::Write as _;

use mocha_compress::CodecCostTable;
use mocha_core::controller::{candidate_configs, Policy};
use mocha_core::exec::{execute_layer, ExecContext};
use mocha_core::fusion::{can_extend, execute_group, MAX_GROUP_DEPTH};
use mocha_core::plan::{plan_group, plan_layer, LayerPlan, PlanContext, SparsityEstimate};
use mocha_core::{LayerRun, MorphConfig, Objective};
use mocha_energy::EnergyTable;
use mocha_fabric::{CapacityError, FabricConfig};
use mocha_model::gen::{SparsityProfile, Workload};
use mocha_model::layer::{Layer, LayerKind};
use mocha_model::{golden, network, Kernel, Tensor};

/// Every `PLAN_STRIDE`-th enumerated candidate is planned.
const PLAN_STRIDE: usize = 61;
/// Every `EXEC_STRIDE`-th enumerated candidate is also executed.
const EXEC_STRIDE: usize = 503;

const EST: SparsityEstimate = SparsityEstimate {
    ifmap_sparsity: 0.6,
    ifmap_mean_run: 3.0,
    kernel_sparsity: 0.3,
    ofmap_sparsity: 0.5,
    ofmap_mean_run: 2.0,
};

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deepest legal group at the head of `layers` (1 when nothing fuses).
fn max_len(layers: &[Layer]) -> usize {
    if !layers[0].has_weights() || matches!(layers[0].kind, LayerKind::Fc { .. }) {
        return 1;
    }
    let mut len = 1;
    while len < layers.len().min(MAX_GROUP_DEPTH) && can_extend(len, &layers[len - 1], &layers[len])
    {
        len += 1;
    }
    len
}

fn fmt_plan(out: &mut String, plan: Result<LayerPlan, CapacityError>) {
    match plan {
        Ok(p) => writeln!(
            out,
            "plan cycles={} energy_pj={:?} spm={} dram={} tiles={} events={:?}",
            p.cycles, p.energy_pj, p.spm_peak, p.dram_bytes, p.tiles, p.events
        ),
        Err(e) => writeln!(out, "plan Err({e:?})"),
    }
    .unwrap();
}

fn fmt_run(out: &mut String, run: Result<LayerRun, CapacityError>) {
    match run {
        Ok(r) => writeln!(
            out,
            "exec output={:016x} cycles={} spm={} tiles={} phases={:016x} compression={:?} events={:?}",
            fnv(&r.output.data().iter().map(|&v| v as u8).collect::<Vec<_>>()),
            r.cycles,
            r.spm_peak,
            r.tiles,
            fnv(format!("{:?}", r.phases).as_bytes()),
            r.compression,
            r.events
        ),
        Err(e) => writeln!(out, "exec Err({e:?})"),
    }
    .unwrap();
}

fn plan_candidate(
    ctx: &PlanContext<'_>,
    layers: &[Layer],
    morph: &MorphConfig,
) -> Result<LayerPlan, CapacityError> {
    if layers.len() == 1 {
        plan_layer(ctx, &layers[0], morph, &EST, true)
    } else {
        plan_group(ctx, layers, morph, &EST, true)
    }
}

fn exec_candidate(
    ctx: &ExecContext<'_>,
    layers: &[Layer],
    input: &Tensor<i8>,
    kernels: &[Option<&Kernel>],
    morph: &MorphConfig,
) -> Result<LayerRun, CapacityError> {
    if layers.len() == 1 {
        execute_layer(ctx, &layers[0], input, kernels[0], morph, true)
    } else {
        execute_group(
            ctx.fabric,
            ctx.codec_costs,
            layers,
            input,
            kernels,
            morph,
            true,
        )
    }
}

fn walk_pin() -> String {
    let costs = CodecCostTable::default();
    let energy = EnergyTable::default();
    let policies = [
        Policy::Mocha {
            objective: Objective::Edp,
        },
        Policy::MochaNoCompression {
            objective: Objective::Edp,
        },
        Policy::TilingOnly,
        Policy::FusionOnly,
        Policy::ParallelismOnly,
    ];
    let mut out = String::new();
    let mut k = 0usize;
    for net in [network::tiny(), network::lenet5(), network::mobilenet()] {
        let w = Workload::generate(net, SparsityProfile::NOMINAL, 7);
        let golden_outs = golden::forward(&w);
        let layers = w.network.layers();
        for (fabric_name, fabric) in [
            ("mocha", FabricConfig::mocha()),
            ("quad", FabricConfig::mocha_quad()),
        ] {
            let pctx = PlanContext {
                fabric: &fabric,
                codec_costs: &costs,
                energy: &energy,
            };
            let ectx = ExecContext {
                fabric: &fabric,
                codec_costs: &costs,
            };
            for policy in policies {
                let fuses = matches!(
                    policy,
                    Policy::Mocha { .. } | Policy::MochaNoCompression { .. } | Policy::FusionOnly
                );
                for pos in 0..layers.len() {
                    let deepest = if fuses { max_len(&layers[pos..]) } else { 1 };
                    let input = if pos == 0 {
                        &w.input
                    } else {
                        &golden_outs[pos - 1]
                    };
                    for len in 1..=deepest {
                        let group = &layers[pos..pos + len];
                        let kernels: Vec<Option<&Kernel>> = w.kernels[pos..pos + len]
                            .iter()
                            .map(Option::as_ref)
                            .collect();
                        let cands = candidate_configs(
                            policy,
                            &group[len - 1],
                            len > 1,
                            fabric.has_codecs(),
                        );
                        for (ci, morph) in cands.iter().enumerate() {
                            let (plan, exec) = (k % PLAN_STRIDE == 0, k % EXEC_STRIDE == 0);
                            k += 1;
                            if !plan && !exec {
                                continue;
                            }
                            write!(
                                out,
                                "{} {fabric_name} {} @{pos}+{len} #{ci} {morph} ",
                                w.network.name,
                                policy.name()
                            )
                            .unwrap();
                            if plan {
                                fmt_plan(&mut out, plan_candidate(&pctx, group, morph));
                            }
                            if exec {
                                if plan {
                                    out.push_str("    ");
                                }
                                fmt_run(
                                    &mut out,
                                    exec_candidate(&ectx, group, input, &kernels, morph),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    writeln!(out, "candidates={k}").unwrap();
    out
}

#[test]
fn walk_results_match_the_committed_pin() {
    let actual = walk_pin();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/walk-pin.txt");
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    if actual != expected {
        let dump = concat!(env!("CARGO_TARGET_TMPDIR"), "/walk-pin.txt");
        std::fs::write(dump, &actual).unwrap();
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "walk results differ from baselines/walk-pin.txt at line {}; the actual text is in {dump}",
            line + 1
        );
    }
}

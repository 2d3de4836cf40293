//! Smoke versions of the headline experiments (T1/T2 shape checks) on the
//! fast `tiny` network — the full tables come from `mocha-sim repro`;
//! these tests pin the *directions* so regressions surface in CI.

use mocha::prelude::*;

fn reports(profile: SparsityProfile, seed: u64) -> Vec<(String, PerfReport)> {
    let w = Workload::generate(network::tiny(), profile, seed);
    let table = EnergyTable::default();
    Accelerator::comparison_set(Objective::Edp)
        .into_iter()
        .map(|acc| {
            let name = acc.name.clone();
            let report = Simulator::new(acc).run(&w).report(&table);
            (name, report)
        })
        .collect()
}

#[test]
fn t1_shape_mocha_wins_energy_efficiency_at_nominal_sparsity() {
    let rs = reports(SparsityProfile::NOMINAL, 60);
    let mocha = rs[0].1.gops_per_watt();
    let next_best = rs[1..]
        .iter()
        .map(|(_, r)| r.gops_per_watt())
        .fold(f64::MIN, f64::max);
    assert!(
        mocha > next_best,
        "mocha {mocha:.2} GOPS/W !> next best {next_best:.2}"
    );
}

#[test]
fn t1_shape_mocha_wins_throughput_at_nominal_sparsity() {
    let rs = reports(SparsityProfile::NOMINAL, 61);
    let mocha = rs[0].1.gops();
    let next_best = rs[1..]
        .iter()
        .map(|(_, r)| r.gops())
        .fold(f64::MIN, f64::max);
    assert!(
        mocha > next_best,
        "mocha {mocha:.2} GOPS !> next best {next_best:.2}"
    );
}

#[test]
fn t1_gains_grow_with_sparsity() {
    // The abstract's numbers are "up to": the favourable end is sparse.
    let nominal = reports(SparsityProfile::NOMINAL, 62);
    let sparse = reports(SparsityProfile::SPARSE, 62);
    let gain = |rs: &[(String, PerfReport)]| {
        let m = rs[0].1.gops_per_watt();
        let b = rs[1..]
            .iter()
            .map(|(_, r)| r.gops_per_watt())
            .fold(f64::MIN, f64::max);
        (m - b) / b
    };
    assert!(
        gain(&sparse) > gain(&nominal),
        "sparse gain {:.2} !> nominal gain {:.2}",
        gain(&sparse),
        gain(&nominal)
    );
}

#[test]
fn t2_shape_area_overhead_in_band() {
    let table = AreaTable::default();
    let mocha = Accelerator::mocha(Objective::Edp).area(&table).total_mm2();
    let baselines = Accelerator::baselines();
    for b in &baselines {
        let base = b.area(&table).total_mm2();
        let overhead = (mocha - base) / base;
        assert!(
            (0.20..=0.40).contains(&overhead),
            "{}: overhead {overhead:.3} far outside the paper's band",
            b.name
        );
    }
}

#[test]
fn f7_shape_each_cascaded_optimization_reduces_dram_traffic() {
    let w = Workload::generate(network::tiny(), SparsityProfile::SPARSE, 63);
    let tiling = Simulator::new(Accelerator::tiling_only())
        .run(&w)
        .events()
        .dram_bytes();
    let nc = Simulator::new(Accelerator::mocha_no_compression(Objective::Energy))
        .run(&w)
        .events()
        .dram_bytes();
    let full = Simulator::new(Accelerator::mocha(Objective::Energy))
        .run(&w)
        .events()
        .dram_bytes();
    // tiling-only ≥ mocha without compression ≥ full mocha.
    assert!(
        nc <= tiling,
        "morphing didn't reduce traffic: {nc} > {tiling}"
    );
    assert!(
        full < nc,
        "compression didn't reduce traffic: {full} >= {nc}"
    );
}

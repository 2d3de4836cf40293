//! `sweep` — factorial experiment sweeps with CSV output, for plotting and
//! downstream analysis.
//!
//! ```text
//! cargo run -p mocha-bench --release --bin sweep -- [--networks a,b] \
//!     [--accelerators a,b] [--profiles a,b] [--seeds 1,2,3] [--quick]
//! ```
//!
//! Emits one CSV row per (network × accelerator × profile × seed) cell:
//! cycles, GOPS, GOPS/W, EDP, peak storage, DRAM bytes, compression ratio.

use mocha::prelude::*;

fn parse_list(args: &[String], key: &str, default: &[&str]) -> Vec<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| default.iter().map(|s| s.to_string()).collect())
}

/// Prints `msg` as a one-line error and exits 2.
fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn accelerator(name: &str) -> Option<Accelerator> {
    Some(match name {
        "mocha" => Accelerator::mocha(Objective::Edp),
        "mocha-nc" => Accelerator::mocha_no_compression(Objective::Edp),
        "tiling" => Accelerator::tiling_only(),
        "fusion" => Accelerator::fusion_only(),
        "parallel" => Accelerator::parallelism_only(),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let default_networks: &[&str] = if quick {
        &["tiny", "lenet5"]
    } else {
        &["lenet5", "mobilenet", "alexnet"]
    };
    // Every name and seed is validated before the CSV header, so a bad
    // argument never leaves a partial table on stdout.
    let networks: Vec<(String, Network)> = parse_list(&args, "--networks", default_networks)
        .into_iter()
        .map(|n| match network::by_name(&n) {
            Some(net) => (n, net),
            None => fail(format!("unknown network {n:?}")),
        })
        .collect();
    let accelerators: Vec<(String, Accelerator)> = parse_list(
        &args,
        "--accelerators",
        &["mocha", "mocha-nc", "tiling", "fusion", "parallel"],
    )
    .into_iter()
    .map(|a| match accelerator(&a) {
        Some(acc) => (a, acc),
        None => fail(format!("unknown accelerator {a:?}")),
    })
    .collect();
    let profiles: Vec<(String, SparsityProfile)> =
        parse_list(&args, "--profiles", &["dense", "nominal", "sparse"])
            .into_iter()
            .map(|p| match p.as_str() {
                "dense" => (p, SparsityProfile::DENSE),
                "nominal" => (p, SparsityProfile::NOMINAL),
                "sparse" => (p, SparsityProfile::SPARSE),
                _ => fail(format!("unknown profile {p:?}")),
            })
            .collect();
    let seeds: Vec<u64> = parse_list(&args, "--seeds", &["42"])
        .iter()
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail(format!("--seeds must be integers, got {s:?}")))
        })
        .collect();

    let table = EnergyTable::default();
    println!(
        "network,accelerator,profile,seed,cycles,seconds,gops,gops_per_watt,edp_js,peak_storage_bytes,dram_bytes,compression_ratio"
    );
    for (net_name, net) in &networks {
        for (prof_name, profile) in &profiles {
            for &seed in &seeds {
                let workload = Workload::generate(net.clone(), *profile, seed);
                for (acc_name, acc) in &accelerators {
                    let mut sim = Simulator::new(acc.clone());
                    sim.verify = false;
                    let run = sim.run(&workload);
                    let r = run.report(&table);
                    println!(
                        "{net_name},{acc_name},{prof_name},{seed},{},{:.6e},{:.3},{:.3},{:.6e},{},{},{:.4}",
                        r.cycles,
                        r.seconds(),
                        r.gops(),
                        r.gops_per_watt(),
                        r.edp(),
                        r.peak_storage_bytes,
                        r.dram_bytes,
                        run.compression().overall_ratio(),
                    );
                }
            }
        }
    }
}

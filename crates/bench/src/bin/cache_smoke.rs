//! `cache_smoke` — the morph-decision cache's cold-vs-warm passes, gated
//! against `baselines/cache-smoke.json`:
//!
//! ```text
//! cargo run --release -p mocha-bench --bin cache_smoke
//! ```
//!
//! Every warm replay must be byte-identical to its cold run. The hit/miss
//! counters are deterministic and must match the baseline exactly; the
//! warm controller sweep must be at least `dse_speedup_floor` (2×) faster
//! than the cold search — a warm hit is a table lookup, so the floor is
//! machine-independent — and the serve-path batch speedup must stay within
//! 5 % of the baseline's. Exits 1 when a gate fails. Run it in release: one
//! cold sweep takes seconds in a debug build.

use mocha::core::controller::{decide_cached, Policy};
use mocha::core::{DecisionCache, DecisionShard, Objective};
use mocha::obs::NoopRecorder;
use mocha::prelude::*;
use mocha::runtime::{generate, run_with, run_with_cache, Mix, RuntimeConfig, TrafficConfig};
use mocha_bench::baseline;
use mocha_json::jobj;
use std::time::Instant;

/// Median-of-3 wall time of `f`, in seconds.
fn time3<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

fn main() {
    let fabric = FabricConfig::mocha();
    let costs = CodecCostTable::default();
    let energy = EnergyTable::default();
    let ctx = PlanContext {
        fabric: &fabric,
        codec_costs: &costs,
        energy: &energy,
    };
    let est = SparsityEstimate {
        ifmap_sparsity: 0.6,
        ifmap_mean_run: 3.0,
        kernel_sparsity: 0.3,
        ofmap_sparsity: 0.5,
        ofmap_mean_run: 2.0,
    };
    let net = network::alexnet();

    // ---- morph-decision cache: cold vs warm controller sweep ------------
    // Every layer tail of AlexNet through the full `decide` search. A warm
    // hit replays the memoized decision without searching, so the speedup
    // floor holds on any machine — and the warm decisions must render
    // byte-identically to the cold ones.
    println!("== decision cache: cold vs warm controller sweep (alexnet) ==");
    let policy = Policy::Mocha {
        objective: Objective::Edp,
    };
    let controller_sweep = |cache: &mut DecisionCache| -> String {
        let mut out = String::new();
        for start in 0..net.layers().len() {
            let mut shard = DecisionShard::new(cache);
            let d = decide_cached(&ctx, policy, &net.layers()[start..], &est, true, &mut shard);
            out.push_str(&format!("{d:?}\n"));
            cache.absorb(shard.into_delta(), &mut NoopRecorder);
        }
        out
    };
    let cold_fp = controller_sweep(&mut DecisionCache::new());
    let cold_t = time3(|| controller_sweep(&mut DecisionCache::new()));
    let mut warm_cache = DecisionCache::new();
    controller_sweep(&mut warm_cache);
    let warm_fp = controller_sweep(&mut warm_cache);
    assert_eq!(cold_fp, warm_fp, "warm controller sweep changed a decision");
    let warm_t = time3(|| controller_sweep(&mut warm_cache));
    let dse_speedup = cold_t / warm_t;
    println!(
        "decide/cold {:>10.1} ms   decide/warm {:>10.1} ms   speedup {:>5.2}x   \
         ({} hits / {} decisions)",
        cold_t * 1e3,
        warm_t * 1e3,
        dse_speedup,
        warm_cache.hits(),
        warm_cache.decisions(),
    );

    // ---- morph-decision cache: cold vs warm serve-path batch ------------
    // The serving tier's steady state: the same runtime batch replayed
    // through one shared cache. The warm batch must reproduce the cache-off
    // report byte-for-byte; the wall-clock win is Amdahl-limited by the
    // functional simulation, so it is gated relative to the baseline.
    println!("== decision cache: cold vs warm runtime batch (serve path) ==");
    let subs = generate(&TrafficConfig {
        jobs: 8,
        load: 3.0,
        seed: 42,
        mix: Mix::Quick,
    });
    let rt_cfg = RuntimeConfig {
        threads: 2,
        ..RuntimeConfig::default()
    };
    let plain = run_with(&rt_cfg, &subs, &mut NoopRecorder);
    let mut serve_cache = DecisionCache::new();
    let first = run_with_cache(&rt_cfg, &subs, &mut serve_cache, &mut NoopRecorder);
    assert_eq!(first, plain, "cold cached batch diverged from cache-off");
    let batch_cold_t = time3(|| {
        let mut c = DecisionCache::new();
        run_with_cache(&rt_cfg, &subs, &mut c, &mut NoopRecorder)
    });
    let warm = run_with_cache(&rt_cfg, &subs, &mut serve_cache, &mut NoopRecorder);
    assert_eq!(warm, plain, "warm cached batch diverged from cache-off");
    let hits_before_timing = serve_cache.hits();
    let batch_warm_t =
        time3(|| run_with_cache(&rt_cfg, &subs, &mut serve_cache, &mut NoopRecorder));
    assert!(
        serve_cache.hits() > hits_before_timing,
        "warm serve batches must hit the shared cache"
    );
    let batch_speedup = batch_cold_t / batch_warm_t;
    println!(
        "batch/cold  {:>10.1} ms   batch/warm  {:>10.1} ms   speedup {:>5.2}x",
        batch_cold_t * 1e3,
        batch_warm_t * 1e3,
        batch_speedup,
    );

    let got = jobj! {
        "decisions" => warm_cache.decisions(),
        "hits" => warm_cache.hits(),
        "misses" => warm_cache.misses(),
        "entries" => warm_cache.len(),
        "dse_speedup" => dse_speedup,
        "batch_speedup" => batch_speedup,
    };
    println!("cache-smoke {}", got.to_string_compact());
    let gates = baseline::load("cache-smoke.json").and_then(|base| {
        baseline::exact(&got, &base, &["decisions", "hits", "misses", "entries"])?;
        let dse_floor = baseline::num(&base, "dse_speedup_floor")?;
        baseline::at_least(&got, "dse_speedup", dse_floor)?;
        let batch_base = baseline::num(&base, "batch_speedup")?;
        baseline::at_least(&got, "batch_speedup", 0.95 * batch_base)
    });
    if let Err(e) = gates {
        eprintln!("cache smoke vs baselines/cache-smoke.json: {e}");
        std::process::exit(1);
    }
}

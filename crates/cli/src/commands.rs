//! `mocha-sim` subcommand implementations.

use crate::args::Args;
use mocha::core::controller;
use mocha::core::trace::Trace;
use mocha::model::gen;
use mocha::prelude::*;

/// Usage text shown by `help`.
pub const USAGE: &str = "\
mocha-sim — MOCHA CNN-accelerator simulator

USAGE:
  mocha-sim simulate <network> [options]   run a network end-to-end
      --accelerator  mocha|mocha-nc|tiling|fusion|parallel   (default mocha)
      --objective    edp|throughput|energy|storage           (default edp)
      --profile      dense|nominal|sparse                    (default nominal)
      --seed N       workload seed                           (default 42)
      --trace        print a per-group pipeline Gantt chart
      --json         emit metrics as JSON
      --no-verify    skip golden-model verification
      --obs FILE|-   export the observability event stream as JSON lines
                     (`-` streams to stdout and moves the report to stderr)
      --threads N    engine worker threads (default: all cores; 1 = sequential;
                     output is byte-identical for every value)
      --faults SPEC  deterministic fault injection (see below); single-tenant
                     replay: every fault retries the hit group
  mocha-sim decide <network> [--layer NAME] [--profile P]
                                           show the controller's decision
  mocha-sim area [--grid N] [--spm-kb KB]  silicon area breakdown
  mocha-sim codec [--sparsity S] [--clustered] [--elements N] [--seed N]
                                           codec ratios on synthetic data
  mocha-sim pareto <network> [--layer NAME] [--profile P]
                                           Pareto front (cycles/energy/storage)
  mocha-sim networks                       list the network zoo
  mocha-sim repro [ids...] [--quick] [--threads N] [--cache]
                                           regenerate the paper's tables and
                                           figures (t1 t2 f1..f8 a1..a3 r1 r2
                                           r3 r4 r5; default/`all` = every
                                           experiment; r2 sweeps fault rates
                                           and compares quarantine-and-remorph
                                           recovery against a fail-stop
                                           baseline; r3 sweeps open-loop
                                           offered load and compares SLO-aware
                                           shedding against unbounded queueing;
                                           r5 sweeps per-shard fault rates over
                                           a heterogeneous fleet and compares
                                           the three routing policies)
  mocha-sim runtime [options]              multi-tenant runtime on synthetic traffic
      --jobs N           jobs to generate                     (default 8)
      --load F           offered load, arrivals per service   (default 2.0)
      --seed N           traffic seed                         (default 42)
      --mix quick|full   tenant mix (full = AlexNet/VGG: slow)(default quick)
      --policy adaptive|static   lease policy                 (default adaptive)
      --max-tenants N    admission cap                        (default 4)
      --json             emit the RuntimeReport as JSON
      --no-verify        skip golden-model verification
      --obs FILE|-       export the run's observability event stream
                         (spans, counters, histograms) as JSON lines;
                         `-` streams to stdout, report moves to stderr
      --threads N        engine worker threads (default: all cores)
      --faults SPEC      inject faults; permanent faults quarantine fabric
                         regions and jobs re-morph around them (or fail-stop
                         with mode=failstop)
      --cache            share a morph-decision cache across jobs: repeated
                         controller searches are memoized; reports and
                         streams stay byte-identical (only cache.* counters
                         are added)
      --metrics-window W  window the run's telemetry: W cycles tumbling
                         (or tumbling:W, rolling:WIDTH/STRIDE); needs
                         --metrics FILE
      --metrics FILE     write per-window counters and histogram summaries
                         as JSON lines (byte-identical at any --threads)
  mocha-sim fleet [options]                deterministic fleet router: shard a
                                           seeded closed-loop trace across N
                                           simulated fabric instances and run
                                           each shard's cycle-accurate
                                           scheduler (the fleet twin of
                                           `runtime`; a fleet of one is
                                           byte-identical to `runtime` modulo
                                           fleet.* telemetry)
      --fleet SPEC       `/`-separated instances of comma `key=value` pairs:
                         preset=mocha|quad|baseline, grid=N (square PE grid),
                         banks=N, kb=N (per SPM bank), lanes=N, dma=N,
                         codecs=N, count=N (replicas); e.g.
                         `preset=quad/grid=8,banks=16,count=2`
                         (default: one quad fabric; max 64 shards)
      --route POLICY     round-robin (rr) | locality | p2c (power-of-two)
                                                            (default round-robin)
      --route-seed N     seed for stochastic policies (p2c) (default 42)
      --jobs/--load/--seed/--mix/--policy/--max-tenants/--no-verify/--json/
      --obs/--threads/--faults/--cache    as for `runtime`; every shard runs
                         an independent fault domain (the plan's seed is
                         stepped per shard) and `--cache` shares one
                         morph-decision cache across shards
  mocha-sim fleet --open-loop [options]    fleet open-loop queueing sweep
                                           (experiment R5's engine; also
                                           reachable as `serve --open-loop
                                           --fleet SPEC`): routes R3's
                                           open-loop arrival traces across
                                           the fleet, with per-shard fault
                                           domains, quarantine-triggered live
                                           re-balancing of queued jobs onto
                                           healthy shards, and template-warmth
                                           cold penalties
      --fleet/--route/--route-seed        as above
      --cold-penalty N   extra service cycles the first job of a template
                         pays on a shard that has never seen it (models the
                         shard's cold decision cache)      (default 0)
      --requests/--tenants/--load/--seed/--mix/--slo/--shed-policy/--trace/
      --json/--obs/--max-tenants/--threads/--faults/--cache/
      --metrics-window/--metrics          as for `serve --open-loop`
  mocha-sim trace summary <FILE|-> [--json] [--energy FILE]
                                           profile an obs stream: span tree,
                                           critical paths, overlap, exact
                                           phase/energy attribution
                                           (--json emits the profile, usable
                                           as a `trace diff` baseline)
  mocha-sim trace export <FILE|-> --chrome OUT
                                           write Chrome trace-event JSON
                                           (load in chrome://tracing or
                                           https://ui.perfetto.dev)
  mocha-sim trace diff <A> <B> [--fail-on-regression PCT] [--energy FILE]
                                           compare two runs' profiles
                                           (A/B: stream or saved profile);
                                           exits 1 when a higher-is-worse
                                           metric regressed beyond PCT
  mocha-sim serve [--tcp ADDR] [--once] [--policy P] [--max-tenants N] [--no-verify]
                  [--threads N] [--faults SPEC] [--cache]
                  [--shed-policy none|queue=N|deadline] [--slo CYCLES]
                  [--metrics-window W]
      JSON-lines batch server: one job request per line on stdin (or over
      TCP with --tcp, where a poll-style reactor multiplexes concurrent
      clients and merges their batches into one runtime invocation), e.g.
        {\"network\": \"lenet5\", \"profile\": \"sparse\", \"priority\": \"high\",
         \"objective\": \"edp\", \"seed\": 7, \"arrival_cycle\": 0,
         \"deadline_cycles\": 500000}
      A blank (or whitespace/CRLF-only) line or EOF closes the batch;
      request lines are capped at 64 KiB. Per-job reports and a summary
      come back as JSON lines. A batch whose first line is the bare word
      `stats` instead returns one JSON snapshot of the server's counters
      and histograms (admitted == finished + failed + in_flight — plus
      shed, under a shed policy — by construction).
      --shed-policy deadline drops requests whose predicted completion
      (from calibrated per-template service times) would miss their
      deadline, answering with a one-line `shed` JSON object instead of
      queueing them; queue=N bounds the number of queued-but-unstarted
      requests. --slo CYCLES is the default deadline for requests without
      their own deadline_cycles. --cache keeps a morph-decision cache for
      the life of the server, so later batches skip controller searches
      earlier ones already did (`stats` exposes cache.hit/cache.miss).
      With --metrics-window W, a batch whose first line is the bare word
      `metrics` returns a Prometheus-style text exposition of the server's
      windowed counters, histogram quantiles, and SLO burn rates, followed
      by one JSON snapshot line.
  mocha-sim serve --open-loop [--requests N] [--tenants N] [--load F] [--seed N]
                  [--mix quick|full] [--slo CYCLES] [--shed-policy P]
                  [--trace FILE] [--json] [--obs FILE|-] [--faults SPEC]
                  [--max-tenants N] [--metrics-window W --metrics FILE]
                  [--threads N] [--cache] [--fabric FILE.json]
                  [--fleet SPEC] [--route P] [--route-seed N] [--cold-penalty N]
      Offline open-loop load sweep (experiment R3's engine): generates a
      seeded heavy-tailed trace (or replays --trace FILE, JSON lines in
      the request format above) through the calibrated queueing model and
      prints goodput/latency aggregates. Deterministic at any --threads.
      --cache shares one morph-decision cache across the calibration runs;
      --fabric replaces the single fabric. With --fleet or --route the
      sweep runs in fleet mode, exactly as `fleet --open-loop`, and also
      takes --route-seed and --cold-penalty (but not --fabric).

Fabric and energy tables can be overridden from JSON for any command:
  --fabric FILE.json     a serialized FabricConfig
  --energy FILE.json     a serialized EnergyTable

Fault injection (simulate, runtime, serve) takes a seeded, fully
deterministic specification — same spec, same seed, same schedule at any
--threads value:
  --faults rate=R[,seed=N][,mode=quarantine|failstop][,transient=F][,retries=N]
      rate       faults per million cycles (mandatory; 0 disables)
      seed       fault schedule seed                       (default 1)
      mode       permanent-fault recovery policy           (default quarantine)
      transient  fraction of faults that are transient     (default 0.5)
      retries    per-job retry budget before it fails      (default 8)

Search-heavy commands (simulate, decide, pareto, runtime, serve) accept
  --threads N            deterministic engine worker threads; results are
                         byte-identical across values (default: all cores)
";

/// Rejects options the subcommand doesn't know and positionals beyond the
/// expected count, with a one-line scriptable error on stderr.
pub fn strict(args: &Args, positionals: usize, allowed: &[&str]) -> Result<(), i32> {
    let cmd = args.command.as_deref().unwrap_or("");
    for key in args.options.keys() {
        if !allowed.contains(&key.as_str()) {
            eprintln!("unknown option --{key} for `mocha-sim {cmd}` (see `mocha-sim help`)");
            return Err(2);
        }
    }
    if args.positional.len() > positionals {
        eprintln!(
            "unexpected argument {:?} for `mocha-sim {cmd}` (see `mocha-sim help`)",
            args.positional[positionals]
        );
        return Err(2);
    }
    Ok(())
}

fn profile(name: &str) -> SparsityProfile {
    match name {
        "dense" => SparsityProfile::DENSE,
        "nominal" => SparsityProfile::NOMINAL,
        "sparse" => SparsityProfile::SPARSE,
        other => {
            eprintln!("unknown profile {other:?} (dense|nominal|sparse)");
            std::process::exit(2);
        }
    }
}

fn objective(name: &str) -> Objective {
    match name {
        "edp" => Objective::Edp,
        "throughput" => Objective::Throughput,
        "energy" => Objective::Energy,
        "storage" => Objective::Storage,
        other => {
            eprintln!("unknown objective {other:?} (edp|throughput|energy|storage)");
            std::process::exit(2);
        }
    }
}

fn accelerator(name: &str, obj: Objective) -> Accelerator {
    match name {
        "mocha" => Accelerator::mocha(obj),
        "mocha-nc" => Accelerator::mocha_no_compression(obj),
        "tiling" => Accelerator::tiling_only(),
        "fusion" => Accelerator::fusion_only(),
        "parallel" => Accelerator::parallelism_only(),
        other => {
            eprintln!("unknown accelerator {other:?} (mocha|mocha-nc|tiling|fusion|parallel)");
            std::process::exit(2);
        }
    }
}

/// Loads the fabric, honouring `--fabric FILE.json`.
pub(crate) fn load_fabric(args: &Args) -> FabricConfig {
    match args.options.get("fabric") {
        None => FabricConfig::mocha(),
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read fabric config {path:?}: {e}");
                std::process::exit(2);
            });
            let fabric: FabricConfig = mocha_json::parse(&text)
                .and_then(|v| mocha_json::FromJson::from_json(&v))
                .unwrap_or_else(|e| {
                    eprintln!("invalid fabric config {path:?}: {e}");
                    std::process::exit(2);
                });
            if let Err(e) = fabric.validate() {
                eprintln!("inconsistent fabric config {path:?}: {e}");
                std::process::exit(2);
            }
            fabric
        }
    }
}

/// Loads the energy table, honouring `--energy FILE.json`.
pub(crate) fn load_energy(args: &Args) -> EnergyTable {
    match args.options.get("energy") {
        None => EnergyTable::default(),
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read energy table {path:?}: {e}");
                std::process::exit(2);
            });
            let energy: EnergyTable = mocha_json::parse(&text)
                .and_then(|v| mocha_json::FromJson::from_json(&v))
                .unwrap_or_else(|e| {
                    eprintln!("invalid energy table {path:?}: {e}");
                    std::process::exit(2);
                });
            if let Err(e) = energy.validate() {
                eprintln!("inconsistent energy table {path:?}: {e}");
                std::process::exit(2);
            }
            energy
        }
    }
}

fn load_network(args: &Args) -> Network {
    let Some(name) = args.positional.first() else {
        eprintln!("missing <network> argument (try `mocha-sim networks`)");
        std::process::exit(2);
    };
    network::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown network {name:?} (try `mocha-sim networks`)");
        std::process::exit(2);
    })
}

/// `simulate` subcommand.
pub fn simulate(args: &Args) -> i32 {
    if let Err(code) = strict(
        args,
        1,
        &[
            "accelerator",
            "objective",
            "profile",
            "seed",
            "trace",
            "json",
            "no-verify",
            "fabric",
            "energy",
            "obs",
            "threads",
            "faults",
        ],
    ) {
        return code;
    }
    let fault_plan = match crate::config::fault_plan(args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let net = load_network(args);
    let obj = objective(&args.opt("objective", "edp"));
    let acc = accelerator(&args.opt("accelerator", "mocha"), obj);
    let prof = profile(&args.opt("profile", "nominal"));
    let seed = args.opt_u64("seed", 42);

    let workload = Workload::generate(net, prof, seed);
    let mut acc = acc;
    acc.fabric = match args.options.get("fabric") {
        None => acc.fabric,
        Some(_) => load_fabric(args),
    };
    let fault_fabric = acc.fabric;
    let mut sim = Simulator::new(acc);
    sim.energy = load_energy(args);
    sim.verify = !args.flag("no-verify");
    // With `--obs` the run is recorded and `emit` exports the event stream.
    let mut rec = mocha::obs::MemRecorder::new();
    let run = if args.flag("obs") {
        sim.run_with(&workload, &mut rec)
    } else {
        sim.run(&workload)
    };
    let table = sim.energy;
    let report = run.report(&table);
    let fault_replay = fault_plan.as_ref().map(|plan| {
        let lens: Vec<u64> = run.groups.iter().map(|g| g.cycles).collect();
        replay_faults(plan, &fault_fabric, &lens)
    });

    use std::fmt::Write as _;
    let mut out = String::new();
    if args.flag("json") {
        let mut json = mocha_json::jobj! {
            "network" => run.network.as_str(),
            "accelerator" => run.accelerator.as_str(),
            "cycles" => report.cycles,
            "seconds" => report.seconds(),
            "gops" => report.gops(),
            "gops_per_watt" => report.gops_per_watt(),
            "watts" => report.watts(),
            "edp_js" => report.edp(),
            "peak_storage_bytes" => report.peak_storage_bytes,
            "dram_bytes" => report.dram_bytes,
            "compression_ratio" => run.compression().overall_ratio(),
            "groups" => run.groups.iter().map(|g| mocha_json::jobj! {
                "name" => g.name(),
                "morph" => g.morph.to_string(),
                "cycles" => g.cycles,
                "spm_peak" => g.spm_peak,
                "work_macs" => g.work_macs,
            }).collect::<Vec<_>>(),
        };
        // Fault keys appear only under `--faults`, keeping fault-free JSON
        // output byte-identical to earlier releases.
        if let Some(f) = &fault_replay {
            json = json
                .with("fault_injected", f.injected)
                .with("fault_retries", f.retries)
                .with("fault_lost_cycles", f.lost_cycles)
                .with("fault_effective_cycles", f.effective_cycles);
        }
        let _ = writeln!(out, "{}", json.to_string_pretty());
    } else {
        let _ = writeln!(
            out,
            "{} on {} ({} groups)",
            run.network,
            run.accelerator,
            run.groups.len()
        );
        for g in &run.groups {
            let _ = writeln!(
                out,
                "  {:20} {:>36}  {:>10} cyc  {:>7.1} GOPS  {:>6.1} KB",
                g.name(),
                g.morph.to_string(),
                g.cycles,
                g.gops(table.clock_ghz),
                g.spm_peak as f64 / 1024.0,
            );
            if args.flag("trace") {
                let trace = Trace::new(&g.phases, g.morph.buffering);
                // Cap at 24 rows per group so big layers stay readable.
                let gantt = trace.gantt(100);
                for line in gantt.lines().take(25) {
                    let _ = writeln!(out, "      {line}");
                }
                if g.phases.len() > 24 {
                    let _ = writeln!(out, "      ... ({} more tiles)", g.phases.len() - 24);
                }
            }
        }
        let _ = writeln!(
            out,
            "total: {} cycles ({:.3} ms) | {:.1} GOPS | {:.1} GOPS/W | {:.1} KB storage | {:.2} MB DRAM | ratio {:.2}x",
            report.cycles,
            report.seconds() * 1e3,
            report.gops(),
            report.gops_per_watt(),
            report.peak_storage_bytes as f64 / 1024.0,
            report.dram_bytes as f64 / 1e6,
            run.compression().overall_ratio(),
        );
        if let Some(f) = &fault_replay {
            let base = f.effective_cycles - f.lost_cycles;
            let _ = writeln!(
                out,
                "faults: {} injected | {} group retries | {} cycles lost | effective {} cycles (+{:.1} %)",
                f.injected,
                f.retries,
                f.lost_cycles,
                f.effective_cycles,
                if base == 0 { 0.0 } else { 100.0 * f.lost_cycles as f64 / base as f64 },
            );
        }
    }

    emit(args, &out, &rec)
}

/// Prints a command's report and, with `--obs`, exports the recorded event
/// stream as JSON lines: to a file (the report stays on stdout), or with
/// `-` to stdout — the report then moves to stderr so the stream stays
/// clean for piping into `mocha-sim trace`. Returns the exit code.
pub(crate) fn emit(args: &Args, report: &str, rec: &mocha::obs::MemRecorder) -> i32 {
    let obs_path = args.options.get("obs");
    match obs_path.map(String::as_str) {
        None => print!("{report}"),
        Some("-") => {
            print!("{}", rec.to_jsonl());
            eprint!("{report}");
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, rec.to_jsonl()) {
                eprintln!("cannot write {path:?}: {e}");
                return 2;
            }
            print!("{report}");
        }
    }
    0
}

/// Outcome of the single-tenant fault replay `simulate --faults` runs over
/// the recorded group schedule.
struct FaultReplay {
    /// Fault events landing before the (extended) end of the run.
    injected: u64,
    /// Group retries triggered (a fault mid-group loses the partial window).
    retries: u64,
    /// Executed cycles lost and redone.
    lost_cycles: u64,
    /// Run length including redone work (`Σ group cycles + lost_cycles`).
    effective_cycles: u64,
}

/// Replays a seeded fault timeline over a finished single-tenant run: every
/// fault landing strictly inside a group's execution window retries that
/// group from scratch (the partially executed window is lost work),
/// extending the virtual clock; a fault at a group boundary costs nothing
/// (the group had committed — same tie-break as the runtime scheduler).
/// Each group retries at most `plan.max_retries` times, after which the
/// controller forces it through and later faults in its window are only
/// counted. Full quarantine-and-remorph / fail-stop fidelity lives in
/// `mocha-sim runtime`, which has spare tenancy to re-carve around;
/// a single-tenant fabric does not.
fn replay_faults(
    plan: &mocha::fault::FaultPlan,
    fabric: &FabricConfig,
    group_cycles: &[u64],
) -> FaultReplay {
    let mut timeline = mocha::fault::FaultTimeline::new(plan, fabric);
    let mut r = FaultReplay {
        injected: 0,
        retries: 0,
        lost_cycles: 0,
        effective_cycles: 0,
    };
    let mut clock = 0u64;
    for &len in group_cycles {
        let mut start = clock;
        let mut end = start + len;
        let mut budget = plan.max_retries;
        while timeline.peek().is_some_and(|e| e.at < end) {
            let at = timeline.pop().expect("peeked").at;
            r.injected += 1;
            if at <= start || budget == 0 {
                continue;
            }
            budget -= 1;
            r.retries += 1;
            r.lost_cycles += at - start;
            start = at;
            end = at + len;
        }
        clock = end;
    }
    r.effective_cycles = clock;
    r
}

/// `decide` subcommand: show what the controller would pick at a layer.
pub fn decide(args: &Args) -> i32 {
    if let Err(code) = strict(
        args,
        1,
        &["layer", "profile", "fabric", "energy", "threads"],
    ) {
        return code;
    }
    let net = load_network(args);
    let prof = profile(&args.opt("profile", "nominal"));
    let layer_name = args.opt("layer", &net.layers()[0].name);
    let Some(start) = net.layers().iter().position(|l| l.name == layer_name) else {
        eprintln!("no layer named {layer_name:?} in {}", net.name);
        return 2;
    };

    let fabric = load_fabric(args);
    let costs = CodecCostTable::default();
    let energy = load_energy(args);
    let ctx = PlanContext {
        fabric: &fabric,
        codec_costs: &costs,
        energy: &energy,
    };
    let est = SparsityEstimate {
        ifmap_sparsity: prof.input,
        ifmap_mean_run: 1.0 + 5.0 * prof.input,
        kernel_sparsity: prof.weights,
        ofmap_sparsity: 0.5,
        ofmap_mean_run: 2.0,
    };

    println!("layer: {}", net.layers()[start]);
    for (name, policy) in [
        (
            "mocha",
            Policy::Mocha {
                objective: Objective::Edp,
            },
        ),
        ("tiling", Policy::TilingOnly),
        ("fusion", Policy::FusionOnly),
        ("parallel", Policy::ParallelismOnly),
    ] {
        let d = controller::decide(&ctx, policy, &net.layers()[start..], &est, true);
        println!(
            "  {:9} fuses {} layer(s), {:>36}: {:>10} cycles, {:>8.1} µJ, {:>6.1} KB  ({} candidates)",
            name,
            d.group_len,
            d.morph.to_string(),
            d.plan.cycles,
            d.plan.energy_pj / 1e6,
            d.plan.spm_peak as f64 / 1024.0,
            d.candidates,
        );
    }
    0
}

/// `area` subcommand.
pub fn area(args: &Args) -> i32 {
    if let Err(code) = strict(args, 0, &["grid", "spm-kb"]) {
        return code;
    }
    let grid = args.opt_u64("grid", 8) as usize;
    let spm_kb = args.opt_u64("spm-kb", 128) as usize;
    let table = AreaTable::default();

    let mut mocha = FabricConfig::mocha();
    mocha.pe_rows = grid;
    mocha.pe_cols = grid;
    mocha.spm_banks = (spm_kb / mocha.spm_bank_kb).max(1);
    mocha.codec_engines = grid + 2 * mocha.dma_engines;
    let mut base = FabricConfig::baseline();
    base.pe_rows = grid;
    base.pe_cols = grid;
    base.spm_banks = (spm_kb / base.spm_bank_kb).max(1);

    let ma = table.price(&mocha.inventory());
    let ba = table.price(&base.inventory());
    println!("fabric: {grid}x{grid} PEs, {spm_kb} KB scratchpad");
    println!("  {:22} {:>9} {:>9}", "component", "baseline", "mocha");
    for (name, b, m) in [
        ("PE array", ba.pes_mm2, ma.pes_mm2),
        ("scratchpad SRAM", ba.sram_mm2, ma.sram_mm2),
        ("NoC", ba.noc_mm2, ma.noc_mm2),
        ("DMA", ba.dma_mm2, ma.dma_mm2),
        ("compression engines", ba.codec_mm2, ma.codec_mm2),
        ("control", ba.control_mm2, ma.control_mm2),
    ] {
        println!("  {name:22} {b:>8.3}  {m:>8.3}");
    }
    let (bt, mt) = (ba.total_mm2(), ma.total_mm2());
    println!(
        "  {:22} {bt:>8.3}  {mt:>8.3}  ({:+.0} %)",
        "TOTAL",
        100.0 * (mt - bt) / bt
    );
    0
}

/// `codec` subcommand.
pub fn codec(args: &Args) -> i32 {
    if let Err(code) = strict(args, 0, &["sparsity", "clustered", "elements", "seed"]) {
        return code;
    }
    let sparsity = args.opt_f64("sparsity", 0.6);
    let elements = args.opt_u64("elements", 65536) as usize;
    let seed = args.opt_u64("seed", 1);
    if !(0.0..=1.0).contains(&sparsity) {
        eprintln!("--sparsity must be in [0, 1]");
        return 2;
    }
    let shape = mocha::model::TensorShape::new(1, 1, elements.max(1));
    let mut rng = gen::rng(seed);
    let data = if args.flag("clustered") {
        gen::clustered_activations(shape, sparsity, 8, &mut rng)
    } else {
        gen::activations(shape, sparsity, &mut rng)
    };
    let stats = mocha::model::stats::analyze(data.data());
    println!(
        "{} elements, measured sparsity {:.1} %, mean zero-run {:.1}",
        elements,
        100.0 * stats.sparsity(),
        stats.mean_zero_run()
    );
    for codec in [Codec::None, Codec::Zrle, Codec::Bitmask, Codec::Nibble] {
        let c = Compressed::encode(codec, data.data());
        assert_eq!(c.decode(), data.data(), "roundtrip");
        println!(
            "  {:8} {:>8} B  ratio {:.2}x",
            codec.name(),
            c.bytes(),
            c.ratio()
        );
    }
    println!("  best: {}", best_codec(data.data()).name());
    0
}

/// `repro` subcommand: regenerate the reconstructed paper experiments of
/// `mocha_bench::experiments` — the only repro front end. Tables are
/// byte-identical for every `--threads` value: sweeps shard over the
/// engine but reduce in canonical point order. An unknown id exits 2.
pub fn repro(args: &Args) -> i32 {
    if let Err(code) = strict(args, mocha_bench::ALL.len(), &["quick", "threads", "cache"]) {
        return code;
    }
    let ids: Vec<&str> = if args.positional.is_empty() || args.positional.iter().any(|a| a == "all")
    {
        mocha_bench::ALL.to_vec()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    let cfg = mocha_bench::ExpConfig {
        quick: args.flag("quick"),
        seed: 42,
        threads: args.opt_u64("threads", 0) as usize,
        cache: args.flag("cache"),
    };
    for id in ids {
        match mocha_bench::run_by_id(id, &cfg) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment {id:?}; known: {:?}", mocha_bench::ALL);
                return 2;
            }
        }
    }
    0
}

/// `networks` subcommand.
pub fn networks(args: &Args) -> i32 {
    if let Err(code) = strict(args, 0, &[]) {
        return code;
    }
    for name in [
        "tiny",
        "lenet5",
        "mobilenet",
        "mobilenet_v1",
        "alexnet",
        "vgg16",
    ] {
        let n = network::by_name(name).unwrap();
        println!(
            "{:12} {:3} layers  input {:>11}  {:>8.1} M MACs  {:>7.2} MB weights",
            name,
            n.len(),
            n.input_shape().to_string(),
            n.total_macs() as f64 / 1e6,
            n.total_weight_bytes() as f64 / 1e6,
        );
    }
    0
}

/// `pareto` subcommand: the layer's trade-off surface.
pub fn pareto(args: &Args) -> i32 {
    if let Err(code) = strict(
        args,
        1,
        &["layer", "profile", "fabric", "energy", "threads"],
    ) {
        return code;
    }
    let net = load_network(args);
    let prof = profile(&args.opt("profile", "nominal"));
    let layer_name = args.opt("layer", &net.layers()[0].name);
    let Some(start) = net.layers().iter().position(|l| l.name == layer_name) else {
        eprintln!("no layer named {layer_name:?} in {}", net.name);
        return 2;
    };
    let fabric = load_fabric(args);
    let costs = CodecCostTable::default();
    let energy = load_energy(args);
    let ctx = PlanContext {
        fabric: &fabric,
        codec_costs: &costs,
        energy: &energy,
    };
    let est = SparsityEstimate {
        ifmap_sparsity: prof.input,
        ifmap_mean_run: 1.0 + 5.0 * prof.input,
        kernel_sparsity: prof.weights,
        ofmap_sparsity: 0.5,
        ofmap_mean_run: 2.0,
    };
    let front = mocha::core::dse::explore_layer(&ctx, &net.layers()[start], &est, true);
    println!("layer: {}", net.layers()[start]);
    println!(
        "Pareto front over (cycles, energy, storage): {} points",
        front.len()
    );
    println!(
        "{:>12}  {:>10}  {:>9}  config",
        "cycles", "energy µJ", "SPM KB"
    );
    for p in &front {
        println!(
            "{:>12}  {:>10.1}  {:>9.1}  {}",
            p.plan.cycles,
            p.plan.energy_pj / 1e6,
            p.plan.spm_peak as f64 / 1024.0,
            p.morph,
        );
    }
    0
}

//! `mocha-sim` — command-line interface to the MOCHA accelerator simulator.
//!
//! ```text
//! mocha-sim simulate <network> [--accelerator A] [--objective O] [--profile P]
//!                              [--seed N] [--trace] [--json] [--no-verify]
//!                              [--threads N]
//! mocha-sim decide   <network> [--layer NAME] [--profile P]
//! mocha-sim area     [--grid N] [--spm-kb KB]
//! mocha-sim codec    [--sparsity S] [--clustered] [--elements N] [--seed N]
//! mocha-sim networks
//! mocha-sim repro    [ids...] [--quick] [--threads N]
//! mocha-sim runtime  [--jobs N] [--load F] [--seed N] [--mix M] [--policy P]
//!                    [--obs FILE|-] [--threads N]
//!                    [--metrics-window W --metrics FILE]
//! mocha-sim fleet    [--fleet SPEC] [--route POLICY] [--route-seed N]
//!                    [--jobs N] [--load F] [--seed N] [--mix M] [--faults SPEC]
//!                    [--obs FILE|-] [--json] [--threads N]
//! mocha-sim fleet    --open-loop [--fleet SPEC] [--route POLICY]
//!                    [--route-seed N] [--cold-penalty N] OPEN-LOOP-OPTIONS
//! mocha-sim trace    summary <FILE|-> | export <FILE|-> --chrome OUT
//!                    | diff <A> <B> [--fail-on-regression PCT]
//! mocha-sim serve    [--tcp ADDR] [--once] [--policy P] [--max-tenants N]
//!                    [--shed-policy none|queue=N|deadline] [--slo CYCLES]
//!                    [--metrics-window W]
//!                    (a batch starting with the bare line `stats` returns a
//!                    counters/histograms snapshot; `metrics` returns the
//!                    windowed exposition + JSON snapshot)
//! mocha-sim serve    --open-loop [--fabric FILE] OPEN-LOOP-OPTIONS
//!                    (with --fleet or --route: the `fleet --open-loop`
//!                    options instead — one front end, two entry points)
//!
//! OPEN-LOOP-OPTIONS: [--requests N] [--tenants N] [--load F] [--seed N]
//!                    [--mix quick|full] [--slo CYCLES] [--shed-policy P]
//!                    [--trace FILE] [--max-tenants N] [--faults SPEC]
//!                    [--cache] [--json] [--obs FILE|-] [--threads N]
//!                    [--metrics-window W --metrics FILE]
//! ```
//!
//! Errors are scriptable: unknown subcommands, options or stray arguments
//! produce a one-line message on stderr and exit code 2.

mod args;
mod commands;
mod config;
mod fleet_cmd;
mod serve;
mod trace_cmd;

use args::Args;

fn main() {
    let parsed = Args::parse(std::env::args().skip(1));
    // `--threads N` sets the process-default engine width before dispatch,
    // so every parallel stage (controller search, DSE scoring, job
    // stepping, repro sweeps) fans out over N workers. Absent = all cores;
    // 1 = the fully sequential legacy path. Output is byte-identical
    // either way — the flag only trades wall-clock time.
    if let Some(t) = parsed.options.get("threads") {
        match t.parse::<usize>() {
            Ok(n) if n >= 1 => mocha::engine::set_default_threads(n),
            _ => {
                eprintln!("--threads must be a positive integer");
                std::process::exit(2);
            }
        }
    }
    let code = match parsed.command.as_deref() {
        Some("simulate") => commands::simulate(&parsed),
        Some("decide") => commands::decide(&parsed),
        Some("area") => commands::area(&parsed),
        Some("codec") => commands::codec(&parsed),
        Some("pareto") => commands::pareto(&parsed),
        Some("networks") => commands::networks(&parsed),
        Some("repro") => commands::repro(&parsed),
        Some("runtime") => serve::runtime_cmd(&parsed),
        Some("fleet") => fleet_cmd::fleet(&parsed),
        Some("trace") => trace_cmd::trace(&parsed),
        Some("serve") => serve::serve(&parsed),
        Some("help") => {
            print!("{}", commands::USAGE);
            0
        }
        None => {
            eprint!("{}", commands::USAGE);
            2
        }
        Some(other) => {
            eprintln!("unknown command {other:?} (see `mocha-sim help`)");
            2
        }
    };
    std::process::exit(code);
}

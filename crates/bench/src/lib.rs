//! # mocha-bench
//!
//! The experiment suite of the MOCHA reproduction:
//!
//! * [`experiments`] — one module per reconstructed table/figure of the
//!   paper's evaluation (T1–T2, F1–F8; see DESIGN.md for the index), each
//!   regenerating the same rows/series the paper reports; `mocha-sim repro`
//!   runs any or all of them;
//! * [`table`] — fixed-width table rendering;
//! * [`baseline`] — typed gates against the committed `baselines/*.json`;
//! * the `sweep` binary emits factorial CSV sweeps, and the `cache_smoke`
//!   binary gates the morph-decision cache's warm-replay speedups.
//!
//! Wall-clock speed is measured by the `perf` package under `src/bin/perf`.

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod table;

pub use experiments::{run_by_id, ExpConfig, ALL};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must at least run in quick mode and produce a table.
    #[test]
    fn all_experiments_run_in_quick_mode() {
        let cfg = ExpConfig {
            quick: true,
            seed: 7,
            ..ExpConfig::default()
        };
        for id in ALL {
            let out = run_by_id(id, &cfg).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(out.contains("=="), "{id} produced no table header");
            assert!(out.lines().count() > 4, "{id} produced too little output");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id("nope", &ExpConfig::default()).is_none());
    }
}

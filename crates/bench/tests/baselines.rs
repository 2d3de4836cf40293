//! The deterministic repro smoke gates: `repro r4`/`r5` in quick mode with
//! seed 42 (what `mocha-sim repro --quick` runs) must print smoke notes
//! equal, as whole JSON values, to the committed `baselines/r4-smoke.json`
//! and `baselines/r5-smoke.json`. Regenerate a baseline with:
//!
//! ```text
//! cargo run --release -p mocha-cli --bin mocha-sim -- repro --quick r4 \
//! | sed -n 's/.*r4-smoke //p' > baselines/r4-smoke.json
//! ```

use mocha_bench::{baseline, run_by_id, ExpConfig};

fn assert_smoke_matches_baseline(id: &str) {
    let cfg = ExpConfig {
        quick: true,
        seed: 42,
        ..ExpConfig::default()
    };
    let out = run_by_id(id, &cfg).expect("known experiment");
    let got = baseline::smoke(&out, id).unwrap_or_else(|e| panic!("{e}\n{out}"));
    let want = baseline::load(&format!("{id}-smoke.json")).unwrap();
    assert_eq!(
        got, want,
        "{id}-smoke diverged from baselines/{id}-smoke.json"
    );
}

#[test]
fn r4_smoke_matches_the_committed_baseline() {
    assert_smoke_matches_baseline("r4");
}

#[test]
fn r5_smoke_matches_the_committed_baseline() {
    assert_smoke_matches_baseline("r5");
}

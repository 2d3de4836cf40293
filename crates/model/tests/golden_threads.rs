//! Golden verification is a pure function of its workload, whatever the
//! `--threads` width: `golden::forward` at 2 and 8 workers must reproduce
//! the single-threaded run on every layer.
//!
//! The width is the process-wide [`mocha_engine::set_default_threads`]
//! default, so this file is its own test binary with a single test: nothing
//! else in the process can observe or race the global.

use mocha_engine::set_default_threads;
use mocha_model::gen::{SparsityProfile, Workload};
use mocha_model::{golden, network, Tensor};

#[test]
fn golden_forward_is_identical_at_every_engine_width() {
    // Between them these cover conv, dwconv, pointwise, max and average
    // pooling, and fc.
    let workloads = [
        Workload::generate(network::tiny(), SparsityProfile::NOMINAL, 3),
        Workload::generate(network::lenet5(), SparsityProfile::DENSE, 5),
        Workload::generate(network::mobilenet(), SparsityProfile::NOMINAL, 8),
    ];
    let run = |threads: usize| -> Vec<Vec<Tensor<i8>>> {
        set_default_threads(threads);
        workloads.iter().map(golden::forward).collect()
    };
    let base = run(1);
    for threads in [2, 8] {
        let outs = run(threads);
        for (w, (got, want)) in workloads.iter().zip(outs.iter().zip(&base)) {
            for (l, (g, b)) in w.network.layers().iter().zip(got.iter().zip(want)) {
                assert_eq!(g, b, "{} at --threads {threads}", l.name);
            }
        }
    }
}

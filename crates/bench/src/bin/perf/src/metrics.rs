//! The metrics the benchmark reports, with their units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root lists the same
//! names; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `perf compare` calls it a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    m(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the simulator waits for, per workload. `work/s` is
/// simulated MMAC/s on `sim-alexnet`, jobs/s on `runtime-faults`, and
/// Mrequests/s on the two open-loop workloads.
///
/// The timing bounds are wide because the host is shared: on a 2-vCPU
/// virtual machine whose neighbours were busy, ten runs of one workload
/// spread by up to 12 % (IQR over median) even at reference speed, and by
/// up to 22 % with an earlier probe. `setup_s` keeps the largest bound.
pub const END_TO_END: &[Metric] = &[
    m("throughput", "work/s", Higher, 0.24),
    m("op_p50_s", "s", Lower, 0.24),
    m("op_p75_s", "s", Lower, 0.24),
    m("setup_s", "s", Lower, 0.25),
    m("peak_rss_mb", "MB", Lower, 0.1),
];

/// Failed ops over attempted ops. It gates every comparison — any rise is a
/// failure — but is left out of `BENCHMARK.json`, whose metrics must never
/// read 0.
pub const FAIL_RATIO: Metric = m("fail_ratio", "ratio", Lower, 0.0);

/// Per-layer metrics of the traced run. A workload whose traced op never
/// calls a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.golden_s", "s", Lower),
    layer("sim.controller_s", "s", Lower),
    layer("sim.candidates", "count", Lower),
    layer("sim.controller_us_per_candidate", "us", Lower),
    layer("sim.exec_s", "s", Lower),
    layer("sim.groups", "count", Lower),
    layer("compress.size_mb_s", "MB/s", Higher),
    layer("runtime.run_s", "s", Lower),
    layer("runtime.verify_s", "s", Lower),
    layer("runtime.us_per_group", "us", Lower),
    layer("runtime.groups_stepped", "count", Lower),
    layer("runtime.remorphs", "count", Lower),
    layer("fault.injected", "count", Lower),
    layer("fault.retries", "count", Lower),
    layer("fault.quarantined", "count", Lower),
    layer("obs.hist_s", "s", Lower),
    layer("obs.export_s", "s", Lower),
    layer("trace.parse_s", "s", Lower),
    layer("trace.profile_s", "s", Lower),
    layer("serve.calibrate_s", "s", Lower),
    layer("serve.traffic_s", "s", Lower),
    layer("serve.queue_s", "s", Lower),
    layer("serve.ns_per_request", "ns", Lower),
    layer("serve.admitted", "count", Higher),
    layer("serve.shed", "count", Lower),
    layer("fleet.queue_s", "s", Lower),
    layer("fleet.ns_per_request", "ns", Lower),
    layer("fleet.rebalanced", "count", Lower),
    layer("fleet.cold", "count", Lower),
    layer("trace.overhead_s", "s", Lower),
];

/// The per-layer metric named `name`.
///
/// # Panics
/// Panics on a name missing from [`PER_LAYER`].
pub fn per_layer(name: &str) -> &'static Metric {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The `"key": [ ... ]` list of `BENCHMARK.json`, one entry per line.
    fn section(key: &str) -> Vec<&'static str> {
        let open = format!("\"{key}\": [\n");
        let start = BENCHMARK_JSON
            .find(&open)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            + open.len();
        let len = BENCHMARK_JSON[start..].find("\n  ]").expect("list closes");
        BENCHMARK_JSON[start..start + len]
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect()
    }

    fn entry(metric: &Metric, bound: bool) -> String {
        let mut s = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            metric.name,
            metric.unit,
            match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }
        );
        if bound {
            s += &format!(", \"bound\": {}", metric.bound);
        }
        s + "}"
    }

    #[test]
    fn compiled_names_and_bounds_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|m| entry(m, true)).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|m| entry(m, false)).collect();
        assert_eq!(section("per_layer"), layers);
        let workloads = section("workloads");
        assert_eq!(workloads.len(), NAMES.len());
        for (line, name) in workloads.iter().zip(NAMES) {
            assert!(
                line.starts_with(&format!("{{\"name\": \"{name}\", \"why\": \"")),
                "{line}"
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}

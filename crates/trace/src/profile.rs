//! The distilled profile: everything `trace summary` prints, `trace diff`
//! compares, and ci.sh pins as a baseline, in one flat JSON-serializable
//! struct. The JSON form carries the `mocha_trace_profile` marker so the
//! CLI can tell a saved profile from a raw event stream, and attojoule
//! totals are serialized as decimal strings (u128 does not fit in a JSON
//! number losslessly).

use crate::energy::{Attribution, PhaseEnergy};
use crate::tree::{CriticalPath, LaneCycles, SpanTree};
use crate::Stream;
use mocha_energy::EnergyTable;
use mocha_json::Value;
use mocha_obs::nearest_rank;

/// Marker key identifying a serialized profile (value: format version).
pub const PROFILE_MARKER: &str = "mocha_trace_profile";

/// Per-layer-group row of the profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Group name (layer names joined with `+`).
    pub name: String,
    /// Summed makespan cycles over the group's executions.
    pub cycles: u64,
    /// Critical-path stall cycles summed over executions.
    pub stall: u64,
    /// Pipeline overlap efficiency of the group's executions.
    pub overlap: f64,
    /// Attributed energy in attojoules.
    pub energy_aj: u128,
}

/// One per-window tail-latency row, from the empty-label (aggregate)
/// `runtime.latency_cycles` window histograms of a `--metrics` export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTail {
    /// Window index.
    pub window: u64,
    /// Completions in the window.
    pub count: u64,
    /// Median latency, cycles.
    pub p50: u64,
    /// 95th percentile latency.
    pub p95: u64,
    /// 99th percentile latency.
    pub p99: u64,
}

/// SLO burn summary of a windowed export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloProfile {
    /// Rising-edge burn alerts over the run.
    pub alerts: u64,
    /// Peak fast-window burn rate.
    pub burn_peak_fast: f64,
    /// Peak slow-window burn rate.
    pub burn_peak_slow: f64,
}

/// One per-shard tail row of a fleet stream, from `fleet/shard<s>/job/*`
/// residency spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTail {
    /// Shard index.
    pub shard: u64,
    /// Requests that completed on this shard.
    pub jobs: u64,
    /// Median in-service residency, cycles.
    pub p50: u64,
    /// 95th percentile residency.
    pub p95: u64,
    /// 99th percentile residency.
    pub p99: u64,
}

/// The fleet view of a profile — present only when the stream carries
/// `fleet.*` telemetry (a `mocha-sim fleet` or `serve --fleet` run).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProfile {
    /// Shards the fleet router started with (`fleet.shards`).
    pub shards: u64,
    /// Requests routed (`fleet.routed`).
    pub routed: u64,
    /// Quarantine-triggered cross-shard migrations (`fleet.rebalanced`).
    pub rebalanced: u64,
    /// Per-shard residency tails, sorted by shard index (empty when the
    /// stream has no per-shard job spans, e.g. span-capped runs).
    pub tail: Vec<ShardTail>,
}

/// The windowed-telemetry view of a profile — present only when the input
/// stream embeds a `--metrics` export (window/whist/slo events).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowProfile {
    /// Window width, cycles.
    pub width: u64,
    /// Window stride, cycles.
    pub stride: u64,
    /// Windows covered.
    pub count: u64,
    /// Per-window tail-latency rows, in window order.
    pub tail: Vec<WindowTail>,
    /// SLO burn summary (absent when the run carried no deadlines).
    pub slo: Option<SloProfile>,
}

/// A complete run profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Jobs observed (0 in single-tenant streams).
    pub jobs: u64,
    /// Fusion groups executed.
    pub groups: u64,
    /// Tiles executed.
    pub tiles: u64,
    /// Last cycle any span covers (horizon / total cycles).
    pub makespan: u64,
    /// Busy cycles per lane over all groups.
    pub busy: LaneCycles,
    /// Critical-path cycles over all groups.
    pub critical: CriticalPath,
    /// Aggregate overlap efficiency (busy lane cycles / group cycles).
    pub overlap: f64,
    /// Cycles with no group executing, and how many such gaps.
    pub idle_cycles: u64,
    /// Number of fabric idle gaps.
    pub idle_gaps: u64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Total energy in pJ (the priced breakdown's total).
    pub energy_pj: f64,
    /// Exact per-phase energy in attojoules.
    pub phases: PhaseEnergy,
    /// Per layer group rows, in order of first execution.
    pub layers: Vec<LayerRow>,
    /// Job latency percentiles from `runtime.latency_cycles` (runtime
    /// streams only).
    pub latency: Option<(u64, u64, u64)>,
    /// Faults injected (`fault.injected`; 0 without fault injection).
    pub fault_events: u64,
    /// Executed-work cycles lost to faults (`fault.lost_cycles`).
    pub fault_lost_cycles: u64,
    /// Windowed telemetry (only when the stream embeds a `--metrics`
    /// export, so pre-telemetry profiles stay byte-identical).
    pub windowed: Option<WindowProfile>,
    /// Fleet telemetry (only when the stream carries `fleet.*` counters,
    /// so single-fabric profiles stay byte-identical).
    pub fleet: Option<FleetProfile>,
}

impl Profile {
    /// Distils a parsed stream + tree into a profile, pricing energy with
    /// `table` (must match the table the run was priced with).
    pub fn build(tree: &SpanTree, stream: &Stream, table: &EnergyTable) -> (Profile, Attribution) {
        let attribution = crate::energy::attribute(tree, stream, table);
        let stalls: std::collections::HashMap<&str, u64> = {
            let mut m: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
            for g in &tree.groups {
                *m.entry(g.name.as_str()).or_insert(0) += g.critical.stall;
            }
            m
        };
        let layers = attribution
            .layers
            .iter()
            .map(|l| {
                let busy: u64 = tree
                    .groups
                    .iter()
                    .filter(|g| g.name == l.name)
                    .map(|g| g.busy.total())
                    .sum();
                LayerRow {
                    name: l.name.clone(),
                    cycles: l.cycles,
                    stall: stalls.get(l.name.as_str()).copied().unwrap_or(0),
                    overlap: if l.cycles == 0 {
                        0.0
                    } else {
                        busy as f64 / l.cycles as f64
                    },
                    energy_aj: l.total_aj(),
                }
            })
            .collect();
        let profile = Profile {
            jobs: tree.jobs.len() as u64,
            groups: tree.groups.len() as u64,
            tiles: tree.tiles() as u64,
            makespan: tree.makespan,
            busy: tree.busy(),
            critical: tree.critical(),
            overlap: tree.overlap(),
            idle_cycles: tree.idle_cycles,
            idle_gaps: tree.idle_gaps.len() as u64,
            dram_bytes: attribution.counts.dram_bytes(),
            energy_pj: attribution.breakdown.total_pj(),
            phases: attribution.phases,
            layers,
            latency: stream
                .hists
                .get(mocha_obs::names::HIST_JOB_LATENCY)
                .map(|h| (h.p50, h.p95, h.p99)),
            fault_events: stream
                .counters
                .get(mocha_obs::names::FAULT_INJECTED)
                .copied()
                .unwrap_or(0),
            fault_lost_cycles: stream
                .counters
                .get(mocha_obs::names::FAULT_LOST_CYCLES)
                .copied()
                .unwrap_or(0),
            windowed: stream.window_spec.map(|meta| WindowProfile {
                width: meta.width,
                stride: meta.stride,
                count: meta.windows,
                tail: stream
                    .whists
                    .iter()
                    .filter(|h| h.name == mocha_obs::names::HIST_JOB_LATENCY && h.labels.is_empty())
                    .map(|h| WindowTail {
                        window: h.window,
                        count: h.summary.count,
                        p50: h.summary.p50,
                        p95: h.summary.p95,
                        p99: h.summary.p99,
                    })
                    .collect(),
                slo: (!stream.slo.is_empty()).then(|| SloProfile {
                    alerts: stream.slo.iter().filter(|r| r.alert).count() as u64,
                    burn_peak_fast: stream.slo.iter().map(|r| r.burn_fast).fold(0.0, f64::max),
                    burn_peak_slow: stream.slo.iter().map(|r| r.burn_slow).fold(0.0, f64::max),
                }),
            }),
            fleet: stream
                .counters
                .get(mocha_obs::names::FLEET_SHARDS)
                .map(|&shards| {
                    let mut by_shard: std::collections::BTreeMap<u64, Vec<u64>> =
                        std::collections::BTreeMap::new();
                    for j in &tree.shard_jobs {
                        by_shard.entry(j.shard).or_default().push(j.end - j.start);
                    }
                    FleetProfile {
                        shards,
                        routed: stream
                            .counters
                            .get(mocha_obs::names::FLEET_ROUTED)
                            .copied()
                            .unwrap_or(0),
                        rebalanced: stream
                            .counters
                            .get(mocha_obs::names::FLEET_REBALANCED)
                            .copied()
                            .unwrap_or(0),
                        tail: by_shard
                            .into_iter()
                            .map(|(shard, mut durations)| {
                                durations.sort_unstable();
                                ShardTail {
                                    shard,
                                    jobs: durations.len() as u64,
                                    p50: nearest_rank(&durations, 50.0),
                                    p95: nearest_rank(&durations, 95.0),
                                    p99: nearest_rank(&durations, 99.0),
                                }
                            })
                            .collect(),
                    }
                }),
        };
        (profile, attribution)
    }

    /// Serializes the profile (deterministic: `BTreeMap`-ordered keys,
    /// shortest round-trip float formatting).
    pub fn to_json(&self) -> Value {
        let mut v = mocha_json::jobj! {
            "mocha_trace_profile" => 1u64,
            "jobs" => self.jobs,
            "groups" => self.groups,
            "tiles" => self.tiles,
            "makespan" => self.makespan,
            "busy_load" => self.busy.load,
            "busy_compute" => self.busy.compute,
            "busy_store" => self.busy.store,
            "crit_load" => self.critical.load,
            "crit_compute" => self.critical.compute,
            "crit_store" => self.critical.store,
            "crit_stall" => self.critical.stall,
            "overlap" => self.overlap,
            "idle_cycles" => self.idle_cycles,
            "idle_gaps" => self.idle_gaps,
            "dram_bytes" => self.dram_bytes,
            "energy_pj" => self.energy_pj,
            "energy_load_aj" => self.phases.load_aj.to_string(),
            "energy_compute_aj" => self.phases.compute_aj.to_string(),
            "energy_store_aj" => self.phases.store_aj.to_string(),
            "energy_idle_aj" => self.phases.idle_aj.to_string(),
            "energy_unattributed_aj" => self.phases.unattributed_aj.to_string(),
            "layers" => self.layers.iter().map(|l| mocha_json::jobj! {
                "name" => l.name.as_str(),
                "cycles" => l.cycles,
                "stall" => l.stall,
                "overlap" => l.overlap,
                "energy_aj" => l.energy_aj.to_string(),
            }).collect::<Vec<_>>(),
        };
        if let Some((p50, p95, p99)) = self.latency {
            v = v
                .with("latency_p50", p50)
                .with("latency_p95", p95)
                .with("latency_p99", p99);
        }
        // Fault fields only appear when faults were injected, so zero-fault
        // profiles stay byte-identical to pre-fault-injection baselines.
        if self.fault_events > 0 || self.fault_lost_cycles > 0 {
            v = v
                .with("fault_events", self.fault_events)
                .with("fault_lost_cycles", self.fault_lost_cycles);
        }
        // Window fields likewise only appear for windowed streams.
        if let Some(w) = &self.windowed {
            v = v
                .with("windows", w.count)
                .with("window_width", w.width)
                .with("window_stride", w.stride)
                .with(
                    "window_latency",
                    w.tail
                        .iter()
                        .map(|t| {
                            mocha_json::jobj! {
                                "window" => t.window,
                                "count" => t.count,
                                "p50" => t.p50,
                                "p95" => t.p95,
                                "p99" => t.p99,
                            }
                        })
                        .collect::<Vec<_>>(),
                );
            if let Some(slo) = &w.slo {
                v = v
                    .with("slo_alerts", slo.alerts)
                    .with("slo_burn_peak_fast", slo.burn_peak_fast)
                    .with("slo_burn_peak_slow", slo.burn_peak_slow);
            }
        }
        // Fleet fields only appear for fleet streams, so single-fabric
        // profiles stay byte-identical to pre-fleet baselines.
        if let Some(fl) = &self.fleet {
            v = v
                .with("fleet_shards", fl.shards)
                .with("fleet_routed", fl.routed)
                .with("fleet_rebalanced", fl.rebalanced)
                .with(
                    "shard_latency",
                    fl.tail
                        .iter()
                        .map(|t| {
                            mocha_json::jobj! {
                                "shard" => t.shard,
                                "jobs" => t.jobs,
                                "p50" => t.p50,
                                "p95" => t.p95,
                                "p99" => t.p99,
                            }
                        })
                        .collect::<Vec<_>>(),
                );
        }
        v
    }

    /// Deserializes a profile saved by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Profile, String> {
        if v.get(PROFILE_MARKER).is_none() {
            return Err("not a mocha-trace profile (missing marker)".into());
        }
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("profile field {key:?} missing or not an integer"))
        };
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("profile field {key:?} missing or not a number"))
        };
        let aj = |val: &Value, key: &str| -> Result<u128, String> {
            val.get(key)
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("profile field {key:?} missing or not a u128 string"))
        };
        let mut layers = Vec::new();
        for l in v.get("layers").and_then(Value::as_arr).unwrap_or(&[]) {
            layers.push(LayerRow {
                name: l
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("layer row missing name")?
                    .to_string(),
                cycles: l.get("cycles").and_then(Value::as_u64).unwrap_or(0),
                stall: l.get("stall").and_then(Value::as_u64).unwrap_or(0),
                overlap: l.get("overlap").and_then(Value::as_f64).unwrap_or(0.0),
                energy_aj: aj(l, "energy_aj")?,
            });
        }
        Ok(Profile {
            jobs: u("jobs")?,
            groups: u("groups")?,
            tiles: u("tiles")?,
            makespan: u("makespan")?,
            busy: LaneCycles {
                load: u("busy_load")?,
                compute: u("busy_compute")?,
                store: u("busy_store")?,
            },
            critical: CriticalPath {
                load: u("crit_load")?,
                compute: u("crit_compute")?,
                store: u("crit_store")?,
                stall: u("crit_stall")?,
            },
            overlap: f("overlap")?,
            idle_cycles: u("idle_cycles")?,
            idle_gaps: u("idle_gaps")?,
            dram_bytes: u("dram_bytes")?,
            energy_pj: f("energy_pj")?,
            phases: PhaseEnergy {
                load_aj: aj(v, "energy_load_aj")?,
                compute_aj: aj(v, "energy_compute_aj")?,
                store_aj: aj(v, "energy_store_aj")?,
                idle_aj: aj(v, "energy_idle_aj")?,
                unattributed_aj: aj(v, "energy_unattributed_aj")?,
            },
            layers,
            latency: match (
                v.get("latency_p50"),
                v.get("latency_p95"),
                v.get("latency_p99"),
            ) {
                (Some(a), Some(b), Some(c)) => match (a.as_u64(), b.as_u64(), c.as_u64()) {
                    (Some(a), Some(b), Some(c)) => Some((a, b, c)),
                    _ => return Err("latency percentiles are not integers".into()),
                },
                _ => None,
            },
            fault_events: v.get("fault_events").and_then(Value::as_u64).unwrap_or(0),
            fault_lost_cycles: v
                .get("fault_lost_cycles")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            windowed: match v.get("windows") {
                None => None,
                Some(_) => {
                    let mut tail = Vec::new();
                    for t in v
                        .get("window_latency")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                    {
                        let tu = |key: &str| -> Result<u64, String> {
                            t.get(key).and_then(Value::as_u64).ok_or_else(|| {
                                format!("window_latency field {key:?} missing or not an integer")
                            })
                        };
                        tail.push(WindowTail {
                            window: tu("window")?,
                            count: tu("count")?,
                            p50: tu("p50")?,
                            p95: tu("p95")?,
                            p99: tu("p99")?,
                        });
                    }
                    Some(WindowProfile {
                        width: u("window_width")?,
                        stride: u("window_stride")?,
                        count: u("windows")?,
                        tail,
                        slo: match v.get("slo_alerts") {
                            None => None,
                            Some(_) => Some(SloProfile {
                                alerts: u("slo_alerts")?,
                                burn_peak_fast: f("slo_burn_peak_fast")?,
                                burn_peak_slow: f("slo_burn_peak_slow")?,
                            }),
                        },
                    })
                }
            },
            fleet: match v.get("fleet_shards") {
                None => None,
                Some(_) => {
                    let mut tail = Vec::new();
                    for t in v
                        .get("shard_latency")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                    {
                        let tu = |key: &str| -> Result<u64, String> {
                            t.get(key).and_then(Value::as_u64).ok_or_else(|| {
                                format!("shard_latency field {key:?} missing or not an integer")
                            })
                        };
                        tail.push(ShardTail {
                            shard: tu("shard")?,
                            jobs: tu("jobs")?,
                            p50: tu("p50")?,
                            p95: tu("p95")?,
                            p99: tu("p99")?,
                        });
                    }
                    Some(FleetProfile {
                        shards: u("fleet_shards")?,
                        routed: u("fleet_routed")?,
                        rebalanced: u("fleet_rebalanced")?,
                        tail,
                    })
                }
            },
        })
    }

    /// The human-readable summary `trace summary` prints. Deterministic.
    pub fn summary_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let pct = |part: u128, whole: u128| -> f64 {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let _ = writeln!(
            out,
            "{} job(s), {} group(s), {} tile(s), makespan {} cycles",
            self.jobs, self.groups, self.tiles, self.makespan
        );
        let _ = writeln!(
            out,
            "lanes: load {} | compute {} | store {} busy cycles, overlap {:.2}x",
            self.busy.load, self.busy.compute, self.busy.store, self.overlap
        );
        let _ = writeln!(
            out,
            "critical path: load {} | compute {} | store {} | stall {} cycles",
            self.critical.load, self.critical.compute, self.critical.store, self.critical.stall
        );
        let _ = writeln!(
            out,
            "fabric idle: {} cycles in {} gap(s) | DRAM {} bytes",
            self.idle_cycles, self.idle_gaps, self.dram_bytes
        );
        let total = self.phases.total_aj();
        let _ = writeln!(
            out,
            "energy: {:.3} uJ — load {:.1} % | compute {:.1} % | store {:.1} % | idle {:.1} %{}",
            self.energy_pj / 1e6,
            pct(self.phases.load_aj, total),
            pct(self.phases.compute_aj, total),
            pct(self.phases.store_aj, total),
            pct(self.phases.idle_aj, total),
            if self.phases.unattributed_aj > 0 {
                format!(
                    " | unattributed {:.1} %",
                    pct(self.phases.unattributed_aj, total)
                )
            } else {
                String::new()
            }
        );
        if let Some((p50, p95, p99)) = self.latency {
            let _ = writeln!(out, "job latency: p50 {p50} | p95 {p95} | p99 {p99} cycles");
        }
        if self.fault_events > 0 || self.fault_lost_cycles > 0 {
            let _ = writeln!(
                out,
                "faults: {} injected, {} executed cycles lost",
                self.fault_events, self.fault_lost_cycles
            );
        }
        if let Some(w) = &self.windowed {
            let _ = writeln!(
                out,
                "windowed: {} window(s) of {} cycles (stride {})",
                w.count, w.width, w.stride
            );
            if let Some(slo) = &w.slo {
                let _ = writeln!(
                    out,
                    "SLO: {} alert(s) | peak burn fast {:.2} slow {:.2}",
                    slo.alerts, slo.burn_peak_fast, slo.burn_peak_slow
                );
            }
            if !w.tail.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>12} {:>8} {:>10} {:>10} {:>10}",
                    "window", "start", "count", "p50", "p95", "p99"
                );
                for t in &w.tail {
                    let _ = writeln!(
                        out,
                        "  {:>6} {:>12} {:>8} {:>10} {:>10} {:>10}",
                        t.window,
                        t.window * w.stride,
                        t.count,
                        t.p50,
                        t.p95,
                        t.p99,
                    );
                }
            }
        }
        if let Some(fl) = &self.fleet {
            let _ = writeln!(
                out,
                "fleet: {} shard(s) | {} routed | {} rebalanced",
                fl.shards, fl.routed, fl.rebalanced
            );
            if !fl.tail.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>8} {:>10} {:>10} {:>10}",
                    "shard", "jobs", "p50", "p95", "p99"
                );
                for t in &fl.tail {
                    let _ = writeln!(
                        out,
                        "  {:>6} {:>8} {:>10} {:>10} {:>10}",
                        t.shard, t.jobs, t.p50, t.p95, t.p99,
                    );
                }
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>10} {:>8} {:>12} {:>7}",
                "group", "cycles", "stall", "overlap", "energy uJ", "share"
            );
            for l in &self.layers {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>12} {:>10} {:>7.2}x {:>12.3} {:>6.1} %",
                    l.name,
                    l.cycles,
                    l.stall,
                    l.overlap,
                    l.energy_aj as f64 / 1e12,
                    pct(l.energy_aj, total),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;
    use mocha_energy::EventCounts;
    use mocha_obs::Recorder;

    fn sample_profile() -> Profile {
        let mut rec = mocha_obs::MemRecorder::new();
        rec.span(|| "job/0".into(), 0, 100);
        rec.span(|| "job/0/group/conv1".into(), 0, 100);
        rec.span(|| "job/0/group/conv1/tile/0/load".into(), 0, 40);
        rec.span(|| "job/0/group/conv1/tile/0/compute".into(), 40, 90);
        rec.span(|| "job/0/group/conv1/tile/0/store".into(), 90, 100);
        EventCounts {
            macs: 5000,
            dram_read_bytes: 256,
            priced_pj: 3.5,
            active_cycles: 100,
            ..Default::default()
        }
        .record(&mut rec);
        rec.sample("runtime.latency_cycles", 100);
        let stream = parse_stream(&rec.to_jsonl()).unwrap();
        let tree = SpanTree::build(&stream.spans).unwrap();
        Profile::build(&tree, &stream, &EnergyTable::default()).0
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = sample_profile();
        let v = p.to_json();
        assert!(v.get(PROFILE_MARKER).is_some());
        let q = Profile::from_json(&v).expect("round-trips");
        assert_eq!(p, q);
        // And byte-stable through a reprint.
        let text = v.to_string_pretty();
        let r = Profile::from_json(&mocha_json::parse(&text).unwrap()).unwrap();
        assert_eq!(r.to_json().to_string_pretty(), text);
    }

    #[test]
    fn from_json_rejects_non_profiles() {
        assert!(Profile::from_json(&mocha_json::jobj! {"x" => 1u64}).is_err());
    }

    #[test]
    fn fault_fields_serialize_only_when_faults_were_injected() {
        let clean = sample_profile();
        assert_eq!(clean.fault_events, 0);
        let text = clean.to_json().to_string_pretty();
        assert!(!text.contains("fault"), "zero-fault profiles stay stable");
        let mut faulted = clean.clone();
        faulted.fault_events = 3;
        faulted.fault_lost_cycles = 120;
        let v = faulted.to_json();
        assert_eq!(v.get("fault_events").and_then(Value::as_u64), Some(3));
        let back = Profile::from_json(&v).unwrap();
        assert_eq!(back, faulted);
        assert!(faulted
            .summary_text()
            .contains("faults: 3 injected, 120 executed cycles lost"));
        // A pre-fault-injection profile (no fault keys) still loads.
        assert_eq!(Profile::from_json(&clean.to_json()).unwrap(), clean);
    }

    #[test]
    fn window_fields_serialize_only_for_windowed_streams() {
        let clean = sample_profile();
        assert!(clean.windowed.is_none());
        assert!(!clean.to_json().to_string_pretty().contains("window"));
        let mut windowed = clean.clone();
        windowed.windowed = Some(WindowProfile {
            width: 1_000,
            stride: 500,
            count: 3,
            tail: vec![WindowTail {
                window: 0,
                count: 4,
                p50: 10,
                p95: 20,
                p99: 30,
            }],
            slo: Some(SloProfile {
                alerts: 2,
                burn_peak_fast: 8.5,
                burn_peak_slow: 1.25,
            }),
        });
        let back = Profile::from_json(&windowed.to_json()).expect("round-trips");
        assert_eq!(back, windowed);
        let text = windowed.summary_text();
        assert!(text.contains("windowed: 3 window(s) of 1000 cycles"));
        assert!(text.contains("SLO: 2 alert(s)"));
        assert!(text.contains("p99"), "tail table header");
        // Pre-telemetry profiles (no window keys) still load.
        assert_eq!(Profile::from_json(&clean.to_json()).unwrap(), clean);
    }

    #[test]
    fn build_distils_an_embedded_metrics_export() {
        use mocha_obs::{WindowSpec, WindowedMetrics};
        let mut rec = mocha_obs::MemRecorder::new();
        rec.span(|| "job/0".into(), 0, 100);
        rec.span(|| "job/0/group/conv1".into(), 0, 100);
        rec.span(|| "job/0/group/conv1/tile/0/compute".into(), 0, 100);
        let mut m = WindowedMetrics::new(WindowSpec::tumbling(200));
        let l = m.windows.intern(&[("template", "tiny")]);
        m.windows
            .sample_at(mocha_obs::names::HIST_JOB_LATENCY, l, 100, 100);
        m.windows
            .sample_at(mocha_obs::names::HIST_JOB_LATENCY, l, 250, 70);
        m.enable_slo();
        m.slo.as_mut().unwrap().good(0, 1);
        m.slo.as_mut().unwrap().miss(1, 1);
        let text = format!("{}{}", rec.to_jsonl(), m.to_jsonl());
        let stream = parse_stream(&text).unwrap();
        let tree = SpanTree::build(&stream.spans).unwrap();
        let (p, _) = Profile::build(&tree, &stream, &EnergyTable::default());
        let w = p.windowed.expect("windowed stream distils windows");
        assert_eq!((w.width, w.count), (200, 2));
        // One aggregate (empty-label) tail row per window.
        assert_eq!(w.tail.len(), 2);
        assert_eq!((w.tail[0].p99, w.tail[1].p99), (100, 70));
        let slo = w.slo.expect("slo rows distil");
        assert!(slo.burn_peak_fast > 0.0);
    }

    #[test]
    fn fleet_fields_serialize_only_for_fleet_streams() {
        let clean = sample_profile();
        assert!(clean.fleet.is_none());
        assert!(!clean.to_json().to_string_pretty().contains("fleet"));
        let mut fleet = clean.clone();
        fleet.fleet = Some(FleetProfile {
            shards: 3,
            routed: 40,
            rebalanced: 5,
            tail: vec![ShardTail {
                shard: 1,
                jobs: 12,
                p50: 90,
                p95: 200,
                p99: 250,
            }],
        });
        let back = Profile::from_json(&fleet.to_json()).expect("round-trips");
        assert_eq!(back, fleet);
        let text = fleet.summary_text();
        assert!(text.contains("fleet: 3 shard(s) | 40 routed | 5 rebalanced"));
        assert!(text.contains("shard"), "per-shard tail table header");
        // Pre-fleet profiles (no fleet keys) still load.
        assert_eq!(Profile::from_json(&clean.to_json()).unwrap(), clean);
    }

    #[test]
    fn build_distils_fleet_streams_into_per_shard_tails() {
        let mut rec = mocha_obs::MemRecorder::new();
        rec.span(|| "fleet/shard0".into(), 0, 300);
        rec.span(|| "fleet/shard0/job/0".into(), 0, 100);
        rec.span(|| "fleet/shard0/job/2".into(), 100, 300);
        rec.span(|| "fleet/shard1/job/1".into(), 0, 50);
        rec.span(|| "fleet/shard1/fault/pe".into(), 60, 80);
        rec.add(mocha_obs::names::FLEET_SHARDS, 2);
        rec.add(mocha_obs::names::FLEET_ROUTED, 3);
        rec.add(mocha_obs::names::FLEET_REBALANCED, 1);
        let stream = parse_stream(&rec.to_jsonl()).unwrap();
        let tree = SpanTree::build(&stream.spans).unwrap();
        let (p, _) = Profile::build(&tree, &stream, &EnergyTable::default());
        let fl = p
            .fleet
            .clone()
            .expect("fleet stream distils a fleet section");
        assert_eq!((fl.shards, fl.routed, fl.rebalanced), (2, 3, 1));
        assert_eq!(fl.tail.len(), 2);
        assert_eq!((fl.tail[0].shard, fl.tail[0].jobs), (0, 2));
        assert_eq!((fl.tail[0].p50, fl.tail[0].p99), (100, 200));
        assert_eq!((fl.tail[1].shard, fl.tail[1].p99), (1, 50));
        // The lost-work span lands in the shared fault list.
        assert_eq!(tree.faults.len(), 1);
        assert_eq!(tree.faults[0].kind, "pe");
        assert!(p.summary_text().contains("fleet: 2 shard(s)"));
    }

    #[test]
    fn summary_text_mentions_the_key_lines() {
        let text = sample_profile().summary_text();
        assert!(text.contains("1 job(s), 1 group(s), 1 tile(s)"));
        assert!(text.contains("critical path:"));
        assert!(text.contains("energy:"));
        assert!(text.contains("job latency: p50 100"));
        assert!(text.contains("conv1"));
    }
}

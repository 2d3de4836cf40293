//! Fleet spec: the user-facing description of a heterogeneous fleet.
//!
//! A fleet is an ordered list of fabric *instances* (shards) of possibly
//! differing grid/SPM geometry. The CLI grammar mirrors [`FaultPlan`]'s
//! strict key=value contract: instances are `/`-separated, each instance is
//! a comma list of `key=value` pairs, every key must be known, and every
//! value must be well-formed and in range — one-line errors, exit 2 at the
//! CLI boundary.
//!
//! ```text
//! --fleet preset=quad/preset=mocha,count=2
//! --fleet grid=16,banks=32/grid=8,banks=16,kb=16
//! ```
//!
//! [`FaultPlan`]: mocha_fault::FaultPlan

use mocha_core::DecisionCache;
use mocha_engine::Engine;
use mocha_fabric::FabricConfig;
use mocha_runtime::JobSpec;

use crate::calibrate::Calibration;

/// Hard cap on fleet size: large enough for every experiment, small enough
/// that a typo'd `count=` cannot allocate a silly simulation.
pub const MAX_SHARDS: usize = 64;

/// One fabric instance of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Structural geometry of this instance.
    pub fabric: FabricConfig,
    /// Short human label (`16x16/32b`), used by reports and tables.
    pub label: String,
}

/// An ordered, validated list of fabric instances. Shard order is the
/// canonical order every fleet report and recorder stream merges in.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    shards: Vec<ShardSpec>,
}

impl FleetSpec {
    /// Parse a CLI fleet spec. Strict: instances are `/`-separated comma
    /// lists of `key=value` pairs where every key is one of
    /// `preset|grid|banks|kb|lanes|dma|codecs|count`; each instance starts
    /// from its preset (default `mocha`) and applies overrides; every
    /// resulting fabric must validate; 1..=[`MAX_SHARDS`] shards total.
    pub fn parse(spec: &str) -> Result<FleetSpec, String> {
        if spec.trim().is_empty() {
            return Err(
                "fleet spec is empty (expected /-separated instances of preset=P,grid=N,banks=N,kb=N,lanes=N,dma=N,codecs=N,count=N)"
                    .into(),
            );
        }
        // Instances are expanded only after the shard cap is checked, so a
        // long spec of large counts is refused before it allocates.
        let mut instances = Vec::new();
        for part in spec.split('/') {
            if part.is_empty() {
                return Err("fleet spec has an empty instance (stray '/')".into());
            }
            let mut fabric = FabricConfig::mocha();
            let mut count = 1usize;
            for item in part.split(',') {
                let (key, value) = item
                    .split_once('=')
                    .ok_or_else(|| format!("fleet spec item '{item}' is not key=value"))?;
                match key {
                    "preset" => {
                        fabric = match value {
                            "mocha" => FabricConfig::mocha(),
                            "quad" => FabricConfig::mocha_quad(),
                            "baseline" => FabricConfig::baseline(),
                            other => {
                                return Err(format!(
                                    "unknown fleet preset '{other}' (expected mocha|quad|baseline)"
                                ))
                            }
                        };
                    }
                    "grid" => {
                        let n = parse_dim("fleet grid", value, 1, 64)?;
                        fabric.pe_rows = n;
                        fabric.pe_cols = n;
                    }
                    "banks" => fabric.spm_banks = parse_dim("fleet banks", value, 1, 256)?,
                    "kb" => fabric.spm_bank_kb = parse_dim("fleet bank kb", value, 1, 1024)?,
                    "lanes" => fabric.noc_dma_lanes = parse_dim("fleet lanes", value, 1, 64)?,
                    "dma" => fabric.dma_engines = parse_dim("fleet dma", value, 1, 64)?,
                    "codecs" => fabric.codec_engines = parse_dim("fleet codecs", value, 0, 256)?,
                    "count" => count = parse_dim("fleet count", value, 1, MAX_SHARDS)?,
                    other => {
                        return Err(format!(
                            "unknown fleet spec key '{other}' (expected preset|grid|banks|kb|lanes|dma|codecs|count)"
                        ));
                    }
                }
            }
            fabric
                .validate()
                .map_err(|e| format!("fleet instance '{part}' is invalid: {e}"))?;
            instances.push((fabric, count));
        }
        let total = instances
            .iter()
            .fold(0usize, |n, &(_, count)| n.saturating_add(count));
        if total > MAX_SHARDS {
            return Err(format!(
                "fleet spec names {total} shards, the maximum is {MAX_SHARDS}"
            ));
        }
        let shards = instances
            .into_iter()
            .flat_map(|(fabric, count)| {
                let shard = ShardSpec {
                    label: label(&fabric),
                    fabric,
                };
                std::iter::repeat_n(shard, count)
            })
            .collect();
        Ok(FleetSpec { shards })
    }

    /// A fleet of exactly one instance — the off-switch configuration the
    /// fleet-of-1 differential tests pin against the single-fabric runtime.
    pub fn single(fabric: FabricConfig) -> FleetSpec {
        FleetSpec {
            shards: vec![ShardSpec {
                label: label(&fabric),
                fabric,
            }],
        }
    }

    /// The shards in canonical (spec) order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// A spec is never empty once parsed; this exists for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Calibrates `specs` on `slots` tenant slots of every shard, returning
    /// one calibration per shard in canonical order. Each distinct geometry
    /// is measured once, in first-appearance order; repeats share its
    /// table. With `cache` one decision cache spans the geometries: the
    /// measured cycles are byte-identical either way, only controller
    /// search work is saved. Fails on specs that do not validate.
    pub fn calibrate(
        &self,
        slots: usize,
        specs: &[JobSpec],
        engine: Engine,
        mut cache: Option<&mut DecisionCache>,
    ) -> Result<Vec<Calibration>, String> {
        let mut cals: Vec<Calibration> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let seen = self.shards[..i]
                .iter()
                .position(|s| s.fabric == shard.fabric);
            let cal = match (seen, cache.as_deref_mut()) {
                (Some(j), _) => cals[j].clone(),
                (None, Some(c)) => {
                    Calibration::measure_cached(&shard.fabric, slots, specs, engine, c)?
                }
                (None, None) => Calibration::measure(&shard.fabric, slots, specs, engine)?,
            };
            cals.push(cal);
        }
        Ok(cals)
    }
}

/// Deterministic per-shard derivation of a base seed: shard 0 keeps the
/// base seed *unchanged* (so a fleet of one replays the single-fabric run
/// bit for bit), later shards step by the SplitMix64 increment.
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A shard's short report label: `{rows}x{cols}/{banks}b`.
fn label(fabric: &FabricConfig) -> String {
    format!(
        "{}x{}/{}b",
        fabric.pe_rows, fabric.pe_cols, fabric.spm_banks
    )
}

fn parse_dim(what: &str, value: &str, min: usize, max: usize) -> Result<usize, String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("{what} '{value}' is not an integer"))?;
    if n < min || n > max {
        return Err(format!("{what} must be in [{min}, {max}], got '{value}'"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_presets_overrides_and_counts() {
        let f = FleetSpec::parse("preset=quad/preset=mocha,count=2").expect("valid");
        assert_eq!(f.len(), 3);
        assert_eq!(f.shards()[0].fabric, FabricConfig::mocha_quad());
        assert_eq!(f.shards()[1].fabric, FabricConfig::mocha());
        assert_eq!(f.shards()[1], f.shards()[2]);
        assert_eq!(f.shards()[0].label, "16x16/32b");

        let f = FleetSpec::parse("grid=16,banks=32,kb=16").expect("valid");
        assert_eq!(f.len(), 1);
        assert_eq!(f.shards()[0].fabric.pe_rows, 16);
        assert_eq!(f.shards()[0].fabric.spm_bank_kb, 16);
    }

    #[test]
    fn parse_rejects_malformed_specs_with_one_line_errors() {
        for bad in [
            "",
            " ",
            "grid",
            "grid=0",
            "grid=banana",
            "grid=9999",
            "preset=nope",
            "grid=8,bogus=1",
            "grid=8//grid=8",
            "grid=8,count=0",
            "grid=8,count=65",
            "preset=mocha,count=33/preset=mocha,count=32",
        ] {
            let err = FleetSpec::parse(bad).expect_err(bad);
            assert!(!err.contains('\n'), "error for '{bad}' is one line: {err}");
        }
    }

    #[test]
    fn the_shard_cap_is_checked_before_instances_expand() {
        let spec = vec!["count=64"; 10_000].join("/");
        assert_eq!(
            FleetSpec::parse(&spec).expect_err("over the cap"),
            "fleet spec names 640000 shards, the maximum is 64"
        );
        assert_eq!(
            FleetSpec::parse("count=40/count=40").expect_err("over the cap"),
            "fleet spec names 80 shards, the maximum is 64"
        );
        assert_eq!(FleetSpec::parse("count=32/count=32").unwrap().len(), 64);
    }

    #[test]
    fn every_parsed_fabric_validates() {
        let f = FleetSpec::parse("grid=4,banks=4,lanes=2,dma=2,codecs=0/preset=baseline").unwrap();
        for s in f.shards() {
            s.fabric.validate().unwrap();
        }
    }

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        assert_eq!(shard_seed(7, 0), 7);
        assert_ne!(shard_seed(7, 1), 7);
        assert_ne!(shard_seed(7, 1), shard_seed(7, 2));
    }

    #[test]
    fn calibrate_measures_each_geometry_once_with_or_without_a_cache() {
        let specs = [JobSpec {
            network: "tiny".into(),
            profile: "sparse".into(),
            objective: mocha_core::Objective::Edp,
            priority: mocha_runtime::Priority::Normal,
            seed: 1,
        }];
        let fleet = FleetSpec::parse("preset=mocha/preset=quad/preset=mocha").unwrap();
        let plain = fleet.calibrate(4, &specs, Engine::single(), None).unwrap();
        assert_eq!(plain.len(), 3);
        assert_eq!(plain[0].entries(), plain[2].entries());
        assert_eq!(plain[2].slot(), plain[0].slot());
        let quad = Calibration::measure(&FabricConfig::mocha_quad(), 4, &specs, Engine::single());
        assert_eq!(plain[1].entries(), quad.unwrap().entries());
        let mut cache = DecisionCache::new();
        let cached = fleet
            .calibrate(4, &specs, Engine::new(2), Some(&mut cache))
            .unwrap();
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.entries(), b.entries());
        }
        let bad = JobSpec {
            network: "nope".into(),
            ..specs[0].clone()
        };
        assert!(fleet.calibrate(4, &[bad], Engine::single(), None).is_err());
    }

    #[test]
    fn single_matches_a_parsed_one_instance_spec() {
        assert_eq!(
            FleetSpec::single(FabricConfig::mocha_quad()),
            FleetSpec::parse("preset=quad").unwrap()
        );
    }
}

//! The per-event energy table.
//!
//! Defaults are 45 nm-class numbers assembled from the standard public
//! sources the accelerator literature calibrates against (Horowitz,
//! "Computing's energy problem", ISSCC'14; the Eyeriss energy hierarchy):
//! an 8-bit MAC is the unit of account, a register-file access costs about
//! the same, scratchpad SRAM ~6×, DRAM ~100–200×. The paper's own numbers
//! are post-layout synthesis in a different node; since every configuration
//! in an experiment is priced with the *same* table, the relative results —
//! which is what the abstract's percentages are — are preserved.

use crate::events::EventCounts;

/// Per-event energies in picojoules, plus clock and leakage parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One 8-bit multiply-accumulate in a PE datapath.
    pub mac_pj: f64,
    /// One elided (zero-skipped) MAC: the skip comparator still toggles.
    pub mac_skip_pj: f64,
    /// One pooling compare/add.
    pub pool_op_pj: f64,
    /// One register-file read access.
    pub rf_read_pj: f64,
    /// One register-file write access.
    pub rf_write_pj: f64,
    /// One byte read from a scratchpad SRAM bank.
    pub spm_read_pj_per_byte: f64,
    /// One byte written to a scratchpad SRAM bank.
    pub spm_write_pj_per_byte: f64,
    /// One flit (one byte payload) crossing one NoC link.
    pub noc_hop_pj_per_flit: f64,
    /// One byte crossing the DRAM interface.
    pub dram_pj_per_byte: f64,
    /// Fixed command/row overhead per DRAM burst.
    pub dram_burst_pj: f64,
    /// Fabric clock frequency in GHz (for time and leakage integration).
    pub clock_ghz: f64,
    /// Total static (leakage) power of the active fabric in milliwatts.
    pub leakage_mw: f64,
}

mocha_json::impl_json_struct!(EnergyTable {
    mac_pj,
    mac_skip_pj,
    pool_op_pj,
    rf_read_pj,
    rf_write_pj,
    spm_read_pj_per_byte,
    spm_write_pj_per_byte,
    noc_hop_pj_per_flit,
    dram_pj_per_byte,
    dram_burst_pj,
    clock_ghz,
    leakage_mw,
});

impl Default for EnergyTable {
    fn default() -> Self {
        Self {
            mac_pj: 0.2,
            mac_skip_pj: 0.01,
            pool_op_pj: 0.05,
            rf_read_pj: 0.08,
            rf_write_pj: 0.10,
            spm_read_pj_per_byte: 1.2,
            spm_write_pj_per_byte: 1.4,
            noc_hop_pj_per_flit: 0.3,
            dram_pj_per_byte: 25.0,
            dram_burst_pj: 200.0,
            clock_ghz: 0.5,
            leakage_mw: 15.0,
        }
    }
}

/// Energy of a run split by component — the breakdown figure F2 plots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// PE datapath energy (MACs, skips, pool ops), pJ.
    pub compute_pj: f64,
    /// Register-file energy, pJ.
    pub rf_pj: f64,
    /// Scratchpad SRAM energy, pJ.
    pub spm_pj: f64,
    /// NoC transport energy, pJ.
    pub noc_pj: f64,
    /// DRAM interface energy, pJ.
    pub dram_pj: f64,
    /// Compression engine energy, pJ.
    pub codec_pj: f64,
    /// Integrated leakage over the active period, pJ.
    pub leakage_pj: f64,
}

mocha_json::impl_json_struct!(EnergyBreakdown {
    compute_pj,
    rf_pj,
    spm_pj,
    noc_pj,
    dram_pj,
    codec_pj,
    leakage_pj,
});

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj
            + self.rf_pj
            + self.spm_pj
            + self.noc_pj
            + self.dram_pj
            + self.codec_pj
            + self.leakage_pj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() / 1e9
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.rf_pj += other.rf_pj;
        self.spm_pj += other.spm_pj;
        self.noc_pj += other.noc_pj;
        self.dram_pj += other.dram_pj;
        self.codec_pj += other.codec_pj;
        self.leakage_pj += other.leakage_pj;
    }
}

impl EnergyTable {
    /// Checks that every energy is finite and non-negative and the clock
    /// is positive, returning a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("mac_pj", self.mac_pj),
            ("mac_skip_pj", self.mac_skip_pj),
            ("pool_op_pj", self.pool_op_pj),
            ("rf_read_pj", self.rf_read_pj),
            ("rf_write_pj", self.rf_write_pj),
            ("spm_read_pj_per_byte", self.spm_read_pj_per_byte),
            ("spm_write_pj_per_byte", self.spm_write_pj_per_byte),
            ("noc_hop_pj_per_flit", self.noc_hop_pj_per_flit),
            ("dram_pj_per_byte", self.dram_pj_per_byte),
            ("dram_burst_pj", self.dram_burst_pj),
            ("clock_ghz", self.clock_ghz),
            ("leakage_mw", self.leakage_mw),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if self.clock_ghz == 0.0 {
            return Err("clock_ghz must be positive".into());
        }
        Ok(())
    }

    /// Prices a run's event counts into a component breakdown.
    pub fn price(&self, e: &EventCounts) -> EnergyBreakdown {
        let seconds = e.active_cycles as f64 / (self.clock_ghz * 1e9);
        EnergyBreakdown {
            compute_pj: e.macs as f64 * self.mac_pj
                + e.macs_skipped as f64 * self.mac_skip_pj
                + e.pool_ops as f64 * self.pool_op_pj,
            rf_pj: e.rf_reads as f64 * self.rf_read_pj + e.rf_writes as f64 * self.rf_write_pj,
            spm_pj: e.spm_read_bytes as f64 * self.spm_read_pj_per_byte
                + e.spm_write_bytes as f64 * self.spm_write_pj_per_byte,
            noc_pj: e.noc_flit_hops as f64 * self.noc_hop_pj_per_flit,
            dram_pj: e.dram_read_bytes as f64 * self.dram_pj_per_byte
                + e.dram_write_bytes as f64 * self.dram_pj_per_byte
                + e.dram_bursts as f64 * self.dram_burst_pj,
            codec_pj: e.priced_pj,
            // leakage = P_static × t; 1 mW × 1 s = 1e9 pJ.
            leakage_pj: self.leakage_mw * seconds * 1e9,
        }
    }

    /// Wall-clock seconds for a cycle count at this table's frequency.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_negative_non_finite_and_zero_clock() {
        EnergyTable::default().validate().unwrap();
        let d = EnergyTable::default();
        for (t, needle) in [
            (
                EnergyTable {
                    clock_ghz: 0.0,
                    ..d
                },
                "clock_ghz must be positive",
            ),
            (
                EnergyTable {
                    clock_ghz: -1.0,
                    ..d
                },
                "clock_ghz",
            ),
            (
                EnergyTable {
                    dram_pj_per_byte: f64::INFINITY,
                    ..d
                },
                "dram_pj_per_byte",
            ),
            (
                EnergyTable {
                    leakage_mw: f64::NAN,
                    ..d
                },
                "leakage_mw",
            ),
        ] {
            let err = t.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn defaults_respect_the_energy_hierarchy() {
        let t = EnergyTable::default();
        // RF ≈ MAC < SRAM/byte < DRAM/byte, the canonical ordering.
        assert!(t.rf_read_pj < t.spm_read_pj_per_byte);
        assert!(t.spm_read_pj_per_byte < t.dram_pj_per_byte);
        assert!(
            t.dram_pj_per_byte / t.mac_pj > 50.0,
            "DRAM must dominate MACs"
        );
        assert!(
            t.mac_skip_pj < t.mac_pj / 10.0,
            "skipping must be nearly free"
        );
    }

    #[test]
    fn price_zero_counts_is_zero() {
        let b = EnergyTable::default().price(&EventCounts::default());
        assert_eq!(b.total_pj(), 0.0);
    }

    #[test]
    fn price_is_linear_in_counts() {
        let t = EnergyTable::default();
        let e1 = EventCounts {
            macs: 100,
            spm_read_bytes: 50,
            ..Default::default()
        };
        let e2 = EventCounts {
            macs: 200,
            spm_read_bytes: 100,
            ..Default::default()
        };
        assert!((2.0 * t.price(&e1).total_pj() - t.price(&e2).total_pj()).abs() < 1e-9);
    }

    #[test]
    fn dram_burst_overhead_is_charged() {
        let t = EnergyTable::default();
        let without = EventCounts {
            dram_read_bytes: 64,
            ..Default::default()
        };
        let with = EventCounts {
            dram_read_bytes: 64,
            dram_bursts: 1,
            ..Default::default()
        };
        assert!((t.price(&with).dram_pj - t.price(&without).dram_pj - 200.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_integrates_over_cycles() {
        let t = EnergyTable::default();
        let e = EventCounts {
            active_cycles: 500_000_000,
            ..Default::default()
        }; // 1 s at 0.5 GHz
        let b = t.price(&e);
        // 15 mW for 1 s = 15 mJ = 1.5e10 pJ.
        assert!((b.leakage_pj - 1.5e10).abs() / 1.5e10 < 1e-9);
    }

    #[test]
    fn seconds_conversion() {
        let t = EnergyTable::default();
        assert!((t.seconds(500_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let b = EnergyBreakdown {
            compute_pj: 1.0,
            rf_pj: 2.0,
            spm_pj: 3.0,
            noc_pj: 4.0,
            dram_pj: 5.0,
            codec_pj: 6.0,
            leakage_pj: 7.0,
        };
        assert_eq!(b.total_pj(), 28.0);
        let mut c = b;
        c.merge(&b);
        assert_eq!(c.total_pj(), 56.0);
    }

    #[test]
    fn codec_energy_passes_through_priced_pj() {
        let t = EnergyTable::default();
        let e = EventCounts {
            priced_pj: 42.0,
            ..Default::default()
        };
        assert_eq!(t.price(&e).codec_pj, 42.0);
    }
}

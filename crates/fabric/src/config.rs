//! Fabric configuration: the structural parameters of one accelerator
//! instance.
//!
//! The default models the DRRA/DiMArch-class fabric MOCHA is built on: an
//! 8×8 PE array, a 16-bank distributed scratchpad (DiMArch), a 2-D
//! circuit-switched mesh NoC and a single LPDDR-class DRAM channel. The same
//! structure serves MOCHA and every baseline; baselines simply carry no
//! codec engines and a fixed controller (see `mocha_energy::AreaTable`).

use mocha_energy::FabricInventory;

/// Structural and rate parameters of a fabric instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// PE grid rows.
    pub pe_rows: usize,
    /// PE grid columns.
    pub pe_cols: usize,
    /// Register-file capacity per PE, bytes.
    pub rf_bytes_per_pe: usize,
    /// MACs each PE issues per cycle (1 for the 8-bit datapath).
    pub macs_per_pe_per_cycle: usize,
    /// Number of scratchpad banks.
    pub spm_banks: usize,
    /// Capacity of each bank, KB.
    pub spm_bank_kb: usize,
    /// Bytes each bank can read or write per cycle.
    pub spm_bank_bytes_per_cycle: usize,
    /// Payload bytes one NoC link moves per cycle.
    pub noc_link_bytes_per_cycle: usize,
    /// Per-hop pipeline latency of the NoC, cycles.
    pub noc_hop_latency: u64,
    /// Parallel NoC lanes between the DRAM-side DMA and the scratchpad.
    pub noc_dma_lanes: usize,
    /// Sustained DRAM bandwidth, bytes per fabric cycle.
    pub dram_bytes_per_cycle: f64,
    /// DRAM burst granularity, bytes (transfers round up to bursts).
    pub dram_burst_bytes: usize,
    /// Fixed latency of one DRAM access before data flows, cycles.
    pub dram_latency_cycles: u64,
    /// Number of DMA engines (concurrent outstanding transfers).
    pub dma_engines: usize,
    /// Number of compression engines; 0 disables the compressed path.
    pub codec_engines: usize,
    /// Whether the morphing controller is present (area accounting).
    pub morphable: bool,
}

mocha_json::impl_json_struct!(FabricConfig {
    pe_rows,
    pe_cols,
    rf_bytes_per_pe,
    macs_per_pe_per_cycle,
    spm_banks,
    spm_bank_kb,
    spm_bank_bytes_per_cycle,
    noc_link_bytes_per_cycle,
    noc_hop_latency,
    noc_dma_lanes,
    dram_bytes_per_cycle,
    dram_burst_bytes,
    dram_latency_cycles,
    dma_engines,
    codec_engines,
    morphable,
});

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            pe_rows: 8,
            pe_cols: 8,
            rf_bytes_per_pe: 512,
            macs_per_pe_per_cycle: 1,
            spm_banks: 16,
            spm_bank_kb: 8,
            spm_bank_bytes_per_cycle: 4,
            noc_link_bytes_per_cycle: 4,
            noc_hop_latency: 1,
            noc_dma_lanes: 4,
            dram_bytes_per_cycle: 3.2,
            dram_burst_bytes: 64,
            dram_latency_cycles: 40,
            dma_engines: 2,
            codec_engines: 12,
            morphable: true,
        }
    }
}

impl FabricConfig {
    /// The default MOCHA instance (morphable, with codecs).
    pub fn mocha() -> Self {
        Self::default()
    }

    /// The same fabric stripped to prior-art shape: no compression engines,
    /// fixed controller. Used by every baseline accelerator.
    pub fn baseline() -> Self {
        Self {
            codec_engines: 0,
            morphable: false,
            ..Self::default()
        }
    }

    /// The serving-scale instance: a 16x16 grid with four of everything on
    /// the memory path, sized so the multi-tenant runtime can carve four
    /// disjoint leases that are each as capable as the single-tenant
    /// [`FabricConfig::mocha`] fabric.
    pub fn mocha_quad() -> Self {
        Self {
            pe_rows: 16,
            pe_cols: 16,
            spm_banks: 32,
            noc_dma_lanes: 8,
            dma_engines: 4,
            codec_engines: 24,
            dram_bytes_per_cycle: 6.4,
            ..Self::default()
        }
    }

    /// Total number of PEs.
    pub fn pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Peak MAC throughput, MACs per cycle.
    pub fn peak_macs_per_cycle(&self) -> usize {
        self.pes() * self.macs_per_pe_per_cycle
    }

    /// Total scratchpad capacity in bytes.
    pub fn spm_bytes(&self) -> usize {
        self.spm_banks * self.spm_bank_kb * 1024
    }

    /// Aggregate scratchpad bandwidth, bytes per cycle.
    pub fn spm_bytes_per_cycle(&self) -> usize {
        self.spm_banks * self.spm_bank_bytes_per_cycle
    }

    /// Aggregate DMA↔scratchpad NoC bandwidth, bytes per cycle.
    pub fn noc_dma_bytes_per_cycle(&self) -> usize {
        self.noc_dma_lanes * self.noc_link_bytes_per_cycle
    }

    /// Whether compressed streams can be decoded in hardware.
    pub fn has_codecs(&self) -> bool {
        self.codec_engines > 0
    }

    /// Mean Manhattan hop count between the DMA port (at the array edge) and
    /// a uniformly random scratchpad bank — used for NoC energy accounting.
    pub fn mean_noc_hops(&self) -> f64 {
        // Banks sit along the array columns; the DMA injects at one edge.
        // Mean distance over a row of `spm_banks/rows` positions plus the
        // column traversal averages to half the mesh diameter.
        (self.pe_rows + self.pe_cols) as f64 / 2.0
    }

    /// Structural inventory for area pricing.
    pub fn inventory(&self) -> FabricInventory {
        FabricInventory {
            pes: self.pes(),
            scratchpad_kb: self.spm_banks * self.spm_bank_kb,
            noc_routers: self.spm_banks,
            dma_engines: self.dma_engines,
            codec_engines: self.codec_engines,
            morphable: self.morphable,
        }
    }

    /// Validates internal consistency and range, returning a description
    /// of the first problem found.
    ///
    /// Every rate and count is positive (except the optional register
    /// files, codec engines and latencies) and at most [`MAX_FIELD`]; DRAM
    /// bandwidth is at least [`MIN_DRAM_BYTES_PER_CYCLE`] and latencies are
    /// at most [`MAX_LATENCY_CYCLES`]. Within those bounds no product of
    /// two fields overflows, and a zoo network's cycle total stays far
    /// below `u64::MAX`.
    pub fn validate(&self) -> Result<(), String> {
        if self.pe_rows == 0 || self.pe_cols == 0 {
            return Err("PE grid must be non-empty".into());
        }
        if self.spm_banks == 0 || self.spm_bank_kb == 0 {
            return Err("scratchpad must have capacity".into());
        }
        if self.dma_engines == 0 {
            return Err("need at least one DMA engine".into());
        }
        if self.noc_dma_lanes == 0 || self.noc_link_bytes_per_cycle == 0 {
            return Err("NoC must have bandwidth".into());
        }
        for (name, value) in [
            ("macs_per_pe_per_cycle", self.macs_per_pe_per_cycle),
            ("spm_bank_bytes_per_cycle", self.spm_bank_bytes_per_cycle),
            ("dram_burst_bytes", self.dram_burst_bytes),
        ] {
            if value == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        for (name, value) in [
            ("pe_rows", self.pe_rows),
            ("pe_cols", self.pe_cols),
            ("rf_bytes_per_pe", self.rf_bytes_per_pe),
            ("macs_per_pe_per_cycle", self.macs_per_pe_per_cycle),
            ("spm_banks", self.spm_banks),
            ("spm_bank_kb", self.spm_bank_kb),
            ("spm_bank_bytes_per_cycle", self.spm_bank_bytes_per_cycle),
            ("noc_link_bytes_per_cycle", self.noc_link_bytes_per_cycle),
            ("noc_dma_lanes", self.noc_dma_lanes),
            ("dram_burst_bytes", self.dram_burst_bytes),
            ("dma_engines", self.dma_engines),
            ("codec_engines", self.codec_engines),
        ] {
            if value > MAX_FIELD {
                return Err(format!("{name} must be at most {MAX_FIELD}, got {value}"));
            }
        }
        if !(MIN_DRAM_BYTES_PER_CYCLE..=MAX_FIELD as f64).contains(&self.dram_bytes_per_cycle) {
            return Err(format!(
                "dram_bytes_per_cycle must be between {MIN_DRAM_BYTES_PER_CYCLE} and {MAX_FIELD}, got {}",
                self.dram_bytes_per_cycle
            ));
        }
        for (name, value) in [
            ("noc_hop_latency", self.noc_hop_latency),
            ("dram_latency_cycles", self.dram_latency_cycles),
        ] {
            if value > MAX_LATENCY_CYCLES {
                return Err(format!(
                    "{name} must be at most {MAX_LATENCY_CYCLES} cycles, got {value}"
                ));
            }
        }
        Ok(())
    }
}

/// Largest value [`FabricConfig::validate`] accepts for a structural count
/// or per-cycle rate (2^20).
pub const MAX_FIELD: usize = 1 << 20;

/// Smallest DRAM bandwidth [`FabricConfig::validate`] accepts, bytes per
/// cycle: one byte per thousand cycles.
pub const MIN_DRAM_BYTES_PER_CYCLE: f64 = 1e-3;

/// Largest NoC hop or DRAM access latency [`FabricConfig::validate`]
/// accepts, cycles (2^20).
pub const MAX_LATENCY_CYCLES: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_sized_as_documented() {
        let c = FabricConfig::default();
        c.validate().unwrap();
        assert_eq!(c.pes(), 64);
        assert_eq!(c.spm_bytes(), 128 * 1024);
        assert_eq!(c.peak_macs_per_cycle(), 64);
    }

    #[test]
    fn baseline_strips_codecs_and_morphing() {
        let b = FabricConfig::baseline();
        assert!(!b.has_codecs());
        assert!(!b.morphable);
        // Everything else identical to MOCHA.
        assert_eq!(b.pes(), FabricConfig::mocha().pes());
        assert_eq!(b.spm_bytes(), FabricConfig::mocha().spm_bytes());
    }

    #[test]
    fn inventory_matches_config() {
        let c = FabricConfig::default();
        let inv = c.inventory();
        assert_eq!(inv.pes, 64);
        assert_eq!(inv.scratchpad_kb, 128);
        assert_eq!(inv.codec_engines, 12);
        assert!(inv.morphable);
    }

    #[test]
    fn bandwidth_aggregates() {
        let c = FabricConfig::default();
        assert_eq!(c.spm_bytes_per_cycle(), 64);
        assert_eq!(c.noc_dma_bytes_per_cycle(), 16);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let c = FabricConfig {
            pe_rows: 0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            dram_bytes_per_cycle: 0.0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FabricConfig {
            dma_engines: 0,
            ..FabricConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_divisors_and_out_of_range_rates() {
        let d = FabricConfig::default();
        for (c, needle) in [
            (
                FabricConfig {
                    macs_per_pe_per_cycle: 0,
                    ..d
                },
                "macs_per_pe_per_cycle",
            ),
            (
                FabricConfig {
                    spm_bank_bytes_per_cycle: 0,
                    ..d
                },
                "spm_bank_bytes_per_cycle",
            ),
            (
                FabricConfig {
                    dram_burst_bytes: 0,
                    ..d
                },
                "dram_burst_bytes",
            ),
            (
                FabricConfig {
                    dram_bytes_per_cycle: 1e-300,
                    ..d
                },
                "0.001",
            ),
            (
                FabricConfig {
                    dram_bytes_per_cycle: f64::INFINITY,
                    ..d
                },
                "dram_bytes_per_cycle",
            ),
            (
                FabricConfig {
                    dram_bytes_per_cycle: f64::NAN,
                    ..d
                },
                "dram_bytes_per_cycle",
            ),
            (
                FabricConfig {
                    dram_latency_cycles: u64::MAX - 7,
                    ..d
                },
                "1048576 cycles",
            ),
            (
                FabricConfig {
                    pe_rows: usize::MAX,
                    ..d
                },
                "pe_rows must be at most 1048576",
            ),
        ] {
            let err = c.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
        FabricConfig::mocha_quad().validate().unwrap();
        FabricConfig::baseline().validate().unwrap();
    }
}

//! Event counters — the interface between the timing simulation and the
//! energy model.
//!
//! The fabric and dataflow engines count *what happened* (MACs issued, bytes
//! read, flits routed…); [`crate::table::EnergyTable`] prices those counts.
//! Keeping counts and prices separate means one simulation run can be
//! re-priced under different technology assumptions without re-simulating.

/// Raw event counts accumulated over a simulated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// MAC operations actually issued to datapaths.
    pub macs: u64,
    /// MAC operations elided by zero-skipping (no datapath energy, but the
    /// skip logic itself costs a comparator toggle).
    pub macs_skipped: u64,
    /// Pooling window-reduction operations (compare/add).
    pub pool_ops: u64,
    /// Register-file read accesses (operand fetches).
    pub rf_reads: u64,
    /// Register-file write accesses (operand loads + accumulator spills).
    pub rf_writes: u64,
    /// Bytes read from scratchpad SRAM banks.
    pub spm_read_bytes: u64,
    /// Bytes written to scratchpad SRAM banks.
    pub spm_write_bytes: u64,
    /// Flit-hops through the NoC (one flit crossing one link).
    pub noc_flit_hops: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// DRAM bursts issued (row/command overhead accounting).
    pub dram_bursts: u64,
    /// Raw-side bytes pushed through compression engines (both directions).
    pub codec_bytes: u64,
    /// Extra energy already priced in pJ by specialized models (codec
    /// engines price themselves via `CodecCostTable`).
    pub priced_pj: f64,
    /// Total cycles the fabric was active (for leakage integration).
    pub active_cycles: u64,
}

mocha_json::impl_json_struct!(EventCounts {
    macs,
    macs_skipped,
    pool_ops,
    rf_reads,
    rf_writes,
    spm_read_bytes,
    spm_write_bytes,
    noc_flit_hops,
    dram_read_bytes,
    dram_write_bytes,
    dram_bursts,
    codec_bytes,
    priced_pj,
    active_cycles,
});

impl EventCounts {
    /// Accumulates another run's counts into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        self.merge_times(other, 1);
    }

    /// Accumulates `n` copies of `other`. Integer fields gain exactly `n`
    /// times `other`'s; `priced_pj` gains `n × other.priced_pj`, which
    /// equals `n` successive [`EventCounts::merge`]s bit for bit when `n`
    /// is 1 or `other.priced_pj` is zero, but not in general.
    pub fn merge_times(&mut self, other: &EventCounts, n: u64) {
        self.macs += n * other.macs;
        self.macs_skipped += n * other.macs_skipped;
        self.pool_ops += n * other.pool_ops;
        self.rf_reads += n * other.rf_reads;
        self.rf_writes += n * other.rf_writes;
        self.spm_read_bytes += n * other.spm_read_bytes;
        self.spm_write_bytes += n * other.spm_write_bytes;
        self.noc_flit_hops += n * other.noc_flit_hops;
        self.dram_read_bytes += n * other.dram_read_bytes;
        self.dram_write_bytes += n * other.dram_write_bytes;
        self.dram_bursts += n * other.dram_bursts;
        self.codec_bytes += n * other.codec_bytes;
        self.priced_pj += n as f64 * other.priced_pj;
        // Cycles of sequential phases add; callers doing overlap accounting
        // set this field directly instead of merging.
        self.active_cycles += n * other.active_cycles;
    }

    /// Total bytes that crossed the DRAM interface — the paper's key
    /// memory-access metric.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Streams the counts into the canonical `fabric.*` observability
    /// counters — every energy-relevant field, one-to-one, so an external
    /// consumer can rebuild an [`EventCounts`] from the counter stream and
    /// re-price it. Integer events go through the `u64` channel; `priced_pj`
    /// (already-priced energy) goes through the `f64` fractional-counter
    /// channel, accumulated in call order so the recorded sum bit-matches
    /// the simulator's own left-to-right merge.
    pub fn record<R: mocha_obs::Recorder>(&self, rec: &mut R) {
        use mocha_obs::names;
        rec.add(names::FABRIC_MACS, self.macs);
        rec.add(names::FABRIC_MACS_SKIPPED, self.macs_skipped);
        rec.add(names::FABRIC_POOL_OPS, self.pool_ops);
        rec.add(names::FABRIC_RF_READS, self.rf_reads);
        rec.add(names::FABRIC_RF_WRITES, self.rf_writes);
        rec.add(names::FABRIC_DRAM_READ_BYTES, self.dram_read_bytes);
        rec.add(names::FABRIC_DRAM_WRITE_BYTES, self.dram_write_bytes);
        rec.add(names::FABRIC_DRAM_BURSTS, self.dram_bursts);
        rec.add(names::FABRIC_NOC_FLIT_HOPS, self.noc_flit_hops);
        rec.add(names::FABRIC_SPM_READ_BYTES, self.spm_read_bytes);
        rec.add(names::FABRIC_SPM_WRITE_BYTES, self.spm_write_bytes);
        rec.add(names::FABRIC_CODEC_BYTES, self.codec_bytes);
        rec.add(names::FABRIC_ACTIVE_CYCLES, self.active_cycles);
        rec.add_f64(names::FABRIC_CODEC_PRICED_PJ, self.priced_pj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let e = EventCounts::default();
        assert_eq!(e.macs, 0);
        assert_eq!(e.dram_bytes(), 0);
        assert_eq!(e.priced_pj, 0.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = EventCounts {
            macs: 1,
            rf_reads: 2,
            dram_read_bytes: 3,
            priced_pj: 1.5,
            ..Default::default()
        };
        let b = EventCounts {
            macs: 10,
            macs_skipped: 5,
            rf_reads: 20,
            dram_read_bytes: 30,
            dram_write_bytes: 7,
            priced_pj: 0.5,
            active_cycles: 100,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.macs, 11);
        assert_eq!(a.macs_skipped, 5);
        assert_eq!(a.rf_reads, 22);
        assert_eq!(a.dram_bytes(), 40);
        assert_eq!(a.priced_pj, 2.0);
        assert_eq!(a.active_cycles, 100);
    }

    #[test]
    fn merge_times_equals_repeated_merges_on_integer_fields() {
        let one = EventCounts {
            dram_read_bytes: 64,
            dram_bursts: 1,
            noc_flit_hops: 192,
            spm_write_bytes: 60,
            ..Default::default()
        };
        let mut repeated = EventCounts {
            priced_pj: 0.1,
            ..Default::default()
        };
        let mut scaled = repeated;
        for _ in 0..7 {
            repeated.merge(&one);
        }
        scaled.merge_times(&one, 7);
        assert_eq!(scaled, repeated);
        assert_eq!(scaled.priced_pj.to_bits(), repeated.priced_pj.to_bits());
    }

    #[test]
    fn record_maps_fields_onto_canonical_counters() {
        let e = EventCounts {
            macs: 1,
            macs_skipped: 2,
            pool_ops: 11,
            rf_reads: 12,
            rf_writes: 13,
            dram_read_bytes: 3,
            dram_write_bytes: 4,
            dram_bursts: 5,
            noc_flit_hops: 6,
            spm_read_bytes: 7,
            spm_write_bytes: 8,
            codec_bytes: 9,
            priced_pj: 1.25,
            active_cycles: 10,
        };
        let mut rec = mocha_obs::MemRecorder::new();
        e.record(&mut rec);
        e.record(&mut rec); // accumulates
        for (name, want) in [
            ("fabric.macs", 2),
            ("fabric.macs_skipped", 4),
            ("fabric.pool_ops", 22),
            ("fabric.rf_reads", 24),
            ("fabric.rf_writes", 26),
            ("fabric.dram_read_bytes", 6),
            ("fabric.dram_write_bytes", 8),
            ("fabric.dram_bursts", 10),
            ("fabric.noc_flit_hops", 12),
            ("fabric.spm_read_bytes", 14),
            ("fabric.spm_write_bytes", 16),
            ("fabric.codec_bytes", 18),
            ("fabric.active_cycles", 20),
        ] {
            assert_eq!(rec.counter(name), want, "{name}");
        }
        assert_eq!(rec.fcounter("fabric.codec_priced_pj"), 2.5);
    }
}

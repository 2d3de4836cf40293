//! Banked scratchpad (DiMArch-class distributed memory).
//!
//! Two concerns live here: a **capacity allocator** with a high-water mark
//! (the paper's "storage" metric is the peak scratchpad demand of a layer's
//! working set), and a **bandwidth model** for feeding the PE array from the
//! banks during compute phases.

use crate::config::FabricConfig;

/// What a scratchpad region holds — for diagnostics and per-class stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// Input feature-map tile (possibly compressed).
    IfmapTile,
    /// Kernel block (possibly compressed).
    KernelBlock,
    /// Output feature-map tile under accumulation.
    OfmapTile,
    /// Intermediate buffer between fused layers.
    FusionBuffer,
}

/// Handle to an allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(u64);

/// Capacity-tracking allocator over the fabric's scratchpad.
///
/// Allocation is bump-style with explicit frees (the dataflow engine
/// allocates/frees per tile phase); fragmentation is not modelled — the
/// hardware uses bank-interleaved placement, so capacity is the only
/// constraint. A tile phase holds a handful of live regions, so they sit in
/// a short `Vec` searched linearly.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity: usize,
    used: usize,
    peak: usize,
    next_id: u64,
    regions: Vec<(RegionId, RegionClass, usize)>,
}

/// Error returned when an allocation exceeds the remaining capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityError {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes still free.
    pub free: usize,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scratchpad overflow: requested {} B, free {} B",
            self.requested, self.free
        )
    }
}

impl std::error::Error for CapacityError {}

impl Scratchpad {
    /// Creates an empty scratchpad with the config's capacity.
    pub fn new(config: &FabricConfig) -> Self {
        Self::with_capacity(config.spm_bytes())
    }

    /// Creates an empty scratchpad with an explicit capacity in bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            used: 0,
            peak: 0,
            next_id: 0,
            regions: Vec::new(),
        }
    }

    /// Allocates `bytes` for `class`, failing (not panicking) on overflow so
    /// the morphing controller can reject infeasible configurations.
    pub fn alloc(&mut self, class: RegionClass, bytes: usize) -> Result<RegionId, CapacityError> {
        if self.used + bytes > self.capacity {
            return Err(CapacityError {
                requested: bytes,
                free: self.capacity - self.used,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        let id = RegionId(self.next_id);
        self.next_id += 1;
        self.regions.push((id, class, bytes));
        Ok(id)
    }

    /// Allocates each of `requests` in order, as [`Scratchpad::alloc`]
    /// would, then frees every one that succeeded: one step's transient
    /// working set. The high-water mark and any error equal those of that
    /// alloc/free sequence, and no region handle is made.
    pub fn hold(&mut self, requests: &[(RegionClass, usize)]) -> Result<(), CapacityError> {
        let mut used = self.used;
        let held = requests.iter().try_for_each(|&(_, bytes)| {
            if used + bytes > self.capacity {
                return Err(CapacityError {
                    requested: bytes,
                    free: self.capacity - used,
                });
            }
            used += bytes;
            Ok(())
        });
        self.peak = self.peak.max(used);
        held
    }

    /// Frees a region.
    ///
    /// # Panics
    /// Panics on double free / unknown id — those are dataflow-engine bugs.
    pub fn free(&mut self, id: RegionId) {
        let i = self
            .regions
            .iter()
            .position(|&(live, _, _)| live == id)
            .expect("free of unknown region");
        let (_, _, bytes) = self.regions.swap_remove(i);
        self.used -= bytes;
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark over the scratchpad's lifetime — the storage metric.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes still free.
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.used
    }

    /// Live bytes per region class (diagnostics).
    pub fn used_by_class(&self, class: RegionClass) -> usize {
        self.regions
            .iter()
            .filter(|&&(_, c, _)| c == class)
            .map(|&(_, _, b)| b)
            .sum()
    }
}

/// Cycles for the banks to stream `bytes` to/from the PE array during a
/// compute phase, assuming the mapper spread the data over `banks_used`
/// banks. The PE feed rate saturates at the aggregate bank bandwidth.
pub fn stream_cycles(config: &FabricConfig, bytes: u64, banks_used: usize) -> u64 {
    let banks = banks_used.clamp(1, config.spm_banks);
    let rate = (banks * config.spm_bank_bytes_per_cycle) as u64;
    bytes.div_ceil(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_usage_and_peak() {
        let mut s = Scratchpad::with_capacity(100);
        let a = s.alloc(RegionClass::IfmapTile, 40).unwrap();
        let b = s.alloc(RegionClass::KernelBlock, 50).unwrap();
        assert_eq!(s.used(), 90);
        s.free(a);
        assert_eq!(s.used(), 50);
        let _c = s.alloc(RegionClass::OfmapTile, 30).unwrap();
        assert_eq!(s.used(), 80);
        // Peak was the 90-byte moment.
        assert_eq!(s.peak(), 90);
        s.free(b);
        assert_eq!(s.free_bytes(), 100 - 30);
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let mut s = Scratchpad::with_capacity(10);
        let err = s.alloc(RegionClass::IfmapTile, 11).unwrap_err();
        assert_eq!(err.requested, 11);
        assert_eq!(err.free, 10);
        // Failed allocation must not change state.
        assert_eq!(s.used(), 0);
        assert_eq!(s.peak(), 0);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut s = Scratchpad::with_capacity(10);
        assert!(s.alloc(RegionClass::OfmapTile, 10).is_ok());
        assert_eq!(s.free_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "free of unknown region")]
    fn double_free_panics() {
        let mut s = Scratchpad::with_capacity(10);
        let a = s.alloc(RegionClass::IfmapTile, 5).unwrap();
        s.free(a);
        s.free(a);
    }

    #[test]
    fn hold_equals_allocating_then_freeing_every_request() {
        let requests = [
            (RegionClass::IfmapTile, 30),
            (RegionClass::OfmapTile, 0),
            (RegionClass::OfmapTile, 25),
            (RegionClass::FusionBuffer, 20),
        ];
        for cap in [0, 29, 30, 55, 74, 75, 76, 120] {
            for n in 0..=requests.len() {
                let mut held = Scratchpad::with_capacity(cap + 10);
                held.alloc(RegionClass::KernelBlock, 10).unwrap();
                let mut freed = held.clone();
                let got = held.hold(&requests[..n]);
                let mut ids = Vec::new();
                let want = requests[..n].iter().try_for_each(|&(class, bytes)| {
                    ids.push(freed.alloc(class, bytes)?);
                    Ok(())
                });
                ids.into_iter().for_each(|id| freed.free(id));
                assert_eq!(got, want, "cap {cap}, {n} requests");
                assert_eq!((held.used(), held.peak()), (freed.used(), freed.peak()));
            }
        }
    }

    #[test]
    fn class_accounting() {
        let mut s = Scratchpad::with_capacity(100);
        s.alloc(RegionClass::IfmapTile, 10).unwrap();
        s.alloc(RegionClass::IfmapTile, 20).unwrap();
        s.alloc(RegionClass::KernelBlock, 5).unwrap();
        assert_eq!(s.used_by_class(RegionClass::IfmapTile), 30);
        assert_eq!(s.used_by_class(RegionClass::KernelBlock), 5);
        assert_eq!(s.used_by_class(RegionClass::FusionBuffer), 0);
    }

    #[test]
    fn stream_cycles_scale_with_banks() {
        let c = FabricConfig::default(); // 4 B/cycle per bank
        assert_eq!(stream_cycles(&c, 1024, 1), 256);
        assert_eq!(stream_cycles(&c, 1024, 4), 64);
        // Clamped at the real bank count.
        assert_eq!(
            stream_cycles(&c, 1024, 1000),
            stream_cycles(&c, 1024, c.spm_banks)
        );
    }

    #[test]
    fn stream_cycles_round_up() {
        let c = FabricConfig::default();
        assert_eq!(stream_cycles(&c, 1, 1), 1);
        assert_eq!(stream_cycles(&c, 5, 1), 2);
    }
}

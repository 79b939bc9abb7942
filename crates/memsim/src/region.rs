//! Named regions of the simulated address space.
//!
//! The paper's analysis attributes memory behaviour to specific buffers:
//! the application buffer, the marshalling output, the cipher's logarithm
//! and exponential tables, the TCP ring (retransmission) buffer, and the
//! kernel buffer (§4.2). To reproduce that attribution, every allocation in
//! an [`crate::AddressSpace`] carries a name and a [`RegionKind`], and
//! [`crate::SimMem`] can report per-region access counts.

/// What a region is used for. Drives per-region statistics grouping and the
/// data/text split (instruction fetches are simulated only for
/// [`RegionKind::Text`] regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Application-level payload data (file contents, decoded messages).
    AppData,
    /// Intermediate protocol buffers (marshal output, cipher output,
    /// receive staging).
    Buffer,
    /// Precomputed lookup tables (cipher S-boxes, key schedules).
    Table,
    /// Per-connection protocol state (TCB, ring-buffer bookkeeping).
    State,
    /// The transport ring / retransmission buffer.
    Ring,
    /// Kernel-side buffer (the far side of the system copy).
    Kernel,
    /// Scratch space for intermediate per-byte results.
    Scratch,
    /// Instruction memory (code footprints; never read/written as data).
    Text,
}

impl RegionKind {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RegionKind::AppData => "app",
            RegionKind::Buffer => "buf",
            RegionKind::Table => "table",
            RegionKind::State => "state",
            RegionKind::Ring => "ring",
            RegionKind::Kernel => "kernel",
            RegionKind::Scratch => "scratch",
            RegionKind::Text => "text",
        }
    }
}

/// A contiguous, named slice of the simulated address space.
///
/// Handed out by [`crate::AddressSpace::alloc`]; the `base` address is what
/// kernels pass to [`crate::Mem`] accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name ("log_table", "tcp_ring", …).
    pub name: &'static str,
    /// First byte address of the region.
    pub base: usize,
    /// Length in bytes.
    pub len: usize,
    /// Usage classification.
    pub kind: RegionKind,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> usize {
        self.base + self.len
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Address of byte `off` within the region, asserting it is in bounds.
    ///
    /// # Panics
    /// Panics if `off >= self.len`.
    #[inline(always)]
    pub fn at(&self, off: usize) -> usize {
        if off >= self.len {
            out_of_region(self.name, off, self.len);
        }
        self.base + off
    }
}

/// The panic of [`Region::at`], kept out of line and passed only values:
/// a fused loop that inlines `at` per byte then neither carries the
/// formatting code nor hands the panic a pointer into its own state
/// (which would stop the optimiser keeping that state in registers).
#[cold]
#[inline(never)]
fn out_of_region(name: &'static str, off: usize, len: usize) -> ! {
    panic!("offset {off} out of region {name} (len {len})")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region { name: "r", base: 0x100, len: 0x40, kind: RegionKind::Buffer }
    }

    #[test]
    fn end_is_base_plus_len() {
        assert_eq!(region().end(), 0x140);
    }

    #[test]
    fn contains_is_half_open() {
        let r = region();
        assert!(r.contains(0x100));
        assert!(r.contains(0x13f));
        assert!(!r.contains(0x140));
        assert!(!r.contains(0xff));
    }

    #[test]
    fn at_offsets_from_base() {
        assert_eq!(region().at(0), 0x100);
        assert_eq!(region().at(0x3f), 0x13f);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn at_panics_out_of_bounds() {
        region().at(0x40);
    }

    #[test]
    fn labels_are_distinct() {
        use RegionKind::*;
        let kinds = [AppData, Buffer, Table, State, Ring, Kernel, Scratch, Text];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}

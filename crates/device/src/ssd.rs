//! SSD model: latency profile + a page-mapped flash translation layer.
//!
//! The FTL is what makes the paper's lifespan claims reproducible instead of
//! asserted: logical overwrites invalidate previously-programmed pages;
//! when free blocks run out, greedy garbage collection migrates the valid
//! remainder of the victim block and erases it. Random small overwrites
//! leave blocks half-valid and force migration (write amplification);
//! large sequential log writes fill blocks that later invalidate wholesale
//! and erase cheaply. Erase counts per workload are the direct input to the
//! "SSDs endure 2.5×–13× longer" comparison (§5.3.4).

use crate::{DeviceStats, IoKind, Locality};
use tsue_sim::{MultiResource, Time, MICROSECOND, MILLISECOND};

/// Flash page size — the FTL mapping granularity.
pub const PAGE_SIZE: u64 = 4096;
/// Pages per flash erase block.
pub const PAGES_PER_BLOCK: u64 = 64;

/// Latency/geometry parameters for an SSD.
#[derive(Clone, Copy, Debug)]
pub struct SsdSpec {
    /// Sequential read bandwidth, bytes/second.
    pub seq_read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub seq_write_bw: u64,
    /// Fixed cost of a sequential-stream op (submission + firmware), ns.
    pub seq_base: Time,
    /// Fixed cost of a random read, ns.
    pub rand_read_base: Time,
    /// Fixed cost of a random write, ns.
    pub rand_write_base: Time,
    /// Independent internal channels (parallel small ops).
    pub channels: usize,
    /// Block erase time, ns.
    pub erase_time: Time,
    /// Cost to migrate one valid page during GC (copyback), ns.
    pub migrate_page_time: Time,
    /// Physical over-provisioning fraction on top of logical capacity.
    pub overprovision: f64,
}

impl Default for SsdSpec {
    fn default() -> Self {
        // Datacenter SATA-class SSD of the Chameleon era: large gap between
        // sequential and small-random access, 8 internal channels.
        SsdSpec {
            seq_read_bw: 520_000_000,
            seq_write_bw: 420_000_000,
            seq_base: 18 * MICROSECOND,
            rand_read_base: 110 * MICROSECOND,
            rand_write_base: 90 * MICROSECOND,
            channels: 8,
            erase_time: 2 * MILLISECOND,
            migrate_page_time: 40 * MICROSECOND,
            overprovision: 0.12,
        }
    }
}

/// The SSD: spec + channel queues + FTL state.
#[derive(Debug)]
pub struct SsdModel {
    spec: SsdSpec,
    channels: MultiResource,
    ftl: Ftl,
}

impl SsdModel {
    /// Creates an SSD with the default datacenter spec and the given
    /// logical capacity in bytes.
    pub fn datacenter(logical_capacity: u64) -> Self {
        Self::new(SsdSpec::default(), logical_capacity)
    }

    /// Creates an SSD from an explicit spec.
    pub fn new(spec: SsdSpec, logical_capacity: u64) -> Self {
        let logical_pages = logical_capacity.div_ceil(PAGE_SIZE);
        let phys_pages = ((logical_pages as f64) * (1.0 + spec.overprovision)).ceil() as u64;
        let blocks = phys_pages.div_ceil(PAGES_PER_BLOCK).max(4);
        SsdModel {
            channels: MultiResource::new(spec.channels),
            ftl: Ftl::new(blocks),
            spec,
        }
    }

    /// Spec accessor.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Total busy time summed over the internal channels, virtual ns.
    pub fn busy_ticks(&self) -> Time {
        self.channels.busy_ticks()
    }

    /// Earliest time any channel is free — `next_free - now` is the
    /// device's queue pressure (0 when a channel is idle).
    pub fn next_free(&self) -> Time {
        self.channels.next_free()
    }

    /// Submits one op; returns completion time and updates wear stats.
    pub fn submit(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        locality: Locality,
        stats: &mut DeviceStats,
    ) -> Time {
        let service = self.service_time(kind, len, locality);
        if kind == IoKind::Write {
            // Program the touched pages through the FTL; GC work is issued
            // as internal jobs on the channel pool so it delays foreground
            // I/O by queueing rather than by inflating this op's service.
            let first = offset / PAGE_SIZE;
            let last = (offset + len.max(1) - 1) / PAGE_SIZE;
            for lpn in first..=last {
                let gc = self.ftl.program(lpn, stats);
                if gc.erases > 0 {
                    let gc_service = gc.erases as Time * self.spec.erase_time
                        + gc.migrated as Time * self.spec.migrate_page_time;
                    self.channels.submit(now, gc_service);
                }
            }
        }
        self.channels.submit(now, service)
    }

    /// Programs the FTL pages of `[offset, offset+len)` into `sink` stats
    /// without going through the channel queues (setup-time prefill).
    pub fn prefill(&mut self, offset: u64, len: u64, sink: &mut DeviceStats) {
        let first = offset / PAGE_SIZE;
        let last = (offset + len.max(1) - 1) / PAGE_SIZE;
        for lpn in first..=last {
            let _ = self.ftl.program(lpn, sink);
        }
    }

    fn service_time(&self, kind: IoKind, len: u64, locality: Locality) -> Time {
        let (base, bw) = match (kind, locality) {
            (IoKind::Read, Locality::Sequential) => (self.spec.seq_base, self.spec.seq_read_bw),
            (IoKind::Write, Locality::Sequential) => (self.spec.seq_base, self.spec.seq_write_bw),
            (IoKind::Read, Locality::Random) => (self.spec.rand_read_base, self.spec.seq_read_bw),
            (IoKind::Write, Locality::Random) => {
                (self.spec.rand_write_base, self.spec.seq_write_bw)
            }
        };
        base + transfer_time(len, bw)
    }

    /// Fraction of physical pages currently holding live data.
    pub fn ftl_occupancy(&self) -> f64 {
        self.ftl.occupancy()
    }
}

/// Time to move `len` bytes at `bw` bytes/sec, in ns.
fn transfer_time(len: u64, bw: u64) -> Time {
    ((len as u128 * 1_000_000_000) / bw as u128) as Time
}

/// GC work accumulated while making room for one program.
#[derive(Debug, Clone, Copy, Default)]
struct GcWork {
    erases: u64,
    migrated: u64,
}

/// Page-mapped FTL with greedy (min-valid) garbage collection.
///
/// Both directions of the mapping are dense arrays of `index + 1` tags
/// (0 = none): logical addresses come from the OSD's region allocator,
/// which hands out space contiguously from offset 0, so the logical table
/// is as long as the highest page touched, and the physical table is
/// sized once to the device.
#[derive(Debug)]
struct Ftl {
    /// logical page -> physical page + 1 (0 = unmapped); grows on demand.
    map: Vec<u32>,
    /// physical page -> logical page + 1 (0 = free), for migration.
    rmap: Vec<u32>,
    /// Logical pages currently mapped.
    live: u64,
    /// Per-block count of valid pages.
    valid: Vec<u16>,
    /// Erased blocks ready for programming.
    free_blocks: Vec<u64>,
    /// Block currently accepting programs.
    active_block: u64,
    /// Next free page inside the active block.
    active_cursor: u64,
    total_blocks: u64,
}

impl Ftl {
    fn new(blocks: u64) -> Self {
        let phys_pages = blocks * PAGES_PER_BLOCK;
        assert!(
            phys_pages < u64::from(u32::MAX),
            "SSD model larger than 2^32 flash pages"
        );
        Ftl {
            map: Vec::new(),
            rmap: vec![0; phys_pages as usize],
            live: 0,
            valid: vec![0; blocks as usize],
            free_blocks: (1..blocks).rev().collect(),
            active_block: 0,
            active_cursor: 0,
            total_blocks: blocks,
        }
    }

    /// Programs one logical page. Returns any GC work performed.
    ///
    /// # Panics
    /// Panics if the logical footprint exceeds physical capacity (the model
    /// equivalent of a full disk) — size the device to the experiment.
    fn program(&mut self, lpn: u64, stats: &mut DeviceStats) -> GcWork {
        // INVARIANT: the OSD region allocator packs logical space from
        // offset 0, and 2^32 pages is 16 TiB, beyond any modelled device.
        let ltag = u32::try_from(lpn + 1).expect("logical page index fits u32");
        let slot = lpn as usize;
        if slot >= self.map.len() {
            self.map.resize(slot + 1, 0);
        }
        // Invalidate the previous location, if any.
        let old = std::mem::take(&mut self.map[slot]);
        if old != 0 {
            self.unbind(u64::from(old - 1));
        }
        let gc = self.ensure_space(stats);
        let ppn = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
        self.active_cursor += 1;
        self.bind(ltag, ppn);
        stats.pages_programmed += 1;
        gc
    }

    /// Records the logical page tagged `ltag` as living at `ppn`.
    fn bind(&mut self, ltag: u32, ppn: u64) {
        // INVARIANT: `ppn` indexes `rmap`, whose length `Ftl::new` checked
        // is below u32::MAX, so `ppn + 1` fits.
        self.map[ltag as usize - 1] = u32::try_from(ppn + 1).expect("physical page tag fits u32");
        self.rmap[ppn as usize] = ltag;
        self.valid[(ppn / PAGES_PER_BLOCK) as usize] += 1;
        self.live += 1;
    }

    /// Frees physical page `ppn` (the caller clears the `map` side).
    fn unbind(&mut self, ppn: u64) {
        self.rmap[ppn as usize] = 0;
        self.valid[(ppn / PAGES_PER_BLOCK) as usize] -= 1;
        self.live -= 1;
    }

    /// Makes sure the active block has a free page, running GC passes as
    /// needed.
    fn ensure_space(&mut self, stats: &mut DeviceStats) -> GcWork {
        let mut work = GcWork::default();
        while self.active_cursor >= PAGES_PER_BLOCK {
            if let Some(blk) = self.free_blocks.pop() {
                self.active_block = blk;
                self.active_cursor = 0;
                break;
            }
            // Greedy victim: the block (other than active) with fewest
            // valid pages; the first minimum wins.
            let victim = (0..self.total_blocks)
                .filter(|&b| b != self.active_block)
                .min_by_key(|&b| self.valid[b as usize])
                // INVARIANT: `SsdModel::new` builds at least four blocks,
                // so some block other than the active one exists.
                .expect("FTL has at least two blocks");
            assert!(
                (self.valid[victim as usize] as u64) < PAGES_PER_BLOCK,
                "FTL capacity exhausted: logical footprint exceeds device size"
            );
            let mut moved = Vec::new();
            for ppn in victim * PAGES_PER_BLOCK..(victim + 1) * PAGES_PER_BLOCK {
                let ltag = self.rmap[ppn as usize];
                if ltag != 0 {
                    self.map[ltag as usize - 1] = 0;
                    self.unbind(ppn);
                    moved.push(ltag);
                }
            }
            debug_assert_eq!(self.valid[victim as usize], 0);
            stats.erase_ops += 1;
            work.erases += 1;
            self.active_block = victim;
            self.active_cursor = 0;
            // Re-program survivors into the freshly erased block.
            for ltag in moved {
                let ppn = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
                self.active_cursor += 1;
                self.bind(ltag, ppn);
                stats.pages_programmed += 1;
                stats.pages_migrated += 1;
                work.migrated += 1;
            }
            // If the victim was nearly full, the loop condition sends us
            // around again for another victim.
        }
        work
    }

    fn occupancy(&self) -> f64 {
        self.live as f64 / (self.total_blocks * PAGES_PER_BLOCK) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program_range(ssd: &mut SsdModel, stats: &mut DeviceStats, offset: u64, len: u64) {
        ssd.submit(0, IoKind::Write, offset, len, Locality::Sequential, stats);
    }

    #[test]
    fn fresh_writes_do_not_erase() {
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::datacenter(16 << 20); // 16 MiB
        program_range(&mut ssd, &mut stats, 0, 1 << 20);
        assert_eq!(stats.erase_ops, 0);
        assert_eq!(stats.pages_programmed, 256);
        assert_eq!(stats.pages_migrated, 0);
    }

    #[test]
    fn sequential_rewrite_erases_with_low_amplification() {
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::datacenter(4 << 20); // 4 MiB logical

        // Fill the device twice sequentially: second pass invalidates whole
        // blocks, so GC migrates (almost) nothing.
        for pass in 0..4 {
            let _ = pass;
            program_range(&mut ssd, &mut stats, 0, 4 << 20);
        }
        assert!(stats.erase_ops > 0, "rewrites must trigger GC");
        let wa = stats.write_amplification();
        assert!(
            wa < 1.25,
            "sequential rewrite WA should be near 1, got {wa}"
        );
    }

    #[test]
    fn random_overwrites_amplify_more_than_sequential() {
        let cap: u64 = 4 << 20;
        // Sequential full rewrites.
        let mut seq_stats = DeviceStats::default();
        let mut seq = SsdModel::datacenter(cap);
        for _ in 0..6 {
            program_range(&mut seq, &mut seq_stats, 0, cap);
        }
        // Same total volume as scattered 4K overwrites (deterministic LCG).
        let mut rnd_stats = DeviceStats::default();
        let mut rnd = SsdModel::datacenter(cap);
        program_range(&mut rnd, &mut rnd_stats, 0, cap); // initial fill
        let pages = cap / PAGE_SIZE;
        let mut x: u64 = 12345;
        for _ in 0..(pages * 5) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = x % pages;
            rnd.submit(
                0,
                IoKind::Write,
                lpn * PAGE_SIZE,
                PAGE_SIZE,
                Locality::Random,
                &mut rnd_stats,
            );
        }
        assert!(
            rnd_stats.write_amplification() > seq_stats.write_amplification(),
            "random WA {} should exceed sequential WA {}",
            rnd_stats.write_amplification(),
            seq_stats.write_amplification()
        );
    }

    #[test]
    fn mapping_survives_gc() {
        // After heavy churn, the two tables are exact inverses and the
        // live counter agrees with both the distinct pages and `valid`.
        let mut stats = DeviceStats::default();
        let cap: u64 = 2 << 20;
        let mut ssd = SsdModel::datacenter(cap);
        let pages = cap / PAGE_SIZE; // 512
        for _round in 0..5u64 {
            for p in 0..pages {
                ssd.submit(
                    0,
                    IoKind::Write,
                    p * PAGE_SIZE,
                    PAGE_SIZE,
                    Locality::Random,
                    &mut stats,
                );
            }
        }
        assert!(stats.erase_ops > 0, "the churn must reach GC");
        let ftl = &ssd.ftl;
        assert_eq!(ftl.map.len() as u64, pages);
        for (lpn, &tag) in ftl.map.iter().enumerate() {
            assert_ne!(tag, 0, "logical page {lpn} lost its mapping");
            assert_eq!(ftl.rmap[tag as usize - 1] as usize, lpn + 1);
        }
        let mapped_phys = ftl.rmap.iter().filter(|&&t| t != 0).count() as u64;
        assert_eq!(mapped_phys, pages, "rmap holds no stale entries");
        assert_eq!(ftl.live, pages);
        let total_valid: u64 = ftl.valid.iter().map(|&v| u64::from(v)).sum();
        assert_eq!(total_valid, ftl.live);
    }

    #[test]
    #[should_panic(expected = "FTL capacity exhausted")]
    fn overfull_device_panics() {
        let mut stats = DeviceStats::default();
        // 1 MiB logical => ~1.12 MiB physical; write 3 MiB of distinct pages.
        let mut ssd = SsdModel::datacenter(1 << 20);
        program_range(&mut ssd, &mut stats, 0, 3 << 20);
    }

    #[test]
    fn large_ops_amortize_random_base() {
        let spec = SsdSpec::default();
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::new(spec, 64 << 20);
        let t_small = ssd.submit(0, IoKind::Read, 1 << 20, 4096, Locality::Random, &mut stats);
        let big_start = 1_000_000_000;
        let t_big = ssd.submit(
            big_start,
            IoKind::Read,
            8 << 20,
            1 << 20,
            Locality::Random,
            &mut stats,
        ) - big_start;
        let per_byte_small = t_small as f64 / 4096.0;
        let per_byte_big = t_big as f64 / (1 << 20) as f64;
        assert!(per_byte_big < per_byte_small / 5.0);
    }
}

//! The metadata server: file registry, stripe allocation, the page-level
//! write/update bitmap (§4.3), node liveness tracking, and the block
//! rehome table filled by online recovery (a rebuilt block's new home
//! overrides the placement policy until the layout is next rebalanced).

use std::collections::{BTreeMap, BTreeSet};

/// File identifier.
pub type FileId = u32;

/// Page granularity of the write/update discrimination bitmap.
pub const MDS_PAGE: u64 = 4096;

/// Per-file metadata.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Logical size in bytes.
    pub size: u64,
    /// First global stripe index owned by this file.
    pub base_stripe: u64,
    /// Number of stripes.
    pub stripes: u64,
}

/// The metadata server.
///
/// Real MDS duties that matter to the evaluation are modeled: the scalable
/// per-file page bitmap that distinguishes first writes from updates (the
/// paper's "scalable linked list based on a page-level bitmap"), stripe
/// address allocation, and heartbeat-driven liveness.
pub struct Mds {
    files: Vec<FileMeta>,
    next_stripe: u64,
    /// Pages that have been written at least once: `(file, page_index)`.
    written_pages: BTreeSet<(FileId, u64)>,
    /// Liveness per OSD node.
    alive: Vec<bool>,
    /// Recovery overrides: `(global stripe, role)` → new home OSD.
    rehomed: BTreeMap<(u64, usize), usize>,
    /// Parity blocks known to have missed deltas (the delta NACK-bounced
    /// off a dead owner): `(global stripe, role)`. Cleared when recovery
    /// re-encodes the block or a heal-time re-sync recomputes it.
    dirty_parity: BTreeSet<(u64, usize)>,
}

impl Mds {
    /// Creates an MDS tracking `osds` nodes.
    pub fn new(osds: usize) -> Self {
        Mds {
            files: Vec::new(),
            next_stripe: 0,
            written_pages: BTreeSet::new(),
            alive: vec![true; osds],
            rehomed: BTreeMap::new(),
            dirty_parity: BTreeSet::new(),
        }
    }

    /// Registers a file and allocates its stripe range.
    pub fn register_file(&mut self, size: u64, stripes: u64) -> FileId {
        let id = self.files.len() as FileId;
        self.files.push(FileMeta {
            size,
            base_stripe: self.next_stripe,
            stripes,
        });
        self.next_stripe += stripes;
        id
    }

    /// File metadata.
    ///
    /// # Panics
    /// Panics on an unknown file id.
    pub fn file(&self, id: FileId) -> &FileMeta {
        &self.files[id as usize]
    }

    /// Number of registered files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Maps a global stripe index back to `(file, stripe-within-file)`.
    ///
    /// # Panics
    /// Panics if no file owns the stripe.
    pub fn locate_stripe(&self, gstripe: u64) -> (FileId, u64) {
        for (i, f) in self.files.iter().enumerate() {
            if gstripe >= f.base_stripe && gstripe < f.base_stripe + f.stripes {
                return (i as FileId, gstripe - f.base_stripe);
            }
        }
        // INVARIANT: documented contract (# Panics above) — every global
        // stripe handled by the cluster was minted from a registered file.
        panic!("global stripe {gstripe} not registered");
    }

    /// Marks every page of `file` as written (post-provisioning state).
    pub fn mark_prepopulated(&mut self, file: FileId) {
        let size = self.file(file).size;
        for p in 0..size.div_ceil(MDS_PAGE) {
            self.written_pages.insert((file, p));
        }
    }

    /// Classifies a write: `true` if *every* touched page was written
    /// before (pure update); `false` if any page is fresh (normal write).
    /// Marks the pages written either way — exactly the bitmap maintenance
    /// the paper's CLIENT consults before dispatch.
    pub fn classify_write(&mut self, file: FileId, offset: u64, len: u64) -> bool {
        let first = offset / MDS_PAGE;
        let last = (offset + len.max(1) - 1) / MDS_PAGE;
        let mut all_old = true;
        for p in first..=last {
            if self.written_pages.insert((file, p)) {
                all_old = false;
            }
        }
        all_old
    }

    /// Heartbeat bookkeeping: marks a node dead.
    pub fn mark_dead(&mut self, node: usize) {
        self.alive[node] = false;
    }

    /// Marks a node alive again (post-recovery).
    pub fn mark_alive(&mut self, node: usize) {
        self.alive[node] = true;
    }

    /// Is the node alive?
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Indices of all live nodes.
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&n| self.alive[n]).collect()
    }

    /// Records that `role` of global stripe `gstripe` now lives on
    /// `node` (a recovery rebuild landed there).
    pub fn rehome(&mut self, gstripe: u64, role: usize, node: usize) {
        self.rehomed.insert((gstripe, role), node);
    }

    /// The recovery override for `(gstripe, role)`, if any.
    #[inline]
    pub fn rehomed(&self, gstripe: u64, role: usize) -> Option<usize> {
        self.rehomed.get(&(gstripe, role)).copied()
    }

    /// Removes the recovery override for `(gstripe, role)` — the healed
    /// placement home has been caught up and owns the block again.
    /// Returns the node the block was rehomed to, if any.
    pub fn reclaim(&mut self, gstripe: u64, role: usize) -> Option<usize> {
        self.rehomed.remove(&(gstripe, role))
    }

    /// Number of rehomed blocks (recovery progress / diagnostics).
    pub fn rehomed_count(&self) -> usize {
        self.rehomed.len()
    }

    /// All rehome overrides, sorted for deterministic scheduling.
    pub fn rehomed_entries(&self) -> Vec<((u64, usize), usize)> {
        self.rehomed.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Marks a parity block as having missed a delta (its owner was dead
    /// when the delta arrived, so the update bounced).
    pub fn mark_parity_dirty(&mut self, gstripe: u64, role: usize) {
        self.dirty_parity.insert((gstripe, role));
    }

    /// Clears the missed-delta mark (the block was re-encoded from data).
    pub fn clear_parity_dirty(&mut self, gstripe: u64, role: usize) {
        self.dirty_parity.remove(&(gstripe, role));
    }

    /// Dirty parity blocks, sorted for deterministic scheduling.
    pub fn dirty_parity_entries(&self) -> Vec<(u64, usize)> {
        self.dirty_parity.iter().copied().collect()
    }

    /// True when `role` of `gstripe` is marked as missing deltas — such
    /// parity is internally consistent but stale relative to the stripe,
    /// so it must not serve as a reconstruction source.
    pub fn parity_is_dirty(&self, gstripe: u64, role: usize) -> bool {
        self.dirty_parity.contains(&(gstripe, role))
    }

    /// Number of parity blocks still missing deltas.
    pub fn dirty_parity_count(&self) -> usize {
        self.dirty_parity.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_ranges_are_disjoint_and_contiguous() {
        let mut m = Mds::new(4);
        let a = m.register_file(1 << 20, 10);
        let b = m.register_file(2 << 20, 20);
        assert_eq!(m.file(a).base_stripe, 0);
        assert_eq!(m.file(b).base_stripe, 10);
        assert_eq!(m.file_count(), 2);
    }

    #[test]
    fn classify_write_distinguishes_update_from_first_write() {
        let mut m = Mds::new(1);
        let f = m.register_file(64 << 10, 1);
        assert!(
            !m.classify_write(f, 0, 4096),
            "first write is not an update"
        );
        assert!(m.classify_write(f, 0, 4096), "second write is an update");
        assert!(!m.classify_write(f, 8192, 100), "fresh page");
        // Straddling a written and an unwritten page => normal write.
        assert!(!m.classify_write(f, 4096, 8192 + 1));
    }

    #[test]
    fn prepopulated_files_are_all_updates() {
        let mut m = Mds::new(1);
        let f = m.register_file(32 << 10, 1);
        m.mark_prepopulated(f);
        assert!(m.classify_write(f, 0, 32 << 10));
        assert!(m.classify_write(f, 12_288, 512));
    }

    #[test]
    fn rehome_then_reclaim_resolves_to_the_healed_home() {
        let mut m = Mds::new(4);
        assert_eq!(m.rehomed(7, 1), None, "empty table resolves to placement");
        m.rehome(7, 1, 3);
        assert_eq!(m.rehomed(7, 1), Some(3), "override points at the rebuild");
        assert_eq!(m.rehomed_count(), 1);
        assert_eq!(m.reclaim(7, 1), Some(3));
        assert_eq!(
            m.rehomed(7, 1),
            None,
            "after reclaim the placement (healed) home owns the block again"
        );
        assert_eq!(m.rehomed_count(), 0, "the table shrinks back to empty");
        assert_eq!(m.reclaim(7, 1), None, "reclaim is idempotent");
    }

    #[test]
    fn dirty_parity_set_tracks_missed_deltas() {
        let mut m = Mds::new(4);
        m.mark_parity_dirty(3, 5);
        m.mark_parity_dirty(1, 4);
        m.mark_parity_dirty(3, 5);
        assert_eq!(m.dirty_parity_count(), 2);
        assert_eq!(m.dirty_parity_entries(), vec![(1, 4), (3, 5)]);
        m.clear_parity_dirty(1, 4);
        assert_eq!(m.dirty_parity_count(), 1);
    }

    #[test]
    fn liveness_tracking() {
        let mut m = Mds::new(3);
        assert_eq!(m.live_nodes(), vec![0, 1, 2]);
        m.mark_dead(1);
        assert!(!m.is_alive(1));
        assert_eq!(m.live_nodes(), vec![0, 2]);
        m.mark_alive(1);
        assert_eq!(m.live_nodes(), vec![0, 1, 2]);
    }
}

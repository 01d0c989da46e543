//! Correctness oracle and state fingerprint.
//!
//! `tsue_ecfs::check_consistency` stops at the first error; this oracle
//! counts every stripe instead. A stripe is bad when one of its data
//! blocks differs from the arrival-ordered reference replay
//! (`reference_data`; blocks no update reached must still be zero, their
//! provisioned content) or when its parity differs from a fresh encode
//! (`core.rs.verify`). Timing-only runs hold no bytes; there the oracle
//! checks the op and log accounting alone.

use tsue_ecfs::{BlockId, Cluster};

/// What the oracle found after the final drain.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    /// Stripes compared byte for byte (0 in timing-only runs).
    pub stripes_checked: u64,
    /// Stripes with a data or parity mismatch.
    pub bad_stripes: u64,
    /// Of those, stripes whose data differs from the reference.
    pub data_mismatch: u64,
    /// Of those, stripes whose parity differs from a fresh encode.
    pub parity_mismatch: u64,
    /// Accounting failures (issued ≠ completed, ops still pending,
    /// undrained scheme backlog, journal not fully replayed).
    pub accounting: Vec<String>,
}

impl Oracle {
    /// Share of checked stripes that are bad (0 when none were checked).
    pub fn bad_stripe_frac(&self) -> f64 {
        if self.stripes_checked == 0 {
            0.0
        } else {
            self.bad_stripes as f64 / self.stripes_checked as f64
        }
    }
}

/// Runs every check on a drained cluster.
pub fn check(world: &Cluster, issued: u64) -> Oracle {
    let mut o = Oracle::default();
    let completed = world.core.metrics.ops_completed;
    if issued != completed {
        o.accounting
            .push(format!("{issued} ops issued but {completed} completed"));
    }
    if !world.core.pending.is_empty() {
        o.accounting
            .push(format!("{} ops still pending", world.core.pending.len()));
    }
    let backlog = world.total_scheme_backlog();
    if backlog != 0 {
        o.accounting
            .push(format!("scheme backlog {backlog} after the drain"));
    }
    let j = &world.core.journal;
    if j.bytes_replayed != j.bytes_appended {
        o.accounting.push(format!(
            "{} journaled bytes but {} replayed",
            j.bytes_appended, j.bytes_replayed
        ));
    }
    if world.core.cfg.materialize {
        check_stripes(world, &mut o);
    }
    o
}

fn check_stripes(world: &Cluster, o: &mut Oracle) {
    let reference = tsue_ecfs::reference_data(world);
    let k = world.core.cfg.stripe.k;
    let m = world.core.cfg.stripe.m;
    let zeros = vec![0u8; world.core.cfg.stripe.block_size as usize];
    for file in 0..world.core.mds.file_count() as u32 {
        for stripe in 0..world.core.mds.file(file).stripes {
            let gstripe = world.core.global_stripe(file, stripe);
            let mut shards: Vec<Vec<u8>> = Vec::with_capacity(k + m);
            let mut data_ok = true;
            for role in 0..k + m {
                let block = BlockId { file, stripe, role };
                let owner = world.core.owner_of(gstripe, role);
                let bytes = world.core.osds[owner]
                    .with_block_data(block, |d| d.map(<[u8]>::to_vec))
                    .unwrap_or_default();
                if role < k {
                    let expect = reference.get(&block).map_or(&zeros[..], |v| &v[..]);
                    data_ok &= bytes == expect;
                }
                shards.push(bytes);
            }
            // A missing block reads as empty: a data block then fails the
            // reference compare, a parity block the fresh encode.
            let parity_ok = matches!(world.core.rs.verify(&shards), Ok(true));
            o.stripes_checked += 1;
            o.data_mismatch += u64::from(!data_ok);
            o.parity_mismatch += u64::from(!parity_ok);
            o.bad_stripes += u64::from(!(data_ok && parity_ok));
        }
    }
}

/// Order-sensitive digest of every stored block on every OSD: equal
/// across repeats of one seed when the run is deterministic.
pub fn fingerprint(world: &Cluster) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    };
    for osd in &world.core.osds {
        for id in osd.block_ids() {
            mix(((id.file as u64) << 40) ^ (id.stripe << 8) ^ id.role as u64);
            osd.with_block_data(id, |d| {
                if let Some(d) = d {
                    mix(tsue_integrity::checksum(d));
                }
            });
        }
    }
    h
}

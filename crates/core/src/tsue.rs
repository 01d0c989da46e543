//! The TSUE update scheme: two-stage update over a three-layer,
//! real-time-recycled log hierarchy (paper §3–4).
//!
//! **Front end (synchronous):** an update extent is appended to the
//! DataLog of the block's OSD — a sequential write — replicated to the
//! next node(s), and acknowledged. No read-modify-write, no parity work on
//! the client-visible path.
//!
//! **Back end (asynchronous, real-time):** sealed DataLog units recycle
//! immediately: merged ranges read the original data once, overwrite the
//! data block, and forward data deltas to the DeltaLog on the stripe's
//! first parity owner (with a copy on the second). DeltaLog units merge
//! same-offset deltas within and across blocks (Eq. 3/5) purely in memory
//! and emit combined parity deltas to each ParityLog. ParityLog units
//! merge again and apply the result to parity blocks with few, large
//! read-modify-writes.
//!
//! Every stage that the paper ablates in Fig. 7 is a switch on
//! [`TsueConfig`]: data/parity-log locality folding (O1/O2), the FIFO
//! multi-unit pool (O3), pools-per-device (O4), and the DeltaLog layer
//! (O5).

use crate::logpool::LogPool;
use crate::logunit::{UnitId, UnitState, RECORD_HEADER};
use crate::residency::ResidencyStats;
use std::collections::{BTreeMap, VecDeque};
use tsue_ecfs::logregion::LogRegion;
use tsue_ecfs::rangemap::{Discipline, RangeMap};
use tsue_ecfs::scheme::{DeltaKind, PowerLossReport, ReadServe, SchemeMsg, UpdateReq};
use tsue_ecfs::{
    BlockId, Chunk, Cluster, ClusterCore, ReplicaRecord, SplitRng, UpdateScheme, ACK_BYTES,
};
use tsue_sim::{MultiResource, Sim, Time, SECOND};

/// DeltaLog key: (global stripe, data-block role).
pub type DeltaKey = (u64, usize);

/// Same-span delta contributions grouped for Eq. 5 combining:
/// `(offset, length)` → `[(role, delta bytes)]`.
type SpanGroups<'a> = std::collections::BTreeMap<(u64, u64), Vec<(usize, &'a [u8])>>;

/// Message-tag values on `DeltaForward { kind: DataDelta, .. }`.
const TAG_DELTA: u64 = 2;
const TAG_DELTA_REP: u64 = 3;

/// Timer-tag kinds (low 4 bits).
const TK_SEAL: u64 = 1;
const TK_JOB_DONE: u64 = 2;

/// The three layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LayerKind {
    Data,
    Delta,
    Parity,
}

/// TSUE tunables; every Fig. 6/7 knob lives here.
///
/// Serializes field-for-field (sizes in bytes, intervals in ns), so a
/// full config round-trips through a scenario file's `knobs` object; see
/// [`crate::knobs::TsueKnobs`] for the partial-override form.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TsueConfig {
    /// Log unit size in bytes (paper: 16 MiB).
    pub unit_size: u64,
    /// Units per pool (Fig. 6b sweeps 2–20; default 4).
    pub max_units: usize,
    /// Log pools per device per layer (O4; default 4).
    pub pools: usize,
    /// O1: exploit locality (merge/coalesce) in the DataLog.
    pub datalog_locality: bool,
    /// O2: exploit locality in the ParityLog.
    pub paritylog_locality: bool,
    /// O3: FIFO multi-unit pool; `false` degrades to one exclusive unit.
    pub use_log_pool: bool,
    /// O5: route deltas through the DeltaLog (three layers vs two).
    pub use_delta_log: bool,
    /// Total DataLog copies incl. the primary (2 on SSD, 3 on HDD).
    pub data_replicas: usize,
    /// Recycle thread pool width per OSD.
    pub recycle_threads: usize,
    /// Background seal interval: an active unit older than this is sealed
    /// even if not full (bounds staleness; drives Table 2 buffer times).
    pub seal_interval: Time,
    /// §7 future-work extension: compress deltas while they reside in the
    /// log layers, shrinking forwarded network traffic at a small CPU cost.
    pub compress_deltas: bool,
}

impl TsueConfig {
    /// Paper defaults for the SSD cluster (§4.1, §5.3.2).
    pub fn ssd_default() -> Self {
        TsueConfig {
            unit_size: 16 << 20,
            max_units: 4,
            pools: 4,
            datalog_locality: true,
            paritylog_locality: true,
            use_log_pool: true,
            use_delta_log: true,
            data_replicas: 2,
            recycle_threads: 4,
            seal_interval: 2 * SECOND,
            compress_deltas: false,
        }
    }

    /// Paper defaults for the HDD cluster (§5.4): 3-copy data log, no
    /// DeltaLog, one pool per (slow) device.
    pub fn hdd_default() -> Self {
        TsueConfig {
            pools: 1,
            use_delta_log: false,
            data_replicas: 3,
            ..Self::ssd_default()
        }
    }

    /// The Fig. 7 cumulative ablation ladder:
    /// 0 = Baseline, 1 = +O1, 2 = +O2, 3 = +O3, 4 = +O4, 5 = +O5.
    pub fn breakdown(level: usize) -> Self {
        let mut c = TsueConfig {
            datalog_locality: false,
            paritylog_locality: false,
            use_log_pool: false,
            pools: 1,
            use_delta_log: false,
            ..Self::ssd_default()
        };
        if level >= 1 {
            c.datalog_locality = true;
        }
        if level >= 2 {
            c.paritylog_locality = true;
        }
        if level >= 3 {
            c.use_log_pool = true;
        }
        if level >= 4 {
            c.pools = 4;
        }
        if level >= 5 {
            c.use_delta_log = true;
        }
        c
    }

    fn effective_max_units(&self) -> usize {
        if self.use_log_pool {
            self.max_units
        } else {
            // Pre-O3 designs double-buffer (one active + one recycling)
            // but have no FIFO pool: appends stall whenever both units are
            // busy.
            2
        }
    }

    fn effective_pools(&self) -> usize {
        if self.use_log_pool {
            self.pools
        } else {
            1
        }
    }
}

/// Backpressured work waiting for a free log unit.
enum QueuedWork {
    Update(UpdateReq),
    Delta {
        key: DeltaKey,
        off: u64,
        chunk: Chunk,
    },
    Parity {
        pblock: BlockId,
        off: u64,
        chunk: Chunk,
    },
}

/// One paced recycle job. Content has already been applied to the block
/// store at seal time (preserving per-block unit order); the job charges
/// the device/CPU timing and forwards the precomputed delta.
enum RecycleJob {
    /// DataLog: timed read-modify-write of the data block + delta forward.
    Data(BlockId, u64, Chunk),
    /// ParityLog: timed read-XOR-write of `len` bytes of the parity block.
    Parity(BlockId, u64, u64),
}

/// The most recent log append on this OSD — the write a power loss tears.
/// Only the in-flight tail record is at risk: every earlier append's
/// framing already persisted whole, so the restart scan recovers it.
#[derive(Clone, Copy, Debug)]
enum TailAppend {
    /// DataLog append: `(block, offset, length, replica seq)`.
    Data(BlockId, u64, u64, u64),
    /// DeltaLog append at this parity owner: `(global stripe, length)`.
    Delta(u64, u64),
    /// ParityLog append: `(global stripe, parity role, length)`.
    Parity(u64, usize, u64),
}

/// In-flight recycle bookkeeping for one unit: jobs are dispatched at most
/// `recycle_threads` at a time, each next job issued when one completes —
/// pacing that keeps foreground appends interleaved on the device instead
/// of queueing behind a recycle dump.
struct InflightUnit {
    layer: LayerKind,
    pool: usize,
    jobs: VecDeque<RecycleJob>,
    running: u64,
}

/// One log layer: pools + persistence regions + backpressure queues.
struct Layer<K> {
    pools: Vec<LogPool<K>>,
    regions: Vec<LogRegion>,
    queues: Vec<VecDeque<QueuedWork>>,
    timer_armed: Vec<bool>,
}

impl<K: Ord + Copy> Layer<K> {
    fn new(cfg: &TsueConfig, layer_idx: u64, stream_base: u32) -> Self {
        let pools = cfg.effective_pools();
        let region_cap = cfg.unit_size * cfg.max_units as u64 + (4 << 20);
        Layer {
            pools: (0..pools)
                .map(|p| {
                    LogPool::new(
                        cfg.unit_size,
                        cfg.effective_max_units(),
                        layer_idx * 16 + p as u64,
                    )
                })
                .collect(),
            regions: (0..pools)
                .map(|p| LogRegion::new(region_cap, stream_base + p as u32 * 2))
                .collect(),
            queues: (0..pools).map(|_| VecDeque::new()).collect(),
            timer_armed: vec![false; pools],
        }
    }

    fn memory_bytes(&self) -> u64 {
        self.pools.iter().map(LogPool::memory_bytes).sum()
    }

    fn pending_work(&self) -> u64 {
        let pool_work: u64 = self.pools.iter().map(LogPool::pending_work).sum();
        pool_work + self.queues.iter().map(|q| q.len() as u64).sum::<u64>()
    }
}

fn pool_hash(x: u64, pools: usize) -> usize {
    (x.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize % pools
}

/// The peers holding DataLog replica copies for `home`: the next `copies`
/// nodes around the ring — except on a racked topology, where peers in
/// *other* racks are preferred (ring order within each preference class),
/// so a whole-rack failure cannot take the primary and every copy at once.
/// On a flat topology — or under rack-oblivious placement, which opts
/// the whole cluster out of rack safety — this is exactly
/// `(home + r) % osds`.
fn replica_peers(core: &ClusterCore, home: usize, copies: usize) -> Vec<usize> {
    let osds = core.cfg.osds;
    let mut order: Vec<usize> = (1..osds).map(|r| (home + r) % osds).collect();
    if core.cfg.placement == tsue_ecfs::PlacementKind::RackAware && core.net.racks() > 1 {
        let home_rack = core.net.rack_of(core.osds[home].node);
        // Stable sort: `false < true` puts other-rack peers first while
        // keeping ring order inside each class.
        order.sort_by_key(|&p| core.net.rack_of(core.osds[p].node) == home_rack);
    }
    order.truncate(copies);
    order
}

fn block_key(b: BlockId) -> u64 {
    (b.file as u64) << 40 ^ b.stripe << 8 ^ b.role as u64
}

/// Estimated wire size of a chunk after the §7 compression extension: a
/// run-length bound on real bytes, a conservative constant ratio for
/// timing-only chunks.
fn compressed_len(chunk: &Chunk) -> u64 {
    match &chunk.bytes {
        Some(b) => {
            let mut runs: u64 = 1;
            for w in b.windows(2) {
                if w[0] != w[1] {
                    runs += 1;
                }
            }
            (runs * 2).min(b.len() as u64).max(16)
        }
        None => (chunk.len * 11 / 20).max(16),
    }
}

/// The TSUE scheme instance (one per OSD).
pub struct Tsue {
    /// Configuration (public for the harness's ablation sweeps).
    pub cfg: TsueConfig,
    data: Layer<BlockId>,
    delta: Layer<DeltaKey>,
    parity: Layer<BlockId>,
    /// Replica persistence for peer DataLogs (device-only, no memory).
    data_replica_region: LogRegion,
    /// Replica persistence for peer DeltaLogs.
    delta_replica_region: LogRegion,
    threads: MultiResource,
    acks: tsue_ecfs::scheme::AckTable,
    inflight: BTreeMap<UnitId, InflightUnit>,
    /// Monotonic sequence stamped on each replicated DataLog append, so
    /// peer replica stores can prune exactly the recycled prefix.
    data_seq: u64,
    /// `(min, max)` replica seq held by each not-yet-recycled data unit;
    /// the prune watermark at unit finish is the smallest remaining `min`
    /// minus one (seqs below it are durably merged into the block store).
    unit_seqs: BTreeMap<UnitId, (u64, u64)>,
    /// The newest append on this OSD (power-loss torn-write candidate).
    tail: Option<TailAppend>,
    /// Residence-time statistics (Table 2).
    pub residency: ResidencyStats,
    /// Reads fully served by the data log (read-cache effectiveness).
    pub cache_hits: u64,
}

impl Tsue {
    /// Creates a TSUE instance from a config.
    pub fn new(cfg: TsueConfig) -> Self {
        Tsue {
            data: Layer::new(&cfg, 0, 32),
            delta: Layer::new(&cfg, 1, 64),
            parity: Layer::new(&cfg, 2, 96),
            data_replica_region: LogRegion::new(
                cfg.unit_size * cfg.max_units as u64 * cfg.data_replicas as u64,
                128,
            ),
            delta_replica_region: LogRegion::new(cfg.unit_size * cfg.max_units as u64, 132),
            threads: MultiResource::new(cfg.recycle_threads),
            acks: tsue_ecfs::scheme::AckTable::default(),
            inflight: BTreeMap::new(),
            data_seq: 0,
            unit_seqs: BTreeMap::new(),
            tail: None,
            residency: ResidencyStats::default(),
            cache_hits: 0,
            cfg,
        }
    }

    /// SSD-default instance.
    pub fn ssd() -> Self {
        Self::new(TsueConfig::ssd_default())
    }

    /// HDD-default instance.
    pub fn hdd() -> Self {
        Self::new(TsueConfig::hdd_default())
    }

    // ------------------------------------------------------------------
    // Append paths
    // ------------------------------------------------------------------

    /// Front-end DataLog append: sequential persist + replication + ack.
    fn append_data(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        let now = sim.now();
        let pool = pool_hash(block_key(req.block), self.data.pools.len());
        let len = req.data.len;
        let need = len + RECORD_HEADER;
        if !self.ensure_room(core, sim, osd, LayerKind::Data, pool, need) {
            self.data.queues[pool].push_back(QueuedWork::Update(req));
            return;
        }
        let (block, off, op_id) = (req.block, req.off, req.op_id);
        let unit = self.data.pools[pool].active_mut();
        let uid = unit.id;
        // The payload moves into the log index — the client's buffer is
        // shared by refcount the whole way, never duplicated.
        unit.append(
            block,
            off,
            req.data,
            Discipline::Overwrite,
            self.cfg.datalog_locality,
            now,
        );
        self.data_seq += 1;
        let seq = self.data_seq;
        let e = self.unit_seqs.entry(uid).or_insert((seq, seq));
        e.1 = seq;
        self.tail = Some(TailAppend::Data(block, off, len, seq));
        let (t_persist, _) = self.data.regions[pool].append(core, osd, now, need);
        self.residency.data.append.add(t_persist - now);
        self.arm_seal_timer(core, sim, osd, LayerKind::Data, pool);

        // Ack bookkeeping: local persist + (replicas − 1) peers.
        let copies = self
            .cfg
            .data_replicas
            .saturating_sub(1)
            .min(core.cfg.osds - 1);
        let tag = self.acks.register(op_id, 1 + copies as u32);
        sim.schedule_at(t_persist, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            tsue_ecfs::scheme::deliver_msg(w, sim, osd, SchemeMsg::Ack { tag });
        });
        for peer in replica_peers(core, osd, copies) {
            let msg = SchemeMsg::DataForward {
                from: osd,
                block,
                off,
                // The wire and peer-append costs are charged for the full
                // payload, but the parked record is a ghost: the content
                // plane keeps one logical copy (the unit index), which
                // replay reads back through `patch_unmerged` — pinning a
                // second ref here would defeat in-place run coalescing.
                data: Chunk::ghost(len),
                tag,
                seq,
            };
            core.send_to_scheme(sim, osd, peer, len, msg);
        }
    }

    /// DeltaLog append at the first parity owner.
    fn append_delta(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        key: DeltaKey,
        off: u64,
        chunk: Chunk,
    ) {
        let now = sim.now();
        let pool = pool_hash(key.0, self.delta.pools.len());
        let need = chunk.len + RECORD_HEADER;
        if !self.ensure_room(core, sim, osd, LayerKind::Delta, pool, need) {
            self.delta.queues[pool].push_back(QueuedWork::Delta { key, off, chunk });
            return;
        }
        let unit = self.delta.pools[pool].active_mut();
        // Same-offset deltas fold by XOR (Eq. 3); DeltaLog always merges —
        // exploiting locality is the layer's purpose.
        let chunk_len = chunk.len;
        unit.append(key, off, chunk, Discipline::Xor, true, now);
        self.tail = Some(TailAppend::Delta(key.0, chunk_len));
        let (t_persist, _) = self.delta.regions[pool].append(core, osd, now, need);
        self.residency.delta.append.add(t_persist - now);
        self.arm_seal_timer(core, sim, osd, LayerKind::Delta, pool);
    }

    /// ParityLog append at a parity owner.
    fn append_parity(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pblock: BlockId,
        off: u64,
        chunk: Chunk,
    ) {
        let now = sim.now();
        let pool = pool_hash(block_key(pblock), self.parity.pools.len());
        let need = chunk.len + RECORD_HEADER;
        if !self.ensure_room(core, sim, osd, LayerKind::Parity, pool, need) {
            self.parity.queues[pool].push_back(QueuedWork::Parity { pblock, off, chunk });
            return;
        }
        let gstripe = core.global_stripe(pblock.file, pblock.stripe);
        let chunk_len = chunk.len;
        let unit = self.parity.pools[pool].active_mut();
        unit.append(
            pblock,
            off,
            chunk,
            Discipline::Xor,
            self.cfg.paritylog_locality,
            now,
        );
        self.tail = Some(TailAppend::Parity(gstripe, pblock.role, chunk_len));
        let (t_persist, _) = self.parity.regions[pool].append(core, osd, now, need);
        self.residency.parity.append.add(t_persist - now);
        self.arm_seal_timer(core, sim, osd, LayerKind::Parity, pool);
    }

    /// Makes room in `(layer, pool)` for an append: seals a full active
    /// unit (kicking its recycle) and provisions a fresh one. Returns
    /// false when all units are busy (caller queues the work).
    fn ensure_room(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LayerKind,
        pool: usize,
        need: u64,
    ) -> bool {
        let now = sim.now();
        let sealed = {
            let fits = match layer {
                LayerKind::Data => self.data.pools[pool].active_fits(need),
                LayerKind::Delta => self.delta.pools[pool].active_fits(need),
                LayerKind::Parity => self.parity.pools[pool].active_fits(need),
            };
            if fits {
                return true;
            }
            match layer {
                LayerKind::Data => self.data.pools[pool].seal_active(now),
                LayerKind::Delta => self.delta.pools[pool].seal_active(now),
                LayerKind::Parity => self.parity.pools[pool].seal_active(now),
            }
        };
        if let Some(uid) = sealed {
            self.recycle_unit(core, sim, osd, layer, pool, uid);
        }
        match layer {
            LayerKind::Data => self.data.pools[pool].provision_active(),
            LayerKind::Delta => self.delta.pools[pool].provision_active(),
            LayerKind::Parity => self.parity.pools[pool].provision_active(),
        }
    }

    // ------------------------------------------------------------------
    // Recycle paths
    // ------------------------------------------------------------------

    fn recycle_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LayerKind,
        pool: usize,
        uid: UnitId,
    ) {
        match layer {
            LayerKind::Data => self.recycle_data_unit(core, sim, osd, pool, uid),
            LayerKind::Delta => self.recycle_delta_unit(core, sim, osd, pool, uid),
            LayerKind::Parity => self.recycle_parity_unit(core, sim, osd, pool, uid),
        }
    }

    /// DataLog recycle: merged read → delta compute → in-place data write
    /// → delta forwarding (three-layer) or direct parity deltas (two-layer).
    fn recycle_data_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        let jobs: Vec<(BlockId, u64, Chunk)> = {
            // INVARIANT: the recycle event was scheduled with this unit id at
            // seal time, and units are never evicted while Recyclable.
            let unit = self.data.pools[pool].unit_mut(uid).expect("unit exists");
            unit.state = UnitState::Recycling;
            unit.recycle_started = Some(now);
            if let Some(fa) = unit.first_append {
                self.residency.data.buffer.add(now.saturating_sub(fa));
            }
            collect_jobs_blockid(unit)
        };
        // Apply content now, at seal time, so per-block newest-wins
        // semantics hold even though the timed I/O below is paced.
        let store = &mut core.osds[osd];
        let job_queue: VecDeque<RecycleJob> = jobs
            .into_iter()
            .map(|(block, off, newest)| {
                let delta = match &newest.bytes {
                    Some(new) => {
                        // One pass over the store: capture new ⊕ old into a
                        // pooled buffer and install the new content, with
                        // no intermediate materialization of the old data.
                        let d = store
                            .delta_poke_range(block, off, new)
                            // INVARIANT: jobs carry bytes only in materialized runs, where
                            // every hosted block has backing data.
                            .expect("materialized block");
                        Chunk::real(d)
                    }
                    None => Chunk::ghost(newest.len),
                };
                RecycleJob::Data(block, off, delta)
            })
            .collect();
        self.inflight.insert(
            uid,
            InflightUnit {
                layer: LayerKind::Data,
                pool,
                jobs: job_queue,
                running: 0,
            },
        );
        self.dispatch_unit_jobs(core, sim, osd, uid);
    }

    /// Dispatches queued recycle jobs of `uid` up to the thread-pool width;
    /// each completion re-enters here via the job-done timer, so at most
    /// `recycle_threads` background I/Os are outstanding per unit and
    /// foreground appends interleave fairly on the device.
    fn dispatch_unit_jobs(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        uid: UnitId,
    ) {
        let width = self.cfg.recycle_threads.max(1) as u64;
        loop {
            let job = {
                let Some(inf) = self.inflight.get_mut(&uid) else {
                    return;
                };
                if inf.running >= width {
                    return;
                }
                match inf.jobs.pop_front() {
                    Some(j) => {
                        inf.running += 1;
                        j
                    }
                    None => {
                        if inf.running == 0 {
                            self.finish_unit(core, sim, osd, uid);
                        }
                        return;
                    }
                }
            };
            let done_at = match job {
                RecycleJob::Data(block, off, delta) => {
                    self.run_data_job(core, sim, osd, block, off, delta)
                }
                RecycleJob::Parity(pblock, off, len) => {
                    // Content was XORed into the store at seal time; charge
                    // the timed read-XOR-write here.
                    let th = pool_hash(block_key(pblock), self.cfg.recycle_threads.max(1));
                    let now = sim.now();
                    let compute = self
                        .threads
                        .submit_to(th, now, core.xor_time(len))
                        .saturating_sub(now);
                    core.osds[osd].xor_block_range(now, pblock, off, len, None, compute)
                }
            };
            let done_tag = TK_JOB_DONE | (uid << 4);
            core.scheme_timer(sim, osd, done_at.saturating_sub(sim.now()), done_tag);
        }
    }

    /// Executes the timed I/O of one DataLog recycle job (content already
    /// applied at seal time); returns its completion time.
    fn run_data_job(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        block: BlockId,
        off: u64,
        delta: Chunk,
    ) -> Time {
        let now = sim.now();
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        let th = pool_hash(block_key(block), self.cfg.recycle_threads.max(1));
        // Read the original once per merged range (timing; content for the
        // delta was captured at seal time).
        let (t_read, _) = core.osds[osd].read_block_range(now, block, off, delta.len);
        let t_cpu = self.threads.submit_to(th, t_read, core.xor_time(delta.len));
        // In-place data overwrite with the merged newest content (timing
        // only — the store already holds it).
        let t_write = core.osds[osd].write_block_range(t_cpu, block, off, delta.len, None);
        let gstripe = core.global_stripe(block.file, block.stripe);
        if self.cfg.use_delta_log {
            // Forward the raw data delta to the DeltaLog at P1, copy at P2.
            let p1 = core.owner_of(gstripe, k);
            let len = if self.cfg.compress_deltas {
                compressed_len(&delta)
            } else {
                delta.len
            };
            let msg = SchemeMsg::DeltaForward {
                from: osd,
                block,
                off,
                data: delta,
                kind: DeltaKind::DataDelta,
                parity_index: 0,
                tag: TAG_DELTA,
            };
            sim.schedule_at(t_write, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                w.core.send_to_scheme(sim, osd, p1, len, msg);
            });
            if m >= 2 {
                let p2 = core.owner_of(gstripe, k + 1);
                let rep = SchemeMsg::DeltaForward {
                    from: osd,
                    block,
                    off,
                    data: Chunk::ghost(len),
                    kind: DeltaKind::DataDelta,
                    parity_index: 1,
                    tag: TAG_DELTA_REP,
                };
                sim.schedule_at(t_write, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                    w.core.send_to_scheme(sim, osd, p2, len, rep);
                });
            }
        } else {
            // Two-layer mode: scale per parity locally, send to each.
            let t_gf = self
                .threads
                .submit_to(th, t_write, core.gf_time(delta.len * m as u64));
            for j in 0..m {
                let peer = core.owner_of(gstripe, k + j);
                let pd = delta.gf_scaled(core.rs.coefficient(j, block.role));
                let len = if self.cfg.compress_deltas {
                    compressed_len(&pd)
                } else {
                    pd.len
                };
                let msg = SchemeMsg::DeltaForward {
                    from: osd,
                    block,
                    off,
                    data: pd,
                    kind: DeltaKind::ParityDelta,
                    parity_index: j,
                    tag: 0,
                };
                sim.schedule_at(t_gf, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                    w.core.send_to_scheme(sim, osd, peer, len, msg);
                });
            }
        }
        t_write
    }

    /// DeltaLog recycle: purely in-memory Eq. 3/5 combination, then
    /// combined parity deltas to every ParityLog.
    ///
    /// The unit's two-level index is read **in place** (no per-range
    /// clones), and same-span deltas from different data blocks of a
    /// stripe fold through [`tsue_ec::RsCode::combined_parity_delta_into`]
    /// — one scratch buffer and one fused multiply-accumulate pass per
    /// contributing block, instead of a scaled temporary per range.
    fn recycle_delta_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        let mut cpu: Time = 0;
        let mut sends: Vec<(usize, BlockId, u64, Chunk, usize)> = Vec::new();
        {
            // INVARIANT: the recycle event was scheduled with this unit id at
            // seal time, and units are never evicted while Recyclable.
            let unit = self.delta.pools[pool].unit_mut(uid).expect("unit exists");
            unit.state = UnitState::Recycling;
            unit.recycle_started = Some(now);
            if let Some(fa) = unit.first_append {
                self.residency.delta.buffer.add(now.saturating_sub(fa));
            }
            // Stripe → [(role, ranges)] view over the index, borrowed.
            // The unit index is a BTreeMap keyed by (gstripe, role), so
            // this walk already yields roles in ascending order within
            // each stripe — no post-sort needed.
            let mut grouped: std::collections::BTreeMap<u64, Vec<(usize, &RangeMap)>> =
                std::collections::BTreeMap::new();
            for (&(gstripe, role), entry) in unit.index.iter() {
                grouped
                    .entry(gstripe)
                    .or_default()
                    .push((role, &entry.ranges));
            }
            // Pass 1: group spans per (stripe, parity) target and charge
            // the CPU model.
            //
            // Eq. (5): one combined parity delta stream per parity.
            // Same-(offset, length) ranges across roles — the common
            // case under stripe-wide locality — combine through one
            // shared accumulator; everything else scales into its
            // own pooled buffer. XOR associativity makes the final
            // map identical either way.
            // (group index, parity index, offset, length, contributors).
            type SpanJob<'a> = (usize, usize, u64, u64, Vec<(usize, &'a [u8])>);
            let mut groups: Vec<(u64, usize, RangeMap)> = Vec::new();
            let mut span_jobs: Vec<SpanJob<'_>> = Vec::new();
            for (&gstripe, roles) in &grouped {
                for j in 0..m {
                    let mut combined = RangeMap::new();
                    let mut spans: SpanGroups<'_> = SpanGroups::new();
                    for (role, ranges) in roles {
                        for (off, c) in ranges.iter() {
                            cpu += core.gf_time(c.len);
                            match &c.bytes {
                                Some(b) => spans
                                    .entry((off, c.len))
                                    .or_default()
                                    .push((*role, b.as_slice())),
                                None => combined.insert_xor(off, Chunk::ghost(c.len)),
                            }
                        }
                    }
                    let gidx = groups.len();
                    for ((off, len), contribs) in spans {
                        span_jobs.push((gidx, j, off, len, contribs));
                    }
                    groups.push((gstripe, j, combined));
                }
            }
            // Pass 2: the fused multiply-accumulate kernels, each filling
            // its own fresh accumulator.
            let filled: Vec<(usize, u64, tsue_buf::Bytes)> = span_jobs
                .into_iter()
                .map(|(gidx, j, off, len, contribs)| {
                    let mut acc = tsue_buf::BytesMut::take(len as usize);
                    core.rs
                        .fill_combined_parity_delta(j, &contribs, acc.as_mut());
                    (gidx, off, acc.freeze())
                })
                .collect();
            // Pass 3: fold results back in submission order and emit
            // sends per (stripe, parity) group.
            for (gidx, off, bytes) in filled {
                groups[gidx].2.insert_xor(off, Chunk::real(bytes));
            }
            for (gstripe, j, mut combined) in groups {
                let (file, stripe) = core.mds.locate_stripe(gstripe);
                let peer = core.owner_of(gstripe, k + j);
                let carrier = BlockId {
                    file,
                    stripe,
                    role: 0,
                };
                for (off, chunk) in combined.drain() {
                    sends.push((peer, carrier, off, chunk, j));
                }
            }
        }
        self.inflight.insert(
            uid,
            InflightUnit {
                layer: LayerKind::Delta,
                pool,
                jobs: VecDeque::new(),
                running: 1,
            },
        );
        // One CPU job covers the whole in-memory merge (no device I/O).
        let th = pool_hash(uid, self.cfg.recycle_threads.max(1));
        let t_cpu = self.threads.submit_to(th, now, cpu.max(tsue_ecfs::MEM_OP));
        for (peer, carrier, off, chunk, j) in sends {
            let len = if self.cfg.compress_deltas {
                compressed_len(&chunk)
            } else {
                chunk.len
            };
            let msg = SchemeMsg::DeltaForward {
                from: osd,
                block: carrier,
                off,
                data: chunk,
                kind: DeltaKind::ParityDelta,
                parity_index: j,
                tag: 0,
            };
            sim.schedule_at(t_cpu, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                w.core.send_to_scheme(sim, osd, peer, len, msg);
            });
        }
        let done_tag = TK_JOB_DONE | (uid << 4);
        core.scheme_timer(sim, osd, t_cpu.saturating_sub(now), done_tag);
    }

    /// ParityLog recycle: merged parity delta ranges applied to parity
    /// blocks with read-XOR-write.
    fn recycle_parity_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        let jobs: Vec<(BlockId, u64, Chunk)> = {
            // INVARIANT: the recycle event was scheduled with this unit id at
            // seal time, and units are never evicted while Recyclable.
            let unit = self.parity.pools[pool].unit_mut(uid).expect("unit exists");
            unit.state = UnitState::Recycling;
            unit.recycle_started = Some(now);
            if let Some(fa) = unit.first_append {
                self.residency.parity.buffer.add(now.saturating_sub(fa));
            }
            collect_jobs_blockid(unit)
        };
        // Apply parity XOR content now (order-free: XOR commutes), pace the
        // timed read-modify-writes below.
        let store = &mut core.osds[osd];
        let job_queue: VecDeque<RecycleJob> = jobs
            .into_iter()
            .map(|(pblock, off, delta)| {
                if let Some(d) = delta.bytes.as_ref() {
                    // In-place XOR into the store — no peek/poke round trip.
                    store.xor_poke_range(pblock, off, d);
                }
                RecycleJob::Parity(pblock, off, delta.len)
            })
            .collect();
        self.inflight.insert(
            uid,
            InflightUnit {
                layer: LayerKind::Parity,
                pool,
                jobs: job_queue,
                running: 0,
            },
        );
        self.dispatch_unit_jobs(core, sim, osd, uid);
    }

    /// One recycle job of a unit completed: dispatch the next queued job,
    /// or finish the unit when nothing remains.
    fn unit_job_done(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        uid: UnitId,
    ) {
        {
            let Some(inf) = self.inflight.get_mut(&uid) else {
                return;
            };
            inf.running = inf.running.saturating_sub(1);
        }
        self.dispatch_unit_jobs(core, sim, osd, uid);
    }

    /// All jobs of a unit completed: mark it Recycled and unblock queued
    /// appends.
    fn finish_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        // INVARIANT: unit_job_done fires exactly once per recycle dispatch,
        // which inserted this entry.
        let inf = self.inflight.remove(&uid).expect("inflight unit");
        let (layer, pool) = (inf.layer, inf.pool);
        match layer {
            LayerKind::Data => {
                if let Some(unit) = self.data.pools[pool].unit_mut(uid) {
                    unit.state = UnitState::Recycled;
                    if let Some(start) = unit.recycle_started {
                        self.residency.data.recycle.add(now.saturating_sub(start));
                        core.metrics.obs.recycle_merged(osd, uid, start, now);
                    }
                }
                // Every append of this unit is now merged into the block
                // store, so its peer replica copies are dead weight. The
                // safe prune watermark is bounded by the oldest append
                // still sitting in an unrecycled unit (units recycle out
                // of seq order across pools).
                if self.unit_seqs.remove(&uid).is_some() {
                    let watermark = match self.unit_seqs.values().map(|&(lo, _)| lo).min() {
                        Some(lo) => lo.saturating_sub(1),
                        None => self.data_seq,
                    };
                    core.replicas.prune_up_to(osd, watermark);
                }
            }
            LayerKind::Delta => {
                if let Some(unit) = self.delta.pools[pool].unit_mut(uid) {
                    unit.state = UnitState::Recycled;
                    if let Some(start) = unit.recycle_started {
                        self.residency.delta.recycle.add(now.saturating_sub(start));
                        core.metrics.obs.recycle_merged(osd, uid, start, now);
                    }
                }
            }
            LayerKind::Parity => {
                if let Some(unit) = self.parity.pools[pool].unit_mut(uid) {
                    unit.state = UnitState::Recycled;
                    if let Some(start) = unit.recycle_started {
                        self.residency.parity.recycle.add(now.saturating_sub(start));
                        core.metrics.obs.recycle_merged(osd, uid, start, now);
                    }
                }
            }
        }
        self.drain_queue(core, sim, osd, layer, pool);
    }

    /// Replays queued work after a unit freed up.
    fn drain_queue(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LayerKind,
        pool: usize,
    ) {
        loop {
            let work = match layer {
                LayerKind::Data => self.data.queues[pool].pop_front(),
                LayerKind::Delta => self.delta.queues[pool].pop_front(),
                LayerKind::Parity => self.parity.queues[pool].pop_front(),
            };
            let Some(work) = work else { break };
            let before = self.queue_len(layer, pool);
            match work {
                QueuedWork::Update(req) => self.append_data(core, sim, osd, req),
                QueuedWork::Delta { key, off, chunk } => {
                    self.append_delta(core, sim, osd, key, off, chunk)
                }
                QueuedWork::Parity { pblock, off, chunk } => {
                    self.append_parity(core, sim, osd, pblock, off, chunk)
                }
            }
            // If the append re-queued itself (still no room), stop.
            if self.queue_len(layer, pool) > before {
                break;
            }
        }
    }

    fn queue_len(&self, layer: LayerKind, pool: usize) -> usize {
        match layer {
            LayerKind::Data => self.data.queues[pool].len(),
            LayerKind::Delta => self.delta.queues[pool].len(),
            LayerKind::Parity => self.parity.queues[pool].len(),
        }
    }

    /// Arms the background seal timer for a pool if not already armed.
    fn arm_seal_timer(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LayerKind,
        pool: usize,
    ) {
        let armed = match layer {
            LayerKind::Data => &mut self.data.timer_armed[pool],
            LayerKind::Delta => &mut self.delta.timer_armed[pool],
            LayerKind::Parity => &mut self.parity.timer_armed[pool],
        };
        if *armed {
            return;
        }
        *armed = true;
        let tag = TK_SEAL | ((layer as u64) << 4) | ((pool as u64) << 8);
        core.scheme_timer(sim, osd, self.cfg.seal_interval, tag);
    }

    /// Seal-timer fire: seal a lingering active unit (real-time recycle
    /// guarantee) and re-arm while traffic continues.
    fn on_seal_timer(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LayerKind,
        pool: usize,
    ) {
        let now = sim.now();
        let sealed = match layer {
            LayerKind::Data => self.data.pools[pool].seal_active(now),
            LayerKind::Delta => self.delta.pools[pool].seal_active(now),
            LayerKind::Parity => self.parity.pools[pool].seal_active(now),
        };
        if let Some(uid) = sealed {
            self.recycle_unit(core, sim, osd, layer, pool, uid);
            match layer {
                LayerKind::Data => self.data.pools[pool].provision_active(),
                LayerKind::Delta => self.delta.pools[pool].provision_active(),
                LayerKind::Parity => self.parity.pools[pool].provision_active(),
            };
            // Re-arm: traffic is flowing.
            let armed = match layer {
                LayerKind::Data => &mut self.data.timer_armed[pool],
                LayerKind::Delta => &mut self.delta.timer_armed[pool],
                LayerKind::Parity => &mut self.parity.timer_armed[pool],
            };
            *armed = false;
            self.arm_seal_timer(core, sim, osd, layer, pool);
        } else {
            // Idle: shrink the pool and stop the timer until new appends.
            match layer {
                LayerKind::Data => self.data.pools[pool].shrink_to(2),
                LayerKind::Delta => self.delta.pools[pool].shrink_to(2),
                LayerKind::Parity => self.parity.pools[pool].shrink_to(2),
            }
            let armed = match layer {
                LayerKind::Data => &mut self.data.timer_armed[pool],
                LayerKind::Delta => &mut self.delta.timer_armed[pool],
                LayerKind::Parity => &mut self.parity.timer_armed[pool],
            };
            *armed = false;
        }
    }
}

/// Collects `(block, offset, chunk)` recycle jobs from a unit keyed by
/// [`BlockId`], honouring raw (no-locality) mode.
fn collect_jobs_blockid(unit: &crate::logunit::LogUnit<BlockId>) -> Vec<(BlockId, u64, Chunk)> {
    // Deterministic cross-block order; raw entries keep their append
    // order *within* a block — overlapping raw records must replay in
    // arrival order for newest-wins semantics.
    let mut keys: Vec<BlockId> = unit.index.keys().copied().collect();
    keys.sort();
    let mut jobs = Vec::new();
    for block in keys {
        let entry = &unit.index[&block];
        if entry.raw.is_empty() {
            for (off, c) in entry.ranges.iter() {
                jobs.push((block, off, c.clone()));
            }
        } else {
            for (off, c) in &entry.raw {
                jobs.push((block, *off, c.clone()));
            }
        }
    }
    jobs
}

impl UpdateScheme for Tsue {
    fn name(&self) -> &'static str {
        "TSUE"
    }

    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        self.append_data(core, sim, osd, req);
    }

    fn on_message(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        msg: SchemeMsg,
    ) {
        match msg {
            SchemeMsg::DataForward {
                from,
                block,
                off,
                data,
                tag,
                seq,
            } => {
                // Peer DataLog replica: persist to device only (§4.1 — the
                // replica is stored solely on the SSD, no memory).
                let (t, _) =
                    self.data_replica_region
                        .append(core, osd, sim.now(), data.len + RECORD_HEADER);
                // Every append also lands in the cluster's replica index,
                // keyed by the home OSD: if the home dies before this
                // append recycles, the rebuild replays the records (seq
                // order) so acked writes stay byte-exact. Records are
                // ghosts — replay content comes from the home's unit
                // index via `UpdateScheme::patch_unmerged`.
                core.replicas.push(
                    from,
                    ReplicaRecord {
                        seq,
                        block,
                        off,
                        data,
                    },
                );
                sim.schedule_at(t, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                    w.core
                        .send_to_scheme(sim, osd, from, ACK_BYTES, SchemeMsg::Ack { tag });
                });
            }
            SchemeMsg::DeltaForward {
                block,
                off,
                data,
                kind: DeltaKind::DataDelta,
                tag,
                ..
            } => {
                if tag == TAG_DELTA_REP {
                    // Second-parity copy: device persistence only.
                    let _ = self.delta_replica_region.append(
                        core,
                        osd,
                        sim.now(),
                        data.len + RECORD_HEADER,
                    );
                } else {
                    let gstripe = core.global_stripe(block.file, block.stripe);
                    self.append_delta(core, sim, osd, (gstripe, block.role), off, data);
                }
            }
            SchemeMsg::DeltaForward {
                block,
                off,
                data,
                kind: DeltaKind::ParityDelta,
                parity_index,
                ..
            } => {
                let pblock = BlockId {
                    role: core.cfg.stripe.k + parity_index,
                    ..block
                };
                self.append_parity(core, sim, osd, pblock, off, data);
            }
            SchemeMsg::Ack { tag } => {
                if let Some(op_id) = self.acks.ack(tag) {
                    core.extent_done(sim, osd, op_id);
                }
            }
            // INVARIANT: TSUE peers exchange only the kinds above; a Control
            // frame here is a message-routing bug.
            SchemeMsg::Control { .. } => unreachable!("TSUE sends no Control messages"),
        }
    }

    fn on_timer(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize, tag: u64) {
        match tag & 0xF {
            TK_SEAL => {
                let layer = match (tag >> 4) & 0xF {
                    0 => LayerKind::Data,
                    1 => LayerKind::Delta,
                    _ => LayerKind::Parity,
                };
                let pool = (tag >> 8) as usize;
                self.on_seal_timer(core, sim, osd, layer, pool);
            }
            TK_JOB_DONE => {
                let uid = tag >> 4;
                self.unit_job_done(core, sim, osd, uid);
            }
            // INVARIANT: every TSUE timer is scheduled by this scheme with a
            // TK_* tag, matched exhaustively above.
            _ => unreachable!("unknown TSUE timer tag {tag:#x}"),
        }
    }

    fn read_overlay(
        &mut self,
        _core: &mut ClusterCore,
        _osd: usize,
        block: BlockId,
        off: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> ReadServe {
        // The DataLog doubles as a read cache (§3.3.3).
        let pool = pool_hash(block_key(block), self.data.pools.len());
        if self.data.pools[pool].overlay(&block, off, len, buf) {
            self.cache_hits += 1;
            ReadServe::CacheHit
        } else {
            ReadServe::Miss
        }
    }

    fn patch_unmerged(&self, block: BlockId, off: u64, len: u64, buf: &mut [u8]) {
        let pool = pool_hash(block_key(block), self.data.pools.len());
        self.data.pools[pool].overlay(&block, off, len, Some(buf));
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let now = sim.now();
        for layer in [LayerKind::Data, LayerKind::Delta, LayerKind::Parity] {
            let pools = match layer {
                LayerKind::Data => self.data.pools.len(),
                LayerKind::Delta => self.delta.pools.len(),
                LayerKind::Parity => self.parity.pools.len(),
            };
            for pool in 0..pools {
                let sealed = match layer {
                    LayerKind::Data => self.data.pools[pool].seal_active(now),
                    LayerKind::Delta => self.delta.pools[pool].seal_active(now),
                    LayerKind::Parity => self.parity.pools[pool].seal_active(now),
                };
                if let Some(uid) = sealed {
                    self.recycle_unit(core, sim, osd, layer, pool, uid);
                }
                match layer {
                    LayerKind::Data => self.data.pools[pool].provision_active(),
                    LayerKind::Delta => self.delta.pools[pool].provision_active(),
                    LayerKind::Parity => self.parity.pools[pool].provision_active(),
                };
                self.drain_queue(core, sim, osd, layer, pool);
            }
        }
    }

    fn power_loss(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        seed: u64,
    ) -> PowerLossReport {
        let now = sim.now();
        let mut rep = PowerLossReport::default();
        // Restart: scan every persisted log region. Fully-framed records
        // rebuild the in-memory indexes verbatim (which is why the unit
        // state needs no surgery); only the in-flight tail record is at
        // risk of a tear.
        for pool in 0..self.data.regions.len() {
            self.data.regions[pool].scan(core, osd, now);
        }
        for pool in 0..self.delta.regions.len() {
            self.delta.regions[pool].scan(core, osd, now);
        }
        for pool in 0..self.parity.regions.len() {
            self.parity.regions[pool].scan(core, osd, now);
        }
        self.data_replica_region.scan(core, osd, now);
        self.delta_replica_region.scan(core, osd, now);

        let Some(tail) = self.tail.take() else {
            return rep;
        };
        let mut rng = SplitRng::new(seed);
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        match tail {
            TailAppend::Data(block, off, len, _seq) => {
                // The tear lands at a pseudo-random offset inside the
                // record; the framing checksum rejects *any* cut short of
                // the full frame, so the cut position never changes what
                // the scan recovers — a torn record is discarded whole.
                let cut = rng.below((len + RECORD_HEADER).max(1));
                debug_assert!(cut < len + RECORD_HEADER);
                rep.torn_detected = 1;
                let copies = self
                    .cfg
                    .data_replicas
                    .saturating_sub(1)
                    .min(core.cfg.osds - 1);
                let pool = pool_hash(block_key(block), self.data.pools.len());
                if copies > 0 {
                    // Acked ⇒ replicated: re-fetch the record from the
                    // first live replica peer and re-append it locally.
                    // Content-wise the unit index already holds it.
                    let src = replica_peers(core, osd, copies)
                        .into_iter()
                        .find(|&p| core.mds.is_alive(p));
                    let t_fetch = match src {
                        Some(p) => {
                            core.net
                                .transfer(now, core.osds[p].node, core.osds[osd].node, len)
                        }
                        None => now,
                    };
                    let _ = self.data.regions[pool].append(core, osd, t_fetch, len + RECORD_HEADER);
                    rep.torn_replayed = 1;
                } else {
                    // data_replicas == 1 opted out of the durability
                    // guarantee: the record is gone. Revert the log
                    // overlay to the pre-append store bytes so reads
                    // serve the *old* data — stale, but never torn.
                    let reverted = self.data.pools[pool]
                        .iter_oldest_first()
                        .filter(|u| {
                            matches!(u.state, UnitState::Empty | UnitState::Recyclable)
                                && u.index.contains_key(&block)
                        })
                        .last()
                        .map(|u| u.id);
                    if let Some(uid) = reverted {
                        let pre = core.osds[osd]
                            .peek_block_range(block, off, len)
                            .map(Chunk::real)
                            .unwrap_or_else(|| Chunk::ghost(len));
                        let locality = self.cfg.datalog_locality;
                        if let Some(unit) = self.data.pools[pool].unit_mut(uid) {
                            unit.append(block, off, pre, Discipline::Overwrite, locality, now);
                        }
                        rep.torn_discarded = 1;
                    } else {
                        // The unit already recycled: the content reached
                        // the block store before the power cut, so the
                        // torn log record is irrelevant.
                        rep.torn_replayed = 1;
                    }
                }
            }
            TailAppend::Delta(gstripe, len) => {
                rep.torn_detected = 1;
                if self.cfg.use_delta_log && m >= 2 {
                    // The TAG_DELTA_REP copy persists on the second parity
                    // owner: re-fetch and re-append.
                    let p2 = core.owner_of(gstripe, k + 1);
                    let t_fetch = if p2 != osd && core.mds.is_alive(p2) {
                        core.net
                            .transfer(now, core.osds[p2].node, core.osds[osd].node, len)
                    } else {
                        now
                    };
                    let pool = pool_hash(gstripe, self.delta.pools.len());
                    let _ =
                        self.delta.regions[pool].append(core, osd, t_fetch, len + RECORD_HEADER);
                    rep.torn_replayed = 1;
                } else {
                    // No copy exists: the delta is lost before reaching
                    // any parity log. Every parity of the stripe is now
                    // stale — mark them for re-encode from data.
                    for j in 0..m {
                        core.mds.mark_parity_dirty(gstripe, k + j);
                    }
                    rep.torn_discarded = 1;
                }
            }
            TailAppend::Parity(gstripe, role, _len) => {
                // ParityLog appends carry no replica; the lost combined
                // delta leaves this parity stale until re-encoded.
                rep.torn_detected = 1;
                core.mds.mark_parity_dirty(gstripe, role);
                rep.torn_discarded = 1;
            }
        }
        rep
    }

    fn backlog(&self) -> u64 {
        let inflight: u64 = self
            .inflight
            .values()
            .map(|i| i.jobs.len() as u64 + i.running)
            .sum();
        self.data.pending_work()
            + self.delta.pending_work()
            + self.parity.pending_work()
            + inflight
            + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        self.data.memory_bytes() + self.delta.memory_bytes() + self.parity.memory_bytes()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Aggregates residency statistics from every TSUE instance in a cluster
/// (the Table 2 harvest).
pub fn harvest_residency(world: &Cluster) -> ResidencyStats {
    let mut total = ResidencyStats::default();
    for s in world.schemes.iter().flatten() {
        if let Some(t) = s.as_any().and_then(|a| a.downcast_ref::<Tsue>()) {
            total.merge(&t.residency);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_expose_the_ablation_ladder() {
        let base = TsueConfig::breakdown(0);
        assert!(!base.datalog_locality && !base.use_log_pool && !base.use_delta_log);
        assert_eq!(base.effective_max_units(), 2, "pre-O3 double-buffers");
        assert_eq!(base.effective_pools(), 1);
        let o3 = TsueConfig::breakdown(3);
        assert!(o3.use_log_pool && o3.paritylog_locality);
        assert_eq!(o3.effective_pools(), 1);
        let o5 = TsueConfig::breakdown(5);
        assert!(o5.use_delta_log);
        assert_eq!(o5.effective_pools(), 4);
    }

    #[test]
    fn hdd_config_follows_paper() {
        let h = TsueConfig::hdd_default();
        assert_eq!(h.data_replicas, 3);
        assert!(!h.use_delta_log);
        let s = TsueConfig::ssd_default();
        assert_eq!(s.data_replicas, 2);
        assert!(s.use_delta_log);
    }

    #[test]
    fn fresh_instance_has_no_backlog() {
        let t = Tsue::ssd();
        assert_eq!(t.backlog(), 0);
        assert_eq!(t.memory_usage(), 0);
        assert_eq!(t.name(), "TSUE");
    }
}

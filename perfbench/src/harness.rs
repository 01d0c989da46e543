//! One repeat of a workload, driven through the public API and timed
//! from outside: `ScenarioSpec::builder` → `ClusterBuilder::build` →
//! `run_workload` → `run_plan_to_completion` → `Cluster::flush_all`.
//!
//! The traced form installs [`TimedScheme`] through
//! `ClusterBuilder::scheme_fn`, which times every `UpdateScheme`
//! callback, and records one span per phase call. Neither changes what
//! the simulation does: the traced and untraced repeats must produce the
//! same serialized `RunResult` (checked by the caller).

use crate::oracle::{self, Oracle};
use crate::trace::Spans;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;
use tsue_bench::{DevSummary, RunResult, ScenarioSpec};
use tsue_ecfs::scheme::ReadServe;
use tsue_ecfs::{
    BlockId, Cluster, ClusterCore, PowerLossReport, SchemeMsg, SchemeParams, SchemeRegistry,
    UpdateReq, UpdateScheme,
};
use tsue_fault::EngineConfig;
use tsue_obs::HistReport;
use tsue_sim::{Sim, MILLISECOND, SECOND};

/// The `UpdateScheme` callbacks the wrapper times, in report order.
/// `power_loss` is forwarded but not timed: no workload cuts power.
pub const CALLBACKS: [&str; 5] = [
    "on_update",
    "on_message",
    "on_timer",
    "read_overlay",
    "flush",
];

/// Calls and inclusive host nanoseconds per callback.
pub type SchemeClock = [(u64, u64); 5];

thread_local! {
    // The simulation runs on one thread, so a thread-local accumulator
    // needs no synchronisation and keeps the wrapper `Send`.
    static CLOCK: RefCell<SchemeClock> = const { RefCell::new([(0, 0); 5]) };
}

fn take_clock() -> SchemeClock {
    CLOCK.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Delegating scheme that times each callback of the scheme it wraps.
/// Every trait method is forwarded, so downcasts through `as_any` (such
/// as `tsue_core::harvest_residency`) still reach the inner scheme.
pub struct TimedScheme {
    inner: Box<dyn UpdateScheme>,
}

impl TimedScheme {
    fn timed<R>(&mut self, which: usize, f: impl FnOnce(&mut dyn UpdateScheme) -> R) -> R {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = t0.elapsed().as_nanos() as u64;
        CLOCK.with(|c| {
            let slot = &mut c.borrow_mut()[which];
            slot.0 += 1;
            slot.1 += ns;
        });
        out
    }
}

impl UpdateScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        self.timed(0, |s| s.on_update(core, sim, osd, req));
    }

    fn on_message(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        msg: SchemeMsg,
    ) {
        self.timed(1, |s| s.on_message(core, sim, osd, msg));
    }

    fn on_timer(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize, tag: u64) {
        self.timed(2, |s| s.on_timer(core, sim, osd, tag));
    }

    fn read_overlay(
        &mut self,
        core: &mut ClusterCore,
        osd: usize,
        block: BlockId,
        off: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> ReadServe {
        self.timed(3, |s| s.read_overlay(core, osd, block, off, len, buf))
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        self.timed(4, |s| s.flush(core, sim, osd));
    }

    fn backlog(&self) -> u64 {
        self.inner.backlog()
    }

    fn memory_usage(&self) -> u64 {
        self.inner.memory_usage()
    }

    fn power_loss(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        seed: u64,
    ) -> PowerLossReport {
        self.inner.power_loss(core, sim, osd, seed)
    }

    fn patch_unmerged(&self, block: BlockId, off: u64, len: u64, buf: &mut [u8]) {
        self.inner.patch_unmerged(block, off, len, buf);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Host-clock readings of one repeat, in seconds.
#[derive(Clone, Debug, Default)]
pub struct HostTimes {
    /// Cluster build, file provisioning and fault-plan install.
    pub setup: f64,
    /// `run_workload`.
    pub run: f64,
    /// `run_plan_to_completion` (0 without a fault plan).
    pub fault: f64,
    /// `Cluster::flush_all`.
    pub flush: f64,
    /// The correctness oracle (0 when skipped).
    pub verify: f64,
}

impl HostTimes {
    /// The measured run phases: run + fault completion + drain.
    pub fn host_s(&self) -> f64 {
        self.run + self.fault + self.flush
    }
}

/// Everything one repeat yields.
pub struct Repeat {
    /// Host-clock phase times.
    pub host: HostTimes,
    /// The harvested result, serialized (compared across repeats).
    pub result_json: String,
    /// Virtual-clock metrics and exact counts, by catalog name.
    pub virt: BTreeMap<String, f64>,
    /// Host-side buffer-pool counters (not part of the virtual state).
    pub buf: BTreeMap<String, f64>,
    /// Client ops issued.
    pub issued: u64,
    /// Failed reads plus ops that never completed.
    pub failed: u64,
    /// DES events executed over the run phases.
    pub events: u64,
    /// Digest of every stored block (equal across repeats of one seed).
    pub fingerprint: u64,
    /// Peak resident set of the process so far, MiB, read before the
    /// oracle runs so that its reference copy of the data is not counted.
    pub peak_rss_mib: f64,
    /// Correctness oracle outcome; `None` when the repeat skipped it.
    pub oracle: Option<Oracle>,
    /// Per-callback scheme clock (traced repeats only).
    pub scheme: Option<SchemeClock>,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Same cadence and logic as the scheme-memory probe of
/// `tsue_bench::run_scenario`, so `mem_peak` matches `tsuectl run`.
const MEM_PROBE_EVERY: u64 = 250 * MILLISECOND;

fn mem_probe(w: &mut Cluster, sim: &mut Sim<Cluster>) {
    let (peak, _) = w.scheme_memory();
    w.core.metrics.mem_peak = w.core.metrics.mem_peak.max(peak);
    if w.core.accepting(sim.now()) {
        sim.schedule(MEM_PROBE_EVERY, mem_probe);
    }
}

/// Runs `spec` once. `traced` installs the scheme wrapper; `verify`
/// runs the full correctness oracle; phase spans go to `spans`.
///
/// # Errors
/// Fails on an invalid spec or fault plan.
pub fn run_once(
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
    traced: bool,
    verify: bool,
    spans: &mut Spans,
) -> Result<Repeat, String> {
    let root = spans.open("repeat", None);
    let mut host = HostTimes::default();

    // Start every repeat with an empty buffer pool so pool counters do
    // not depend on what an earlier repeat left behind.
    tsue_buf::drain_pool();
    let sp = spans.open("setup", Some(root));
    let t0 = Instant::now();
    let mut builder = spec
        .builder(registry)?
        .threads(1)
        .record_arrivals(spec.materialize());
    if traced {
        let params = SchemeParams {
            device: spec.device,
            knobs: spec.scheme.knobs_value(),
        };
        let mut make = registry
            .instantiate(&spec.scheme.name, &params)
            .map_err(|e| e.to_string())?;
        builder = builder.scheme_fn(move |osd| -> Box<dyn UpdateScheme> {
            Box::new(TimedScheme { inner: make(osd) })
        });
    }
    let mut world = builder.build();
    world.core.metrics.obs.series.cadence_ms = spec.obs_cadence_ms();
    let mut sim: Sim<Cluster> = Sim::new();
    sim.schedule(MEM_PROBE_EVERY, mem_probe);
    if spec.obs_cadence_ms() > 0 {
        sim.schedule(spec.obs_cadence_ms() * MILLISECOND, obs_probe);
    }
    let tracker = match spec.fault_plan() {
        Some(plan) => Some(tsue_fault::install(
            &world,
            &mut sim,
            &plan,
            EngineConfig::default(),
        )?),
        None => None,
    };
    tsue_ecfs::start_scrub(&mut world, &mut sim);
    host.setup = secs(t0);
    spans.close(sp);
    take_clock();

    let buf_start = tsue_buf::stats();
    let events0 = sim.events_executed();
    let sp = spans.open("ecfs.run_workload", Some(root));
    let t0 = Instant::now();
    tsue_ecfs::run_workload(&mut world, &mut sim, spec.duration_ms() * MILLISECOND);
    host.run = secs(t0);
    spans.close(sp);
    let window_end = world
        .core
        .stop_at
        .expect("run_workload sets stop_at")
        .max(sim.now());
    let iops = world.core.metrics.iops(window_end);
    let mean_latency_us = world.core.metrics.mean_latency() / 1000.0;
    let per_second = world.core.metrics.per_second.clone();
    let cache_hits = world.core.metrics.read_cache_hits;

    if let Some(t) = &tracker {
        let sp = spans.open("fault.complete", Some(root));
        let t0 = Instant::now();
        tsue_fault::run_plan_to_completion(&mut world, &mut sim, t);
        host.fault = secs(t0);
        spans.close(sp);
    }

    let sp = spans.open("ecfs.flush_all", Some(root));
    let drain_start = sim.now();
    let t0 = Instant::now();
    world.flush_all(&mut sim);
    host.flush = secs(t0);
    spans.close(sp);
    let flush_s = (sim.now() - drain_start) as f64 / SECOND as f64;
    // `flush_all` advances in 20 ms strides, so the drain is measured
    // from the end of the client window: in-flight ops, fault completion
    // and the log drain together.
    let stop_at = world.core.stop_at.expect("run_workload sets stop_at");
    let drain_ms = (sim.now() - stop_at) as f64 / MILLISECOND as f64;
    let events = sim.events_executed() - events0;
    let scheme = traced.then(take_clock);

    // Harvest exactly as `tsue_bench::run_scenario` does.
    let sp = spans.open("harvest", Some(root));
    let buf = tsue_buf::stats().since(&buf_start);
    world.core.metrics.absorb_buf_stats(buf);
    let (mem_now, _) = world.scheme_memory();
    let mem_peak = world.core.metrics.mem_peak.max(mem_now);
    const GIB: f64 = (1u64 << 30) as f64;
    let tier = *world.core.net.tier_traffic();
    let obs = world.core.metrics.obs.report();
    let latency = obs.client_summary();
    let recovery = tracker.as_ref().map(|t| {
        let t = t.borrow();
        let mut report = t.report.clone();
        let end = world.core.metrics.obs.client_op_hist();
        for (phase, at_end) in report.phases.iter_mut().zip(&t.phase_end_lat) {
            phase.lat_after = Some(end.since(at_end).summary());
        }
        report
    });
    let m = &world.core.metrics;
    let result = RunResult {
        scheme: spec.scheme_display(registry),
        trace: spec.trace.name(),
        k: spec.k,
        m: spec.m,
        clients: spec.clients,
        iops,
        mean_latency_us,
        latency,
        per_second,
        dev: DevSummary::from(world.device_stats()),
        net_payload_gib: world.core.net.total_payload() as f64 / GIB,
        net_wire_gib: world.core.net.total_wire() as f64 / GIB,
        mem_peak,
        flush_s,
        cache_hits,
        degraded_reads: m.degraded_reads,
        degraded_writes: m.degraded_writes,
        failed_reads: m.failed_reads,
        journaled_writes: world.core.journal.entries_appended,
        journaled_bytes: world.core.journal.bytes_appended,
        replayed_bytes: world.core.journal.bytes_replayed,
        resync_bytes: world.core.resync.bytes_copied_back + world.core.resync.parity_repair_bytes,
        reclaimed_blocks: world.core.resync.blocks_reclaimed,
        rehomed_residual: world.core.mds.rehomed_count() as u64,
        net_intra_gib: tier.intra_wire as f64 / GIB,
        net_cross_gib: tier.cross_wire as f64 / GIB,
        blocks_scrubbed: m.blocks_scrubbed,
        corruptions_detected: m.corruptions_detected,
        corruptions_repaired: m.corruptions_repaired,
        corruptions_unrecoverable: m.corruptions_unrecoverable,
        torn_detected: m.torn_detected,
        torn_replayed: m.torn_replayed,
        torn_discarded: m.torn_discarded,
        replica_replayed_bytes: world.core.replicas.bytes_replayed,
        recovery,
        obs,
    };
    let result_json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    let issued: u64 = world.core.clients.iter().map(|c| c.ops_issued).sum();
    let completed = world.core.metrics.ops_completed;
    let failed = world.core.metrics.failed_reads + issued.saturating_sub(completed);
    let virt = virtual_metrics(&world, &result, issued, failed, drain_ms, events);
    let ops = completed.max(1) as f64;
    let buf = BTreeMap::from([
        (
            "buf.copies_per_op".into(),
            world.core.metrics.payload_copies as f64 / ops,
        ),
        (
            "buf.pool_hit_rate".into(),
            world.core.metrics.buf_pool_hit_rate(),
        ),
        (
            "buf.allocs_per_op".into(),
            world.core.metrics.buf_pool_misses as f64 / ops,
        ),
    ]);
    let fingerprint = oracle::fingerprint(&world);
    spans.close(sp);
    let peak_rss_mib = peak_rss_mib();

    let oracle = if verify {
        let sp = spans.open("verify", Some(root));
        let t0 = Instant::now();
        let o = oracle::check(&world, issued);
        host.verify = secs(t0);
        spans.close(sp);
        Some(o)
    } else {
        None
    };
    spans.close(root);
    Ok(Repeat {
        host,
        result_json,
        virt,
        buf,
        issued,
        failed,
        events,
        fingerprint,
        peak_rss_mib,
        oracle,
        scheme,
    })
}

/// The per-node/per-rack sampler of `tsue_bench::run_scenario`, copied
/// because that one is private: its samples land in
/// `RunResult.obs.series`, which must match the library runner's.
fn obs_probe(w: &mut Cluster, sim: &mut Sim<Cluster>) {
    let now = sim.now();
    let cadence = w.core.metrics.obs.series.cadence_ms;
    let nodes = (0..w.core.osds.len())
        .map(|i| {
            let t = w.core.net.node_traffic(i);
            let dev = &w.core.osds[i].device;
            tsue_obs::NodeSample {
                tx_bytes: t.tx_bytes,
                rx_bytes: t.rx_bytes,
                dev_ops: dev.stats().total_ops(),
                dev_busy_ns: dev.busy_ticks(),
                queue_ns: dev.queue_ns(now),
            }
        })
        .collect();
    let elapsed_s = now as f64 / SECOND as f64;
    let racks = (0..w.core.net.racks())
        .map(|r| {
            let t = w.core.net.rack_traffic(r);
            let up_util = match w.core.net.uplink_bandwidth(r) {
                Some(bw) if bw > 0 && elapsed_s > 0.0 => {
                    (t.up_bytes as f64 / (bw as f64 * elapsed_s)).min(1.0)
                }
                _ => 0.0,
            };
            tsue_obs::RackSample {
                up_bytes: t.up_bytes,
                down_bytes: t.down_bytes,
                up_util,
            }
        })
        .collect();
    w.core.metrics.obs.series.samples.push(tsue_obs::ObsSample {
        t_ms: now / MILLISECOND,
        nodes,
        racks,
    });
    if w.core.accepting(now) {
        sim.schedule(cadence * MILLISECOND, obs_probe);
    }
}

/// Peak resident set of this process, MiB (`VmHWM`; 0 where the kernel
/// does not report it).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Quantile `q` of the merged histograms, µs, interpolated linearly
/// inside the log-linear bucket that holds the rank. The program's own
/// summaries report a bucket's midpoint or lower edge, which moves only in
/// 1/16-octave steps and so reads the same for nearly every seed.
fn quantile_us(hists: &[&HistReport], q: f64) -> f64 {
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for h in hists {
        for &(idx, c) in &h.buckets {
            *counts.entry(idx).or_default() += c;
        }
    }
    let total: u64 = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    // Same rank as `tsue_obs::Histogram::quantile`.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0;
    for (&idx, &c) in &counts {
        if below + c >= rank {
            let (lo, width) = bucket_span(idx as usize);
            let within = ((rank - below) as f64 - 0.5) / c as f64;
            return (lo as f64 + within * width as f64) / 1e3;
        }
        below += c;
    }
    0.0
}

/// Lower edge and width, ns, of a `tsue_obs` histogram bucket.
fn bucket_span(idx: usize) -> (u64, u64) {
    const SUB: usize = tsue_obs::SUB_BUCKETS;
    if idx < SUB {
        (idx as u64, 1)
    } else {
        let octave = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        (((SUB + sub) as u64) << octave, 1u64 << octave)
    }
}

fn per(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

/// Virtual-clock metrics and exact counts of one repeat, by catalog name.
fn virtual_metrics(
    world: &Cluster,
    r: &RunResult,
    issued: u64,
    failed: u64,
    drain_ms: f64,
    events: u64,
) -> BTreeMap<String, f64> {
    let ops = world.core.metrics.ops_completed;
    let dev = world.device_stats();
    let mut v = BTreeMap::new();
    v.insert("v_iops".into(), r.iops);
    let client: Vec<&HistReport> = ["update", "read", "degraded_write"]
        .into_iter()
        .filter_map(|c| r.obs.class(c))
        .collect();
    v.insert("v_lat_p50_us".into(), quantile_us(&client, 0.5));
    v.insert("v_lat_p999_us".into(), quantile_us(&client, 0.999));
    v.insert("v_lat_samples".into(), r.latency.count as f64);
    v.insert("v_drain_ms".into(), drain_ms);
    v.insert(
        "v_dev_kib_per_op".into(),
        per(dev.total_bytes() as f64 / 1024.0, ops),
    );
    v.insert(
        "v_net_kib_per_op".into(),
        per(world.core.net.total_wire() as f64 / 1024.0, ops),
    );
    v.insert("ops_issued".into(), issued as f64);
    v.insert("ops_completed".into(), ops as f64);
    v.insert("failed_op_frac".into(), per(failed as f64, issued));
    v.insert("sim.events".into(), events as f64);
    v.insert("device.rw_ops".into(), r.dev.rw_ops as f64);
    v.insert("device.rw_gib".into(), r.dev.rw_gib);
    v.insert("device.overwrite_ops".into(), r.dev.overwrite_ops as f64);
    v.insert("device.seq_frac".into(), r.dev.seq_fraction);
    v.insert("device.wa".into(), r.dev.wa);
    v.insert("net.wire_gib".into(), r.net_wire_gib);
    v.insert("net.payload_gib".into(), r.net_payload_gib);
    for stage in [
        "client_issue",
        "data_log_append",
        "delta_forward",
        "recycle_merge",
        "ack",
    ] {
        let h: Vec<&HistReport> = r.obs.stages.iter().filter(|h| h.name == stage).collect();
        v.insert(format!("obs.stage.{stage}.p50_us"), quantile_us(&h, 0.5));
        v.insert(format!("obs.stage.{stage}.p99_us"), quantile_us(&h, 0.99));
    }
    for class in ["update", "read", "degraded_write", "recovery_decode"] {
        let h: Vec<&HistReport> = r.obs.class(class).into_iter().collect();
        v.insert(format!("obs.class.{class}.p99_us"), quantile_us(&h, 0.99));
    }
    v.insert(
        "scheme.mem_peak_mib".into(),
        r.mem_peak as f64 / (1u64 << 20) as f64,
    );
    v.insert("scheme.cache_hits".into(), r.cache_hits as f64);
    let res = tsue_core::tsue::harvest_residency(world);
    v.insert("tsue.data.recycle_us".into(), res.data.recycle.mean_us());
    v.insert("tsue.delta.recycle_us".into(), res.delta.recycle.mean_us());
    v.insert(
        "tsue.parity.recycle_us".into(),
        res.parity.recycle.mean_us(),
    );
    v.insert("fault.degraded_reads".into(), r.degraded_reads as f64);
    v.insert("fault.degraded_writes".into(), r.degraded_writes as f64);
    v.insert("fault.journaled_bytes".into(), r.journaled_bytes as f64);
    v.insert("fault.replayed_bytes".into(), r.replayed_bytes as f64);
    v.insert("fault.resync_bytes".into(), r.resync_bytes as f64);
    v.insert(
        "fault.corruptions_detected".into(),
        r.corruptions_detected as f64,
    );
    v.insert(
        "fault.recovery_mb_s".into(),
        r.recovery.as_ref().map_or(0.0, |f| f.min_recovery_mb_s()),
    );
    v
}

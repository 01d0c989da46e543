//! Scripted fault injection driving **online recovery under load**.
//!
//! The seed repo could only kill a node *after* traffic stopped
//! ([`tsue_ecfs::run_recovery`]). Production failures do not wait: Rashmi
//! et al. (arXiv:1309.0186) show recovery cost is dominated by cross-rack
//! traffic racing with foreground I/O, and rack-aware maintenance (CNC,
//! arXiv:1206.4175) changes the picture entirely. This crate supplies the
//! missing machinery:
//!
//! * [`FaultPlan`] — a serializable script of timed [`FaultEvent`]s:
//!   node kills, whole-rack kills, transient NIC slowdowns, heals.
//! * [`install`] — schedules the plan into the DES. Kills trigger a
//!   *phase*: a drain gate (schemes flush their logs while clients keep
//!   issuing — lazily-recycled schemes pay their recycle storm here),
//!   then online rebuild through [`tsue_ecfs::RecoveryState`] with
//!   bounded concurrency, degraded reads shrinking as blocks rehome.
//! * A failover **watchdog** that force-completes client ops stalled by
//!   in-flight state lost with a dead node (modeled timeout + retry), so
//!   every scheme's closed loop survives arbitrary kill timing.
//! * [`FaultReport`] / [`PhaseReport`] — per-phase recovery bandwidth,
//!   drain vs rebuild split, unrecoverable-block counts (data loss under
//!   rack-oblivious placement), and the intra-/cross-rack traffic split.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::rc::Rc;
use tsue_ecfs::{fail_node, reap_stalled_ops, start_recovery, Cluster, HealStats, SplitRng};
use tsue_net::TierTraffic;
use tsue_obs::{Histogram, LatencySummary};
use tsue_sim::{Sim, Time, MILLISECOND};

/// One scripted fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Kill one OSD at `at_ms` (virtual milliseconds).
    KillNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Victim OSD index.
        node: usize,
    },
    /// Kill every OSD in a rack at `at_ms` (ToR/PDU failure).
    KillRack {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Victim rack index.
        rack: usize,
    },
    /// Degrade one OSD's NIC by `factor` for `duration_ms` (straggler).
    SlowNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// Service-time multiplier (`>= 1.0`).
        factor: f64,
        /// How long the slowdown lasts, virtual ms.
        duration_ms: u64,
    },
    /// Revive a dead OSD (transient failure over) and clear slowdowns.
    /// Blocks already rebuilt elsewhere stay rehomed; blocks not yet
    /// rebuilt become readable again.
    HealNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Healed OSD index.
        node: usize,
    },
    /// Flip a few random bits in stored blocks on one OSD (silent media
    /// corruption / bit rot). Only materialized runs carry real bytes to
    /// corrupt; timing-only runs treat this as a no-op. Detection happens
    /// later, at read-time verification or a scrub sweep — never here.
    CorruptBlock {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// How many distinct blocks to hit (default 1, capped at the
        /// node's block count).
        blocks: Option<u64>,
        /// Deterministic RNG seed; defaults to a mix of `at_ms`/`node`.
        seed: Option<u64>,
    },
    /// Power-loss at one OSD: the in-flight log append is torn at a
    /// pseudo-random offset, then the node restarts with a log scan.
    /// Replicated appends replay from a surviving copy; unreplicated
    /// ones are discarded (the framing checksum rejects the torn tail,
    /// so a torn record is never half-applied). The node stays up.
    PowerLoss {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// Deterministic RNG seed; defaults to a mix of `at_ms`/`node`.
        seed: Option<u64>,
    },
}

impl FaultEvent {
    /// Trigger time in virtual milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            FaultEvent::KillNode { at_ms, .. }
            | FaultEvent::KillRack { at_ms, .. }
            | FaultEvent::SlowNode { at_ms, .. }
            | FaultEvent::HealNode { at_ms, .. }
            | FaultEvent::CorruptBlock { at_ms, .. }
            | FaultEvent::PowerLoss { at_ms, .. } => *at_ms,
        }
    }

    /// The JSON `kind` tags, for error messages.
    pub fn kinds() -> &'static [&'static str] {
        &[
            "kill_node",
            "kill_rack",
            "slow_node",
            "heal_node",
            "corrupt_block",
            "power_loss",
        ]
    }

    /// This event's JSON `kind` tag (validation error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultEvent::KillNode { .. } => "kill_node",
            FaultEvent::KillRack { .. } => "kill_rack",
            FaultEvent::SlowNode { .. } => "slow_node",
            FaultEvent::HealNode { .. } => "heal_node",
            FaultEvent::CorruptBlock { .. } => "corrupt_block",
            FaultEvent::PowerLoss { .. } => "power_loss",
        }
    }
}

// Hand-written serde: events read as tagged objects, e.g.
// `{"kind": "kill_rack", "at_ms": 400, "rack": 1}` — friendlier scenario
// JSON than the derive's tuple-variant encoding.
impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        let mut entries = vec![];
        let kind = match self {
            FaultEvent::KillNode { at_ms, node } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                "kill_node"
            }
            FaultEvent::KillRack { at_ms, rack } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("rack".to_string(), Value::UInt(*rack as u64)));
                "kill_rack"
            }
            FaultEvent::SlowNode {
                at_ms,
                node,
                factor,
                duration_ms,
            } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                entries.push(("factor".to_string(), Value::Float(*factor)));
                entries.push(("duration_ms".to_string(), Value::UInt(*duration_ms)));
                "slow_node"
            }
            FaultEvent::HealNode { at_ms, node } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                "heal_node"
            }
            FaultEvent::CorruptBlock {
                at_ms,
                node,
                blocks,
                seed,
            } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                if let Some(b) = blocks {
                    entries.push(("blocks".to_string(), Value::UInt(*b)));
                }
                if let Some(s) = seed {
                    entries.push(("seed".to_string(), Value::UInt(*s)));
                }
                "corrupt_block"
            }
            FaultEvent::PowerLoss { at_ms, node, seed } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                if let Some(s) = seed {
                    entries.push(("seed".to_string(), Value::UInt(*s)));
                }
                "power_loss"
            }
        };
        entries.insert(0, ("kind".to_string(), Value::Str(kind.to_string())));
        Value::Object(entries)
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let Value::Object(entries) = v else {
            return Err(serde::DeError::mismatch("FaultEvent", "object", v));
        };
        let kind: String = serde::de_field(entries, "FaultEvent", "kind")?;
        let known: &[&str] = match kind.as_str() {
            "kill_node" => &["kind", "at_ms", "node"],
            "kill_rack" => &["kind", "at_ms", "rack"],
            "slow_node" => &["kind", "at_ms", "node", "factor", "duration_ms"],
            "heal_node" => &["kind", "at_ms", "node"],
            "corrupt_block" => &["kind", "at_ms", "node", "blocks", "seed"],
            "power_loss" => &["kind", "at_ms", "node", "seed"],
            other => {
                return Err(serde::DeError::unknown_variant(
                    "FaultEvent",
                    other,
                    Self::kinds(),
                ))
            }
        };
        for (key, _) in entries.iter() {
            if !known.contains(&key.as_str()) {
                return Err(serde::DeError::unknown_field("FaultEvent", key, known));
            }
        }
        let at_ms: u64 = serde::de_field(entries, "FaultEvent", "at_ms")?;
        Ok(match kind.as_str() {
            "kill_node" => FaultEvent::KillNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
            },
            "kill_rack" => FaultEvent::KillRack {
                at_ms,
                rack: serde::de_field(entries, "FaultEvent", "rack")?,
            },
            "slow_node" => FaultEvent::SlowNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                factor: serde::de_field(entries, "FaultEvent", "factor")?,
                duration_ms: serde::de_field(entries, "FaultEvent", "duration_ms")?,
            },
            "heal_node" => FaultEvent::HealNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
            },
            "corrupt_block" => FaultEvent::CorruptBlock {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                blocks: serde::de_field(entries, "FaultEvent", "blocks")?,
                seed: serde::de_field(entries, "FaultEvent", "seed")?,
            },
            "power_loss" => FaultEvent::PowerLoss {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                seed: serde::de_field(entries, "FaultEvent", "seed")?,
            },
            _ => unreachable!("kind validated above"),
        })
    }
}

/// A scripted fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The timed events (any order; the DES sorts by trigger time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from a bare event list.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Checks every event against the cluster shape.
    ///
    /// # Errors
    /// Returns a description of the first out-of-range node/rack or
    /// nonsensical factor.
    pub fn validate(&self, osds: usize, racks: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            // Errors name the offending event, not just its index, so a
            // scenario author can find it in a long fault list.
            let who = format!("fault #{i} ({} @{}ms)", e.kind_name(), e.at_ms());
            match *e {
                FaultEvent::KillNode { node, .. }
                | FaultEvent::HealNode { node, .. }
                | FaultEvent::CorruptBlock { node, .. }
                | FaultEvent::PowerLoss { node, .. } => {
                    if node >= osds {
                        return Err(format!(
                            "{who}: node {node} out of range (cluster has {osds} OSDs)"
                        ));
                    }
                }
                FaultEvent::KillRack { rack, .. } => {
                    if rack >= racks {
                        return Err(format!(
                            "{who}: rack {rack} out of range (topology has {racks} racks)"
                        ));
                    }
                }
                FaultEvent::SlowNode { node, factor, .. } => {
                    if node >= osds {
                        return Err(format!(
                            "{who}: node {node} out of range (cluster has {osds} OSDs)"
                        ));
                    }
                    if factor.is_nan() || factor < 1.0 {
                        return Err(format!("{who}: slowdown factor {factor} must be >= 1.0"));
                    }
                }
            }
        }
        Ok(())
    }

    /// True when the plan kills anything (i.e. recovery phases will run).
    pub fn has_kills(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::KillNode { .. } | FaultEvent::KillRack { .. }))
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Drain-gate pump interval: how often dead-node phases re-issue
    /// `flush` to live schemes while waiting for backlogs to hit zero.
    pub drain_stride: Time,
    /// Drain-gate cap in strides: lazily-recycled schemes that cannot
    /// drain under sustained load start rebuilding anyway after this many
    /// strides (the recycle storm then competes with the rebuild, which
    /// is exactly the §5.4 failure mode).
    pub drain_cap_strides: u32,
    /// Strides without a new backlog minimum before the gate opens: under
    /// live traffic the backlog never touches zero (fresh extents keep
    /// arriving), so the gate opens once the at-failure *storm* has
    /// drained and the backlog has flattened at its steady-state churn.
    pub drain_stall_strides: u32,
    /// Concurrent block-rebuild jobs.
    pub rebuild_concurrency: usize,
    /// Completion-poll interval for the rebuild phase.
    pub poll_period: Time,
    /// Client ops older than this are force-completed by the watchdog
    /// (modeled client timeout + retry) while failures are in play.
    pub op_timeout: Time,
    /// Watchdog sweep interval.
    pub watchdog_period: Time,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            drain_stride: 20 * MILLISECOND,
            drain_cap_strides: 250,
            drain_stall_strides: 3,
            rebuild_concurrency: 8,
            poll_period: 10 * MILLISECOND,
            op_timeout: 300 * MILLISECOND,
            watchdog_period: 25 * MILLISECOND,
        }
    }
}

/// One kill event's recovery outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Trigger time, virtual ms.
    pub at_ms: u64,
    /// OSDs killed by this event.
    pub killed: Vec<usize>,
    /// Scheme-log backlog (live nodes) at the instant of failure.
    pub backlog_at_failure: u64,
    /// Virtual ms spent waiting on the scheme-log drain gate.
    pub drain_ms: f64,
    /// Virtual ms of the rebuild stage itself.
    pub rebuild_ms: f64,
    /// Blocks this phase enqueued for rebuild (blocks an overlapping
    /// earlier phase already had queued or in flight are not re-counted).
    pub blocks_lost: u64,
    /// Blocks successfully rebuilt during this phase.
    pub blocks_rebuilt: u64,
    /// Blocks with fewer than `k` survivors (data loss).
    pub blocks_unrecoverable: u64,
    /// Blocks skipped because their home healed before rebuild.
    pub blocks_skipped: u64,
    /// Bytes reconstructed.
    pub bytes_rebuilt: u64,
    /// Journaled degraded-write bytes replayed into blocks this phase
    /// rebuilt (after the reconstruct, before the rehome).
    pub journal_replayed_bytes: u64,
    /// Recovery bandwidth over the whole phase (drain + rebuild), MB/s.
    pub recovery_mb_s: f64,
    /// Wire bytes that stayed intra-rack during the phase (all traffic,
    /// foreground included).
    pub intra_rack_mb: f64,
    /// Wire bytes that crossed racks during the phase.
    pub cross_rack_mb: f64,
    /// Degraded reads served while the phase ran.
    pub degraded_reads: u64,
    /// Client-op latency distribution accumulated *before* the kill
    /// landed (cumulative from run start to the phase trigger).
    pub lat_before: LatencySummary,
    /// Client-op latency distribution over the phase window itself
    /// (drain + rebuild) — the degraded-mode tail the paper's online
    /// recovery experiments measure.
    pub lat_during: LatencySummary,
    /// Client-op latency distribution from phase end to run end.
    /// `None` until the harness backfills it after the workload drains
    /// (and stays `None` for reports loaded from older JSON).
    pub lat_after: Option<LatencySummary>,
}

/// One heal event's rejoin & re-sync outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResyncReport {
    /// Trigger time, virtual ms.
    pub at_ms: u64,
    /// The healed OSD.
    pub node: usize,
    /// Virtual ms spent on the pre-re-sync drain gate (scheme logs must
    /// merge before rehomed copies are copied back).
    pub drain_ms: f64,
    /// Virtual ms of the re-sync I/O itself.
    pub resync_ms: f64,
    /// Blocks caught up in place from the degraded-write journal at the
    /// heal instant (their rebuild had not run yet).
    pub blocks_replayed: u64,
    /// Journaled bytes replayed into the healed node's own copies.
    pub replayed_bytes: u64,
    /// Blocks copied back from their rehomed (rebuilt) copies.
    pub blocks_copied_back: u64,
    /// Bytes copied back.
    pub bytes_copied_back: u64,
    /// Rehome-table entries reclaimed (the override table shrinks).
    pub blocks_reclaimed: u64,
    /// Parity blocks re-encoded because they missed NACKed deltas.
    pub parity_repaired: u64,
    /// `Mds::rehomed_count()` after this re-sync finished.
    pub rehomed_residual: u64,
}

/// Everything the fault engine observed across the run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// One entry per kill event, in trigger order.
    pub phases: Vec<PhaseReport>,
    /// One entry per heal event, in completion order.
    pub resyncs: Vec<ResyncReport>,
    /// Rebuild-attributed wire bytes that stayed intra-rack.
    pub rebuild_intra_bytes: u64,
    /// Rebuild-attributed wire bytes that crossed racks.
    pub rebuild_cross_bytes: u64,
}

impl FaultReport {
    /// Worst (smallest) per-phase recovery bandwidth, MB/s.
    pub fn min_recovery_mb_s(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.recovery_mb_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total blocks the run could not rebuild.
    pub fn total_unrecoverable(&self) -> u64 {
        self.phases.iter().map(|p| p.blocks_unrecoverable).sum()
    }
}

/// Shared progress state between the engine's scheduled closures and the
/// harness (which polls [`FaultTracker::finished`]).
#[derive(Debug, Default)]
pub struct FaultTracker {
    /// Kill and heal phases not yet finalized.
    active_phases: usize,
    /// The accumulating report.
    pub report: FaultReport,
    /// Cumulative client-op latency histogram captured at each phase's
    /// finalize instant, in [`FaultReport::phases`] order. The harness
    /// diffs these against the end-of-run histogram to backfill
    /// [`PhaseReport::lat_after`]; runtime-only, never serialized.
    pub phase_end_lat: Vec<Histogram>,
    watchdog_armed: bool,
}

impl FaultTracker {
    /// True once every scheduled kill phase has completed its rebuild
    /// and every heal phase has completed its re-sync.
    pub fn finished(&self) -> bool {
        self.active_phases == 0
    }
}

/// Shared handle to the engine state.
pub type FaultHandle = Rc<RefCell<FaultTracker>>;

/// Schedules `plan` into the simulation and returns the progress handle.
/// Call before the workload starts; after the workload drains, keep the
/// sim running until [`FaultTracker::finished`] (see
/// [`run_plan_to_completion`]).
///
/// # Errors
/// Returns the [`FaultPlan::validate`] description (naming the offending
/// event) when the plan does not fit this cluster — no events are
/// scheduled in that case.
pub fn install(
    world: &Cluster,
    sim: &mut Sim<Cluster>,
    plan: &FaultPlan,
    cfg: EngineConfig,
) -> Result<FaultHandle, String> {
    plan.validate(world.core.cfg.osds, world.core.net.racks())?;
    let tracker: FaultHandle = Rc::new(RefCell::new(FaultTracker {
        // Kills run a rebuild phase, heals a re-sync phase; both must
        // finalize before the plan counts as finished. Slowdowns,
        // corruption injections, and power losses are instantaneous —
        // their consequences surface through reads, scrubs, and log
        // replays, not through a tracked phase.
        active_phases: plan
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e,
                    FaultEvent::SlowNode { .. }
                        | FaultEvent::CorruptBlock { .. }
                        | FaultEvent::PowerLoss { .. }
                )
            })
            .count(),
        ..FaultTracker::default()
    }));
    for event in plan.events.iter().copied() {
        let at = event.at_ms() * MILLISECOND;
        let t = tracker.clone();
        sim.schedule_at(at, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            trigger(w, sim, event, t, cfg);
        });
    }
    Ok(tracker)
}

/// Runs the simulation until every kill phase has finished (no-op when
/// the plan had no kills or everything already completed).
pub fn run_plan_to_completion(world: &mut Cluster, sim: &mut Sim<Cluster>, tracker: &FaultHandle) {
    let t = tracker.clone();
    sim.run_while(world, move |_| !t.borrow().finished());
}

/// Executes one scripted event.
fn trigger(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    event: FaultEvent,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    match event {
        FaultEvent::SlowNode {
            node,
            factor,
            duration_ms,
            ..
        } => {
            let until = sim.now() + duration_ms * MILLISECOND;
            world.core.net.set_slowdown(node, factor, until);
        }
        FaultEvent::HealNode { at_ms, node } => {
            // Revive + in-place journal replay happen synchronously at
            // the heal instant (nothing can interleave); the drain-gated
            // delta re-sync and rehome reclamation follow as a phase.
            let heal = tsue_ecfs::heal_node(world, sim, node);
            resync_phase_start(world, sim, at_ms, node, heal, tracker, cfg);
        }
        FaultEvent::KillNode { at_ms, node } => {
            fail_node(world, node);
            phase_start(world, sim, at_ms, vec![node], tracker, cfg);
        }
        FaultEvent::KillRack { at_ms, rack } => {
            let victims = tsue_ecfs::fail_rack(world, rack);
            phase_start(world, sim, at_ms, victims, tracker, cfg);
        }
        FaultEvent::CorruptBlock {
            at_ms,
            node,
            blocks,
            seed,
        } => {
            let mut rng = SplitRng::new(seed.unwrap_or(0xB1707 ^ (at_ms << 8) ^ node as u64));
            let ids = world.core.osds[node].block_ids();
            if ids.is_empty() {
                return;
            }
            // A handful of flips per victim block — enough that at least
            // one lands outside any page a later write happens to cover.
            let picks = blocks.unwrap_or(1).min(ids.len() as u64);
            for _ in 0..picks {
                let id = ids[rng.below(ids.len() as u64) as usize];
                world.core.osds[node].corrupt_bits(id, &mut rng, 3);
            }
        }
        FaultEvent::PowerLoss { at_ms, node, seed } => {
            let seed = seed.unwrap_or(0x9_0FF ^ (at_ms << 8) ^ node as u64);
            world.power_loss(sim, node, seed);
        }
    }
}

/// Snapshot taken at phase start, consumed at finalize. Block counts
/// come from the recovery engine's per-phase stats (exact even when
/// kill phases overlap); the traffic and degraded-read fields are
/// whole-cluster deltas over the phase window.
#[derive(Clone)]
struct PhaseSnapshot {
    at_ms: u64,
    killed: Vec<usize>,
    t_kill: Time,
    backlog_at_failure: u64,
    tier0: TierTraffic,
    degraded0: u64,
    /// Cumulative client-op latency histogram at the kill instant; the
    /// phase window's distribution is recovered with [`Histogram::since`].
    lat0: Histogram,
}

/// Kill landed: snapshot, arm the watchdog, enter the drain gate.
fn phase_start(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    at_ms: u64,
    killed: Vec<usize>,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    let snap = PhaseSnapshot {
        at_ms,
        killed,
        t_kill: sim.now(),
        backlog_at_failure: world.total_scheme_backlog(),
        tier0: *world.core.net.tier_traffic(),
        degraded0: world.core.metrics.degraded_reads,
        lat0: world.core.metrics.obs.client_op_hist(),
    };
    arm_watchdog(world, sim, tracker.clone(), cfg);
    let best = snap.backlog_at_failure;
    drain_gate(
        world,
        sim,
        snap,
        DrainProgress {
            strides: 0,
            best,
            stalled: 0,
        },
        tracker,
        cfg,
    );
}

/// Drain-gate loop state.
#[derive(Clone, Copy)]
struct DrainProgress {
    strides: u32,
    /// Lowest live-scheme backlog observed since the kill.
    best: u64,
    /// Consecutive strides without a new minimum.
    stalled: u32,
}

/// The failover watchdog: periodically force-completes client ops that
/// have been in flight longer than `op_timeout` — state lost inside a
/// dead node must not wedge any scheme's closed loop.
fn arm_watchdog(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    if tracker.borrow().watchdog_armed {
        return;
    }
    tracker.borrow_mut().watchdog_armed = true;
    let _ = world;
    watchdog_tick(sim, tracker, cfg);
}

fn watchdog_tick(sim: &mut Sim<Cluster>, tracker: FaultHandle, cfg: EngineConfig) {
    sim.schedule(
        cfg.watchdog_period,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            let any_dead = w.core.osds.iter().any(|o| o.dead);
            // Reap only while a node is actually down: ops merely queued
            // behind recovery congestion on a healed cluster must run to
            // their true completion, not be clipped at the timeout.
            // (Reaped ops are counted separately in `metrics.reaped_ops`.)
            if any_dead {
                let deadline = sim.now().saturating_sub(cfg.op_timeout);
                reap_stalled_ops(w, sim, deadline);
            }
            let keep = !tracker.borrow().finished()
                || (any_dead && (!w.core.pending.is_empty() || w.core.accepting(sim.now())));
            if keep {
                watchdog_tick(sim, tracker, cfg);
            } else {
                tracker.borrow_mut().watchdog_armed = false;
            }
        },
    );
}

/// One gate stride, shared by the kill (drain) and heal (re-sync)
/// gates: folds the current live-scheme backlog into the progress
/// tracker and reports whether the at-failure log storm has drained —
/// backlog either reaches zero (TSUE: almost immediately; traffic
/// stopped) or flattens at its steady-state churn (live traffic keeps a
/// small rolling backlog).
fn gate_observe(world: &Cluster, progress: &mut DrainProgress, cfg: EngineConfig) -> bool {
    let backlog = world.total_scheme_backlog();
    if progress.strides > 0 {
        if backlog < progress.best {
            progress.best = backlog;
            progress.stalled = 0;
        } else {
            progress.stalled += 1;
        }
    }
    backlog == 0 || progress.stalled >= cfg.drain_stall_strides
}

/// Re-issues `flush` to every live scheme (the gate's pump half).
fn flush_live_schemes(world: &mut Cluster, sim: &mut Sim<Cluster>) {
    for osd in 0..world.core.cfg.osds {
        if world.core.osds[osd].dead {
            continue;
        }
        let mut s = world.schemes[osd].take().expect("scheme missing");
        s.flush(&mut world.core, sim, osd);
        world.schemes[osd] = Some(s);
    }
}

/// Drain gate: pump flushes each stride until the storm has drained or
/// the stride cap fires; then start the rebuild.
fn drain_gate(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    snap: PhaseSnapshot,
    mut progress: DrainProgress,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    let storm_drained = gate_observe(world, &mut progress, cfg);
    if storm_drained || progress.strides >= cfg.drain_cap_strides {
        rebuild_start(world, sim, snap, tracker, cfg);
        return;
    }
    flush_live_schemes(world, sim);
    progress.strides += 1;
    sim.schedule(
        cfg.drain_stride,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            drain_gate(w, sim, snap, progress, tracker, cfg);
        },
    );
}

/// Logs drained (or the cap fired): enumerate lost blocks and rebuild
/// them online, then poll for completion.
fn rebuild_start(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    snap: PhaseSnapshot,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    let drain_ns = sim.now() - snap.t_kill;
    world.core.recovery.concurrency = cfg.rebuild_concurrency;
    let victims = snap.killed.clone();
    let phase = start_recovery(world, sim, &victims);
    poll_done(world, sim, snap, drain_ns, phase, tracker, cfg);
}

fn poll_done(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    snap: PhaseSnapshot,
    drain_ns: Time,
    phase: u64,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    if world.core.recovery.phase_stats(phase).pending() > 0 {
        sim.schedule(
            cfg.poll_period,
            move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                poll_done(w, sim, snap, drain_ns, phase, tracker, cfg);
            },
        );
        return;
    }
    finalize_phase(world, sim, snap, drain_ns, phase, tracker);
}

fn finalize_phase(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    snap: PhaseSnapshot,
    drain_ns: Time,
    phase: u64,
    tracker: FaultHandle,
) {
    const MB: f64 = 1e6;
    let core = &world.core;
    let stats = core.recovery.phase_stats(phase);
    let total_ns = sim.now().saturating_sub(snap.t_kill).max(1);
    let tier = core.net.tier_traffic().since(&snap.tier0);
    let phase = PhaseReport {
        at_ms: snap.at_ms,
        killed: snap.killed.clone(),
        backlog_at_failure: snap.backlog_at_failure,
        drain_ms: drain_ns as f64 / MILLISECOND as f64,
        rebuild_ms: (total_ns - drain_ns) as f64 / MILLISECOND as f64,
        blocks_lost: stats.enqueued,
        blocks_rebuilt: stats.rebuilt,
        blocks_unrecoverable: stats.unrecoverable,
        blocks_skipped: stats.skipped,
        bytes_rebuilt: stats.bytes_rebuilt,
        journal_replayed_bytes: stats.journal_replayed_bytes,
        recovery_mb_s: stats.bytes_rebuilt as f64 * 1e9 / total_ns as f64 / MB,
        intra_rack_mb: tier.intra_wire as f64 / MB,
        cross_rack_mb: tier.cross_wire as f64 / MB,
        degraded_reads: core.metrics.degraded_reads - snap.degraded0,
        lat_before: snap.lat0.summary(),
        lat_during: core
            .metrics
            .obs
            .client_op_hist()
            .since(&snap.lat0)
            .summary(),
        lat_after: None,
    };
    let mut t = tracker.borrow_mut();
    t.phase_end_lat.push(core.metrics.obs.client_op_hist());
    t.report.phases.push(phase);
    t.report.rebuild_intra_bytes = core.recovery.intra_rack_bytes;
    t.report.rebuild_cross_bytes = core.recovery.cross_rack_bytes;
    t.active_phases -= 1;
}

/// Heal landed: run the re-sync phase. The gate re-flushes live schemes
/// each stride until the log storm has drained *and* the recovery engine
/// has no queued/in-flight rebuilds (a rebuild completing after the
/// copy-back would re-populate the rehome table the re-sync just
/// reclaimed); then the copy-back + reclamation + parity repair run and
/// the phase polls their modeled I/O to completion.
fn resync_phase_start(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    at_ms: u64,
    node: usize,
    heal: HealStats,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    let t_heal = sim.now();
    let best = world.total_scheme_backlog();
    resync_gate(
        world,
        sim,
        at_ms,
        node,
        heal,
        t_heal,
        DrainProgress {
            strides: 0,
            best,
            stalled: 0,
        },
        tracker,
        cfg,
    );
}

#[allow(clippy::too_many_arguments)] // phase context threaded through the gate loop
fn resync_gate(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    at_ms: u64,
    node: usize,
    heal: HealStats,
    t_heal: Time,
    mut progress: DrainProgress,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    if !world.core.mds.is_alive(node) {
        // The node was re-killed while the gate was striding (a flapping
        // node). Copying content onto a dead OSD and reclaiming its
        // rehome entries would point live reads at a corpse — abandon
        // the re-sync; the re-kill's own phase (and the next heal's
        // re-sync) take over from here.
        let drain_ns = sim.now() - t_heal;
        resync_poll(
            world,
            sim,
            at_ms,
            node,
            heal,
            t_heal,
            drain_ns,
            tsue_ecfs::ResyncStats::default(),
            tracker,
            cfg,
        );
        return;
    }
    let storm_drained = gate_observe(world, &mut progress, cfg);
    let rebuilds_idle = world.core.recovery.pending() == 0;
    if (storm_drained && rebuilds_idle) || progress.strides >= cfg.drain_cap_strides {
        let drain_ns = sim.now() - t_heal;
        let stats = tsue_ecfs::start_resync(world, sim, node);
        resync_poll(
            world, sim, at_ms, node, heal, t_heal, drain_ns, stats, tracker, cfg,
        );
        return;
    }
    flush_live_schemes(world, sim);
    progress.strides += 1;
    sim.schedule(
        cfg.drain_stride,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            resync_gate(w, sim, at_ms, node, heal, t_heal, progress, tracker, cfg);
        },
    );
}

#[allow(clippy::too_many_arguments)] // phase context threaded through the poll loop
fn resync_poll(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    at_ms: u64,
    node: usize,
    heal: HealStats,
    t_heal: Time,
    drain_ns: Time,
    stats: tsue_ecfs::ResyncStats,
    tracker: FaultHandle,
    cfg: EngineConfig,
) {
    if world.core.resync.pending() > 0 {
        sim.schedule(
            cfg.poll_period,
            move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                resync_poll(
                    w, sim, at_ms, node, heal, t_heal, drain_ns, stats, tracker, cfg,
                );
            },
        );
        return;
    }
    let total_ns = sim.now().saturating_sub(t_heal);
    let mut t = tracker.borrow_mut();
    t.report.resyncs.push(ResyncReport {
        at_ms,
        node,
        drain_ms: drain_ns as f64 / MILLISECOND as f64,
        resync_ms: total_ns.saturating_sub(drain_ns) as f64 / MILLISECOND as f64,
        blocks_replayed: heal.blocks_replayed,
        replayed_bytes: heal.replayed_bytes,
        blocks_copied_back: stats.blocks_copied_back,
        bytes_copied_back: stats.bytes_copied_back,
        blocks_reclaimed: stats.blocks_reclaimed,
        parity_repaired: stats.parity_repaired,
        rehomed_residual: world.core.mds.rehomed_count() as u64,
    });
    t.active_phases -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_json(e: &FaultEvent) -> Value {
        serde::Serialize::to_value(e)
    }

    #[test]
    fn fault_events_round_trip_through_serde() {
        let events = vec![
            FaultEvent::KillNode { at_ms: 10, node: 3 },
            FaultEvent::KillRack { at_ms: 20, rack: 1 },
            FaultEvent::SlowNode {
                at_ms: 5,
                node: 0,
                factor: 4.0,
                duration_ms: 50,
            },
            FaultEvent::HealNode { at_ms: 90, node: 3 },
        ];
        for e in &events {
            let back = <FaultEvent as serde::Deserialize>::from_value(&ev_json(e)).unwrap();
            assert_eq!(*e, back);
        }
        let plan = FaultPlan::new(events);
        let v = serde::Serialize::to_value(&plan);
        let back = <FaultPlan as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn unknown_kind_and_fields_fail_loudly() {
        let bad = Value::Object(vec![
            ("kind".into(), Value::Str("kill_everything".into())),
            ("at_ms".into(), Value::UInt(1)),
        ]);
        let err = <FaultEvent as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("kill_rack"), "{err}");

        let typo = Value::Object(vec![
            ("kind".into(), Value::Str("kill_node".into())),
            ("at_ms".into(), Value::UInt(1)),
            ("noed".into(), Value::UInt(2)),
        ]);
        let err = <FaultEvent as serde::Deserialize>::from_value(&typo).unwrap_err();
        assert!(err.to_string().contains("noed"), "{err}");
    }

    #[test]
    fn invalid_plan_error_names_the_offending_event() {
        let plan = FaultPlan::new(vec![
            FaultEvent::KillNode { at_ms: 5, node: 0 },
            FaultEvent::HealNode {
                at_ms: 90,
                node: 99,
            },
        ]);
        let err = plan.validate(16, 4).unwrap_err();
        for needle in ["fault #1", "heal_node", "@90ms", "node 99"] {
            assert!(err.contains(needle), "missing '{needle}' in: {err}");
        }
    }

    #[test]
    fn install_rejects_an_invalid_plan_without_scheduling() {
        let mut cfg = tsue_ecfs::ClusterConfig::ssd_testbed(2, 1, 1);
        cfg.osds = 4;
        cfg.file_size_per_client = 1 << 20;
        let world = Cluster::new(cfg, |_| Box::new(tsue_ecfs::InstantScheme::default()));
        let mut sim: Sim<Cluster> = Sim::new();
        let plan = FaultPlan::new(vec![FaultEvent::KillNode { at_ms: 1, node: 9 }]);
        let err = install(&world, &mut sim, &plan, EngineConfig::default()).unwrap_err();
        assert!(err.contains("kill_node"), "{err}");
        assert_eq!(sim.pending(), 0, "no events scheduled from a bad plan");
    }

    #[test]
    fn plan_validation_checks_ranges() {
        let plan = FaultPlan::new(vec![FaultEvent::KillRack { at_ms: 1, rack: 7 }]);
        let err = plan.validate(16, 4).unwrap_err();
        assert!(err.contains("rack 7"), "{err}");
        let plan = FaultPlan::new(vec![FaultEvent::SlowNode {
            at_ms: 1,
            node: 0,
            factor: 0.5,
            duration_ms: 1,
        }]);
        assert!(plan.validate(16, 4).is_err());
        assert!(FaultPlan::default().validate(16, 4).is_ok());
        assert!(!FaultPlan::default().has_kills());
    }
}

//! The perf-regression harness behind `tsuectl bench` and `BENCH_*.json`.
//!
//! Every PR that touches the hot path appends a `BENCH_NN.json` stake:
//! a machine-readable report pairing the **zero-copy** kernels and cluster
//! runs with a **baseline** measured in the same process via the legacy
//! allocating codec entry points (`data_delta`, `parity_delta`,
//! `combined_parity_delta`, `encode`) — the pre-refactor small-write path,
//! which the crate keeps precisely so the comparison cannot rot.
//!
//! Schema (`schema: "tsue-bench/v6"`):
//!
//! * `micro` — kernel rows: ops/sec for baseline vs zero-copy, speedup,
//!   and per-op allocation/copy traffic for both paths.
//! * `cluster` — materialized end-to-end runs (fig5/table1 shapes at
//!   bench scale): IOPS, mean latency, payload copies/op, bytes copied
//!   per op, buffer-pool hit rate.
//! * `integrity` — checksum on/off wall-clock pairs for the same run:
//!   the hot-path digest tax, target < 5% (v3).
//! * `scrub` — full-sweep verification throughput in MB per host
//!   wall-second (v3).
//! * `cpu_features` / `gf_kernel` — detected SIMD features and the GF
//!   kernel tier the stake ran on, so trajectories across hosts stay
//!   interpretable (v4).
//! * `codec_tiers` — the same codec kernels measured once per available
//!   GF kernel tier (scalar → portable → SIMD), staking the dispatch
//!   speedup directly (v4).
//! * `obs` — observability overhead rows: the same run with op-lifecycle
//!   tracing off vs on (histograms are always on; the trace ring plus the
//!   Chrome-JSON dump at harvest is the only optional cost, and on short
//!   runs it dominates — hence tracing stays opt-in) (v5).
//! * `hist_record_ns` — the latency-histogram record cost, ns/op — the
//!   per-completion tax the always-on histograms add to the small-write
//!   path (v5).
//!
//! v6 drops the v2 `scaling` rows and `host_cores`: the cluster runs on
//! one host thread.

use crate::{default_registry, ScenarioSpec, SchemeSpec, TraceKind};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use tsue_ec::RsCode;
use tsue_ecfs::{run_workload, Cluster};
use tsue_sim::{Sim, MILLISECOND};

/// One microbenchmark row: the same kernel, allocating vs scratch-reusing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MicroRow {
    /// Kernel name.
    pub name: String,
    /// Payload length per op, bytes.
    pub len: u64,
    /// Legacy allocating path, operations per second.
    pub baseline_ops_per_sec: f64,
    /// Zero-copy path, operations per second.
    pub zero_copy_ops_per_sec: f64,
    /// `zero_copy / baseline`.
    pub speedup: f64,
    /// Fresh buffers the baseline allocates per op.
    pub baseline_allocs_per_op: u64,
    /// Bytes of fresh-buffer traffic (alloc + fill) per baseline op.
    pub baseline_alloc_bytes_per_op: u64,
    /// Fresh buffers the zero-copy path allocates per op (steady state).
    pub zero_copy_allocs_per_op: u64,
}

/// One materialized cluster-run row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterRow {
    /// Scenario name.
    pub scenario: String,
    /// Scheme display name.
    pub scheme: String,
    /// Completed operations per second over the window.
    pub iops: f64,
    /// Mean op latency, µs.
    pub mean_latency_us: f64,
    /// Completed client ops.
    pub ops: u64,
    /// Deep payload copies per completed op.
    pub copies_per_op: f64,
    /// Bytes deep-copied per completed op.
    pub bytes_copied_per_op: f64,
    /// Buffer-pool hit rate over the run, `[0, 1]`.
    pub pool_hit_rate: f64,
    /// Pool misses (fresh allocations) per completed op.
    pub allocs_per_op: f64,
}

/// One checksum-overhead row: the same materialized run with the
/// per-page checksum machinery off vs on, host wall clock (virtual-time
/// results are identical by construction — digests are host work on the
/// byte path, which is exactly the overhead being measured).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IntegrityRow {
    /// Row name (workload shape).
    pub name: String,
    /// Completed client ops (identical on both sides).
    pub ops: u64,
    /// Best-of-N wall clock with checksums disabled, milliseconds.
    pub base_wall_ms: f64,
    /// Best-of-N wall clock with checksums enabled, milliseconds.
    pub checked_wall_ms: f64,
    /// `checked / base - 1` — the hot-path tax (target < 0.05).
    pub overhead_frac: f64,
}

/// One observability-overhead row: the same deterministic run with the
/// op-lifecycle trace ring off vs on (histograms and the metric series
/// are always on — the ring buffer is the only optional cost).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsRow {
    /// Row name (workload shape).
    pub name: String,
    /// Completed client ops (identical on both sides).
    pub ops: u64,
    /// Best-of-N wall clock with tracing disabled, milliseconds.
    pub base_wall_ms: f64,
    /// Best-of-N wall clock with the trace ring enabled, milliseconds.
    pub traced_wall_ms: f64,
    /// `traced / base - 1` — the tracing tax. Span capture plus the
    /// Chrome-JSON dump at harvest; large on short runs, which is why
    /// the ring stays off unless `--trace-out` asks for it.
    pub overhead_frac: f64,
}

/// One scrub-throughput row: an authoritative full sweep over a
/// populated cluster, host wall clock.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScrubRow {
    /// Row name.
    pub name: String,
    /// Blocks verified by the sweep.
    pub blocks: u64,
    /// Bytes verified by the sweep.
    pub bytes: u64,
    /// Corrupt pages repaired (0 for the clean row).
    pub repaired: u64,
    /// Host wall clock for the sweep, milliseconds.
    pub wall_ms: f64,
    /// Verification throughput, MB per host wall-clock second.
    pub mb_per_wall_sec: f64,
}

/// One per-tier codec row: the same kernel measured with GF dispatch
/// forced onto one tier. `speedup_vs_scalar` is the headline number —
/// how much the split-nibble SIMD path buys over the byte-at-a-time
/// reference on this host.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CodecTierRow {
    /// Kernel tier name (`scalar`, `portable`, `ssse3`, `avx2`, `neon`).
    pub tier: String,
    /// Kernel name (`gf_mul_add`, `rs_encode`, `stripe_replay`).
    pub name: String,
    /// Payload length per op, bytes.
    pub len: u64,
    /// Operations per second on this tier.
    pub ops_per_sec: f64,
    /// Payload throughput, MB processed per second.
    pub mb_per_sec: f64,
    /// `ops_per_sec / ops_per_sec(scalar)` for the same kernel.
    pub speedup_vs_scalar: f64,
}

/// The full report persisted as `BENCH_NN.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema identifier.
    pub schema: String,
    /// Which stake in the trajectory this is (`"BENCH_03"`, …).
    pub bench_id: String,
    /// `--quick` runs trim windows and the scheme lineup.
    pub quick: bool,
    /// Kernel comparisons.
    pub micro: Vec<MicroRow>,
    /// End-to-end materialized runs.
    pub cluster: Vec<ClusterRow>,
    /// Checksum hot-path overhead rows (absent from pre-v3 stakes).
    pub integrity: Vec<IntegrityRow>,
    /// Scrub-throughput rows (absent from pre-v3 stakes).
    pub scrub: Vec<ScrubRow>,
    /// SIMD-relevant CPU features detected on the host (absent from
    /// pre-v4 stakes).
    pub cpu_features: Vec<String>,
    /// The GF kernel tier every non-`codec_tiers` number ran on (absent
    /// from pre-v4 stakes).
    pub gf_kernel: String,
    /// Per-tier codec kernel rows (absent from pre-v4 stakes).
    pub codec_tiers: Vec<CodecTierRow>,
    /// Tracing on/off overhead rows (absent from pre-v5 stakes).
    pub obs: Vec<ObsRow>,
    /// Latency-histogram record cost, ns per sample (absent from pre-v5
    /// stakes) — the per-completion tax of the always-on histograms.
    pub hist_record_ns: f64,
}

/// Calibrates a batch of `f` that fills `floor`; returns the batch size.
fn calibrate(floor: Duration, f: &mut dyn FnMut()) -> u64 {
    let mut n: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= floor || n >= 1 << 28 {
            return n;
        }
        n *= 2;
    }
}

/// Paired ops/sec of two variants of one kernel: trials alternate
/// baseline/zero-copy batches so scheduler noise lands on both sides, and
/// each side reports its minimum-time (best) trial — the conventional
/// noise-robust estimator.
fn measure_pair(
    floor: Duration,
    mut baseline: impl FnMut(),
    mut zero_copy: impl FnMut(),
) -> (f64, f64) {
    let nb = calibrate(floor, &mut baseline);
    let nz = calibrate(floor, &mut zero_copy);
    let (mut best_b, mut best_z) = (f64::MIN, f64::MIN);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..nb {
            baseline();
        }
        best_b = best_b.max(nb as f64 / t.elapsed().as_secs_f64().max(1e-9));
        let t = Instant::now();
        for _ in 0..nz {
            zero_copy();
        }
        best_z = best_z.max(nz as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    (best_b, best_z)
}

/// Best-of-5 ops/sec of a single kernel closure.
fn measure_one(floor: Duration, mut f: impl FnMut()) -> f64 {
    let n = calibrate(floor, &mut f);
    let mut best = f64::MIN;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.max(n as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// The `codec_tiers` section: three codec kernels measured once per GF
/// kernel tier the host can run, with dispatch forced via
/// `set_kernel_tier` (restored to the entry tier afterwards — safe at
/// any time because all tiers are byte-identical).
///
/// * `gf_mul_add` — the raw fused multiply-accumulate over 64 KiB, the
///   primitive every encode/delta path reduces to.
/// * `rs_encode` — full-stripe RS(6,4) `encode_into` at 64 KiB blocks.
/// * `stripe_replay` — the Eq. 5 combined parity delta at 4 KiB deltas.
fn codec_tier_rows(floor: Duration) -> Vec<CodecTierRow> {
    use tsue_gf::KernelTier;
    let entry = tsue_gf::kernel_tier();

    let (k, m) = (6usize, 4usize);
    let rs = RsCode::new(k, m).unwrap();
    let enc_len = 64 << 10;
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..enc_len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity: Vec<Vec<u8>> = vec![vec![0u8; enc_len]; m];

    let delta_len = 4096usize;
    let deltas: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..delta_len).map(|j| (i * 13 + j * 7 + 1) as u8).collect())
        .collect();
    let pairs: Vec<(usize, &[u8])> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| (i, d.as_slice()))
        .collect();
    let mut accs: Vec<Vec<u8>> = vec![vec![0u8; delta_len]; m];

    let mul_src: Vec<u8> = (0..enc_len).map(|i| (i * 17 + 5) as u8).collect();
    let mut mul_dst = vec![0u8; enc_len];

    let mut rows = Vec::new();
    for tier in KernelTier::available() {
        tsue_gf::set_kernel_tier(tier).unwrap();
        let mul_add = measure_one(floor, || {
            tsue_gf::mul_add_slice(29, &mul_src, &mut mul_dst);
            std::hint::black_box(&mul_dst);
        });
        let encode = measure_one(floor, || {
            rs.encode_into(&refs, &mut parity).unwrap();
            std::hint::black_box(&parity);
        });
        let replay = measure_one(floor, || {
            for (j, acc) in accs.iter_mut().enumerate() {
                rs.fill_combined_parity_delta(j, &pairs, acc);
                std::hint::black_box(&acc);
            }
        });
        for (name, len, ops, bytes_per_op) in [
            ("gf_mul_add", enc_len, mul_add, enc_len),
            ("rs_encode", enc_len, encode, k * enc_len),
            ("stripe_replay", delta_len, replay, k * m * delta_len),
        ] {
            rows.push(CodecTierRow {
                tier: tier.name().to_string(),
                name: name.to_string(),
                len: len as u64,
                ops_per_sec: ops,
                mb_per_sec: ops * bytes_per_op as f64 / 1e6,
                speedup_vs_scalar: 1.0, // filled in below
            });
        }
    }
    tsue_gf::set_kernel_tier(entry).unwrap();

    let scalar: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.tier == "scalar")
        .map(|r| (r.name.clone(), r.ops_per_sec))
        .collect();
    for row in &mut rows {
        if let Some((_, base)) = scalar.iter().find(|(n, _)| *n == row.name) {
            row.speedup_vs_scalar = row.ops_per_sec / base.max(1e-9);
        }
    }
    rows
}

/// The small-write delta path as TSUE's two-stage pipeline runs it, per
/// client write: payload lands → DataLog append → replica forward →
/// recycle captures `new ⊕ old` and installs the new content → the raw
/// delta forwards to the DeltaLog and folds into the hot range (Eq. 3).
/// Deliberately **no GF multiply** — in the three-layer design, parity
/// scaling happens later, batched per stripe in the DeltaLog replay (the
/// `stripe_replay` row), which is exactly why the front end must not be
/// dominated by allocator traffic.
///
/// The baseline reproduces the **pre-refactor** data plane step for step:
/// `Vec`-backed chunks deep-copied at each hop (the clones the refactor
/// removed at `tsue.rs` append/forward/collect and `peek_block_range`)
/// and an allocating `data_delta`. The zero-copy path is the shipped one:
/// the payload enters a pool-recycled buffer once and every later hop is
/// a refcount bump; the delta is captured into pooled scratch in one
/// fused pass.
fn micro_small_write_delta(floor: Duration, len: usize) -> MicroRow {
    let incoming: Vec<u8> = (0..len).map(|i| (i * 17 + 3) as u8).collect();
    let mut store_b: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    let mut store_z = store_b.clone();
    let mut folded_b = vec![0u8; len];
    let mut folded_z = vec![0u8; len];
    let mut scratch = vec![0u8; len];

    let (baseline, zero_copy) = measure_pair(
        floor,
        || {
            // Wire receive materializes a fresh Vec…
            let payload = incoming.clone();
            // …cloned into the DataLog index (pre-refactor tsue.rs:344)…
            let logged = payload.clone();
            // …cloned again when recycle collects jobs (tsue.rs:1006).
            let newest = logged.clone();
            // peek_block_range copied the old content out of the store.
            let old_copy = store_b.clone();
            let d = tsue_ec::data_delta(&old_copy, &newest);
            store_b.copy_from_slice(&newest);
            // DeltaForward cloned the delta payload (tsue.rs:631).
            let fwd = d.clone();
            // DeltaLog same-offset fold (Eq. 3).
            tsue_ec::merge_deltas(&mut folded_b, &fwd);
            std::hint::black_box(&folded_b);
        },
        || {
            // Wire receive into a pool-recycled buffer; every later hop
            // is a refcount bump.
            let payload = tsue_buf::BytesMut::copy_of(&incoming).freeze();
            let logged = payload.clone();
            let newest = logged.clone();
            // One pass captures new ⊕ old and installs the new content.
            tsue_ec::data_delta_into(&store_z, &newest, &mut scratch);
            store_z.copy_from_slice(&newest);
            // DeltaLog same-offset fold (Eq. 3), in place on the scratch.
            tsue_ec::merge_deltas(&mut folded_z, &scratch);
            std::hint::black_box(&folded_z);
        },
    );

    MicroRow {
        name: format!("small_write_delta_{len}"),
        len: len as u64,
        baseline_ops_per_sec: baseline,
        zero_copy_ops_per_sec: zero_copy,
        speedup: zero_copy / baseline,
        // Per client write: payload, append clone, collect clone, old
        // peek, delta, forward clone.
        baseline_allocs_per_op: 6,
        baseline_alloc_bytes_per_op: (6 * len) as u64,
        zero_copy_allocs_per_op: 0,
    }
}

/// The stripe-batched DeltaLog replay (paper Eq. 5): same-offset deltas
/// from `k` data blocks of one stripe fold into one combined parity delta
/// per parity block.
///
/// The baseline reproduces the **pre-refactor** `recycle_delta_unit` step
/// for step: every logged range was cloned out of the index, GF-scaled
/// into a fresh zero-initialized buffer (`gf_scaled`), and XOR-folded into
/// the combined map in a separate pass — `k` clones plus `k` zeroed
/// temporaries plus `2k` passes per parity. The zero-copy path is the
/// shipped one: borrowed ranges, one fused multiply-accumulate per block
/// into a reused accumulator.
fn micro_stripe_replay(floor: Duration, len: usize) -> MicroRow {
    let (k, m) = (6usize, 4usize);
    let rs = RsCode::new(k, m).unwrap();
    let deltas: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 13 + j * 7 + 1) as u8).collect())
        .collect();
    let pairs: Vec<(usize, &[u8])> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| (i, d.as_slice()))
        .collect();

    let mut accs: Vec<Vec<u8>> = vec![vec![0u8; len]; m];
    let (baseline, zero_copy) = measure_pair(
        floor,
        || {
            for j in 0..m {
                let mut combined = vec![0u8; len];
                for (role, d) in &pairs {
                    // Pre-refactor shape: clone the range out of the
                    // borrowed index (tsue.rs:705), gf_scaled into a fresh
                    // zeroed buffer, then a separate XOR fold into the
                    // combined map.
                    let owned = d.to_vec();
                    let mut scaled = vec![0u8; len];
                    tsue_gf::mul_slice(rs.coefficient(j, *role), &owned, &mut scaled);
                    tsue_ec::merge_deltas(&mut combined, &scaled);
                }
                std::hint::black_box(&combined);
            }
        },
        || {
            for (j, acc) in accs.iter_mut().enumerate() {
                rs.fill_combined_parity_delta(j, &pairs, acc);
                std::hint::black_box(&acc);
            }
        },
    );

    MicroRow {
        name: "stripe_replay".into(),
        len: len as u64,
        baseline_ops_per_sec: baseline,
        zero_copy_ops_per_sec: zero_copy,
        speedup: zero_copy / baseline,
        baseline_allocs_per_op: (m * (2 * k + 1)) as u64,
        baseline_alloc_bytes_per_op: (m * (2 * k + 1) * len) as u64,
        zero_copy_allocs_per_op: 0,
    }
}

/// Full-stripe encode: allocating `encode` vs buffer-reusing `encode_into`.
fn micro_encode(floor: Duration, len: usize) -> MicroRow {
    let (k, m) = (6usize, 4usize);
    let rs = RsCode::new(k, m).unwrap();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity: Vec<Vec<u8>> = vec![vec![0u8; len]; m];

    let (baseline, zero_copy) = measure_pair(
        floor,
        || {
            std::hint::black_box(rs.encode(&refs).unwrap());
        },
        || {
            rs.encode_into(&refs, &mut parity).unwrap();
            std::hint::black_box(&parity);
        },
    );

    MicroRow {
        name: "rs_encode".into(),
        len: len as u64,
        baseline_ops_per_sec: baseline,
        zero_copy_ops_per_sec: zero_copy,
        speedup: zero_copy / baseline,
        baseline_allocs_per_op: m as u64,
        baseline_alloc_bytes_per_op: (m * len) as u64,
        zero_copy_allocs_per_op: 0,
    }
}

/// Runs one scenario **materialized** (payload bytes flow end to end) and
/// harvests the zero-copy counters alongside throughput.
fn cluster_row(mut spec: ScenarioSpec, quick: bool) -> ClusterRow {
    if quick {
        spec.duration_ms = Some(150);
        spec.file_mb = Some(4);
    }
    let registry = default_registry();
    let scheme = spec.scheme_display(&registry);
    let builder = spec
        .builder(&registry)
        .expect("bench scenarios are valid")
        .materialize(true);
    let mut world = builder.build();
    let mut sim: Sim<Cluster> = Sim::new();
    // Setup traffic (file provisioning) must not pollute the counters.
    let start = tsue_buf::stats();
    run_workload(&mut world, &mut sim, spec.duration_ms() * MILLISECOND);
    let window_end = world.core.stop_at.expect("window set").max(sim.now());
    if spec.flush_after() {
        world.flush_all(&mut sim);
    }
    world
        .core
        .metrics
        .absorb_buf_stats(tsue_buf::stats().since(&start));
    let met = &world.core.metrics;
    let ops = met.ops_completed.max(1);
    ClusterRow {
        scenario: spec.name.clone(),
        scheme,
        iops: met.iops(window_end),
        mean_latency_us: met.mean_latency() / 1000.0,
        ops: met.ops_completed,
        copies_per_op: met.payload_copies as f64 / ops as f64,
        bytes_copied_per_op: met.payload_bytes_copied as f64 / ops as f64,
        pool_hit_rate: met.buf_pool_hit_rate(),
        allocs_per_op: met.buf_pool_misses as f64 / ops as f64,
    }
}

/// Builds and runs one materialized TSUE cluster with checksums on or
/// off, returning `(wall_seconds, ops)`. The DES outcome is identical
/// either way; only the host cost of maintaining the digest tables
/// moves.
fn checksum_trial(spec: &ScenarioSpec, checksums: bool) -> (f64, u64) {
    let registry = default_registry();
    let builder = spec
        .builder(&registry)
        .expect("bench scenarios are valid")
        .materialize(true)
        .checksums(checksums);
    let t0 = Instant::now();
    let mut world = builder.build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, spec.duration_ms() * MILLISECOND);
    (t0.elapsed().as_secs_f64(), world.core.metrics.ops_completed)
}

/// Measures the checksum tax on one workload shape: best-of-3 wall
/// clock for the same run with digests off vs on. Trials alternate so
/// host noise lands on both sides.
fn integrity_row(name: &str, trace: TraceKind, quick: bool) -> IntegrityRow {
    let mut spec = ScenarioSpec::ssd(name, trace, 6, 4, 8, SchemeSpec::tsue());
    spec.duration_ms = Some(if quick { 150 } else { 400 });
    spec.file_mb = Some(if quick { 4 } else { 6 });
    let (mut base, mut checked, mut ops) = (f64::MAX, f64::MAX, 0);
    for _ in 0..3 {
        let (w, _) = checksum_trial(&spec, false);
        base = base.min(w);
        let (w, o) = checksum_trial(&spec, true);
        checked = checked.min(w);
        ops = o;
    }
    IntegrityRow {
        name: name.to_string(),
        ops,
        base_wall_ms: base * 1e3,
        checked_wall_ms: checked * 1e3,
        overhead_frac: checked / base.max(1e-9) - 1.0,
    }
}

/// Runs one scenario with tracing off or on, returning
/// `(wall_seconds, client_ops)`. The DES outcome is identical either
/// way; only the host cost of the trace ring moves.
fn obs_trial(spec: &ScenarioSpec, trace: bool) -> (f64, u64) {
    let registry = default_registry();
    let t0 = Instant::now();
    let (result, _) =
        crate::run_scenario_traced(spec, &registry, trace).expect("bench scenarios are valid");
    (t0.elapsed().as_secs_f64(), result.latency.count)
}

/// Measures the tracing tax on one workload shape: best-of-3 wall clock
/// for the same run with the trace ring off vs on. Trials alternate so
/// host noise lands on both sides.
fn obs_row(name: &str, trace: TraceKind, quick: bool) -> ObsRow {
    let mut spec = ScenarioSpec::ssd(name, trace, 6, 4, 8, SchemeSpec::tsue());
    spec.duration_ms = Some(if quick { 150 } else { 400 });
    spec.file_mb = Some(if quick { 4 } else { 6 });
    let (mut base, mut traced, mut ops) = (f64::MAX, f64::MAX, 0);
    for _ in 0..3 {
        let (w, o) = obs_trial(&spec, false);
        base = base.min(w);
        ops = o;
        let (w, _) = obs_trial(&spec, true);
        traced = traced.min(w);
    }
    ObsRow {
        name: name.to_string(),
        ops,
        base_wall_ms: base * 1e3,
        traced_wall_ms: traced * 1e3,
        overhead_frac: traced / base.max(1e-9) - 1.0,
    }
}

/// Measures [`tsue_obs::Histogram::record`] in isolation: the ns/op the
/// always-on latency histograms add per completion on the hot path.
fn hist_record_cost(floor: Duration) -> f64 {
    let mut h = tsue_obs::Histogram::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut f = || {
        // Cheap xorshift so the bucket index varies like real latencies.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.record(x & ((1 << 30) - 1));
    };
    let n = calibrate(floor, &mut f);
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    std::hint::black_box(&h);
    ns
}

/// Times one authoritative full scrub sweep over a freshly populated
/// cluster (clean: pure verification, no repairs).
fn scrub_row(quick: bool) -> ScrubRow {
    let mut spec = ScenarioSpec::ssd("scrub-sweep", TraceKind::Ten, 6, 4, 8, SchemeSpec::tsue());
    spec.duration_ms = Some(if quick { 100 } else { 200 });
    spec.file_mb = Some(if quick { 4 } else { 8 });
    let registry = default_registry();
    let builder = spec
        .builder(&registry)
        .expect("bench scenarios are valid")
        .materialize(true)
        .checksums(true);
    let mut world = builder.build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, spec.duration_ms() * MILLISECOND);
    world.flush_all(&mut sim);
    let bs = world.core.cfg.stripe.block_size;
    let mut best = f64::MAX;
    let mut report = tsue_ecfs::scrub::FullScrubReport::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        report = tsue_ecfs::run_full_scrub(&mut world, &mut sim);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let bytes = report.scrubbed * bs;
    ScrubRow {
        name: "full_sweep_clean".into(),
        blocks: report.scrubbed,
        bytes,
        repaired: report.repaired,
        wall_ms: best * 1e3,
        mb_per_wall_sec: bytes as f64 / 1e6 / best.max(1e-9),
    }
}

/// Assembles the full report: the kernel rows plus fig5/table1-shaped
/// materialized runs (`--quick` trims windows and the scheme lineup).
/// `bench_id` names the stake (derived from the output
/// filename by `tsuectl bench`, so `--out BENCH_05.json`
/// self-identifies correctly).
pub fn bench_report(bench_id: &str, quick: bool) -> BenchReport {
    let floor = if quick {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(250)
    };
    let micro = vec![
        micro_small_write_delta(floor, 512),
        micro_small_write_delta(floor, 1024),
        micro_small_write_delta(floor, 4096),
        micro_stripe_replay(floor, 4096),
        micro_encode(floor, 64 << 10),
    ];

    // Fig. 5 shape: the update-throughput lineup on one RS(6,4) cell.
    let lineup: Vec<SchemeSpec> = if quick {
        ["fo", "cord", "tsue"]
            .into_iter()
            .map(SchemeSpec::named)
            .collect()
    } else {
        SchemeSpec::fig5_lineup()
    };
    let mut cluster = Vec::new();
    for scheme in lineup {
        let name = format!("fig5-{}", scheme.name);
        let mut s = ScenarioSpec::ssd(name, TraceKind::Ten, 6, 4, 8, scheme);
        s.duration_ms = Some(400);
        s.file_mb = Some(6);
        cluster.push(cluster_row(s, quick));
    }
    // Table 1 shape: fixed work, drained logs (recycle I/O included).
    let mut t1 = ScenarioSpec::ssd(
        "table1-tsue-flush",
        TraceKind::Ali,
        6,
        4,
        8,
        SchemeSpec::tsue(),
    );
    t1.duration_ms = Some(400);
    t1.file_mb = Some(6);
    t1.flush_after = Some(true);
    cluster.push(cluster_row(t1, quick));

    let integrity = vec![
        integrity_row("integrity-ten", TraceKind::Ten, quick),
        integrity_row("integrity-ali", TraceKind::Ali, quick),
    ];
    let scrub = vec![scrub_row(quick)];
    let codec_tiers = codec_tier_rows(floor);
    let obs = vec![
        obs_row("obs-ten", TraceKind::Ten, quick),
        obs_row("obs-ali", TraceKind::Ali, quick),
    ];
    let hist_record_ns = hist_record_cost(floor);

    BenchReport {
        schema: "tsue-bench/v6".into(),
        bench_id: bench_id.to_string(),
        quick,
        micro,
        cluster,
        integrity,
        scrub,
        cpu_features: tsue_gf::cpu_features()
            .into_iter()
            .map(str::to_string)
            .collect(),
        gf_kernel: tsue_gf::kernel_tier().name().to_string(),
        codec_tiers,
        obs,
        hist_record_ns,
    }
}

/// Renders the human summary printed after a bench run.
pub fn render_bench(r: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} (quick={})", r.bench_id, r.quick);
    if !r.gf_kernel.is_empty() {
        let _ = writeln!(
            out,
            "gf kernel: {} (cpu features: {})",
            r.gf_kernel,
            if r.cpu_features.is_empty() {
                "none".to_string()
            } else {
                r.cpu_features.join(", ")
            }
        );
    }
    let _ = writeln!(
        out,
        "{:<20} {:>6} {:>14} {:>14} {:>8} {:>14}",
        "kernel", "len", "baseline op/s", "zero-copy op/s", "speedup", "allocs/op 0->"
    );
    for m in &r.micro {
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>14.0} {:>14.0} {:>7.2}x {:>7} -> {}",
            m.name,
            m.len,
            m.baseline_ops_per_sec,
            m.zero_copy_ops_per_sec,
            m.speedup,
            m.baseline_allocs_per_op,
            m.zero_copy_allocs_per_op
        );
    }
    let _ = writeln!(
        out,
        "\n{:<16} {:<8} {:>10} {:>12} {:>10} {:>12} {:>9}",
        "scenario", "scheme", "iops", "latency_us", "copies/op", "bytes/op", "pool_hit"
    );
    for c in &r.cluster {
        let _ = writeln!(
            out,
            "{:<16} {:<8} {:>10.0} {:>12.1} {:>10.2} {:>12.0} {:>8.1}%",
            c.scenario,
            c.scheme,
            c.iops,
            c.mean_latency_us,
            c.copies_per_op,
            c.bytes_copied_per_op,
            c.pool_hit_rate * 100.0
        );
    }
    if !r.integrity.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>8} {:>12} {:>14} {:>9}",
            "integrity", "ops", "base_ms", "checked_ms", "overhead"
        );
        for i in &r.integrity {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.1} {:>14.1} {:>8.1}%",
                i.name,
                i.ops,
                i.base_wall_ms,
                i.checked_wall_ms,
                i.overhead_frac * 100.0
            );
        }
    }
    if !r.scrub.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>8} {:>12} {:>9} {:>10} {:>12}",
            "scrub", "blocks", "bytes", "repaired", "wall_ms", "MB/wall_s"
        );
        for s in &r.scrub {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12} {:>9} {:>10.1} {:>12.0}",
                s.name, s.blocks, s.bytes, s.repaired, s.wall_ms, s.mb_per_wall_sec
            );
        }
    }
    if !r.obs.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>8} {:>12} {:>14} {:>9}",
            "obs (tracing)", "ops", "base_ms", "traced_ms", "overhead"
        );
        for o in &r.obs {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.1} {:>14.1} {:>8.1}%",
                o.name,
                o.ops,
                o.base_wall_ms,
                o.traced_wall_ms,
                o.overhead_frac * 100.0
            );
        }
        let _ = writeln!(out, "histogram record: {:.1} ns/op", r.hist_record_ns);
    }
    if !r.codec_tiers.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<10} {:<16} {:>8} {:>14} {:>10} {:>11}",
            "tier", "kernel", "len", "ops/sec", "MB/s", "vs scalar"
        );
        for t in &r.codec_tiers {
            let _ = writeln!(
                out,
                "{:<10} {:<16} {:>8} {:>14.0} {:>10.0} {:>10.2}x",
                t.tier, t.name, t.len, t.ops_per_sec, t.mb_per_sec, t.speedup_vs_scalar
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_rows_report_sane_numbers() {
        let floor = Duration::from_millis(5);
        let row = micro_small_write_delta(floor, 1024);
        assert!(row.baseline_ops_per_sec > 0.0);
        assert!(row.zero_copy_ops_per_sec > 0.0);
        assert!(row.speedup > 0.0);
        assert_eq!(row.zero_copy_allocs_per_op, 0);
        assert_eq!(row.baseline_allocs_per_op, 6, "one buffer per hop");
    }

    #[test]
    fn cluster_row_counts_zero_copies_on_the_write_path() {
        let mut s = ScenarioSpec::ssd(
            "bench-test",
            TraceKind::Ten,
            4,
            2,
            2,
            SchemeSpec::named("fo"),
        );
        s.duration_ms = Some(50);
        s.file_mb = Some(2);
        let row = cluster_row(s, true);
        assert!(row.ops > 0, "run must complete ops");
        assert!(row.pool_hit_rate >= 0.0 && row.pool_hit_rate <= 1.0);
    }
}

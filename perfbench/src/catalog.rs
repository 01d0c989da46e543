//! The metric catalog: every metric the benchmark reports, with its
//! unit, clock, better direction, layer, and the end-to-end metric and
//! workloads it is expected to move. `--catalog` prints it as JSON.

/// Which clock a metric is read from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the simulator process (varies run to run).
    Host,
    /// The modelled cluster (exact for a seed).
    Virtual,
}

impl Clock {
    /// Name as printed.
    pub fn token(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end metric in the `--trace 0` result line.
    EndToEnd,
    /// Printed in the end-to-end table but not in the result line
    /// (it can be 0, or exists on one workload only).
    Report,
    /// Per-layer metric in the `--trace 1` result line.
    Layer,
}

impl Kind {
    /// Name as printed in the catalog.
    pub fn token(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::Report => "report",
            Kind::Layer => "per_layer",
        }
    }
}

/// One metric definition.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Module (layer) it measures; `e2e` for end-to-end metrics.
    pub layer: &'static str,
    /// Where it is reported.
    pub kind: Kind,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    layer: &'static str,
    kind: Kind,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        layer,
        kind,
        moves,
    }
}

use Clock::{Host, Virtual};
use Kind::{EndToEnd, Layer, Report};

const BYTE_PLANE: &str =
    "host_s on ten-update, parix-ali and kill-heal; no change on ali-timing; no virtual metric";
const DISPATCH: &str =
    "host_s mostly on ali-timing, about a third as much on ten-update; no virtual metric";
const PIPELINE: &str =
    "v_lat_p50_us, v_lat_p999_us, v_iops and v_drain_ms on ten-update and ali-timing";
const DEVICE: &str = "v_dev_kib_per_op on every workload";
const NET: &str = "v_net_kib_per_op on every workload";
const FAULT: &str = "v_recovery_mb_s and good_stripe_frac on kill-heal; 0 elsewhere";

/// Every metric, end-to-end first.
pub const METRICS: &[Metric] = &[
    m("host_s", "s", Host, "lower", "e2e", EndToEnd, "wall time of run_workload + fault completion + flush_all; median over repeats"),
    m("host_us_per_op", "us", Host, "lower", "e2e", EndToEnd, "host_s per completed client op"),
    m("setup_s", "s", Host, "lower", "e2e", EndToEnd, "cluster build, file provisioning and fault-plan install; median over repeats"),
    m("peak_rss_mib", "MiB", Host, "lower", "e2e", EndToEnd, "peak resident memory of the benchmark process"),
    m("v_iops", "1/s", Virtual, "higher", "e2e", EndToEnd, "modelled client ops per second over the window"),
    m("v_lat_p50_us", "us", Virtual, "lower", "e2e", EndToEnd, "median client op latency, merged update/read/degraded-write histograms, interpolated within the bucket"),
    m("v_lat_p999_us", "us", Virtual, "lower", "e2e", EndToEnd, "99.9th-percentile client op latency, merged update/read/degraded-write histograms, interpolated within the bucket"),
    m("v_drain_ms", "ms", Virtual, "lower", "e2e", EndToEnd, "virtual ms from the end of the client window until flush_all returns (flush_all itself moves in 20 ms strides)"),
    m("v_dev_kib_per_op", "KiB", Virtual, "lower", "e2e", EndToEnd, "device read+write KiB per completed op"),
    m("v_net_kib_per_op", "KiB", Virtual, "lower", "e2e", EndToEnd, "wire KiB per completed op"),
    m("ok_op_frac", "frac", Virtual, "higher", "e2e", EndToEnd, "1 - failed_op_frac"),
    m("good_stripe_frac", "frac", Virtual, "higher", "e2e", EndToEnd, "1 - bad_stripe_frac; 1 on ali-timing, which holds no bytes"),
    m("failed_op_frac", "frac", Virtual, "lower", "e2e", Report, "(failed reads + ops never completed) / ops issued"),
    m("bad_stripe_frac", "frac", Virtual, "lower", "e2e", Report, "stripes with a data or parity mismatch / stripes checked"),
    m("v_recovery_mb_s", "MB/s", Virtual, "higher", "e2e", Report, "FaultReport::min_recovery_mb_s, kill-heal only"),
    m("v_lat_samples", "count", Virtual, "higher", "e2e", Report, "client latency samples behind v_lat_*"),
    // Host clock, from the traced run.
    m("ecfs.run_workload_s", "s", Host, "lower", "ecfs", Layer, "host_s on every workload"),
    m("ecfs.flush_all_s", "s", Host, "lower", "ecfs", Layer, "host_s on ten-update and parix-ali"),
    m("fault.complete_s", "s", Host, "lower", "fault", Layer, "host_s on kill-heal; 0 elsewhere"),
    m("verify.s", "s", Host, "lower", "verify", Layer, "no end-to-end metric (verification is outside host_s)"),
    m("scheme.on_update.calls", "count", Virtual, "lower", "scheme", Layer, DISPATCH),
    m("scheme.on_update.s", "s", Host, "lower", "scheme", Layer, DISPATCH),
    m("scheme.on_message.calls", "count", Virtual, "lower", "scheme", Layer, DISPATCH),
    m("scheme.on_message.s", "s", Host, "lower", "scheme", Layer, DISPATCH),
    m("scheme.on_timer.calls", "count", Virtual, "lower", "scheme", Layer, DISPATCH),
    m("scheme.on_timer.s", "s", Host, "lower", "scheme", Layer, DISPATCH),
    m("scheme.read_overlay.calls", "count", Virtual, "lower", "scheme", Layer, DISPATCH),
    m("scheme.read_overlay.s", "s", Host, "lower", "scheme", Layer, DISPATCH),
    m("scheme.flush.calls", "count", Virtual, "lower", "scheme", Layer, "host_s via ecfs.flush_all_s on ten-update and parix-ali"),
    m("scheme.flush.s", "s", Host, "lower", "scheme", Layer, "host_s via ecfs.flush_all_s on ten-update and parix-ali"),
    m("ecfs.outside_scheme_s", "s", Host, "lower", "ecfs", Layer, "host_s: client issue, payload generation, MDS map, DES dispatch and obs; mostly on ali-timing"),
    m("sim.events", "count", Virtual, "lower", "sim", Layer, DISPATCH),
    m("sim.host_ns_per_event", "ns", Host, "lower", "sim", Layer, DISPATCH),
    m("trace.overhead_frac", "frac", Host, "lower", "trace", Layer, "none (traced host_s / untraced host_s - 1)"),
    m("ecfs.payload_into.4KiB.mb_s", "MB/s", Host, "higher", "ecfs", Layer, BYTE_PLANE),
    m("ecfs.payload_into.1MiB.mb_s", "MB/s", Host, "higher", "ecfs", Layer, BYTE_PLANE),
    m("gf.mul_add_slice.4KiB.mb_s", "MB/s", Host, "higher", "gf", Layer, BYTE_PLANE),
    m("gf.mul_add_slice.1MiB.mb_s", "MB/s", Host, "higher", "gf", Layer, BYTE_PLANE),
    m("integrity.checksum.4KiB.mb_s", "MB/s", Host, "higher", "integrity", Layer, BYTE_PLANE),
    m("integrity.checksum.1MiB.mb_s", "MB/s", Host, "higher", "integrity", Layer, BYTE_PLANE),
    m("buf.copies_per_op", "count", Host, "lower", "buf", Layer, BYTE_PLANE),
    m("buf.pool_hit_rate", "frac", Host, "higher", "buf", Layer, BYTE_PLANE),
    m("buf.allocs_per_op", "count", Host, "lower", "buf", Layer, BYTE_PLANE),
    // Virtual clock and exact counts.
    m("device.rw_ops", "count", Virtual, "lower", "device", Layer, DEVICE),
    m("device.rw_gib", "GiB", Virtual, "lower", "device", Layer, DEVICE),
    m("device.overwrite_ops", "count", Virtual, "lower", "device", Layer, DEVICE),
    m("device.seq_frac", "frac", Virtual, "higher", "device", Layer, DEVICE),
    m("device.wa", "ratio", Virtual, "lower", "device", Layer, DEVICE),
    m("net.wire_gib", "GiB", Virtual, "lower", "net", Layer, NET),
    m("net.payload_gib", "GiB", Virtual, "lower", "net", Layer, NET),
    m("obs.stage.client_issue.p50_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.client_issue.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.data_log_append.p50_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.data_log_append.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.delta_forward.p50_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.delta_forward.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.recycle_merge.p50_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.recycle_merge.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.ack.p50_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.stage.ack.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.class.update.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.class.read.p99_us", "us", Virtual, "lower", "obs", Layer, PIPELINE),
    m("obs.class.degraded_write.p99_us", "us", Virtual, "lower", "obs", Layer, FAULT),
    m("obs.class.recovery_decode.p99_us", "us", Virtual, "lower", "obs", Layer, FAULT),
    m("scheme.mem_peak_mib", "MiB", Virtual, "lower", "scheme", Layer, PIPELINE),
    m("scheme.cache_hits", "count", Virtual, "higher", "scheme", Layer, "v_dev_kib_per_op on ali-timing and parix-ali"),
    m("tsue.data.recycle_us", "us", Virtual, "lower", "core", Layer, PIPELINE),
    m("tsue.delta.recycle_us", "us", Virtual, "lower", "core", Layer, PIPELINE),
    m("tsue.parity.recycle_us", "us", Virtual, "lower", "core", Layer, PIPELINE),
    m("fault.degraded_reads", "count", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.degraded_writes", "count", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.journaled_bytes", "bytes", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.replayed_bytes", "bytes", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.resync_bytes", "bytes", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.corruptions_detected", "count", Virtual, "lower", "fault", Layer, FAULT),
    m("fault.recovery_mb_s", "MB/s", Virtual, "higher", "fault", Layer, FAULT),
];

/// The definition of `name`.
///
/// # Panics
/// Panics on a name missing from the catalog (a benchmark bug).
pub fn get(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// Metrics of one kind, in catalog order.
pub fn of(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.kind == kind)
}

//! Standalone kernel probes: MB/s of the public byte kernels the data
//! plane spends host time in, at a small and a large buffer size. A
//! change to one of these kernels shows here and, on the materialized
//! workloads, in `host_s`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Buffer sizes probed, with the suffix used in metric names.
const SIZES: [(usize, &str); 2] = [(4 << 10, "4KiB"), (1 << 20, "1MiB")];

/// Host time spent per kernel and size.
const BUDGET: Duration = Duration::from_millis(150);

/// Batches per probe; the reported rate is their median.
const BATCHES: usize = 5;

/// Runs every probe; returns `(metric name, MB/s)` pairs.
pub fn run() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (len, tag) in SIZES {
        let src: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut dst = vec![0u8; len];
        let mut op = 0u64;
        out.push((
            format!("ecfs.payload_into.{tag}.mb_s"),
            rate(len, || {
                op += 1;
                tsue_ecfs::payload_into(black_box(op), 0, black_box(&mut dst));
            }),
        ));
        out.push((
            format!("gf.mul_add_slice.{tag}.mb_s"),
            rate(len, || {
                tsue_gf::mul_add_slice(black_box(0x8e), black_box(&src), black_box(&mut dst));
            }),
        ));
        out.push((
            format!("integrity.checksum.{tag}.mb_s"),
            rate(len, || {
                black_box(tsue_integrity::checksum(black_box(&src)));
            }),
        ));
    }
    out
}

/// Median MB/s of `BATCHES` timed batches of `f` over `len` bytes.
fn rate(len: usize, mut f: impl FnMut()) -> f64 {
    // Size one batch to about BUDGET / BATCHES.
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < BUDGET / (4 * BATCHES as u32) {
        f();
        calls += 1;
    }
    let per_batch = (calls * 4).max(1);
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            (per_batch as f64 * len as f64 / 1e6) / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[BATCHES / 2]
}

//! The four benchmark workloads, as declarative [`ScenarioSpec`]s.
//!
//! Every workload uses SSDs and closed-loop clients and ends by draining
//! all scheme logs (`flush_after`). The seed given on the command line is
//! written into each spec's `seed`; nothing else depends on it.

use tsue_bench::ScenarioSpec;

/// One named workload.
pub struct Workload {
    /// Command-line name.
    pub name: &'static str,
    /// Why this workload is in the benchmark (one line).
    pub why: &'static str,
    /// A defect this workload is known to expose: its bad stripes are
    /// reported (`bad_stripe_frac`) instead of failing the run.
    pub known_defect: Option<&'static str>,
    /// The scenario, without its seed.
    spec: &'static str,
}

impl Workload {
    /// The workload's scenario at `seed`.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec: ScenarioSpec =
            serde_json::from_str(self.spec).expect("built-in workload specs are valid JSON");
        spec.seed = Some(seed);
        spec
    }
}

/// All workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ten-update",
        why: "TSUE on Ten-Cloud with real bytes and a byte-exact check: host time goes to the byte plane (payload, deltas, parity, checksums, buffers)",
        known_defect: None,
        spec: TEN_UPDATE,
    },
    Workload {
        name: "ali-timing",
        why: "TSUE on Ali-Cloud without bytes: host time goes to DES dispatch and scheme bookkeeping, so byte-plane changes should not move it",
        known_defect: None,
        spec: ALI_TIMING,
    },
    Workload {
        name: "kill-heal",
        why: "TSUE under a node kill and heal: degraded I/O, MDS journal, replica replay, rebuild decode and re-sync under live traffic",
        known_defect: Some(
            "TSUE loses or corrupts acked bytes across a kill-heal window (ROADMAP open item 1)",
        ),
        spec: KILL_HEAL,
    },
    Workload {
        name: "parix-ali",
        why: "PARIX on Ali-Cloud with real bytes: the only workload that measures a baseline scheme (speculative originals, deltas at recycle)",
        known_defect: None,
        spec: PARIX_ALI,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// The specs use the repository's scenario-file format; `seed` is set
// from the command line.

const TEN_UPDATE: &str = r#"{
    "name": "ten-update", "device": "ssd", "k": 6, "m": 4, "clients": 8, "osds": 16,
    "trace": "ten", "scheme": {"name": "tsue"}, "duration_ms": 1000, "file_mb": 8,
    "flush_after": true, "materialize": true, "checksums": true
}"#;

const ALI_TIMING: &str = r#"{
    "name": "ali-timing", "device": "ssd", "k": 6, "m": 4, "clients": 8, "osds": 16,
    "trace": "ali", "scheme": {"name": "tsue"}, "duration_ms": 3000, "file_mb": 8,
    "flush_after": true, "materialize": false, "checksums": true
}"#;

const KILL_HEAL: &str = r#"{
    "name": "kill-heal", "device": "ssd", "k": 4, "m": 2, "clients": 4, "osds": 10,
    "trace": "ten", "scheme": {"name": "tsue"}, "duration_ms": 2000, "file_mb": 16,
    "flush_after": true, "materialize": true, "checksums": true,
    "faults": [
        {"kind": "kill_node", "at_ms": 100, "node": 3},
        {"kind": "heal_node", "at_ms": 1200, "node": 3}
    ]
}"#;

const PARIX_ALI: &str = r#"{
    "name": "parix-ali", "device": "ssd", "k": 6, "m": 4, "clients": 8, "osds": 16,
    "trace": "ali", "scheme": {"name": "parix"}, "duration_ms": 1000, "file_mb": 8,
    "flush_after": true, "materialize": true, "checksums": true
}"#;

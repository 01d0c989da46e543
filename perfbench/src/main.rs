//! End-to-end benchmark of the TSUE reproduction.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --catalog [--seed <n>]
//! ```
//!
//! One run repeats the workload (build → run → fault completion →
//! drain) until `--seconds` of host time have passed, on one thread.
//! `--trace 0` reports the end-to-end metrics: host-clock medians over
//! the repeats and the virtual-clock metrics, which must be bit-identical
//! across repeats. `--trace 1` alternates untraced and traced repeats
//! (scheme-callback timer plus phase spans, written to
//! `.bench_out/spans-<workload>-<seed>.json`), runs the kernel probes,
//! and reports the per-layer metrics. Either way the correctness oracle
//! runs on the first repeat, and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod catalog;
mod harness;
mod oracle;
mod probes;
mod trace;
mod workloads;

use catalog::Kind;
use harness::{run_once, Repeat, CALLBACKS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Spans;
use workloads::{Workload, WORKLOADS};

/// Fewest untraced repeats a `--trace 0` run makes, however long they take.
const MIN_REPEATS: usize = 3;
/// Fewest repeats of each kind a `--trace 1` run makes.
const MIN_TRACED: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    catalog: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --catalog [--seed <n>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        catalog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--catalog" {
            args.catalog = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.catalog && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            2
        }
        Ok(args) if args.catalog => {
            println!("{}", catalog_json(args.seed));
            0
        }
        Ok(args) => match run(&args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// One workload's measured outcome.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// `(name, value)` in catalog order; units come from the catalog.
    metrics: Vec<(String, f64)>,
}

fn run(args: &Args) -> Result<(), String> {
    let selected: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![workloads::find(&args.workload)
            .ok_or_else(|| format!("unknown workload '{}'\n{}", args.workload, usage()))?]
    };
    let budget = Duration::from_secs(args.seconds);
    let mut outcomes = Vec::new();
    for w in &selected {
        let out = if args.trace {
            measure_layers(w, args.seed, budget)?
        } else {
            measure_end_to_end(w, args.seed, budget)?
        };
        outcomes.push((w.name, out));
    }
    let prefixed = outcomes.len() > 1;
    let mut metrics = String::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for (name, out) in &outcomes {
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.problems.is_empty();
        for (metric, value) in &out.metrics {
            let def = catalog::get(metric);
            let key = if prefixed {
                format!("{name}.{metric}")
            } else {
                metric.clone()
            };
            if !value.is_finite() {
                return Err(format!("{key} is not a finite number ({value})"));
            }
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.unit
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The spread of `v`, printed next to its median.
fn spread(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let med = median(v.to_vec());
    let pct = if med > 0.0 {
        (hi - lo) / med * 100.0
    } else {
        0.0
    };
    format!("n={} min {lo:.4} max {hi:.4} range {pct:.1}%", v.len())
}

/// Checks that `reps` agree bit for bit on everything virtual.
fn check_identical(label: &str, reps: &[&Repeat], problems: &mut Vec<String>) {
    let first = reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        let mut diffs = Vec::new();
        if r.result_json != first.result_json {
            diffs.push("serialized RunResult".to_string());
        }
        if r.fingerprint != first.fingerprint {
            diffs.push("stored-block fingerprint".to_string());
        }
        for (k, v) in first.virt.iter().chain(&first.buf) {
            let other = r.virt.get(k).or_else(|| r.buf.get(k));
            if other.map(|o| o.to_bits()) != Some(v.to_bits()) {
                diffs.push(format!("{k} {v} vs {other:?}"));
            }
        }
        if !diffs.is_empty() {
            problems.push(format!(
                "nondeterminism: {label} repeat {i} differs from repeat 0 in {}",
                diffs.join(", ")
            ));
        }
    }
}

/// Folds the oracle of the verified repeat into the problem list and
/// the printed report; returns the bad-stripe share.
fn judge(w: &Workload, rep: &Repeat, problems: &mut Vec<String>) -> f64 {
    let Some(o) = &rep.oracle else {
        problems.push("oracle did not run".into());
        return 1.0;
    };
    problems.extend(o.accounting.iter().map(|a| format!("accounting: {a}")));
    if rep.failed > 0 {
        problems.push(format!("{} client ops failed", rep.failed));
    }
    println!(
        "oracle: {} stripes checked, {} bad ({} data, {} parity); accounting {}",
        o.stripes_checked,
        o.bad_stripes,
        o.data_mismatch,
        o.parity_mismatch,
        if o.accounting.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
    if o.bad_stripes > 0 {
        match w.known_defect {
            Some(defect) => println!(
                "KNOWN DEFECT, reported not excluded: {}/{} stripes bad; {defect}",
                o.bad_stripes, o.stripes_checked
            ),
            None => problems.push(format!(
                "{}/{} stripes differ from the reference or a fresh encode",
                o.bad_stripes, o.stripes_checked
            )),
        }
    }
    o.bad_stripe_frac()
}

fn header(w: &Workload, seed: u64, what: &str) {
    println!("== {} (seed {seed}, {what}) ==", w.name);
    println!("why: {}", w.why);
}

fn print_metric(name: &str, value: f64, note: &str) {
    let def = catalog::get(name);
    println!(
        "  {name:<34} {value:>16.6} {:<6} {:<7} {note}",
        def.unit,
        def.clock.token()
    );
}

/// `--trace 0`: untraced repeats, end-to-end metrics.
fn measure_end_to_end(w: &Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let spec = w.spec(seed);
    let registry = tsue_bench::default_registry();
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPEATS || start.elapsed() < budget {
        let verify = reps.is_empty();
        reps.push(run_once(
            &spec,
            &registry,
            false,
            verify,
            &mut Spans::disabled(),
        )?);
    }
    header(w, seed, "end-to-end, untraced");
    let mut problems = Vec::new();
    let all: Vec<&Repeat> = reps.iter().collect();
    check_identical("untraced", &all, &mut problems);
    let bad_frac = judge(w, &reps[0], &mut problems);

    let host: Vec<f64> = reps.iter().map(|r| r.host.host_s()).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.host.setup).collect();
    let v = &reps[0].virt;
    let ops = v["ops_completed"].max(1.0);
    let per_op: Vec<f64> = host.iter().map(|h| h / ops * 1e6).collect();
    let failed_frac = v["failed_op_frac"];
    // Read before any oracle ran, so it is the program's own peak.
    let rss = reps[0].peak_rss_mib;
    let mut metrics = vec![
        ("host_s", median(host.clone()), spread(&host)),
        ("host_us_per_op", median(per_op.clone()), spread(&per_op)),
        ("setup_s", median(setup.clone()), spread(&setup)),
        ("peak_rss_mib", rss, String::new()),
    ];
    for name in [
        "v_iops",
        "v_lat_p50_us",
        "v_lat_p999_us",
        "v_drain_ms",
        "v_dev_kib_per_op",
        "v_net_kib_per_op",
    ] {
        metrics.push((name, v[name], "exact".into()));
    }
    metrics.push(("ok_op_frac", 1.0 - failed_frac, "exact".into()));
    metrics.push(("good_stripe_frac", 1.0 - bad_frac, "exact".into()));
    let report = [
        ("failed_op_frac", failed_frac),
        ("bad_stripe_frac", bad_frac),
        ("v_lat_samples", v["v_lat_samples"]),
    ];
    for (name, value, note) in &metrics {
        print_metric(name, *value, note);
    }
    let seq: Vec<String> = host.iter().map(|h| format!("{h:.3}")).collect();
    println!("  host_s per repeat: {}", seq.join(" "));
    for (name, value) in report {
        print_metric(name, value, "exact");
    }
    if spec.fault_plan().is_some() {
        print_metric("v_recovery_mb_s", v["fault.recovery_mb_s"], "exact");
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(Outcome {
        problems,
        attempted: reps.iter().map(|r| r.issued).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: metrics
            .into_iter()
            .map(|(n, v, _)| (n.to_string(), v))
            .collect(),
    })
}

/// `--trace 1`: alternating untraced and traced repeats, kernel probes,
/// per-layer metrics.
fn measure_layers(w: &Workload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let spec = w.spec(seed);
    let registry = tsue_bench::default_registry();
    let mut spans = Spans::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_TRACED || start.elapsed() < budget {
        plain.push(run_once(
            &spec,
            &registry,
            false,
            false,
            &mut Spans::disabled(),
        )?);
        let verify = traced.is_empty();
        traced.push(run_once(&spec, &registry, true, verify, &mut spans)?);
    }
    let probe_span = spans.open("probes", None);
    let probes = probes::run();
    spans.close(probe_span);
    // The phase-split harness must drive the program exactly as the
    // library's own scenario runner does.
    let reference = tsue_bench::run_scenario(&spec)?;
    let reference = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    header(w, seed, "per-layer, traced");

    let mut problems = Vec::new();
    if reference != plain[0].result_json {
        problems.push("the harness RunResult differs from tsue_bench::run_scenario".into());
    }
    let both: Vec<&Repeat> = traced.iter().chain(&plain).collect();
    check_identical("traced vs untraced", &both, &mut problems);
    let calls: Vec<_> = traced
        .iter()
        .map(|r| r.scheme.map(|s| s.map(|c| c.0)))
        .collect();
    if calls.iter().any(|c| *c != calls[0]) {
        problems
            .push("nondeterminism: scheme callback counts differ between traced repeats".into());
    }
    judge(w, &traced[0], &mut problems);

    let med = |f: &dyn Fn(&Repeat) -> f64, reps: &[Repeat]| median(reps.iter().map(f).collect());
    let clock = |r: &Repeat| r.scheme.unwrap_or_default();
    let plain_host = med(&|r| r.host.host_s(), &plain);
    let traced_host = med(&|r| r.host.host_s(), &traced);
    let events = traced[0].events as f64;
    let mut metrics: Vec<(String, f64)> = vec![
        ("ecfs.run_workload_s".into(), med(&|r| r.host.run, &traced)),
        ("ecfs.flush_all_s".into(), med(&|r| r.host.flush, &traced)),
        ("fault.complete_s".into(), med(&|r| r.host.fault, &traced)),
        ("verify.s".into(), traced[0].host.verify),
    ];
    for (i, cb) in CALLBACKS.iter().enumerate() {
        metrics.push((format!("scheme.{cb}.calls"), clock(&traced[0])[i].0 as f64));
        metrics.push((
            format!("scheme.{cb}.s"),
            med(&|r| clock(r)[i].1 as f64 / 1e9, &traced),
        ));
    }
    metrics.push((
        "ecfs.outside_scheme_s".into(),
        med(
            &|r| r.host.host_s() - clock(r).iter().map(|c| c.1 as f64 / 1e9).sum::<f64>(),
            &traced,
        ),
    ));
    metrics.push(("sim.events".into(), events));
    metrics.push((
        "sim.host_ns_per_event".into(),
        plain_host / events.max(1.0) * 1e9,
    ));
    metrics.push(("trace.overhead_frac".into(), traced_host / plain_host - 1.0));
    metrics.extend(probes);
    metrics.extend(traced[0].buf.iter().map(|(k, v)| (k.to_string(), *v)));
    metrics.extend(traced[0].virt.iter().map(|(k, v)| (k.to_string(), *v)));
    // Report in catalog order; every per-layer metric must be measured.
    let measured: BTreeMap<String, f64> = metrics.into_iter().collect();
    let metrics = catalog::of(Kind::Layer)
        .map(|d| {
            measured
                .get(d.name)
                .map(|v| (d.name.to_string(), *v))
                .ok_or_else(|| format!("per-layer metric {} was not measured", d.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (name, value) in &metrics {
        print_metric(name, *value, "");
    }
    println!(
        "  untraced host_s {}\n  traced host_s   {}",
        spread(&plain.iter().map(|r| r.host.host_s()).collect::<Vec<_>>()),
        spread(&traced.iter().map(|r| r.host.host_s()).collect::<Vec<_>>())
    );
    let path = format!(".bench_out/spans-{}-{seed}.json", w.name);
    std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, spans.to_json()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans: {path}");
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(Outcome {
        problems,
        attempted: plain.iter().chain(&traced).map(|r| r.issued).sum(),
        failed: plain.iter().chain(&traced).map(|r| r.failed).sum(),
        metrics,
    })
}

/// The catalog as JSON: every metric's definition and every workload's
/// full spec at `seed`.
fn catalog_json(seed: u64) -> String {
    let metrics: Vec<String> = catalog::METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"clock\": \"{}\", \"better\": \"{}\", \"layer\": \"{}\", \"kind\": \"{}\", \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.clock.token(),
                m.better,
                m.layer,
                m.kind.token(),
                json_str(m.moves)
            )
        })
        .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let spec = serde_json::to_string(&w.spec(seed))
                .unwrap_or_else(|e| json_str(&format!("unserializable: {e}")));
            let defect = w.known_defect.map_or("null".to_string(), json_str);
            format!(
                "    {{\"name\": {}, \"why\": {}, \"known_defect\": {defect}, \"spec\": {spec}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"workloads\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        metrics.join(",\n")
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".into())
}

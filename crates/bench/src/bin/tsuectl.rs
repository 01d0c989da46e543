//! `tsuectl` — run cluster simulations from the command line.
//!
//! ```text
//! tsuectl run <scenario.json> [--out DIR] [--trace-out FILE]
//!                                             execute a scenario file
//! tsuectl bench [--quick] [--out FILE]        perf-regression report (BENCH_NN.json)
//! tsuectl trace-check <trace.json> [--result FILE]
//!                                             validate an emitted Chrome trace
//! tsuectl lint [--json] [--json-out FILE]     workspace invariant checker (tsue_lint)
//! tsuectl list                                registered schemes + bundled scenarios
//! tsuectl [flags...]                          ad-hoc single run (see --help)
//! ```
//!
//! Every execution path goes through the declarative scenario API: the
//! ad-hoc flags are parsed into a [`ScenarioSpec`] (printable via
//! `--print-spec`), and each scenario run's `{spec, result}` pair is
//! persisted under `--out` (default `results/`) so any result is
//! reproducible from its spec. The one exception is `--trace-csv`
//! replay: a recorded trace is an external input the spec alone cannot
//! reproduce, so that path prints its metrics without persisting.

use tsue_bench::{
    default_registry, render_listing, run_scenario_traced, RunResult, ScenarioOutcome,
    ScenarioSpec, SchemeSpec, TraceKind,
};
use tsue_ecfs::{run_workload, Cluster, DeviceKind, PlacementKind};
use tsue_net::{NetSpec, Topology};
use tsue_sim::{Sim, MILLISECOND};

const HELP: &str = "tsuectl — run TSUE cluster simulations\n\n\
subcommands:\n\
  run <scenario.json> [--out DIR] [--trace-out FILE]\n\
                                          execute a scenario file; --trace-out dumps the\n\
                                          op-lifecycle spans as Chrome trace_event JSON\n\
                                          (open in Perfetto / chrome://tracing)\n\
  bench [--quick] [--out FILE]\n\
                                          zero-copy perf-regression report\n\
                                          (micro kernels + cluster runs + integrity/scrub/obs rows;\n\
                                          default output BENCH_08.json)\n\
  trace-check <trace.json> [--result FILE]\n\
                                          validate a --trace-out dump: parses the JSON and\n\
                                          requires ≥1 complete span; with --result, requires\n\
                                          a span per op class the run actually completed\n\
  lint [--json] [--json-out FILE]         run the workspace invariant checker\n\
                                          (tsue_lint); exits nonzero on violations or\n\
                                          an exceeded exemption budget\n\
  list                                    print registered schemes and bundled scenarios\n\n\
ad-hoc flags (assembled into a scenario spec):\n\
  --scheme NAME                           update scheme by registry name (default tsue)\n\
  --knobs JSON                            per-scheme knob object, e.g. '{\"max_units\": 2}'\n\
  --k N --m N                             RS shape (default 6,4)\n\
  --clients N                             closed-loop clients (default 16)\n\
  --trace ali|ten|src10|...|mds0          workload preset (default ten)\n\
  --trace-csv FILE                        replay a real CSV trace instead\n\
  --device ssd|hdd                        device class (default ssd)\n\
  --net ethernet-25g|infiniband-40g       fabric override (default: by device)\n\
  --topology flat|rack4|rack4-hot|rack8   fabric shape (default flat switch)\n\
  --placement flat|rack-aware             block placement policy (default flat)\n\
  --duration-ms N                         measured window (default 2000)\n\
  --file-mb N                             per-client file size (default 12)\n\
  --seed N                                workload seed (default 42)\n\
  --flush                                 drain logs and include recycle I/O\n\
  --out DIR                               where to persist {spec, result} (default results)\n\
  --print-spec                            print the scenario JSON and exit";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                fail(&format!("'list' takes no arguments, got '{}'", args[1]));
            }
            list();
        }
        Some("run") => run_file(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("trace-check") => trace_check(&args[1..]),
        Some("--help") | Some("-h") => println!("{HELP}"),
        _ => adhoc(&args),
    }
}

/// `tsuectl lint` — the workspace invariant checker, exposed beside the
/// run/bench entry points so one binary covers the whole workflow. Walks
/// up from the current directory to the `lint.toml` root and exits
/// nonzero unless the workspace is clean.
fn lint(rest: &[String]) {
    let mut json = false;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--json" => json = true,
            "--json-out" => {
                i += 1;
                json_out = Some(
                    rest.get(i)
                        .cloned()
                        .unwrap_or_else(|| fail("missing value after --json-out")),
                );
            }
            other => fail(&format!("unknown lint flag '{other}'")),
        }
        i += 1;
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let root = tsue_lint::find_root(&cwd)
        .unwrap_or_else(|| fail(&format!("no lint.toml found above {}", cwd.display())));
    let report = match tsue_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => fail(&format!("lint failed: {e}")),
    };
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            fail(&format!("cannot write {path}: {e}"));
        }
    }
    print!(
        "{}",
        if json {
            report.render_json()
        } else {
            report.render_text()
        }
    );
    if !report.clean() {
        std::process::exit(1);
    }
}

/// `tsuectl bench` — the perf-regression harness: kernel baselines vs
/// zero-copy entry points plus materialized cluster runs, persisted as a
/// `BENCH_NN.json` stake for the trajectory.
fn bench(rest: &[String]) {
    let mut quick = false;
    let mut out = String::from("BENCH_08.json");
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = rest
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fail("missing value after --out"));
            }
            other => fail(&format!("unknown flag '{other}' after 'bench'")),
        }
        i += 1;
    }
    // The stake id is the output filename's stem, so `--out BENCH_07.json`
    // (the next PR's stake) self-identifies without a source edit.
    let bench_id = std::path::Path::new(&out)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH")
        .to_string();
    let report = tsue_bench::bench_report(&bench_id, quick);
    print!("{}", tsue_bench::render_bench(&report));
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match std::fs::write(&out, json + "\n") {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => fail(&format!("cannot write '{out}': {e}")),
    }
}

/// `tsuectl list` — the registry and the bundled scenario files.
fn list() {
    print!("{}", render_listing(&default_registry()));
    println!("\ntraces: ali ten src10 src22 proj2 prn1 hm0 usr0 mds0");
    println!("fabrics: {}", NetSpec::names().join(" "));
    println!("topologies: {}", Topology::names().join(" "));
    println!("placements: {}", PlacementKind::names().join(" "));
}

/// `tsuectl run <scenario.json>` — execute one scenario file.
fn run_file(rest: &[String]) {
    let mut path: Option<String> = None;
    let mut out = String::from("results");
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => {
                i += 1;
                out = rest
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fail("missing value after --out"));
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    rest.get(i)
                        .cloned()
                        .unwrap_or_else(|| fail("missing value after --trace-out")),
                );
            }
            flag if flag.starts_with('-') => fail(&format!("unknown flag '{flag}' after 'run'")),
            p if path.is_none() => path = Some(p.to_string()),
            extra => fail(&format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| {
        fail("usage: tsuectl run <scenario.json> [--out DIR] [--trace-out FILE]")
    });
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read '{path}': {e}")));
    let spec: ScenarioSpec = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse '{path}': {e}")));
    execute(spec, &out, trace_out.as_deref());
}

/// Runs a validated spec, prints the summary, persists `{spec, result}`.
/// `trace_out` is an execution knob only — the persisted `{spec, result}`
/// is byte-identical with or without it.
fn execute(spec: ScenarioSpec, out: &str, trace_out: Option<&str>) {
    let (result, trace) = run_scenario_traced(&spec, &default_registry(), trace_out.is_some())
        .unwrap_or_else(|e| fail(&e));
    print_result(&spec, &result);
    if let Some(path) = trace_out {
        let json = trace.expect("tracing was enabled");
        match std::fs::write(path, json) {
            Ok(()) => println!("\nwrote {path} (Chrome trace_event JSON)"),
            Err(e) => fail(&format!("cannot write trace '{path}': {e}")),
        }
    }
    let outcome = ScenarioOutcome {
        spec: spec.clone(),
        result,
    };
    let dir = std::path::Path::new(out);
    match tsue_bench::save_json(dir, &spec.name, &outcome) {
        Ok(()) => println!("\nwrote {}/{}.json (spec + result)", out, spec.name),
        Err(e) => eprintln!("\nwarning: could not persist outcome under '{out}': {e}"),
    }
}

/// `tsuectl trace-check` — validates a `--trace-out` dump: the file must
/// parse as Chrome `trace_event` JSON with at least one complete (`"X"`)
/// span; with `--result <outcome.json>`, every op class the run completed
/// must have at least one span in the trace. CI runs this against the
/// rack-failure scenario's trace artifact.
fn trace_check(rest: &[String]) {
    let mut path: Option<String> = None;
    let mut result_path: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--result" => {
                i += 1;
                result_path = Some(
                    rest.get(i)
                        .cloned()
                        .unwrap_or_else(|| fail("missing value after --result")),
                );
            }
            flag if flag.starts_with('-') => {
                fail(&format!("unknown flag '{flag}' after 'trace-check'"))
            }
            p if path.is_none() => path = Some(p.to_string()),
            extra => fail(&format!("unexpected argument '{extra}'")),
        }
        i += 1;
    }
    let path =
        path.unwrap_or_else(|| fail("usage: tsuectl trace-check <trace.json> [--result FILE]"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read '{path}': {e}")));
    let v = serde_json::value_from_str(&text)
        .unwrap_or_else(|e| fail(&format!("'{path}' is not valid JSON: {e}")));
    let Some(serde::Value::Array(events)) = v.get("traceEvents") else {
        fail(&format!("'{path}' has no traceEvents array"));
    };
    let mut complete = 0usize;
    let mut op_spans: Vec<String> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|p| match p {
            serde::Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        if ph != Some("X") {
            fail(&format!(
                "'{path}' contains a non-complete event (ph != \"X\")"
            ));
        }
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            if e.get(key).is_none() {
                fail(&format!("'{path}' has an event missing '{key}'"));
            }
        }
        complete += 1;
        if let (Some(serde::Value::Str(cat)), Some(serde::Value::Str(name))) =
            (e.get("cat"), e.get("name"))
        {
            if cat == "op" && !op_spans.contains(name) {
                op_spans.push(name.clone());
            }
        }
    }
    if complete == 0 {
        fail(&format!("'{path}' contains no spans"));
    }
    if let Some(rp) = result_path {
        let text = std::fs::read_to_string(&rp)
            .unwrap_or_else(|e| fail(&format!("cannot read '{rp}': {e}")));
        let outcome: ScenarioOutcome = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse '{rp}': {e}")));
        for class in &outcome.result.obs.classes {
            if class.count > 0 && !op_spans.iter().any(|s| s == &class.name) {
                fail(&format!(
                    "run completed {} '{}' ops but the trace has no '{}' span \
                     (ring may have evicted them — raise the capacity or shorten the run)",
                    class.count, class.name, class.name
                ));
            }
        }
        println!(
            "trace-check ok: {} complete spans, op classes covered: {}",
            complete,
            op_spans.join(", ")
        );
    } else {
        println!("trace-check ok: {complete} complete spans");
    }
}

/// Ad-hoc flag path: flags → [`ScenarioSpec`] → same execution as `run`.
fn adhoc(args: &[String]) {
    let mut spec = ScenarioSpec::ssd("cli", TraceKind::Ten, 6, 4, 16, SchemeSpec::tsue());
    let mut csv: Option<String> = None;
    let mut out = String::from("results");
    let mut print_spec = false;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| fail(&format!("missing value after {}", args[*i - 1])))
    };
    let parse_num = |flag: &str, v: String| -> u64 {
        v.parse().unwrap_or_else(|e| fail(&format!("{flag}: {e}")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => spec.scheme.name = next(&mut i).to_ascii_lowercase(),
            "--knobs" => {
                let text = next(&mut i);
                let knobs = serde_json::value_from_str(&text)
                    .unwrap_or_else(|e| fail(&format!("--knobs: {e}")));
                spec.scheme.knobs = Some(knobs);
            }
            "--k" => spec.k = parse_num("--k", next(&mut i)) as usize,
            "--m" => spec.m = parse_num("--m", next(&mut i)) as usize,
            "--clients" => spec.clients = parse_num("--clients", next(&mut i)) as usize,
            "--duration-ms" => spec.duration_ms = Some(parse_num("--duration-ms", next(&mut i))),
            "--file-mb" => spec.file_mb = Some(parse_num("--file-mb", next(&mut i))),
            "--seed" => spec.seed = Some(parse_num("--seed", next(&mut i))),
            "--device" => {
                let v = next(&mut i);
                spec.device =
                    DeviceKind::parse(&v).unwrap_or_else(|| fail(&format!("unknown device '{v}'")));
            }
            "--net" => {
                let v = next(&mut i);
                spec.net = Some(NetSpec::by_name(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown fabric '{v}' (valid: {})",
                        NetSpec::names().join(", ")
                    ))
                }));
            }
            "--topology" => {
                let v = next(&mut i);
                spec.topology = Some(Topology::by_name(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown topology '{v}' (valid: {})",
                        Topology::names().join(", ")
                    ))
                }));
            }
            "--placement" => {
                let v = next(&mut i);
                spec.placement = Some(PlacementKind::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown placement '{v}' (valid: {})",
                        PlacementKind::names().join(", ")
                    ))
                }));
            }
            "--trace" => {
                let v = next(&mut i);
                spec.trace =
                    TraceKind::parse(&v).unwrap_or_else(|| fail(&format!("unknown trace '{v}'")));
            }
            "--trace-csv" => csv = Some(next(&mut i)),
            "--flush" => spec.flush_after = Some(true),
            "--out" => out = next(&mut i),
            "--print-spec" => print_spec = true,
            other => fail(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    spec.name = format!(
        "cli-{}",
        ScenarioSpec::auto_name(&spec.scheme, spec.trace, spec.k, spec.m, spec.clients)
    );

    if print_spec {
        let registry = default_registry();
        spec.validate(&registry).unwrap_or_else(|e| fail(&e));
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).expect("spec serializes")
        );
        return;
    }

    if let Some(path) = csv {
        replay_csv(&spec, &path);
        return;
    }
    execute(spec, &out, None);
}

/// Replay path: build the scenario's cluster, then install the recorded
/// trace instead of the synthetic profile.
fn replay_csv(spec: &ScenarioSpec, path: &str) {
    let ops = tsue_trace::load_csv(std::path::Path::new(path), spec.file_mb() << 20)
        .unwrap_or_else(|e| fail(&format!("cannot load trace '{path}': {e}")));
    let registry = default_registry();
    let mut world = spec.build_cluster(&registry).unwrap_or_else(|e| fail(&e));
    world.set_replay(&ops);
    let mut sim: Sim<Cluster> = Sim::new();
    let end = run_workload(&mut world, &mut sim, spec.duration_ms() * MILLISECOND);
    if spec.flush_after() {
        world.flush_all(&mut sim);
    }
    println!(
        "replayed {} recorded ops cyclically across {} clients \
         (replay results are not persisted: the CSV is an external input)",
        ops.len(),
        spec.clients
    );
    let m = &world.core.metrics;
    println!(
        "ops={} iops={:.0} mean_latency_us={:.1}",
        m.ops_completed,
        m.iops(end),
        m.mean_latency() / 1000.0
    );
    let d = world.device_stats();
    println!(
        "device: rw_ops={} overwrites={} erases={} wa={:.2}",
        d.total_ops(),
        d.overwrite_ops,
        d.erase_ops,
        d.write_amplification()
    );
}

/// Prints the standard single-run summary block.
fn print_result(spec: &ScenarioSpec, result: &RunResult) {
    println!(
        "[{}] {} on {} RS({},{}) clients={} window={}ms",
        spec.name,
        result.scheme,
        result.trace,
        result.k,
        result.m,
        result.clients,
        spec.duration_ms()
    );
    println!(
        "iops={:.0} mean_latency_us={:.1} cache_hits={}",
        result.iops, result.mean_latency_us, result.cache_hits
    );
    println!(
        "latency us: p50={:.1} p90={:.1} p99={:.1} p999={:.1} max={:.1}",
        result.latency.p50_us,
        result.latency.p90_us,
        result.latency.p99_us,
        result.latency.p999_us,
        result.latency.max_us
    );
    println!(
        "device: rw_ops={} ({:.2} GiB) overwrites={} ({:.2} GiB) erases={} wa={:.2} seq={:.0}%",
        result.dev.rw_ops,
        result.dev.rw_gib,
        result.dev.overwrite_ops,
        result.dev.overwrite_gib,
        result.dev.erases,
        result.dev.wa,
        result.dev.seq_fraction * 100.0
    );
    println!(
        "network: payload={:.3} GiB wire={:.3} GiB (intra-rack {:.3} / cross-rack {:.3}) | \
         peak scheme memory={:.1} MiB | flush={:.2}s",
        result.net_payload_gib,
        result.net_wire_gib,
        result.net_intra_gib,
        result.net_cross_gib,
        result.mem_peak as f64 / (1 << 20) as f64,
        result.flush_s
    );
    if result.degraded_reads + result.degraded_writes + result.failed_reads > 0 {
        println!(
            "degraded: reads={} writes={} | failed reads (data loss)={}",
            result.degraded_reads, result.degraded_writes, result.failed_reads
        );
    }
    if result.journaled_writes + result.resync_bytes + result.rehomed_residual > 0 {
        println!(
            "durability: journaled {} extents ({:.2} MB), replayed {:.2} MB | \
             re-sync {:.2} MB, reclaimed {} rehomes ({} residual)",
            result.journaled_writes,
            result.journaled_bytes as f64 / 1e6,
            result.replayed_bytes as f64 / 1e6,
            result.resync_bytes as f64 / 1e6,
            result.reclaimed_blocks,
            result.rehomed_residual
        );
    }
    if result.blocks_scrubbed
        + result.corruptions_detected
        + result.torn_detected
        + result.replica_replayed_bytes
        > 0
    {
        println!(
            "integrity: scrubbed {} blocks | corruptions detected={} repaired={} \
             unrecoverable={} | torn appends detected={} replayed={} discarded={} | \
             replica replay {:.2} MB",
            result.blocks_scrubbed,
            result.corruptions_detected,
            result.corruptions_repaired,
            result.corruptions_unrecoverable,
            result.torn_detected,
            result.torn_replayed,
            result.torn_discarded,
            result.replica_replayed_bytes as f64 / 1e6
        );
    }
    if let Some(rec) = &result.recovery {
        for p in &rec.phases {
            println!(
                "recovery @{}ms kill {:?}: backlog {} | drain {:.0}ms + rebuild {:.0}ms | \
                 {}/{} blocks rebuilt ({} unrecoverable) | {:.1} MB/s | \
                 phase traffic intra {:.1} MB / cross {:.1} MB",
                p.at_ms,
                p.killed,
                p.backlog_at_failure,
                p.drain_ms,
                p.rebuild_ms,
                p.blocks_rebuilt,
                p.blocks_lost,
                p.blocks_unrecoverable,
                p.recovery_mb_s,
                p.intra_rack_mb,
                p.cross_rack_mb
            );
            let after = p
                .lat_after
                .as_ref()
                .map(|l| format!("{:.1}", l.p99_us))
                .unwrap_or_else(|| "-".into());
            println!(
                "  client p99 us: before={:.1} during={:.1} after={after}",
                p.lat_before.p99_us, p.lat_during.p99_us
            );
        }
        for r in &rec.resyncs {
            println!(
                "re-sync @{}ms heal {}: drain {:.0}ms + re-sync {:.0}ms | \
                 replayed {} blocks ({:.2} MB) | copied back {} ({:.2} MB) | \
                 reclaimed {} rehomes ({} residual) | parity repaired {}",
                r.at_ms,
                r.node,
                r.drain_ms,
                r.resync_ms,
                r.blocks_replayed,
                r.replayed_bytes as f64 / 1e6,
                r.blocks_copied_back,
                r.bytes_copied_back as f64 / 1e6,
                r.blocks_reclaimed,
                r.rehomed_residual,
                r.parity_repaired
            );
        }
        println!(
            "rebuild traffic: intra-rack {:.1} MB, cross-rack {:.1} MB",
            rec.rebuild_intra_bytes as f64 / 1e6,
            rec.rebuild_cross_bytes as f64 / 1e6
        );
    }
}

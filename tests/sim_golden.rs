//! Golden pins of the sim-domain series, end to end through the CLI.
//!
//! Four runs of the CI chaos workload, each with one commission fault:
//!
//! * `parallel`: `--threads 2 --replication optimistic` (the metrics
//!   smoke);
//! * `sequential`: the same flags on the sequential pipeline;
//! * `hybrid`: `--verify-mode hybrid --sample-rate 1.0`, which escalates
//!   from the probe onto the replication ladder;
//! * `daemon`: a `cbftd --flight-dir` drain whose faulty job's bundle
//!   carries a non-empty per-job snapshot.
//!
//! For each, the sim-only Prometheus text and the health report must
//! match the files under `tests/golden/` byte for byte. The sim slice is
//! a function of the simulation alone, so the pins hold at every
//! `--threads` and `CBFT_COMPUTE_THREADS`. A change that moves a sim
//! series on purpose re-records the pins with
//! `CBFT_BLESS=1 cargo test --test sim_golden golden_` and states why.
//!
//! One mechanism: the sim series a run's hub holds are the fold of the
//! canonical events in its `--trace` file ([`Snapshot::from_events`]),
//! however the events of different pid tracks interleave.

use std::path::{Path, PathBuf};

use clusterbft_repro::cli::{parse_args, run};
use clusterbft_repro::metrics::{json_snapshot, Snapshot};
use clusterbft_repro::server_cli::{parse_daemon_args, run_daemon};
use clusterbft_repro::trace::{ArgValue, FromEvents, Phase, TraceEvent};
use serde::Content;

const SCRIPT: &str = "a = LOAD 'edges' as (u, f);
g = GROUP a BY u;
c = FOREACH g GENERATE group, COUNT(a) AS n;
STORE c INTO 'counts';
";

/// The CI smoke's script and its 200-row input, written into a fresh
/// directory.
fn setup(name: &str) -> (PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("cbft_golden_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("s.pig");
    std::fs::write(&script, SCRIPT).unwrap();
    let edges = dir.join("edges.csv");
    let rows: String = (0..200).map(|i| format!("{},{i}\n", i % 8)).collect();
    std::fs::write(&edges, rows).unwrap();
    let script = script.display().to_string();
    let input = format!("edges={}", edges.display());
    (dir, script, input)
}

/// The sim-domain blocks of a Prometheus dump: each `# TYPE` line with
/// its `domain="sim"` samples, blocks holding none dropped.
fn sim_slice(prom: &str) -> String {
    let mut out = String::new();
    let mut header: Option<&str> = None;
    for line in prom.lines() {
        if line.starts_with("# TYPE ") {
            header = Some(line);
        } else if line.contains("domain=\"sim\"") {
            if let Some(h) = header.take() {
                out.push_str(h);
                out.push('\n');
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The health report at the tail of a `cbft` report.
fn health_tail(report: &str) -> String {
    let at = report
        .find("=== ClusterBFT health report ===")
        .unwrap_or_else(|| panic!("no health report in:\n{report}"));
    report[at..].to_owned()
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` with the pinned file, or rewrites the pin under
/// `CBFT_BLESS=1`.
fn check(name: &str, actual: &str) {
    let path = golden(name);
    if std::env::var_os("CBFT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden '{}': {e}", path.display()));
    assert!(
        pinned == actual,
        "{} differs from the run:\n--- pinned\n{pinned}\n--- run\n{actual}",
        path.display()
    );
}

/// Runs `cbft` with `flags` plus `--metrics` and `--health-report`, and
/// checks its sim slice and health report against the `name` pins.
fn pin_cli(name: &str, flags: &[&str]) {
    let (dir, script, input) = setup(name);
    let prom = dir.join("run.prom");
    let mut args = vec![script, "--input".into(), input];
    args.extend(flags.iter().map(|f| f.to_string()));
    args.extend([
        "--seed".into(),
        "1".into(),
        "--metrics".into(),
        prom.display().to_string(),
        "--health-report".into(),
    ]);
    let report = run(&parse_args(args).unwrap()).unwrap();
    assert!(report.contains("VERIFIED"), "{report}");
    let prom = std::fs::read_to_string(&prom).unwrap();
    let sim = sim_slice(&prom);
    assert!(!sim.is_empty(), "{prom}");
    check(&format!("{name}.prom"), &sim);
    check(&format!("{name}.health.txt"), &health_tail(&report));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_parallel_chaos_run() {
    pin_cli(
        "parallel",
        &[
            "--threads",
            "2",
            "--replication",
            "optimistic",
            "--fault",
            "0:commission",
        ],
    );
}

#[test]
fn golden_sequential_chaos_run() {
    pin_cli(
        "sequential",
        &["--replication", "optimistic", "--fault", "0:commission"],
    );
}

#[test]
fn golden_hybrid_escalating_run() {
    pin_cli(
        "hybrid",
        &[
            "--threads",
            "2",
            "--verify-mode",
            "hybrid",
            "--sample-rate",
            "1.0",
            "--fault",
            "0:commission",
        ],
    );
}

#[test]
fn golden_daemon_job_bundle() {
    let (dir, script, input) = setup("daemon");
    let jobs = dir.join("jobs.txt");
    std::fs::write(
        &jobs,
        format!("acme 1 {script} {input}\nevil 9 {script} {input} fault:0:commission\n"),
    )
    .unwrap();
    let flights = dir.join("flights");
    let args = [
        jobs.display().to_string(),
        "--slots".into(),
        "2".into(),
        "--flight-dir".into(),
        flights.display().to_string(),
    ];
    let out = run_daemon(&parse_daemon_args(args).unwrap()).unwrap();
    assert_eq!(out.matches(" VERIFIED ").count(), 2, "{out}");
    let bundles: Vec<PathBuf> = std::fs::read_dir(&flights)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    let sim = bundles[0].join("sim");
    let prom = std::fs::read_to_string(sim.join("metrics.prom")).unwrap();
    assert!(!prom.is_empty(), "the job's snapshot is non-empty");
    assert_eq!(sim_slice(&prom), prom, "a bundle holds sim series only");
    check("daemon.prom", &prom);
    check(
        "daemon.health.txt",
        &std::fs::read_to_string(sim.join("health.txt")).unwrap(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The events of a `--trace` file, back as [`TraceEvent`]s: numbers as
/// unsigned args, strings as text, the export's own keys (`seq`,
/// `wall_ns`, `canonical`) restored to their fields.
fn parse_trace(json: &str) -> Vec<TraceEvent> {
    let leak = |c: &Content| -> &'static str {
        match c {
            Content::Str(s) => Box::leak(s.clone().into_boxed_str()),
            other => panic!("expected a string, got {other:?}"),
        }
    };
    let num = |c: &Content| match c {
        Content::U64(v) => *v,
        Content::I64(v) => *v as u64,
        other => panic!("expected a number, got {other:?}"),
    };
    let doc: Content = serde_json::from_str(json).unwrap();
    let Some(Content::Seq(items)) = doc.map_get("traceEvents") else {
        panic!("no traceEvents array");
    };
    items
        .iter()
        .map(|item| {
            let phase = match leak(item.map_get("ph").unwrap()) {
                "B" => Phase::Begin,
                "E" => Phase::End,
                "i" => Phase::Instant,
                _ => Phase::Counter,
            };
            let mut e = TraceEvent::new(
                leak(item.map_get("name").unwrap()),
                leak(item.map_get("cat").unwrap()),
                phase,
            )
            .on(
                num(item.map_get("pid").unwrap()) as u32,
                num(item.map_get("tid").unwrap()) as u32,
            )
            .at_sim(num(item.map_get("ts").unwrap()));
            let Some(Content::Map(args)) = item.map_get("args") else {
                panic!("no args object");
            };
            for (k, v) in args {
                let key = leak(k);
                match (key, v) {
                    ("seq", v) => e.seq = num(v),
                    ("wall_ns", _) => {}
                    ("canonical", v) => e.canonical = *v == Content::Bool(true),
                    (key, Content::Str(s)) => e.args.push((key, ArgValue::Str(s.clone()))),
                    (key, Content::F64(f)) => e.args.push((key, ArgValue::Float(*f))),
                    (key, v) => e.args.push((key, ArgValue::Uint(num(v)))),
                }
            }
            e
        })
        .collect()
}

/// The metrics of a `--metrics-json` document in one domain.
fn json_domain(json: &str, domain: &str) -> String {
    let doc: Content = serde_json::from_str(json).unwrap();
    let Some(Content::Seq(samples)) = doc.map_get("metrics") else {
        panic!("no metrics array");
    };
    let kept: Vec<Content> = samples
        .iter()
        .filter(|s| s.map_get("domain") == Some(&Content::Str(domain.to_owned())))
        .cloned()
        .collect();
    serde_json::to_string(&Content::Seq(kept)).unwrap()
}

#[test]
fn fold_of_the_trace_equals_the_live_hub() {
    for (name, flags) in [
        (
            "fold_parallel",
            &["--threads", "2", "--replication", "optimistic"][..],
        ),
        ("fold_sequential", &["--replication", "optimistic"][..]),
        (
            "fold_hybrid",
            &[
                "--threads",
                "2",
                "--verify-mode",
                "hybrid",
                "--sample-rate",
                "1.0",
            ][..],
        ),
    ] {
        let (dir, script, input) = setup(name);
        let (trace, metrics) = (dir.join("t.json"), dir.join("m.json"));
        let mut args = vec![script, "--input".into(), input];
        args.extend(flags.iter().map(|f| f.to_string()));
        args.extend(["--fault", "0:commission", "--seed", "1", "--trace"].map(String::from));
        args.push(trace.display().to_string());
        args.push("--metrics-json".into());
        args.push(metrics.display().to_string());
        run(&parse_args(args).unwrap()).unwrap();
        let events = parse_trace(&std::fs::read_to_string(&trace).unwrap());
        let live = json_domain(&std::fs::read_to_string(&metrics).unwrap(), "sim");
        let folded = Snapshot::from_events(&events);
        assert!(!folded.samples.is_empty(), "{name}");
        assert_eq!(json_domain(&json_snapshot(&folded), "sim"), live, "{name}");

        // Any interleaving of the pid tracks folds alike: each track
        // keeps its own order, the tracks are visited in reverse.
        let mut pids: Vec<u32> = events.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        let permuted: Vec<TraceEvent> = pids
            .iter()
            .rev()
            .flat_map(|&pid| events.iter().filter(move |e| e.pid == pid).cloned())
            .collect();
        assert_eq!(Snapshot::from_events(&permuted), folded, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

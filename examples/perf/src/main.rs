//! `perf` — the end-to-end and per-layer benchmark of the ClusterBFT
//! reproduction. See `README.md` next to this package's manifest.

mod child;
mod compare;
mod e2e;
mod hostref;
mod layers;
mod metrics;
mod procfs;
mod record;
mod report;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use child::Binaries;
use record::{Host, Record, ResultLine};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "\
perf — end-to-end and per-layer benchmark of cbft / cbftd

USAGE:
    perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [OPTIONS]
        one run of one workload; the last line of stdout is the result:
        --trace 0  end-to-end metrics, black box through the cbft/cbftd
                   binaries, tracing off                        [default]
        --trace 1  per-layer metrics from an in-process traced replay
    perf all [--seed N] [--seconds S] [OPTIONS]
        every workload, --trace 0 then --trace 1
    perf compare A.jsonl B.jsonl
        two --out files, metric by metric, against the bounds; exits 1 when
        a median is worse than its bound, an operation failed or a
        deterministic count moved
    perf benchmark-json
        prints BENCHMARK.json as generated from the metric tables

OPTIONS:
    --seed N             drives the generators and cbft --seed   [default: 1]
    --seconds S          how long the timed repetitions run      [default: 15]
    --scale X            multiplies input sizes and job counts; --scale 0.02
                         --seconds 1 is the smoke mode           [default: 1]
    --out FILE           append the full record (host facts, command line,
                         n, metrics) to FILE as one JSON line
    --corrupt-reference  self-test: poison the reference outputs; every
                         repetition must then be counted as failed

WORKLOADS:";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out: Option<String>,
    corrupt_reference: bool,
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        out: None,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = number(arg, value()?)?,
            "--seconds" => opts.seconds = number(arg, value()?)?,
            "--scale" => opts.scale = number(arg, value()?)?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            "--out" => opts.out = Some(value()?.clone()),
            "--corrupt-reference" => opts.corrupt_reference = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    if !(opts.scale > 0.0 && opts.scale.is_finite()) {
        return Err("--scale must be positive".to_owned());
    }
    Ok(opts)
}

/// Set-up is run at least this many times, and again until
/// [`SETUP_BUDGET_S`] is spent (at most [`MAX_SETUPS`] times); `setup_s`
/// is the fastest.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 2.0;

/// One run of one workload: set-up, then the end-to-end or the traced
/// measurement. Prints every metric by name and returns the record.
fn run_one(w: &Workload, opts: &Options, bins: &Binaries, host: &Host) -> Result<Record, String> {
    let dir: PathBuf = bins.work_root.join(format!(
        "{}-seed{}-trace{}-pid{}",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let setups_started = Instant::now();
    let mut prepared = loop {
        let start = Instant::now();
        let prepared = workloads::setup(w, opts.seed, opts.scale, &dir, bins)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let spent = setups_started.elapsed().as_secs_f64();
        if setup_s.len() >= MAX_SETUPS || (setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            break prepared;
        }
    };
    if opts.corrupt_reference {
        workloads::corrupt_reference(&mut prepared);
    }

    let measured = if opts.trace {
        let run = layers::run(w, &prepared, bins, &dir, opts.seconds)?;
        let trace_file = bins.work_root.join(format!("trace-{}.json", w.name));
        std::fs::write(&trace_file, run.spans.to_json())
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        eprintln!("{} spans -> {}", run.spans.len(), trace_file.display());
        run.measured
    } else {
        let setup_s = stats::fastest(&setup_s);
        e2e::run(w, &prepared, bins, &dir, opts.seconds, setup_s)?
    };
    std::fs::remove_dir_all(&dir).ok();

    let record = Record {
        workload: w.name.to_owned(),
        seed: opts.seed,
        seconds: opts.seconds,
        scale: opts.scale,
        trace: opts.trace,
        n: measured.n,
        command: prepared.command.clone(),
        correct: measured.failed == 0,
        attempted: measured.attempted,
        failed: measured.failed,
        first_failure: measured.first_failure.unwrap_or_default(),
        host_ref_s: measured.host_ref_s,
        metrics: measured.metrics,
        host: host.clone(),
    };
    println!(
        "# {} seed={} scale={} trace={} n={} input_records={} jobs={} attempted={} failed={}",
        w.name,
        opts.seed,
        opts.scale,
        u8::from(opts.trace),
        record.n,
        prepared.input_records,
        prepared.jobs.len(),
        record.attempted,
        record.failed
    );
    println!(
        "# host reference: fastest pass {:.4} s, nominal {:.4} s{}",
        record.host_ref_s,
        hostref::NOMINAL_S,
        if opts.trace {
            "; per-layer figures are as measured".to_owned()
        } else {
            format!(
                "; times are the measured ones x {:.4}",
                hostref::scale(record.host_ref_s)
            )
        }
    );
    println!("# command: {}", record.command.join(" "));
    if !record.first_failure.is_empty() {
        println!("# first failure: {}", record.first_failure);
    }
    for (name, m) in &record.metrics {
        println!("{name:<42} {:>16.6} {}", m.value, m.unit);
    }
    if let Some(path) = &opts.out {
        record.append_to(path)?;
    }
    Ok(record)
}

fn result_line(record: &Record) -> String {
    serde_json::to_string(&ResultLine {
        correct: record.correct,
        attempted: record.attempted.max(1),
        failed: record.failed,
        metrics: record.metrics.clone(),
    })
    .expect("the result line serializes")
}

fn describe_host(host: &Host) {
    println!(
        "# host: nproc={} cpu=\"{}\" sha256_hw={} {} commit={}",
        host.nproc, host.cpu_model, host.sha256_hardware_accelerated, host.rustc, host.git_commit
    );
    if !host.note.is_empty() {
        println!("# NOTE: {}", host.note);
    }
}

fn main_inner(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            for w in &WORKLOADS {
                println!("    {:<24} {}", w.name, w.why);
            }
            Ok(if args.is_empty() { 2 } else { 0 })
        }
        Some(hostref::SUBCOMMAND) => {
            hostref::run_kernel();
            Ok(0)
        }
        Some("benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(0)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare wants two record files".to_owned());
            };
            let (text, bad) = compare::compare(&Record::read_all(a)?, &Record::read_all(b)?);
            print!("{text}");
            Ok(i32::from(bad))
        }
        Some("all") => {
            if parse_options(&args[1..])?.workload.is_some() {
                return Err("'all' takes no --workload".to_owned());
            }
            // One process per run, as the driver makes them: process-wide
            // state (the data-plane counters' high-water marks, the heap)
            // then never carries from one workload into the next.
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut incorrect = 0;
            for w in &WORKLOADS {
                for trace in ["0", "1"] {
                    let run = std::process::Command::new(&exe)
                        .args(&args[1..])
                        .args(["--workload", w.name, "--trace", trace])
                        .stderr(std::process::Stdio::inherit())
                        .output()
                        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                    let stdout = String::from_utf8_lossy(&run.stdout);
                    print!("{stdout}");
                    let correct = stdout
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"correct\":true"));
                    incorrect += i32::from(!run.status.success() || !correct);
                }
            }
            Ok(i32::from(incorrect > 0))
        }
        Some(_) => {
            let opts = parse_options(args)?;
            let name = opts
                .workload
                .as_deref()
                .ok_or("missing --workload (see --help)")?;
            let w = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let bins = child::build_binaries()?;
            let host = Host::detect(sut::hardware_accelerated());
            describe_host(&host);
            let record = run_one(w, &opts, &bins, &host)?;
            println!("{}", result_line(&record));
            Ok(0)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(1);
        }
    }
}

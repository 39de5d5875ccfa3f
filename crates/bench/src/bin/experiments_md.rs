//! Regenerates `EXPERIMENTS.md` from the JSON records under
//! `bench_results/`, pairing every table/figure with a shape analysis.
//!
//! Run the `fig*`/`table*`/`ablation*` binaries first, then:
//!
//! ```sh
//! cargo run -p cbft-bench --release --bin experiments_md
//! ```

use std::fmt::Write as _;

use cbft_bench::{results_dir, ExperimentRecord};

/// Per-experiment commentary: the reproduction verdict shown above the
/// measured rows. Kept here (not hand-edited in EXPERIMENTS.md) so the
/// document can always be regenerated.
fn commentary(id: &str) -> &'static str {
    match id {
        "fig9" => {
            "Shape check: digest computation costs single-digit percents per \
                   verification point and grows with the point count; replicated (BFT) \
                   execution tracks single execution plus a small constant. Our worst-case \
                   overheads land within a few points of the paper's 9/14/19% for 1/2/3 \
                   points. The 8% 'minimal overhead' corresponds to our single-execution \
                   range."
        }
        "fig10" => {
            "Shape check: the paper reports only bars, so the comparison is \
                    qualitative — digesting bigger streams (Join/Project outputs) costs \
                    more than small ones (Filter), combinations stack roughly additively, \
                    and replicated execution stays within tens of percent of single \
                    execution rather than multiples. All hold."
        }
        "table3" => {
            "Shape check (the paper's core claim): C (ClusterBFT, intermediate \
                     verification points, early cancel, suspect-exclusion retry) beats or \
                     matches P (final-output-only) on every resource at every replication \
                     degree, with the gap largest at r=2 and r=3-case-2 — exactly the \
                     paper's pattern (C 3.5x vs P 4.1x cpu at r=2; C 4.5x vs P 6.2x at \
                     r=3 case 2). Absolute multipliers differ by tens of percent because \
                     our always-faulty node poisons a placement-dependent subset of jobs."
        }
        "fig11" => {
            "Shape check: jobs-to-isolation falls monotonically with commission \
                    probability; f=2 needs several times more jobs than f=1; both paper \
                    calibration points hold for f=1 (< 20 jobs at p ≥ 0.6, ~10 at high p). \
                    One f=2/p=1.0 seed exhibits the algorithm's pathological corner: when \
                    both faulty nodes keep landing in overlapping clusters, no second \
                    disjoint set forms for a long time — an effect the paper's averages \
                    hide."
        }
        "fig12" => {
            "Shape check: nothing is suspected until the first commission fault \
                    surfaces; the suspected population stops growing once |D| = f; the \
                    planted faulty node is the only resident of the High band shortly \
                    after (paper: by t=50, ours by t≈25)."
        }
        "fig13" => {
            "Shape check: before |D| = f, two large faulty clusters mass-suspect \
                    tens of nodes; within a few more completed jobs the analyzer prunes \
                    the list back to the true faults. Our peak is ~30-40 suspects versus \
                    the paper's ~80 (their allocator spread large jobs across more \
                    nodes), but the spike-then-prune dynamic is identical."
        }
        "fig14" => {
            "Shape check: ClusterBFT's latency stays within ~16-33% of \
                    full replication as digest granularity d tightens from 10k to 100 \
                    records (paper: 10-18%), and Individual digesting costs more than \
                    ClusterBFT at every (f, d). The control-tier consensus round is \
                    measured from the real cbft-bft group."
        }
        "ablation_nxm" => {
            "Reproduces the §3.2/Fig. 1 argument quantitatively: clustered \
                           replication eliminates all data-path consensus instances and \
                           cuts synchronization messages by an order of magnitude for \
                           even a two-job chain."
        }
        "ablation_marker" => {
            "Design-choice check for the Fig. 3 marker: with the same \
                              verification-point budget, marker placement trusts more of \
                              the verified frontier and re-executes ~6% less work than \
                              final-output-only, while naive near-source placement pays \
                              the digest cost without any trust payoff (worse than \
                              final-only). The gap is bounded by how many jobs the \
                              always-present faulty node manages to poison."
        }
        "ablation_combiner" => {
            "Substrate optimization check: map-side combining of \
                                algebraic aggregates cuts shuffle and network volume \
                                ~3x on the replicated follower analysis while the \
                                verified outputs and the digests at the fused \
                                projection stay bit-identical (see \
                                cbft_dataflow::combiner)."
        }
        "ablation_overlap" => {
            "Design-choice check for the §4.2 scheduler: the \
                               intersection-maximising placement isolates the faulty \
                               node in ~5.3 scripts versus ~7.7 under FIFO — overlapping \
                               job clusters give the Fig. 7 analyzer more informative \
                               intersections per unit of work, exactly the paper's \
                               argument for the strategy."
        }
        "parallel_speedup" => {
            "Substrate check: replica clusters execute on real OS threads; \
                              the span bound (critical-path work over the slowest \
                              replica) is what the architecture guarantees, while the \
                              measured wall-clock speedup only approaches it when the \
                              host grants at least one core per pool thread (see the \
                              cpu_bound flag and the host-cores row)."
        }
        "task_parallelism" => {
            "Substrate optimization check: task payloads (UDF evaluation, \
                               digesting, shuffle gather, reduce-side sorts) run on a \
                               work-stealing compute pool shared across replica workers \
                               while the discrete-event sim keeps sole authority over \
                               scheduling, fault draws and clocks — outcomes are asserted \
                               bit-identical across pool sizes. The payload-parallelism \
                               row is the hardware-independent concurrency the engine \
                               exposes; the measured wall-clock speedup only follows it \
                               when the host grants one core per pool thread (see the \
                               cpu_bound flag and the host-cores row)."
        }
        "data_plane" => {
            "Substrate optimization check: the zero-copy record path \
                        (Arc-shared input files, borrowed task slices, framed \
                        allocation-free digesting) and the columnar batch pass \
                        (splits converted to Batches, per-chunk digest runs) \
                        digest the same records at least 2x faster than the \
                        copying baseline while producing byte-identical chunk \
                        summaries, and the data-plane counters prove the replica \
                        read path clones zero records. The rows-materialized \
                        counter covers what the clone counter cannot see: rows \
                        built out of batches. With map→reduce partitions held as \
                        batches and GROUP output nested in a Bag column, a \
                        GROUP → aggregate job builds exactly its output rows \
                        (asserted: rows materialized per input record ≤ output \
                        rows per input record); the row plane builds no batch \
                        and so materializes none. The group kernel row times the \
                        reduce-side sort with canonical bags alone on Zipf-keyed \
                        follower edges. The aggregate group rows time what a \
                        reduce task runs when only COUNT/SUM/MIN/MAX/AVG read \
                        the bags and no verification point digests them, over a \
                        partition of 40 runs: the fused kernel (the runs read \
                        in place, one hash probe per row of an integer key, one \
                        accumulator per group and aggregate, no bag) builds \
                        the batch the pipeline it replaced built (the runs \
                        joined, grouped by key alone into a bag column, the \
                        bags projected) and is asserted no slower on any shape \
                        (best of three each, a tenth of slack for timing \
                        noise); a string key takes the kernel's exact path, a \
                        sort of the joined key column alone."
        }
        "mismatch_localization" => {
            "Verification-cost check (§6.4's granularity/recomputation \
                        trade): when two replicas' summaries diverge, the Merkle \
                        tree over the sealed chunk digests localizes the mismatch \
                        by root-to-leaf descent — exact single-chunk narrowing is \
                        asserted at every size, and the comparison count grows \
                        sub-linearly in the chunk count while the flat-vector \
                        linear scan grows linearly (both exponents fitted and \
                        asserted by the binary)."
        }
        "verification_lag" => {
            "Observability check (§6's completion-to-verdict gap): per-key \
                              verification lag is first-digest-report to f+1 quorum, \
                              read off the cbft-trace quorum events. With replica 0 \
                              always commission-faulty, keys wait for the escalation \
                              round's fresh replica — a nonzero tail — while the \
                              canonical trace stays bit-identical across 1 and 4 \
                              worker threads (tracing observes, never steers)."
        }
        "metrics_overhead" => {
            "Observability cost check: instrumented code holds a Metrics \
                              handle whose disabled form is a single branch per call — \
                              the synthetic engine-shaped loop (one counter add + one \
                              histogram observe per task) must stay under 2% over the \
                              uninstrumented baseline, and the binary asserts it. The \
                              enabled path prices a live registry update (shard lock + \
                              label hash); the pipeline rows show both vanish inside a \
                              real run."
        }
        "flight_overhead" => {
            "Observability cost check for the flight recorder, which \
                              cbft and cbftd attach when --flight-dir is set (its \
                              rings, bounded by capacity × live pid tracks, are the \
                              forensic context a bundle is written from; without the \
                              flag the tracer is disabled, and the \
                              cbft_flight_events_total / cbft_flight_evicted_total \
                              counters are exported only with it). A real 30k-record \
                              pipeline is priced with a fully disabled tracer vs the \
                              recorder attached, and the binary asserts that overhead \
                              stays under 2%. The server-drain rows, recorded but not \
                              asserted, price the regime one large job hides: many \
                              small jobs through a JobServer, where every job's \
                              heartbeats are recorded and every job leaves four pid \
                              tracks in the recorder until the drain ends. The micro \
                              row prices one ring push — the recorder's marginal cost \
                              per event the engine emits."
        }
        "chaos_campaign" => {
            "Campaign gate: a thousand seeded scenarios drive the real \
                            engine and every verdict is checked against the injected \
                            fault plan — zero divergences and zero false suspicions \
                            on a healthy build, with the aggregate report \
                            byte-identical across worker/compute thread matrices \
                            (both asserted by the binary). The convergence rows show \
                            how often the forensics named exactly the scheduled \
                            injected faults, by escalation depth."
        }
        "server_load" => {
            "Server gate: a thousand-plus verified jobs from three weighted \
                         tenants sustain through the bounded queue with zero silent \
                         drops — every submission is admitted or explicitly rejected \
                         (the stress rows show the queue pushing back), the latency \
                         gradient follows the 4:2:1 fair-share weights, and the \
                         seeded probe job's outcome is byte-identical whether it \
                         runs solo or among thirty co-tenants (asserted by the \
                         binary). Wall-clock rows are host-dependent."
        }
        "reexec_frontier" => {
            "Perf-frontier check: the sampled tier runs each sub-graph once \
                         and spot-checks a seeded task sample against its recorded \
                         per-chunk digests, reclaiming the 3f+1 replication tax — \
                         at fault rate 0 the deterministic replica-record cost model \
                         shows >= 2x verified throughput per core at every swept \
                         sampling rate, with verdicts and published outputs \
                         byte-identical to full replication (both asserted by the \
                         binary). Every injected commission fault is caught: the \
                         probe's corrupt digests mismatch an honest re-execution, \
                         hybrid escalates onto the ordinary replication ladder, \
                         recovers a verified output and names the faulty replica, \
                         while the pure sample tier withholds its output instead of \
                         publishing corrupt records."
        }
        _ => "",
    }
}

fn main() {
    let dir = results_dir();
    let order = [
        "fig9",
        "fig10",
        "table3",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "ablation_nxm",
        "ablation_marker",
        "ablation_overlap",
        "ablation_combiner",
        "parallel_speedup",
        "task_parallelism",
        "data_plane",
        "mismatch_localization",
        "verification_lag",
        "metrics_overhead",
        "flight_overhead",
        "chaos_campaign",
        "server_load",
        "reexec_frontier",
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run -p cbft-bench --release --bin experiments_md` from\n\
         the JSON records in `bench_results/` (each produced by its own binary; see\n\
         README). Absolute numbers are **not** expected to match the paper — the\n\
         substrate is a deterministic simulator, not Vicci/EC2 — the *shape* is: who\n\
         wins, by roughly what factor, and where crossovers fall. Workload scales and\n\
         substitutions are listed in each record's notes and in DESIGN.md §2.\n"
    );

    let mut missing = Vec::new();
    for id in order {
        let path = dir.join(format!("{id}.json"));
        let Ok(raw) = std::fs::read_to_string(&path) else {
            missing.push(id);
            continue;
        };
        let record: ExperimentRecord =
            serde_json::from_str(&raw).expect("bench_results JSON is well-formed");
        let _ = writeln!(out, "## {} — {}\n", record.id, record.title);
        if !record.notes.is_empty() {
            let _ = writeln!(out, "*Setup*: {}\n", record.notes);
        }
        if let Some(flags) = &record.flags {
            let rendered = flags
                .iter()
                .map(|(k, v)| format!("`{k}={v}`"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "*Flags*: {rendered}\n");
        }
        let comment = commentary(id);
        if !comment.is_empty() {
            let _ = writeln!(out, "**Verdict**: {}\n", squeeze(comment));
        }
        let _ = writeln!(out, "| row | paper | measured | unit |");
        let _ = writeln!(out, "|---|---:|---:|---|");
        for row in &record.rows {
            let paper = row
                .paper
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "—".to_owned());
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {} |",
                row.label, paper, row.measured, row.unit
            );
        }
        let _ = writeln!(out);
    }
    if !missing.is_empty() {
        let _ = writeln!(
            out,
            "> Missing records (run their binaries to fill in): {}\n",
            missing.join(", ")
        );
    }

    // EXPERIMENTS.md lives at the workspace root, next to bench_results/.
    let target = dir
        .parent()
        .expect("results dir has a parent")
        .join("EXPERIMENTS.md");
    std::fs::write(&target, out).expect("write EXPERIMENTS.md");
    println!("wrote {}", target.display());
}

/// Collapses the multi-line string literals' internal padding.
fn squeeze(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

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
            "Shape check: digest computation costs single-digit percents per verification point \
             and grows with the point count — 3.9 / 8.3 / 10.2% for 1 / 2 / 3 points against the \
             paper's 9 / 14 / 19%: the same ordering at about half the cost. Replicated (BFT) \
             execution matches single execution to the millisecond. The paper's 8% 'minimal \
             overhead' falls inside our single-execution range."
        }
        "fig10" => {
            "Shape check: the paper reports only bars, so the comparison is \
                    qualitative — digesting bigger streams (Join/Project outputs) costs \
                    more than small ones (Filter), combinations stack roughly additively, \
                    and replicated execution stays within tens of percent of single \
                    execution rather than multiples. All hold."
        }
        "table3" => {
            "Shape check (the paper's core claim): C (ClusterBFT, intermediate verification \
             points, early cancel, suspect-exclusion retry) uses less cpu, file read/write and \
             HDFS write than P (final-output-only) at r=2 and r=3, and matches it at r=4. The cpu \
             gap is largest at r=3 case 2 (C 3.96x vs P 5.40x; paper 4.5x vs 6.2x) and r=2 (3.00x \
             vs 4.00x; paper 3.5x vs 4.1x), the paper's pattern. Latency is the exception: at r=3 \
             C finishes after P (1.61x vs 1.36x in case 1, 3.89x vs 3.73x in case 2), where the \
             paper has C no slower. Absolute multipliers differ by tens of percent because our \
             always-faulty node poisons a placement-dependent subset of jobs."
        }
        "fig11" => {
            "Shape check: both paper calibration points hold: at p ≥ 0.6 every series isolates in \
             under 10 jobs (paper: < 20), at p = 1.0 in 3-5 (paper: ~10). f=2 needs more jobs than \
             f=1 below p = 0.7 and is within two jobs of it above. The curves fall with p except \
             r1 f=2 (114 → 36 → 257 jobs over p = 0.1-0.3, one p=0.3 seed needing 2,360). At low p \
             single seeds dominate the 10-seed averages: r2 f=2 reads 4,834 jobs at p = 0.2 and \
             21,513 at p = 0.1, where one seed never converged within 40,000 steps (counted at the \
             100,000-job sentinel) and two took 43,927 and 70,024 jobs. When both faulty nodes \
             keep landing in overlapping clusters, no second disjoint set forms for a long time — \
             an effect the paper's averages hide."
        }
        "fig12" => {
            "Shape check: |D| reaches f at t=6 (paper: ~25) and the planted faulty node is the \
             only High-band resident from t=14 (paper: by t=50); the Med band is empty from t=45. \
             The Low band, every node with nonzero suspicion, keeps filling after |D| = f (32 \
             nodes at t=15, 237 of 250 at t=150) as more nodes share a job with the faulty one."
        }
        "fig13" => {
            "Shape check: before |D| = f two large faulty clusters mass-suspect 30 nodes (t=10-44; \
             the spike-peak row counts only this part). The completion that brings |D| to f at \
             t=45 widens the list to 50, and four jobs later (t=58) the analyzer has pruned it to \
             the 2 true faults. Our 30-50 suspects fall short of the paper's ~80 (their allocator \
             spread large jobs across more nodes), but the spike-then-prune dynamic is the \
             paper's."
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
            "Design-choice check for the Fig. 3 marker: with the same verification-point budget, \
             marker placement trusts more of the verified frontier and re-executes the least work: \
             3.52x cpu, against 3.81x for naive near-source placement and 4.00x for \
             final-output-only. The gap is bounded by how many jobs the always-present faulty node \
             manages to poison."
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
            "Design-choice check for the §4.2 scheduler: the intersection-maximising placement \
             isolates the faulty node in ~3.7 scripts versus ~3.8 under FIFO, an edge in the \
             paper's direction but a small one on this 16-node, six-job workload. It leaves more \
             suspects after one script (2.8 vs 2.5), so the edge comes from the follow-up scripts."
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
                               FIFO compute pool shared across replica workers while the \
                               discrete-event sim keeps sole authority over scheduling, \
                               fault draws and clocks — outcomes and dispatch counts are \
                               asserted identical across pool sizes. The payload-parallelism \
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
            "Observability cost check: sim-domain metrics are a fold over \
                              the canonical trace events, so instrumented code pays a \
                              disabled Tracer's single branch per site — the synthetic \
                              engine-shaped loop (a heartbeat and a task-cost event per \
                              task) must stay under 2% over the uninstrumented baseline, \
                              and the binary asserts it. The enabled path prices building \
                              an event and folding it into a live registry (shard lock + \
                              label hash); the pipeline rows show the fold of every event \
                              of a real run."
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

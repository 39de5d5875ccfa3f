//! The output verifier (§4.1, "Job initiator and verifier").
//!
//! Digest reports stream in from the untrusted tier as tasks complete
//! (§3.3's *offline* comparison: the verifier works while downstream jobs
//! already run). For each correspondence key — (vertex, site, task) — the
//! verifier "compares corresponding digests from different replicas and
//! asserts that at least f + 1 are same".

use std::collections::{BTreeMap, BTreeSet};

use cbft_dataflow::compile::Site;
use cbft_dataflow::VertexId;
use cbft_digest::{ChunkedSummary, Digest, MismatchRange};
use cbft_sim::{SimDuration, SimTime};
use cbft_trace::{TraceEvent, Tracer, QUORUM_EVENT, VERIFIER_PID};
use serde::{Deserialize, Serialize};

use crate::{DigestReport, TaskKind};

/// Correspondence key: replicas' streams with equal keys must digest
/// identically.
pub type DigestKey = (VertexId, Site, TaskKind, usize);

/// A digest report as the verifier ingests it: the raw [`DigestReport`]
/// plus the globally unique replica id that produced it and a per-replica
/// sequence number.
///
/// In the parallel executor the report crosses a replica-to-verifier
/// channel. Each replica's simulation is deterministic, so `(uid, seq)`
/// pins the report to one exact position in that replica's event stream
/// no matter which worker thread ran it or how channel messages
/// interleaved. The sequential pipeline ingests in its one engine's
/// order and sorts no transcript, so its `seq` is 0.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamedReport {
    /// Globally unique replica id (unique across escalation rounds).
    pub uid: usize,
    /// Position of this report within the replica's own digest stream.
    pub seq: u64,
    /// The digest report.
    pub report: DigestReport,
}

impl StreamedReport {
    /// The canonical transcript ordering key: *(correspondence key,
    /// replica, sequence)*. Sorting any thread interleaving of streamed
    /// reports by this key produces one and the same transcript, which is
    /// what makes the parallel executor's verdict independent of
    /// scheduling.
    pub fn ordering_key(&self) -> (DigestKey, usize, u64) {
        (self.report.correspondence_key(), self.uid, self.seq)
    }
}

/// Verdict for one correspondence key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyVerdict {
    /// Not enough reports yet to reach `f + 1` agreement, but agreement is
    /// still possible.
    Pending,
    /// At least `f + 1` replicas agree.
    Verified {
        /// The agreed digest.
        digest: Digest,
        /// Replicas that reported it.
        matching: BTreeSet<usize>,
        /// Replicas that reported something else.
        deviant: BTreeSet<usize>,
    },
    /// Agreement has become impossible (too many conflicting reports).
    Mismatch,
}

impl KeyVerdict {
    /// True for [`KeyVerdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, KeyVerdict::Verified { .. })
    }
}

/// One replica's digest report as retained by the verifier: the chunked
/// summary plus the virtual time the replica produced it, so
/// time-to-quorum (verification lag, §6's completion-to-verdict gap) can
/// be computed after the fact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecordedReport {
    /// The replica's chunked digest summary.
    pub summary: ChunkedSummary,
    /// Virtual time the report was produced (the digest event's `at`).
    pub at: SimTime,
}

/// Renders a correspondence key as a compact stable label, used for
/// trace-event arguments and summary rows.
fn key_label(key: &DigestKey) -> String {
    let (vertex, site, kind, index) = key;
    format!("v{}/{:?}/{:?}/{}", vertex.0, site, kind, index)
}

/// Collects digest reports for one replica set and decides verification.
///
/// # Examples
///
/// See the integration tests; the verifier is driven by both of
/// `clusterbft`'s orchestrators from engine events.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Verifier {
    f: usize,
    expected_replicas: usize,
    table: BTreeMap<DigestKey, BTreeMap<usize, RecordedReport>>,
}

impl Verifier {
    /// Creates a verifier for `expected_replicas` replicas tolerating `f`
    /// faults.
    pub fn new(f: usize, expected_replicas: usize) -> Self {
        Verifier {
            f,
            expected_replicas,
            table: BTreeMap::new(),
        }
    }

    /// Updates the expected replica count — grows when later attempts add
    /// fresh replicas whose digests join the earlier ones.
    pub fn set_expected(&mut self, expected_replicas: usize) {
        self.expected_replicas = expected_replicas;
    }

    /// Records one digest report under its globally unique replica id
    /// and returns the key's verdict *after* insertion, so callers can
    /// react (early-cancel, escalate) while sibling replicas are still
    /// executing. Quorum matching uses the combined digest (equivalent to
    /// comparing every chunk); the full summaries are kept so divergence
    /// can be localized to a chunk (§3.3/§6.4: finer granularity `d` buys
    /// a smaller recomputation window).
    ///
    /// Ingest order does not matter: the verdict reached once all reports
    /// are in is the same for every interleaving, because the table is
    /// keyed — not ordered — storage.
    pub fn ingest(&mut self, streamed: &StreamedReport) -> KeyVerdict {
        let key = streamed.report.correspondence_key();
        self.table.entry(key).or_default().insert(
            streamed.uid,
            RecordedReport {
                summary: streamed.report.summary.clone(),
                at: streamed.report.at,
            },
        );
        self.verdict(&key)
    }

    /// [`Verifier::ingest`] plus a live trace instant on the verifier
    /// track. The instant is *non-canonical*: which ingest flips a key's
    /// verdict depends on channel arrival order, so it is excluded from
    /// determinism comparisons; the deterministic quorum timeline comes
    /// from [`Verifier::emit_forensics`] at end of run.
    pub fn ingest_traced(&mut self, streamed: &StreamedReport, tracer: &Tracer) -> KeyVerdict {
        let verdict = self.ingest(streamed);
        if tracer.enabled() {
            let state = match &verdict {
                KeyVerdict::Pending => "pending",
                KeyVerdict::Verified { .. } => "verified",
                KeyVerdict::Mismatch => "mismatch",
            };
            tracer.emit(
                TraceEvent::instant("report_ingested", "verifier")
                    .on(VERIFIER_PID, 0)
                    .at_sim(streamed.report.at.as_micros())
                    .seq(streamed.seq)
                    .arg("uid", streamed.uid)
                    .arg("key", key_label(&streamed.report.correspondence_key()))
                    .arg("verdict", state)
                    .non_canonical(),
            );
        }
        verdict
    }

    /// Emits the verifier's end-of-run events on the verifier track, in
    /// one walk of the *final* table, so each is a function of the table
    /// contents alone — identical for every thread count and channel
    /// interleaving:
    ///
    /// - a [`QUORUM_EVENT`] instant per verified key at its quorum time,
    ///   the virtual time of the `(f+1)`-th earliest matching report,
    ///   with `lag_us` measured from the key's first report of any kind;
    /// - a `divergence` instant per key where any replica pair disagrees
    ///   (a named deviant or an unresolved conflict alike), carrying the
    ///   Merkle-narrowed chunk/record window (satellite of §6.4's
    ///   granular digests) so the health report can bound the
    ///   recomputation span;
    /// - a `replica_forensics` instant per replica: keys reported, keys
    ///   where it contradicted a quorum (`mismatches`), keys where it is
    ///   party to an unresolved conflict (`conflicts`: no quorum assigns
    ///   blame, but the reporter set provably contains a faulty replica)
    ///   and keys its siblings reported but it did not (`omissions`).
    ///
    /// `ran` names every replica that ran, so a fully silent one — never
    /// in the table — is charged with missing every key (at least one).
    /// An orchestrator that starts a fresh verifier per attempt emits each
    /// one's forensics with its `attempt` index, carried as an arg on
    /// every event.
    pub fn emit_forensics(
        &self,
        tracer: &Tracer,
        ran: impl IntoIterator<Item = usize>,
        attempt: Option<usize>,
    ) {
        if !tracer.enabled() {
            return;
        }
        let emit = |event: TraceEvent| {
            tracer.emit(match attempt {
                Some(a) => event.arg("attempt", a),
                None => event,
            })
        };
        // Per replica: [reports, mismatches, conflicts, omissions].
        let mut counts: BTreeMap<usize, [u64; 4]> = self
            .seen_replicas()
            .into_iter()
            .map(|r| (r, [0; 4]))
            .collect();
        for (key, reports) in &self.table {
            if let Some(quorum_at) = self.quorum_time(key) {
                let lag = self.verification_lag(key).unwrap_or(SimDuration::ZERO);
                emit(
                    TraceEvent::instant(QUORUM_EVENT, "verifier")
                        .on(VERIFIER_PID, 0)
                        .at_sim(quorum_at.as_micros())
                        .arg("key", key_label(key))
                        .arg("lag_us", lag.as_micros()),
                );
            }
            if let Some(range) = self.divergence_range(key) {
                let last_at = reports.values().map(|rec| rec.at.as_micros()).max();
                emit(
                    TraceEvent::instant("divergence", "verifier")
                        .on(VERIFIER_PID, 0)
                        .at_sim(last_at.unwrap_or(0))
                        .arg("key", key_label(key))
                        .arg("first_chunk", range.first_chunk)
                        .arg("last_chunk", range.last_chunk)
                        .arg("first_record", range.first_record)
                        .arg("last_record", range.last_record),
                );
            }
            // A key with no quorum blames no single side, but its
            // reporters provably include a faulty replica (§4.2 fault
            // sets). End of run is closed-world, so `Pending` keys count
            // too: replicas that never reported are never going to.
            let (blamed, slot) = match self.verdict(key) {
                KeyVerdict::Verified { deviant, .. } => (deviant.into_iter().collect(), 1),
                KeyVerdict::Mismatch | KeyVerdict::Pending => (self.conflict_parties(key), 2),
            };
            for (replica, c) in counts.iter_mut() {
                c[if reports.contains_key(replica) { 0 } else { 3 }] += 1;
                if blamed.contains(replica) {
                    c[slot] += 1;
                }
            }
        }
        let keys = self.keys_seen() as u64;
        for replica in ran {
            counts.entry(replica).or_insert([0, 0, 0, keys.max(1)]);
        }
        for (replica, [reports, mismatches, conflicts, omissions]) in counts {
            emit(
                TraceEvent::instant("replica_forensics", "verifier")
                    .on(VERIFIER_PID, 0)
                    .seq(replica as u64)
                    .arg("replica", replica)
                    .arg("reports", reports)
                    .arg("mismatches", mismatches)
                    .arg("conflicts", conflicts)
                    .arg("omissions", omissions),
            );
        }
    }

    /// Number of correspondence keys seen so far.
    pub fn keys_seen(&self) -> usize {
        self.table.len()
    }

    /// The verdict for one key.
    pub fn verdict(&self, key: &DigestKey) -> KeyVerdict {
        let Some(reports) = self.table.get(key) else {
            return KeyVerdict::Pending;
        };
        let mut counts: BTreeMap<Digest, BTreeSet<usize>> = BTreeMap::new();
        for (&replica, rec) in reports {
            counts
                .entry(rec.summary.combined())
                .or_default()
                .insert(replica);
        }
        if let Some((digest, matching)) = counts
            .iter()
            .find(|(_, replicas)| replicas.len() > self.f)
            .map(|(d, r)| (*d, r.clone()))
        {
            let deviant = reports
                .iter()
                .filter(|(_, rec)| rec.summary.combined() != digest)
                .map(|(r, _)| *r)
                .collect();
            return KeyVerdict::Verified {
                digest,
                matching,
                deviant,
            };
        }
        let best = counts.values().map(BTreeSet::len).max().unwrap_or(0);
        let missing = self.expected_replicas.saturating_sub(reports.len());
        if best + missing > self.f {
            KeyVerdict::Pending
        } else {
            KeyVerdict::Mismatch
        }
    }

    /// Every verified key some replica contradicts, with the replicas that
    /// contradict its quorum, in key order. The one walk behind
    /// [`Verifier::deviant_replicas`], the sequential pipeline's fault
    /// attribution and its early cancellation.
    pub fn deviants(&self) -> impl Iterator<Item = (&DigestKey, BTreeSet<usize>)> + '_ {
        self.table.keys().filter_map(|key| match self.verdict(key) {
            KeyVerdict::Verified { deviant, .. } if !deviant.is_empty() => Some((key, deviant)),
            _ => None,
        })
    }

    /// Replicas that contradict an established quorum at any key — the
    /// commission-faulty replicas.
    pub fn deviant_replicas(&self) -> BTreeSet<usize> {
        self.deviants().flat_map(|(_, deviant)| deviant).collect()
    }

    /// The parties to an unresolved digest conflict at `key`, under a
    /// closed-world (end-of-run) reading: at least two distinct digests
    /// were reported and none reached an `f + 1` quorum. Empty when the
    /// key is verified or has at most one digest value (a lone stream
    /// cannot implicate anyone).
    fn conflict_parties(&self, key: &DigestKey) -> Vec<usize> {
        let Some(reports) = self.table.get(key) else {
            return Vec::new();
        };
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for rec in reports.values() {
            *counts.entry(rec.summary.combined()).or_default() += 1;
        }
        if counts.len() < 2 || counts.values().any(|&n| n > self.f) {
            return Vec::new();
        }
        reports.keys().copied().collect()
    }

    /// Replicas party to an unresolved digest conflict: reporters at a
    /// key where distinct digests disagree and no quorum ever formed
    /// (closed-world — a still-`Pending` key at end of run counts). No
    /// member can be individually blamed, but each such key's reporter
    /// set contains at least one faulty replica — the §4.2 fault sets
    /// the analyzer intersects. Campaign oracles use this with
    /// [`Verifier::deviant_replicas`] to check that every manifest
    /// injected fault is named by the forensics.
    pub fn conflict_replicas(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for key in self.table.keys() {
            out.extend(self.conflict_parties(key));
        }
        out
    }

    /// Every replica id that has reported at least one digest. This is
    /// the candidate set for cleanliness: the parallel executor ingests
    /// under globally unique uids (renumbered across escalation rounds),
    /// so replica ids are *not* `0..expected_replicas`.
    pub fn seen_replicas(&self) -> BTreeSet<usize> {
        self.table
            .values()
            .flat_map(|reports| reports.keys().copied())
            .collect()
    }

    /// Replicas that agree with the quorum at every key they reported
    /// (candidates for publishing / trusting intermediates).
    ///
    /// Derived from the replicas actually present in the table — never
    /// from the nominal `0..expected_replicas` range, which would invent
    /// "clean" ids that no report ever carried — and always disjoint from
    /// [`Verifier::deviant_replicas`].
    pub fn clean_replicas(&self) -> BTreeSet<usize> {
        let deviants = self.deviant_replicas();
        self.seen_replicas()
            .into_iter()
            .filter(|r| !deviants.contains(r))
            .collect()
    }

    /// Virtual time at which `key` reached its `f + 1` matching quorum:
    /// the `(f+1)`-th earliest `at` among the reports matching the
    /// verified digest. `None` while the key is unverified.
    pub fn quorum_time(&self, key: &DigestKey) -> Option<SimTime> {
        let KeyVerdict::Verified { matching, .. } = self.verdict(key) else {
            return None;
        };
        let reports = self.table.get(key)?;
        let mut times: Vec<SimTime> = matching
            .iter()
            .filter_map(|r| reports.get(r).map(|rec| rec.at))
            .collect();
        times.sort();
        times.get(self.f).copied()
    }

    /// Virtual time of the first report (matching or not) for `key`.
    pub fn first_report_time(&self, key: &DigestKey) -> Option<SimTime> {
        self.table.get(key)?.values().map(|rec| rec.at).min()
    }

    /// Verification lag for `key`: virtual time from its first report to
    /// its quorum. `None` while the key is unverified.
    pub fn verification_lag(&self, key: &DigestKey) -> Option<SimDuration> {
        let quorum = self.quorum_time(key)?;
        let first = self.first_report_time(key)?;
        Some(quorum.since(first))
    }

    /// The publication rule, stated once for both orchestrators: the
    /// replica whose copy of an output may be trusted. `sites` are the
    /// digest sites covering the output stream and `completed` the
    /// replicas holding a copy, in ascending uid order. A copy is
    /// published only if every recorded key at those sites is verified
    /// and its replica agrees with the quorum at all of them; the lowest
    /// such uid wins, so the choice is deterministic. `None` while no key
    /// was recorded, a key is unverified, or every holder deviates.
    pub fn winner(
        &self,
        sites: &[Site],
        completed: impl IntoIterator<Item = usize>,
    ) -> Option<usize> {
        let mut quorums = Vec::new();
        for key in self.table.keys().filter(|k| sites.contains(&k.1)) {
            let KeyVerdict::Verified { matching, .. } = self.verdict(key) else {
                return None;
            };
            quorums.push(matching);
        }
        if quorums.is_empty() {
            return None;
        }
        let agrees = |uid: &usize| quorums.iter().all(|matching| matching.contains(uid));
        completed.into_iter().find(agrees)
    }

    /// Keys currently in mismatch.
    pub fn mismatched_keys(&self) -> Vec<DigestKey> {
        self.table
            .keys()
            .filter(|k| matches!(self.verdict(k), KeyVerdict::Mismatch))
            .copied()
            .collect()
    }

    /// The chunk/record window implicated at `key`, localized by Merkle
    /// descent ([`ChunkedSummary::localize`], O(log n) digest comparisons
    /// per replica pair instead of a linear chunk scan). The union over
    /// every disagreeing pair: streams provably agree outside it, so the
    /// §6.4 recomputation window shrinks to `first_record..=last_record`.
    /// `None` when no pair disagrees (or only one report exists).
    pub fn divergence_range(&self, key: &DigestKey) -> Option<MismatchRange> {
        let reports = self.table.get(key)?;
        let summaries: Vec<&ChunkedSummary> = reports.values().map(|rec| &rec.summary).collect();
        let mut merged: Option<MismatchRange> = None;
        for i in 0..summaries.len() {
            for j in (i + 1)..summaries.len() {
                let Some(range) = summaries[i].localize(summaries[j]) else {
                    continue;
                };
                merged = Some(match merged {
                    None => range,
                    Some(m) => MismatchRange {
                        first_chunk: m.first_chunk.min(range.first_chunk),
                        last_chunk: m.last_chunk.max(range.last_chunk),
                        first_record: m.first_record.min(range.first_record),
                        last_record: m.last_record.max(range.last_record),
                        chunks: m.chunks.max(range.chunks),
                        records: m.records.max(range.records),
                    },
                });
            }
        }
        merged
    }
}

/// Ingests `report` under its own replica index, as the sequential
/// pipeline does.
#[cfg(test)]
fn feed(v: &mut Verifier, report: DigestReport) -> KeyVerdict {
    let uid = report.replica;
    v.ingest(&StreamedReport {
        uid,
        seq: 0,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbft_dataflow::compile::JobId;
    use cbft_digest::ChunkedDigest;

    fn report_at(replica: usize, payload: &[u8], at_us: u64) -> DigestReport {
        let mut cd = ChunkedDigest::whole_stream();
        cd.append(payload);
        DigestReport {
            sid: "s".into(),
            replica,
            vertex: VertexId(3),
            site: Site::Shuffle { job: JobId(0) },
            kind: TaskKind::Reduce,
            task_index: 0,
            summary: cd.finish(),
            at: SimTime::from_micros(at_us),
        }
    }

    fn report(replica: usize, payload: &[u8]) -> DigestReport {
        report_at(replica, payload, 0)
    }

    fn key() -> DigestKey {
        (
            VertexId(3),
            Site::Shuffle { job: JobId(0) },
            TaskKind::Reduce,
            0,
        )
    }

    #[test]
    fn quorum_verifies() {
        let mut v = Verifier::new(1, 4);
        feed(&mut v, report(0, b"good"));
        assert_eq!(v.verdict(&key()), KeyVerdict::Pending);
        feed(&mut v, report(1, b"good"));
        match v.verdict(&key()) {
            KeyVerdict::Verified {
                matching, deviant, ..
            } => {
                assert_eq!(matching, BTreeSet::from([0, 1]));
                assert!(deviant.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deviant_detected_alongside_quorum() {
        let mut v = Verifier::new(1, 3);
        feed(&mut v, report(0, b"good"));
        feed(&mut v, report(1, b"bad"));
        feed(&mut v, report(2, b"good"));
        match v.verdict(&key()) {
            KeyVerdict::Verified { deviant, .. } => {
                assert_eq!(deviant, BTreeSet::from([1]))
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(v.deviant_replicas(), BTreeSet::from([1]));
        assert_eq!(v.clean_replicas(), BTreeSet::from([0, 2]));
    }

    #[test]
    fn mismatch_when_agreement_impossible() {
        let mut v = Verifier::new(1, 2);
        feed(&mut v, report(0, b"a"));
        assert_eq!(
            v.verdict(&key()),
            KeyVerdict::Pending,
            "replica 1 could still agree"
        );
        feed(&mut v, report(1, b"b"));
        assert_eq!(
            v.verdict(&key()),
            KeyVerdict::Mismatch,
            "1-vs-1 with f=1 can never quorum"
        );
        assert_eq!(v.mismatched_keys().len(), 1);
    }

    #[test]
    fn pending_while_reports_outstanding() {
        let mut v = Verifier::new(1, 4);
        feed(&mut v, report(0, b"a"));
        feed(&mut v, report(1, b"b"));
        // 2 missing replicas could still join either side.
        assert_eq!(v.verdict(&key()), KeyVerdict::Pending);
    }

    /// The winner rule as both orchestrators used to spell it out.
    fn winner_by_hand(v: &Verifier, sites: &[Site], completed: &[usize]) -> Option<usize> {
        let keys: Vec<DigestKey> = v
            .table
            .keys()
            .filter(|k| sites.contains(&k.1))
            .copied()
            .collect();
        if keys.is_empty() || !keys.iter().all(|k| v.verdict(k).is_verified()) {
            return None;
        }
        let agrees_at = |uid: usize, k: &DigestKey| match v.verdict(k) {
            KeyVerdict::Verified { matching, .. } => matching.contains(&uid),
            _ => false,
        };
        let agrees = |uid: &&usize| keys.iter().all(|k| agrees_at(**uid, k));
        completed.iter().find(agrees).copied()
    }

    #[test]
    fn winner_is_the_lowest_completed_replica_agreeing_at_every_output_key() {
        let output = [Site::Shuffle { job: JobId(0) }];
        let task = |replica: usize, payload: &[u8], task_index: usize| DigestReport {
            task_index,
            ..report(replica, payload)
        };
        let check = |v: &Verifier, completed: &[usize], expected: Option<usize>, why: &str| {
            assert_eq!(
                v.winner(&output, completed.iter().copied()),
                expected,
                "{why}"
            );
            assert_eq!(winner_by_hand(v, &output, completed), expected, "{why}");
        };

        let mut v = Verifier::new(1, 4);
        check(&v, &[0, 1], None, "no key recorded");
        feed(
            &mut v,
            DigestReport {
                site: Site::Shuffle { job: JobId(9) },
                ..report(0, b"x")
            },
        );
        check(&v, &[0, 1], None, "no key at the output's sites");

        // Task 0: replica 0 deviates from the quorum of 1, 2 and 3.
        feed(&mut v, task(0, b"bad", 0));
        for replica in 1..4 {
            feed(&mut v, task(replica, b"good", 0));
        }
        check(
            &v,
            &[0, 1, 2, 3],
            Some(1),
            "a completed but deviant uid is skipped",
        );
        check(
            &v,
            &[0, 3],
            Some(3),
            "an agreeing uid that holds no copy is skipped",
        );
        check(&v, &[0], None, "every holder deviates");

        // Task 1 of the same output: one report, no quorum yet.
        feed(&mut v, task(2, b"good", 1));
        check(&v, &[0, 1, 2, 3], None, "an output key is unverified");
        feed(&mut v, task(3, b"good", 1));
        check(
            &v,
            &[0, 1, 2, 3],
            Some(2),
            "replica 1 never reported task 1",
        );
    }

    #[test]
    fn unknown_key_is_pending() {
        let v = Verifier::new(1, 4);
        assert_eq!(v.verdict(&key()), KeyVerdict::Pending);
        assert_eq!(v.keys_seen(), 0);
    }

    #[test]
    fn ingest_returns_the_live_verdict() {
        let mut v = Verifier::new(1, 3);
        assert_eq!(feed(&mut v, report(0, b"good")), KeyVerdict::Pending);
        let verdict = feed(&mut v, report(1, b"good"));
        assert!(verdict.is_verified(), "{verdict:?}");
    }

    #[test]
    fn ingest_uses_the_streamed_uid() {
        // The channel wrapper's uid wins even if the inner report disagrees
        // (fresh escalation rounds re-number replicas globally).
        let mut v = Verifier::new(1, 3);
        v.ingest(&StreamedReport {
            uid: 7,
            seq: 0,
            report: report(0, b"x"),
        });
        v.ingest(&StreamedReport {
            uid: 8,
            seq: 0,
            report: report(0, b"x"),
        });
        match v.verdict(&key()) {
            KeyVerdict::Verified { matching, .. } => {
                assert_eq!(matching, BTreeSet::from([7, 8]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_replicas_only_contains_replicas_that_reported() {
        // Regression: the parallel executor ingests under globally
        // unique uids (renumbered across escalation rounds, e.g. 3..6 in
        // round two); the old implementation enumerated
        // 0..expected_replicas and reported never-seen ids as "clean".
        let mut v = Verifier::new(1, 3);
        for uid in [3usize, 4, 5] {
            v.ingest(&StreamedReport {
                uid,
                seq: 0,
                report: report(0, if uid == 5 { b"bad" } else { b"good" }),
            });
        }
        assert_eq!(v.seen_replicas(), BTreeSet::from([3, 4, 5]));
        assert_eq!(v.deviant_replicas(), BTreeSet::from([5]));
        assert_eq!(
            v.clean_replicas(),
            BTreeSet::from([3, 4]),
            "clean is seen-minus-deviant, not a 0..n enumeration"
        );
        assert!(v.clean_replicas().is_disjoint(&v.deviant_replicas()));
    }

    #[test]
    fn clean_replicas_empty_before_any_report() {
        let v = Verifier::new(1, 4);
        assert!(
            v.clean_replicas().is_empty(),
            "no report, no cleanliness claim"
        );
    }

    #[test]
    fn quorum_time_is_the_f_plus_first_matching_report() {
        let mut v = Verifier::new(1, 3);
        feed(&mut v, report_at(0, b"good", 50));
        feed(&mut v, report_at(1, b"bad", 10)); // deviant arrives first
        feed(&mut v, report_at(2, b"good", 30));
        let k = key();
        // Matching replicas report at 30us and 50us; the quorum needs
        // f + 1 = 2 of them, so it completes at 50us. Lag is measured
        // from the key's very first report (the deviant at 10us).
        assert_eq!(v.quorum_time(&k), Some(SimTime::from_micros(50)));
        assert_eq!(v.first_report_time(&k), Some(SimTime::from_micros(10)));
        assert_eq!(v.verification_lag(&k), Some(SimDuration::from_micros(40)));
    }

    #[test]
    fn quorum_time_none_while_unverified() {
        let mut v = Verifier::new(1, 3);
        feed(&mut v, report_at(0, b"x", 5));
        assert_eq!(v.quorum_time(&key()), None);
        assert_eq!(v.verification_lag(&key()), None);
    }

    #[test]
    fn quorum_events_are_deterministic_across_ingest_orders() {
        use cbft_trace::{canonicalize, TraceSummary, Tracer};

        let sr = |uid: usize, payload: &[u8], at_us: u64| StreamedReport {
            uid,
            seq: 0,
            report: report_at(0, payload, at_us),
        };
        let reports = [sr(0, b"good", 50), sr(1, b"bad", 10), sr(2, b"good", 30)];

        let mut canon = Vec::new();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut v = Verifier::new(1, 3);
            let (tracer, sink) = Tracer::memory();
            for i in order {
                v.ingest_traced(&reports[i], &tracer);
            }
            v.emit_forensics(&tracer, [], None);
            canon.push(canonicalize(&sink.take()));
        }
        assert_eq!(canon[0], canon[1]);
        assert_eq!(canon[1], canon[2]);
        // Live ingest instants are non-canonical; of the ingest and
        // quorum events only the quorum instant survives into the
        // canonical trace (beside the end-of-run forensics).
        let quorum: Vec<_> = canon[0]
            .iter()
            .filter(|e| e.name != "divergence" && e.name != "replica_forensics")
            .collect();
        assert_eq!(quorum.len(), 1);
        assert_eq!(quorum[0].name, "quorum");
        assert_eq!(quorum[0].sim_us, 50);

        // And the summary extracts the per-key lag from it.
        let mut v = Verifier::new(1, 3);
        let (tracer, sink) = Tracer::memory();
        for r in &reports {
            v.ingest_traced(r, &tracer);
        }
        v.emit_forensics(&tracer, [], None);
        let summary = TraceSummary::from_events(&sink.take());
        assert_eq!(summary.key_lags.len(), 1);
        assert_eq!(summary.key_lags[0].lag_us, 40);
        assert_eq!(summary.key_lags[0].quorum_sim_us, 50);
    }

    #[test]
    fn ordering_key_is_interleaving_independent() {
        let mk = |uid: usize, seq: u64, payload: &[u8]| StreamedReport {
            uid,
            seq,
            report: report(uid, payload),
        };
        let mut a = vec![
            mk(1, 1, b"x"),
            mk(0, 0, b"x"),
            mk(0, 1, b"y"),
            mk(1, 0, b"z"),
        ];
        let mut b = vec![
            mk(0, 1, b"y"),
            mk(1, 0, b"z"),
            mk(1, 1, b"x"),
            mk(0, 0, b"x"),
        ];
        a.sort_by_key(StreamedReport::ordering_key);
        b.sort_by_key(StreamedReport::ordering_key);
        assert_eq!(a, b, "any arrival order sorts to one canonical transcript");
    }
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use cbft_dataflow::compile::JobId;
    use cbft_digest::ChunkedDigest;

    fn report_chunked(replica: usize, records: &[&[u8]], granularity: usize) -> DigestReport {
        let mut cd = ChunkedDigest::new(granularity);
        for r in records {
            cd.append(r);
        }
        DigestReport {
            sid: "s".into(),
            replica,
            vertex: VertexId(1),
            site: Site::Shuffle { job: JobId(0) },
            kind: TaskKind::Reduce,
            task_index: 0,
            summary: cd.finish(),
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn fine_granularity_localizes_the_corruption() {
        let good: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e", b"f"];
        let bad: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"X", b"f"];
        let key = (
            VertexId(1),
            Site::Shuffle { job: JobId(0) },
            TaskKind::Reduce,
            0,
        );

        let first_chunk = |v: &Verifier| v.divergence_range(&key).map(|r| r.first_chunk);

        // Granularity 2: record 4 corrupt → chunk 2.
        let mut v = Verifier::new(1, 2);
        feed(&mut v, report_chunked(0, &good, 2));
        feed(&mut v, report_chunked(1, &bad, 2));
        assert_eq!(first_chunk(&v), Some(2));

        // Whole-stream digests only say "somewhere" (chunk 0).
        let mut coarse = Verifier::new(1, 2);
        feed(&mut coarse, report_chunked(0, &good, usize::MAX));
        feed(&mut coarse, report_chunked(1, &bad, usize::MAX));
        assert_eq!(first_chunk(&coarse), Some(0));
    }

    /// A live hub with the metrics fold in front of its tracer.
    fn folded() -> cbft_trace::Obs {
        cbft_trace::Obs {
            metrics: cbft_metrics::Metrics::new(),
            ..cbft_trace::Obs::disabled()
        }
        .folded()
    }

    #[test]
    fn merkle_localization_narrows_the_record_window() {
        use cbft_metrics::HealthReport;

        let good: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e", b"f"];
        let bad: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"X", b"f"];
        let key = (
            VertexId(1),
            Site::Shuffle { job: JobId(0) },
            TaskKind::Reduce,
            0,
        );

        // Granularity 2: record 4 corrupt → chunk 2 → records 4..=5.
        let mut v = Verifier::new(1, 2);
        feed(&mut v, report_chunked(0, &good, 2));
        feed(&mut v, report_chunked(1, &bad, 2));
        let range = v.divergence_range(&key).expect("streams diverge");
        assert_eq!((range.first_chunk, range.last_chunk), (2, 2));
        assert_eq!((range.first_record, range.last_record), (4, 5));

        // The range flows through the forensics events and the metrics
        // fold into the health report.
        let obs = folded();
        v.emit_forensics(&obs.tracer, [], None);
        let report = HealthReport::from_snapshot(&obs.metrics.snapshot());
        let spans = report.divergence_spans();
        assert_eq!(spans.len(), 1);
        let (label, span) = spans.iter().next().unwrap();
        assert_eq!(label, &key_label(&key));
        assert_eq!((span.first_chunk, span.last_chunk), (2, 2));
        assert_eq!((span.first_record, span.last_record), (4, 5));
        assert!(report
            .render()
            .contains("mismatch localization (merkle descent):"));

        // Agreement emits no localization gauges at all.
        let mut agree = Verifier::new(1, 2);
        feed(&mut agree, report_chunked(0, &good, 2));
        feed(&mut agree, report_chunked(1, &good, 2));
        assert_eq!(agree.divergence_range(&key), None);
        let obs = folded();
        agree.emit_forensics(&obs.tracer, [], None);
        assert!(HealthReport::from_snapshot(&obs.metrics.snapshot())
            .divergence_spans()
            .is_empty());
    }

    #[test]
    fn divergence_range_unions_disagreeing_pairs() {
        let key = (
            VertexId(1),
            Site::Shuffle { job: JobId(0) },
            TaskKind::Reduce,
            0,
        );
        let base: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e", b"f"];
        let early: Vec<&[u8]> = vec![b"X", b"b", b"c", b"d", b"e", b"f"];
        let late: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e", b"Y"];
        let mut v = Verifier::new(1, 3);
        feed(&mut v, report_chunked(0, &base, 2));
        feed(&mut v, report_chunked(1, &early, 2)); // chunk 0
        feed(&mut v, report_chunked(2, &late, 2)); // chunk 2
        let range = v.divergence_range(&key).expect("streams diverge");
        assert_eq!((range.first_chunk, range.last_chunk), (0, 2));
        assert_eq!((range.first_record, range.last_record), (0, 5));
    }

    #[test]
    fn agreement_has_no_divergence() {
        let recs: Vec<&[u8]> = vec![b"a", b"b"];
        let key = (
            VertexId(1),
            Site::Shuffle { job: JobId(0) },
            TaskKind::Reduce,
            0,
        );
        let mut v = Verifier::new(1, 2);
        feed(&mut v, report_chunked(0, &recs, 1));
        feed(&mut v, report_chunked(1, &recs, 1));
        assert_eq!(v.divergence_range(&key), None);
    }
}

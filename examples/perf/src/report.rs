//! Parsers for what `cbft` and `cbftd` print. The end-to-end run sees the
//! system only through these lines.

use std::collections::BTreeMap;

/// What one `cbft` invocation printed.
#[derive(Debug, Default, PartialEq)]
pub struct CbftReport {
    /// The report opens with `VERIFIED` (not `NOT VERIFIED`/`UNVERIFIED`).
    pub verified: bool,
    /// `replicas per round: [..]` (`--threads` path) or
    /// `replicas per attempt: [..]` (sequential path).
    pub replicas: Vec<usize>,
    /// `digest reports: N`.
    pub digest_reports: u64,
    /// A hybrid run that printed `escalated to replication`.
    pub escalated: bool,
    /// The set after `deviant replicas: `, as printed (`{0}`).
    pub deviant: Option<String>,
    /// Output name → the rows printed under `== name (N records) ==`.
    pub outputs: BTreeMap<String, Vec<String>>,
    /// Some output printed fewer rows than its header announced
    /// (`--show` too small): the rows cannot be checked.
    pub truncated: bool,
}

fn bracket_list(line: &str, key: &str) -> Option<Vec<usize>> {
    let rest = &line[line.find(key)? + key.len()..];
    let inner = &rest[rest.find('[')? + 1..rest.find(']')?];
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect()
}

fn number_after<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `== name (N records) ==` → `(name, N)`.
fn output_header(line: &str) -> Option<(&str, usize)> {
    let inner = line.strip_prefix("== ")?.strip_suffix(" records) ==")?;
    let (name, count) = inner.rsplit_once(" (")?;
    Some((name, count.parse().ok()?))
}

/// Parses a `cbft` report.
pub fn parse_cbft(stdout: &str) -> CbftReport {
    let mut report = CbftReport {
        verified: stdout.starts_with("VERIFIED"),
        ..CbftReport::default()
    };
    let mut lines = stdout.lines();
    while let Some(line) = lines.next() {
        if let Some((name, count)) = output_header(line) {
            let rows: Vec<String> = lines
                .by_ref()
                .take(count)
                .take_while(|l| !l.starts_with("... ("))
                .map(str::to_owned)
                .collect();
            report.truncated |= rows.len() != count;
            report.outputs.insert(name.to_owned(), rows);
            continue;
        }
        if let Some(r) = bracket_list(line, "replicas per round: ")
            .or_else(|| bracket_list(line, "replicas per attempt: "))
        {
            report.replicas = r;
        }
        if let Some(n) = number_after(line, "digest reports: ") {
            report.digest_reports = n;
        }
        report.escalated |= line.contains("escalated to replication");
        if let Some(set) = line.strip_prefix("deviant replicas: ") {
            report.deviant = Some(set.trim().to_owned());
        }
    }
    report
}

/// One `job N tenant=T ...` result line of `cbftd`.
#[derive(Debug, PartialEq)]
pub struct DaemonJob {
    pub id: u64,
    pub tenant: String,
    pub verified: bool,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub total_ms: f64,
}

/// What one `cbftd` invocation printed.
#[derive(Debug, Default, PartialEq)]
pub struct DaemonReport {
    pub jobs: Vec<DaemonJob>,
    /// `N queue-full retries absorbed` from the summary line.
    pub queue_full_retries: u64,
    /// `N quota waits` from the summary line.
    pub quota_waits: u64,
    /// The summary line was present (the daemon drained and reported).
    pub summarized: bool,
}

fn daemon_job(line: &str) -> Option<DaemonJob> {
    let rest = line.strip_prefix("job ")?;
    let (id, rest) = rest.split_once(" tenant=")?;
    let (tenant, rest) = rest.split_once(' ')?;
    Some(DaemonJob {
        id: id.parse().ok()?,
        tenant: tenant.to_owned(),
        verified: rest.starts_with("VERIFIED"),
        queue_ms: number_after(rest, "queue_ms=")?,
        exec_ms: number_after(rest, "exec_ms=")?,
        total_ms: number_after(rest, "total_ms=")?,
    })
}

/// Parses a `cbftd` report.
pub fn parse_cbftd(stdout: &str) -> DaemonReport {
    let mut report = DaemonReport::default();
    for line in stdout.lines() {
        if let Some(job) = daemon_job(line) {
            report.jobs.push(job);
        } else if line.contains(" queue-full retries absorbed") {
            // "... 0 errored, 17 queue-full retries absorbed, 0 quota waits"
            let count_before = |marker: &str| -> Option<u64> {
                let head = &line[..line.find(marker)?];
                head.rsplit(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            };
            report.queue_full_retries = count_before(" queue-full retries").unwrap_or(0);
            report.quota_waits = count_before(" quota waits").unwrap_or(0);
            report.summarized = true;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_report_with_fault_lines_and_outputs() {
        let text = "VERIFIED   replicas per round: [1, 3]   digest reports: 42\n\
                    verify mode: hybrid   spot checks: sampled=5 rerun=5 confirmed=4 mismatched=1   escalated to replication\n\
                    deviant replicas: {0}\n\
                    \n== temp_histogram (3 records) ==\n-5,2\n10,7\n12,1\n\
                    \nanomalies detected:\n  escalation: hybrid escalated\n";
        let r = parse_cbft(text);
        assert!(r.verified);
        assert_eq!(r.replicas, vec![1, 3]);
        assert_eq!(r.digest_reports, 42);
        assert!(r.escalated);
        assert_eq!(r.deviant.as_deref(), Some("{0}"));
        assert_eq!(r.outputs["temp_histogram"], vec!["-5,2", "10,7", "12,1"]);
        assert!(!r.truncated);
    }

    #[test]
    fn sequential_report_and_multiple_outputs() {
        let text = "VERIFIED after 1 attempt(s), latency 12.5s, 2 output(s), cpu 3s\n\
                    replicas per attempt: [4]   digest reports: 96\n\
                    \n== top_inbound (2 records) ==\n3,90\n1,80\n\
                    \n== top_outbound (1 records) ==\n0,70\n";
        let r = parse_cbft(text);
        assert!(r.verified);
        assert_eq!(r.replicas, vec![4]);
        assert_eq!(r.digest_reports, 96);
        assert!(!r.escalated);
        assert_eq!(r.deviant, None);
        assert_eq!(r.outputs.len(), 2);
        assert_eq!(r.outputs["top_inbound"], vec!["3,90", "1,80"]);
        assert_eq!(r.outputs["top_outbound"], vec!["0,70"]);
    }

    #[test]
    fn unverified_and_truncated_reports_are_flagged() {
        assert!(
            !parse_cbft("NOT VERIFIED   replicas per round: [2]   digest reports: 3\n").verified
        );
        assert!(!parse_cbft("UNVERIFIED after 3 attempt(s), latency 1s\n").verified);
        assert!(!parse_cbft("").verified);
        let r = parse_cbft("VERIFIED\n\n== o (12 records) ==\n1\n2\n... (10 more)\n");
        assert!(r.truncated);
        assert_eq!(r.outputs["o"], vec!["1", "2"]);
    }

    #[test]
    fn daemon_report_lines_and_summary() {
        let text = "job 1 tenant=acme VERIFIED queue_ms=0.02 exec_ms=13.50 total_ms=13.60 timeline admit@0.10ms exec@0.12ms done@13.70ms\n\
                    job 2 tenant=beta NOT VERIFIED queue_ms=7.25 exec_ms=20.00 total_ms=27.25 timeline admit@0.20ms exec@7.45ms done@27.45ms\n\
                    job 3 tenant=solo ERROR: boom queue_ms=1.00 exec_ms=0.10 total_ms=1.10 timeline admit@0.30ms exec@1.30ms done@1.40ms\n\
                    \n3 jobs in 0.03s (100.0 jobs/s): 1 verified, 1 errored, 17 queue-full retries absorbed, 2 quota waits\n  \
                    tenant acme: 1/1 verified (mean queue 0.02 ms, mean exec 13.50 ms)\n";
        let r = parse_cbftd(text);
        assert_eq!(r.jobs.len(), 3);
        assert_eq!(
            r.jobs[0],
            DaemonJob {
                id: 1,
                tenant: "acme".to_owned(),
                verified: true,
                queue_ms: 0.02,
                exec_ms: 13.5,
                total_ms: 13.6,
            }
        );
        assert!(!r.jobs[1].verified);
        assert_eq!(r.jobs[1].queue_ms, 7.25);
        assert!(!r.jobs[2].verified);
        assert_eq!(r.queue_full_retries, 17);
        assert_eq!(r.quota_waits, 2);
        assert!(r.summarized);
        assert!(!parse_cbftd("").summarized);
    }
}

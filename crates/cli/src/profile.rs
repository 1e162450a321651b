//! Rendering of JSONL observability logs as profile summaries.
//!
//! The study subcommands accept `--profile PATH`, which attaches a
//! [`mpr_obs::JsonlRecorder`] to the run. After the run finishes this
//! module reads the log back from disk (exercising the parse round-trip)
//! and renders per-phase timings, per-cell queue/exec breakdowns, cache
//! effectiveness, and campaign throughput as [`mpr_metrics::Table`]s.

use mpr_metrics::Table;
use mpr_obs::{read_log, summarize, Aggregate, ProfileSummary};
use std::path::Path;

/// Maximum number of cells shown in the "slowest cells" table.
const MAX_CELL_ROWS: usize = 12;

/// The gauge holding the process's peak resident set size in MB
/// (MiB), recorded once when a profiled run finishes.
pub const PEAK_RSS: &str = "process.peak_rss_mb";

/// This process's peak resident set size (`VmHWM`) in MB, or `None`
/// where `/proc/self/status` cannot be read.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, KiB to MB.
fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// Reads the JSONL log at `path` and prints a profile summary.
///
/// Returns `false` (with a message on stderr) if the log cannot be read
/// or parsed; callers treat that as a soft failure so the study output
/// itself is never lost to a profiling problem.
pub fn print_profile(path: &Path) -> bool {
    let events = match read_log(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("profile: {e}");
            return false;
        }
    };
    crate::commands::emit(format_args!("{}", render(&summarize(&events))));
    true
}

/// Renders the full profile summary as a sequence of tables.
pub fn render(summary: &ProfileSummary) -> String {
    let mut out = String::new();
    out.push_str(&overview(summary).to_string());
    out.push('\n');
    if let Some(t) = phases(summary) {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    if let Some(t) = cells(summary) {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    if let Some(t) = throughput(summary) {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

fn overview(summary: &ProfileSummary) -> Table {
    let mut t = Table::new(vec!["quantity", "value"]).with_title("profile overview");
    t.row(vec!["events".into(), summary.events.to_string()]);
    t.row(vec!["span".into(), format!("{:.3} s", summary.span_s)]);
    for (label, name) in [
        ("cells requested", "plan.requests"),
        ("cells unique", "plan.unique"),
        ("cells dedup-saved", "plan.dedup_saved"),
        ("cache memory hits", "cache.mem_hit"),
        ("cache disk hits", "cache.disk_hit"),
        ("cache misses", "cache.miss"),
        ("golden computed", "golden.compute"),
        ("golden reused", "golden.reuse"),
    ] {
        t.row(vec![label.into(), summary.counter_total(name).to_string()]);
    }
    // Disk-cache traffic, timed only when the run has a cache dir.
    for (label, name) in [
        ("cache reads", "cache.read"),
        ("cache writes", "cache.write"),
    ] {
        let (count, sum) = totals(&summary.scopes_by_time(name));
        if count > 0 {
            t.row(vec![
                label.into(),
                format!("{count} in {:.3} ms", sum * 1e3),
            ]);
        }
    }
    if let Some((_, peak)) = summary.gauge_scopes(PEAK_RSS).first() {
        t.row(vec!["peak RSS".into(), format!("{:.1} MB", peak.max)]);
    }
    t
}

fn phases(summary: &ProfileSummary) -> Option<Table> {
    let scopes = summary.scopes_by_time("phase");
    if scopes.is_empty() {
        return None;
    }
    let mut t = Table::new(vec!["phase", "calls", "total", "mean"]).with_title("study phases");
    for (scope, agg) in scopes {
        t.row(vec![
            scope.to_string(),
            agg.count.to_string(),
            format!("{:.3} s", agg.sum),
            format!("{:.3} s", agg.mean()),
        ]);
    }
    Some(t)
}

fn cells(summary: &ProfileSummary) -> Option<Table> {
    let scopes = summary.scopes_by_time("cell.total");
    if scopes.is_empty() {
        return None;
    }
    let shown = scopes.len().min(MAX_CELL_ROWS);
    let mut t = Table::new(vec!["cell", "queue", "exec", "total"]).with_title(format!(
        "slowest cells ({shown} of {} executed)",
        scopes.len()
    ));
    for (scope, total) in scopes.into_iter().take(MAX_CELL_ROWS) {
        t.row(vec![
            scope.to_string(),
            format!("{:.3} s", scoped_time(summary, "cell.queue", scope)),
            format!("{:.3} s", scoped_time(summary, "cell.exec", scope)),
            format!("{:.3} s", total.sum),
        ]);
    }
    Some(t)
}

fn throughput(summary: &ProfileSummary) -> Option<Table> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, name) in [
        ("beam strikes/s", "beam.strikes_per_s"),
        ("beam worker utilization", "beam.utilization"),
        ("inject strikes/s", "inject.strikes_per_s"),
        ("inject worker utilization", "inject.utilization"),
    ] {
        let scopes = summary.gauge_scopes(name);
        if scopes.is_empty() {
            continue;
        }
        let (count, sum) = totals(&scopes);
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        rows.push(vec![label.into(), count.to_string(), format!("{mean:.3}")]);
    }
    if rows.is_empty() {
        return None;
    }
    let mut t = Table::new(vec!["gauge", "campaigns", "mean"]).with_title("campaign throughput");
    for row in rows {
        t.row(row);
    }
    Some(t)
}

/// Event count and value sum over every scope of one metric.
fn totals(scopes: &[(&str, Aggregate)]) -> (u64, f64) {
    scopes
        .iter()
        .fold((0, 0.0), |(c, s), (_, a)| (c + a.count, s + a.sum))
}

/// Total recorded seconds of timer `name` under `scope` (0 if absent).
fn scoped_time(summary: &ProfileSummary, name: &str, scope: &str) -> f64 {
    summary.time_scope(name, scope).map_or(0.0, |agg| agg.sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_obs::{summarize, Counter, Gauge, JsonlRecorder, Metric, Recorder, Timer};

    fn sample_recorder() -> JsonlRecorder {
        let rec = JsonlRecorder::new();
        Counter::new(&rec, "plan.requests", "").add(6);
        Counter::new(&rec, "plan.unique", "").add(4);
        Counter::new(&rec, "plan.dedup_saved", "").add(2);
        Counter::new(&rec, "cache.miss", "dev=a").add(1);
        let t = Timer::start(&rec, "cell.total", "dev=a");
        t.stop();
        let t = Timer::start(&rec, "cell.exec", "dev=a");
        t.stop();
        let t = Timer::start(&rec, "phase", "fig3_fpga_fit");
        t.stop();
        Gauge::new(&rec, "beam.strikes_per_s", "dev=a").set(123.4);
        Gauge::new(&rec, PEAK_RSS, "").set(37.26);
        rec.record("cache.read", "dev=a", Metric::Time(0.0015));
        rec.record("cache.read", "dev=b", Metric::Time(0.0005));
        rec.record("cache.write", "dev=a", Metric::Time(0.004));
        rec
    }

    #[test]
    fn render_includes_all_sections() {
        let rec = sample_recorder();
        let out = render(&summarize(&rec.events()));
        assert!(out.contains("profile overview"));
        assert!(out.contains("study phases"));
        assert!(out.contains("fig3_fpga_fit"));
        assert!(out.contains("slowest cells (1 of 1 executed)"));
        assert!(out.contains("campaign throughput"));
        assert!(out.contains("beam strikes/s"));
        assert!(out.contains("cells dedup-saved"));
        assert!(out.contains("peak RSS"));
        assert!(out.contains("37.3 MB"), "{out}");
        assert!(out.contains("cache reads"), "{out}");
        assert!(out.contains("2 in 2.000 ms"), "{out}");
        assert!(out.contains("1 in 4.000 ms"), "{out}");
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let status = "Name:\tmpr\nVmPeak:\t  123456 kB\nVmHWM:\t   38912 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(38.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tmpr\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t n/a kB\n"), None);
    }

    #[test]
    fn render_on_empty_log_keeps_only_overview() {
        let out = render(&summarize(&[]));
        assert!(out.contains("profile overview"));
        assert!(!out.contains("study phases"));
        assert!(!out.contains("slowest cells"));
        assert!(!out.contains("campaign throughput"));
        assert!(!out.contains("peak RSS"), "no gauge, no row");
        assert!(!out.contains("cache reads"), "no cache dir, no row");
    }

    #[test]
    fn print_profile_round_trips_a_log_on_disk() {
        let path =
            std::env::temp_dir().join(format!("mpr_cli_profile_{}.jsonl", std::process::id()));
        let rec = sample_recorder();
        std::fs::write(&path, rec.to_jsonl()).expect("write log");
        assert!(print_profile(&path));
        std::fs::remove_file(&path).ok();
        assert!(!print_profile(&path), "missing log is a soft failure");
    }
}

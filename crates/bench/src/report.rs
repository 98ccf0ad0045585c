//! Console-table and CSV reporting for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use fl_sim::history::TrainingHistory;
use mec_sim::units::Seconds;

/// Renders a simple aligned ASCII table.
///
/// # Examples
///
/// ```
/// use helcfl_bench::report::ascii_table;
///
/// let t = ascii_table(
///     &["scheme", "accuracy"],
///     &[vec!["helcfl".into(), "0.85".into()]],
/// );
/// assert!(t.contains("scheme"));
/// assert!(t.contains("helcfl"));
/// ```
pub fn ascii_table<S: AsRef<str>>(header: &[S], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (i, h) in header.iter().enumerate() {
        let _ = write!(out, "| {:width$} ", h.as_ref(), width = widths[i]);
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// Formats a `time_to_accuracy` result the way Table I prints it:
/// minutes with two decimals, or the paper's ✗ when unreachable.
pub fn table1_cell(value: Option<Seconds>) -> String {
    match value {
        Some(t) => format!("{:.2}min", t.minutes()),
        None => "✗".to_string(),
    }
}

/// Writes one history's per-round records into `dir` as `<name>.csv`
/// (spreadsheets) and `<name>.jsonl` (one machine-readable JSON object
/// per round, concatenation-friendly with the telemetry trace files).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_history(dir: &Path, name: &str, history: &TrainingHistory) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.csv")), history.to_csv())?;
    fs::write(dir.join(format!("{name}.jsonl")), history.to_jsonl())
}

/// Downsamples an accuracy curve to at most `n` points for console
/// sparklines (keeps first and last).
pub fn downsample(curve: &[(usize, f64)], n: usize) -> Vec<(usize, f64)> {
    if n == 0 || curve.len() <= n {
        return curve.to_vec();
    }
    let stride = (curve.len() - 1) as f64 / (n - 1) as f64;
    (0..n).map(|i| curve[(i as f64 * stride).round() as usize]).collect()
}

/// Renders an accuracy curve as a unicode sparkline.
pub fn sparkline(curve: &[(usize, f64)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    curve
        .iter()
        .map(|&(_, a)| {
            let idx = ((a.clamp(0.0, 1.0)) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_table_aligns_columns() {
        let t = ascii_table(
            &["a", "long-header"],
            &[
                vec!["xxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // rule, header, rule, 2 rows, rule.
        assert_eq!(lines.len(), 6);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{t}");
    }

    #[test]
    fn table1_cell_formats_minutes_and_cross() {
        assert_eq!(table1_cell(Some(Seconds::from_minutes(6.82))), "6.82min");
        assert_eq!(table1_cell(None), "✗");
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let curve: Vec<(usize, f64)> = (0..100).map(|i| (i, i as f64 / 100.0)).collect();
        let d = downsample(&curve, 5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], curve[0]);
        assert_eq!(d[4], curve[99]);
        // Short curves pass through unchanged.
        assert_eq!(downsample(&curve[..3], 5), curve[..3].to_vec());
    }

    #[test]
    fn sparkline_maps_accuracy_to_bars() {
        let s = sparkline(&[(0, 0.0), (1, 1.0)]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn write_history_creates_csv_and_jsonl() {
        let dir = std::env::temp_dir().join("helcfl_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_history(&dir, "iid_alpha", &TrainingHistory::new("alpha")).unwrap();
        assert!(dir.join("iid_alpha.csv").exists());
        assert!(dir.join("iid_alpha.jsonl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

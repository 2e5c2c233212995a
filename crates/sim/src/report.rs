//! ASCII-table and CSV output for the experiments, and the flag parser
//! of the `clash-sim` front door.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// Renders a boxed ASCII table.
///
/// # Example
///
/// ```
/// use clash_sim::report::ascii_table;
///
/// let t = ascii_table(
///     &["workload", "max load %"],
///     &[vec!["A".into(), "71.2".into()], vec!["C".into(), "88.9".into()]],
/// );
/// assert!(t.contains("workload"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let mut out = String::new();
    let render_row = |cells: &[String], out: &mut String| {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            let _ = write!(out, " {cell:>w$} |", w = w);
        }
        out.push('\n');
    };
    out.push_str(&sep);
    out.push('\n');
    render_row(
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
        &mut out,
    );
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        render_row(row, &mut out);
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Writes a CSV file (simple quoting: fields containing commas or quotes
/// are double-quoted).
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    fn field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    }
    let mut out = String::new();
    let header: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    for row in std::iter::once(&header).chain(rows) {
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, out)
}

/// Renders multiple time series as a coarse ASCII line chart (one symbol
/// per series; log-ish vertical packing is left to the caller's choice of
/// `height`).
///
/// # Example
///
/// ```
/// use clash_sim::report::ascii_chart;
///
/// let chart = ascii_chart(
///     &[("A", &[1.0, 2.0, 3.0][..]), ("B", &[3.0, 2.0, 1.0][..])],
///     8,
/// );
/// assert!(chart.contains("* = A"));
/// assert!(chart.contains("# = B"));
/// ```
pub fn ascii_chart(series: &[(&str, &[f64])], height: usize) -> String {
    let width = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if width == 0 || height == 0 {
        return String::new();
    }
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let symbols = ['*', '#', '+', 'o', 'x', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, values)) in series.iter().enumerate() {
        let sym = symbols[si % symbols.len()];
        for (x, &v) in values.iter().enumerate() {
            let level = ((v / max) * (height - 1) as f64).round() as usize;
            let y = height - 1 - level.min(height - 1);
            grid[y][x] = sym;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max:>9.0} |")
        } else if i == height - 1 {
            format!("{:>9.0} |", 0.0)
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(width)));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} = {name}", symbols[i % symbols.len()]))
        .collect();
    out.push_str(&format!("{:>11}{}\n", "", legend.join("   ")));
    out
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Writes `events` to `path` as a Chrome trace and reports where it
/// went on stderr (stdout is kept for the tables).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace(path: &str, events: &[clash_obs::TraceEvent]) -> io::Result<()> {
    clash_obs::write_chrome_trace(path, events)?;
    eprintln!("wrote {} trace events to {path}", events.len());
    Ok(())
}

/// Why an experiment command did not finish: its command line could not
/// be read (exit 2, with usage), or it ran and failed (exit 1).
#[derive(Debug, PartialEq, Eq)]
pub enum Failure {
    /// An unknown or repeated flag, a missing value, or a value that does
    /// not parse or is out of range.
    Usage(String),
    /// A scenario, I/O or invariant error.
    Run(String),
}

impl<E: std::error::Error> From<E> for Failure {
    fn from(e: E) -> Self {
        Self::Run(e.to_string())
    }
}

/// An experiment command's `--flag value` pairs, each flag one the
/// command declares. Nothing falls back to a default silently: a value
/// that does not parse is a [`Failure::Usage`].
#[derive(Debug)]
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Pairs `argv` up as `--flag value`, accepting at most once each
    /// flag the command declares in `flags`, its usage string
    /// (`[--scale F] [--seed S] …`).
    ///
    /// # Errors
    ///
    /// [`Failure::Usage`] for an unknown or repeated flag, or a flag
    /// without a value.
    pub fn parse(argv: &[String], flags: &str) -> Result<Self, Failure> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(flag) = argv.next() {
            let problem = if !flag.starts_with("--") || !flags.contains(&format!("[{flag} ")) {
                "is not a flag of this experiment"
            } else if pairs.iter().any(|(seen, _)| seen == flag) {
                "is given twice"
            } else if let Some(value) = argv.next() {
                pairs.push((flag.clone(), value.clone()));
                continue;
            } else {
                "needs a value"
            };
            return Err(Failure::Usage(format!("{flag:?} {problem}")));
        }
        Ok(Self(pairs))
    }

    /// The raw value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let pair = self.0.iter().find(|(f, _)| f == flag);
        pair.map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a number, `None` when absent; a
    /// value that does not parse is a [`Failure::Usage`].
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Failure> {
        let parse = |v: &str| v.parse().ok().ok_or_else(|| bad(flag, "a number", v));
        self.get(flag).map(parse).transpose()
    }

    /// `--scale` (default 1.0); a value that does not parse or lies
    /// outside `(0, 1]` is a [`Failure::Usage`].
    pub fn scale(&self) -> Result<f64, Failure> {
        match self.number("--scale")? {
            None => Ok(1.0),
            Some(s) if s > 0.0 && s <= 1.0 => Ok(s),
            Some(s) => Err(bad("--scale", "in (0, 1]", &s.to_string())),
        }
    }

    /// `--seed` as a root random seed (decimal or `0x`-prefixed hex).
    /// `None` means the experiment keeps its hard-coded default seed, so
    /// runs without the flag reproduce historical outputs exactly. A value
    /// that is not a `u64` is a [`Failure::Usage`].
    pub fn seed(&self) -> Result<Option<u64>, Failure> {
        let parse = |s: &str| {
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            }
            .map_err(|_| bad("--seed", "a u64 (decimal or 0x hex)", s))
        };
        self.get("--seed").map(parse).transpose()
    }

    /// `--out` (default `results`).
    pub fn out_dir(&self) -> String {
        self.get("--out").unwrap_or("results").to_owned()
    }
}

fn bad(flag: &str, expected: &str, got: &str) -> Failure {
    Failure::Usage(format!("{flag} must be {expected}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = ascii_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6);
        // All lines are equally wide.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("long-name"));
    }

    #[test]
    fn table_handles_short_rows() {
        let t = ascii_table(&["a", "b"], &[vec!["x".into()]]);
        assert!(t.contains('x'));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let dir = std::env::temp_dir().join("clash_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["k", "v"],
            &[vec!["a,b".into(), "say \"hi\"".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"a,b\""));
        assert!(content.contains("\"say \"\"hi\"\"\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn parse(argv: &[&str]) -> Result<Args, Failure> {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(&argv, "[--scale F] [--seed S] [--out DIR] [--campaigns N]")
    }

    #[test]
    fn flag_parsing() {
        let args = parse(&["--scale", "0.5", "--out", "x"]).unwrap();
        assert_eq!(args.scale(), Ok(0.5));
        assert_eq!(args.out_dir(), "x");
        let none = parse(&[]).unwrap();
        assert_eq!(none.scale(), Ok(1.0));
        assert_eq!(none.out_dir(), "results");
        assert_eq!(none.number::<u64>("--campaigns"), Ok(None));
        let eight = parse(&["--campaigns", "8"]).unwrap();
        assert_eq!(eight.number("--campaigns"), Ok(Some(8u64)));
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse(&["--seed", "42"]).unwrap().seed(), Ok(Some(42)));
        let hex = parse(&["--campaigns", "8", "--seed", "0xC1A5"]).unwrap();
        assert_eq!(hex.seed(), Ok(Some(0xC1A5)));
        assert_eq!(parse(&["--seed", "0XFF"]).unwrap().seed(), Ok(Some(255)));
        assert_eq!(parse(&[]).unwrap().seed(), Ok(None));
    }

    // A caller that unwraps a bad value panics with the usage message.
    #[test]
    #[should_panic(expected = "--seed must be a u64")]
    fn bad_seed_panics() {
        parse(&["--seed", "banana"]).unwrap().seed().unwrap();
    }

    #[test]
    #[should_panic(expected = "--scale must be in")]
    fn bad_scale_panics() {
        parse(&["--scale", "2.0"]).unwrap().scale().unwrap();
    }

    fn usage_error<T: std::fmt::Debug>(r: Result<T, Failure>, why: &str) {
        match r {
            Err(Failure::Usage(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a usage error about {why:?}, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_what_it_cannot_read() {
        for argv in [
            &["--sead", "7"][..],
            &["0.1"],
            &["--scale=0.1"],
            &["--", "F"],
        ] {
            usage_error(parse(argv), "is not a flag");
        }
        usage_error(parse(&["--seed", "1", "--seed", "2"]), "given twice");
        usage_error(parse(&["--out"]), "needs a value");
        let given = |flag: &str, v: &str| parse(&[flag, v]).unwrap();
        for v in ["abc", "0,02"] {
            usage_error(given("--scale", v).scale(), "--scale must be a number");
        }
        for v in ["2.0", "0", "-0.5", "NaN", "inf"] {
            usage_error(given("--scale", v).scale(), "--scale must be in (0, 1]");
        }
        for v in ["banana", "-1", "0xZZ", "18446744073709551616"] {
            usage_error(given("--seed", v).seed(), "--seed must be a u64");
        }
        let eight = given("--campaigns", "eight").number::<u64>("--campaigns");
        usage_error(eight, "--campaigns must be a number");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.255), "1.25"); // bankers-ish rounding is fine
    }

    #[test]
    fn chart_renders_extremes() {
        let chart = ascii_chart(&[("up", &[0.0, 50.0, 100.0][..])], 5);
        let lines: Vec<&str> = chart.lines().collect();
        // Max label on top row, zero at the bottom, legend last.
        assert!(lines[0].starts_with("      100 |"));
        assert!(
            lines[0].ends_with('*'),
            "peak in the top row: {:?}",
            lines[0]
        );
        assert!(lines[4].contains('*'), "zero in the bottom row");
        assert!(chart.contains("* = up"));
    }

    #[test]
    fn chart_handles_empty_input() {
        assert_eq!(ascii_chart(&[], 5), "");
        assert_eq!(ascii_chart(&[("x", &[][..])], 5), "");
    }
}

//! The one golden comparator.
//!
//! Every absolute virtual number the workspace pins lives in a committed
//! text file — `tests/golden/*` and the `BENCH_*.json` records at the
//! repo root — and is checked by [`Harness::check`] against a fresh
//! output. The comparison is numeric where the text allows it: each line
//! is split into its words and its numbers (decimal, or `0x` + 16 hex
//! digits read as the bits of an `f64`). A line whose words match but
//! whose numbers moved yields one table row per moved number; a line
//! whose words differ, or a changed line count, yields a line diff.
//!
//! On a mismatch the fresh text is written to
//! `target/golden/<the same repo-relative path>` and the failure prints
//! one old → new table. A deliberate re-baseline is
//!
//! ```text
//! cp -r target/golden/. .
//! ```
//!
//! from the repo root. A match deletes a stale fresh copy, so that
//! directory only ever holds the files of the last failing run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Line-diff lines shown per golden; a campaign record that grew a
/// `failures` array would otherwise print thousands.
const MAX_LINE_DIFFS: usize = 20;

/// One number that moved between a committed golden and a fresh output.
#[derive(Debug, PartialEq)]
struct Change {
    /// Repo-relative path of the golden.
    golden: String,
    /// `L<line>` plus the line's label (its first words) and, on a line
    /// with several numbers, `#<k>`, the 1-based index of this one.
    row: String,
    /// The committed value.
    old: f64,
    /// The fresh value.
    new: f64,
}

impl Change {
    /// `(new − old) / |old|`: infinite when only `old` is zero.
    fn relative(&self) -> f64 {
        if self.old == self.new {
            0.0
        } else {
            (self.new - self.old) / self.old.abs()
        }
    }
}

/// What [`compare`] found in one golden.
#[derive(Debug, Default)]
struct Comparison {
    /// Numbers in the committed text; every one of them is compared.
    values: usize,
    /// Numbers that moved, in text order.
    changes: Vec<Change>,
    /// Lines whose words differ: `-` committed, `+` fresh, after the
    /// golden's path and line number; the first [`MAX_LINE_DIFFS`], then
    /// a count of the rest.
    lines: Vec<String>,
}

impl Comparison {
    /// True when the fresh text equals the committed one.
    fn is_match(&self) -> bool {
        self.changes.is_empty() && self.lines.is_empty()
    }
}

/// A number starting at byte `i` of `b`: its end. A number is not glued
/// to a preceding word (`p3`, `het16` are words); a sign belongs to it
/// only when it is not glued either.
fn number_at(b: &[u8], i: usize) -> Option<usize> {
    let glued = |k: usize| k > 0 && (b[k - 1].is_ascii_alphanumeric() || b"_.".contains(&b[k - 1]));
    let digits = |mut k: usize, hex: bool| {
        while k < b.len() && (b[k].is_ascii_digit() || (hex && b[k].is_ascii_hexdigit())) {
            k += 1;
        }
        k
    };
    if glued(i) {
        return None;
    }
    let j = i + usize::from(b"+-".contains(&b[i]));
    if !b.get(j).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    if b[j..].starts_with(b"0x") && b.get(j + 2).is_some_and(u8::is_ascii_hexdigit) {
        return Some(digits(j + 2, true));
    }
    let mut end = digits(j, false);
    if b.get(end) == Some(&b'.') && b.get(end + 1).is_some_and(u8::is_ascii_digit) {
        end = digits(end + 1, false);
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let k = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        if b.get(k).is_some_and(u8::is_ascii_digit) {
            end = digits(k, false);
        }
    }
    Some(end)
}

/// A line's words (one more entry than numbers: the text around them)
/// and its numbers.
fn split(line: &str) -> (Vec<&str>, Vec<&str>) {
    let b = line.as_bytes();
    let (mut words, mut numbers) = (Vec::new(), Vec::new());
    let (mut i, mut word) = (0, 0);
    while i < b.len() {
        match number_at(b, i) {
            Some(end) => {
                words.push(&line[word..i]);
                numbers.push(&line[i..end]);
                (i, word) = (end, end);
            }
            None => i += 1,
        }
    }
    words.push(&line[word..]);
    (words, numbers)
}

/// A number's value; `0x` + hex digits are the bits of an `f64`.
fn value(number: &str) -> f64 {
    match number.strip_prefix("0x") {
        Some(hex) => f64::from_bits(u64::from_str_radix(hex, 16).unwrap_or(0)),
        None => number.parse().unwrap_or(f64::NAN),
    }
}

/// Compares the committed text `old` of the golden `golden` with the
/// fresh text `new`.
fn compare(golden: &str, old: &str, new: &str) -> Comparison {
    let old_lines: Vec<&str> = old.split('\n').collect();
    let new_lines: Vec<&str> = new.split('\n').collect();
    let mut out = Comparison {
        values: old_lines.iter().map(|l| split(l).1.len()).sum(),
        ..Comparison::default()
    };
    if old == new {
        return out;
    }
    let prefix = old_lines
        .iter()
        .zip(&new_lines)
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = old_lines[prefix..]
        .iter()
        .rev()
        .zip(new_lines[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let old_mid = &old_lines[prefix..old_lines.len() - suffix];
    let new_mid = &new_lines[prefix..new_lines.len() - suffix];
    let mut line_diff = |n: usize, sign: char, text: &str| {
        out.lines.push(format!("{golden}:{n}: {sign}{text}"));
    };
    if old_mid.len() != new_mid.len() {
        for (k, l) in old_mid.iter().enumerate() {
            line_diff(prefix + k + 1, '-', l);
        }
        for (k, l) in new_mid.iter().enumerate() {
            line_diff(prefix + k + 1, '+', l);
        }
        cap(golden, &mut out.lines);
        return out;
    }
    let mut changes = Vec::new();
    for (k, (a, b)) in old_mid.iter().zip(new_mid).enumerate() {
        let n = prefix + k + 1;
        let ((old_words, old_numbers), (new_words, new_numbers)) = (split(a), split(b));
        if old_words != new_words {
            line_diff(n, '-', a);
            line_diff(n, '+', b);
            continue;
        }
        let label = old_words
            .iter()
            .map(|w| w.trim_matches(|c: char| c.is_whitespace() || "\":,|".contains(c)))
            .find(|w| !w.is_empty())
            .unwrap_or("");
        for (j, (x, y)) in old_numbers.iter().zip(&new_numbers).enumerate() {
            if x == y {
                continue;
            }
            let mut row = format!("L{n}");
            if !label.is_empty() {
                row += &format!(" {label}");
            }
            if old_numbers.len() > 1 {
                row += &format!(" #{}", j + 1);
            }
            changes.push(Change {
                golden: golden.to_string(),
                row,
                old: value(x),
                new: value(y),
            });
        }
    }
    out.changes = changes;
    cap(golden, &mut out.lines);
    out
}

/// Keeps the first [`MAX_LINE_DIFFS`] of `lines` and counts the rest.
fn cap(golden: &str, lines: &mut Vec<String>) {
    if lines.len() > MAX_LINE_DIFFS {
        let more = lines.len() - MAX_LINE_DIFFS;
        lines.truncate(MAX_LINE_DIFFS);
        lines.push(format!("{golden}: … {more} more differing lines"));
    }
}

/// The old → new table of `changes`: golden, row, old, new, relative
/// change.
fn table(changes: &[Change]) -> String {
    let mut rows = vec![["golden", "row", "old", "new", "relative change"].map(String::from)];
    rows.extend(changes.iter().map(|c| {
        [
            c.golden.clone(),
            c.row.clone(),
            format!("{:?}", c.old),
            format!("{:?}", c.new),
            format!("{:+.3e}", c.relative()),
        ]
    }));
    let mut widths = [0usize; 5];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in &rows {
        // Names left-aligned, numbers right-aligned.
        let cells: Vec<String> = (row.iter().zip(widths).enumerate())
            .map(|(i, (cell, w))| match i {
                0 | 1 => format!("{cell:<w$}"),
                _ => format!("{cell:>w$}"),
            })
            .collect();
        let _ = writeln!(out, "{}", cells.join("  "));
    }
    out
}

/// Checks fresh outputs against their committed goldens under one repo
/// root, and that every committed golden is on the caller's list.
#[derive(Debug, Default)]
pub struct Harness {
    root: PathBuf,
    claimed: Vec<String>,
    goldens: usize,
    values: usize,
    changes: Vec<Change>,
    lines: Vec<String>,
}

impl Harness {
    /// A harness over the repo at `root` whose goldens are `claimed`
    /// (repo-relative paths): the full list, including goldens this run
    /// does not check.
    pub fn new(root: impl Into<PathBuf>, claimed: &[&str]) -> Harness {
        Harness {
            root: root.into(),
            claimed: claimed.iter().map(|c| c.to_string()).collect(),
            ..Harness::default()
        }
    }

    /// Compares `fresh` with the committed file `path`. A mismatch
    /// writes `fresh` to `target/golden/<path>`; a match deletes that
    /// copy if an earlier run left one.
    ///
    /// # Panics
    /// Panics when the fresh copy cannot be written.
    pub fn check(&mut self, path: &str, fresh: &str) {
        let copy = self.root.join("target/golden").join(path);
        let committed = std::fs::read_to_string(self.root.join(path));
        let cmp = compare(path, committed.as_deref().unwrap_or(""), fresh);
        self.goldens += 1;
        self.values += cmp.values;
        if committed.is_ok() && cmp.is_match() {
            let _ = std::fs::remove_file(&copy);
            return;
        }
        if committed.is_err() {
            self.lines.push(format!("{path}: no committed file"));
        }
        self.changes.extend(cmp.changes);
        self.lines.extend(cmp.lines);
        if let Some(dir) = copy.parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        }
        std::fs::write(&copy, fresh).unwrap_or_else(|e| panic!("{}: {e}", copy.display()));
    }

    /// Committed goldens no entry claims: every file under
    /// `tests/golden/` and every `BENCH_*.json` at the root.
    fn unclaimed(&self) -> Vec<String> {
        let files = |dir: &Path, prefix: &str| -> Vec<String> {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return Vec::new();
            };
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
                .map(|e| format!("{prefix}{}", e.file_name().to_string_lossy()))
                .collect()
        };
        let mut found = files(&self.root.join("tests/golden"), "tests/golden/");
        found.extend(
            files(&self.root, "")
                .into_iter()
                .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json")),
        );
        found.retain(|f| !self.claimed.contains(f));
        found.sort();
        found
    }

    /// `Ok("N goldens, M values compared")` when every checked golden
    /// matched and every committed golden is claimed; otherwise `Err`
    /// with the old → new table, the line diffs and the re-baseline
    /// command.
    pub fn finish(mut self) -> Result<String, String> {
        let summary = format!("{} goldens, {} values compared", self.goldens, self.values);
        for file in self.unclaimed() {
            self.lines
                .push(format!("{file}: no golden entry claims this file"));
        }
        if self.changes.is_empty() && self.lines.is_empty() {
            return Ok(summary);
        }
        let mut report = String::new();
        if !self.changes.is_empty() {
            report += &table(&self.changes);
        }
        for line in &self.lines {
            let _ = writeln!(report, "{line}");
        }
        let _ = write!(
            report,
            "{summary}, {} moved; fresh copies are under target/golden/, \
             `cp -r target/golden/. .` from the repo root re-baselines them",
            self.changes.len()
        );
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINS: &str =
        "seq ATDCA 0x4014e8d972cd7cf6\npar ATDCA het16 hetero total 0x3fa3e0ae94452165";
    const TABLE: &str = "\nTable 5\n----\n   Algorithm  Fully het  Fully hom\n  Hetero-ATDCA       12.3        4.5\n";

    #[test]
    fn identical_text_passes_and_counts_every_number() {
        let cmp = compare("pins", PINS, PINS);
        assert!(cmp.is_match());
        assert_eq!(cmp.values, 2);
        assert_eq!(compare("t", TABLE, TABLE).values, 3);
    }

    #[test]
    fn a_one_ulp_change_to_a_hex_pin_is_one_row() {
        let old = f64::from_bits(0x3fa3e0ae94452165);
        let new = old.next_up();
        let fresh = PINS.replace("3fa3e0ae94452165", &format!("{:016x}", new.to_bits()));
        let cmp = compare("pins", PINS, &fresh);
        assert!(cmp.lines.is_empty(), "{:?}", cmp.lines);
        assert_eq!(
            cmp.changes,
            [Change {
                golden: "pins".into(),
                row: "L2 par ATDCA het16 hetero total".into(),
                old,
                new,
            }]
        );
        let rel = cmp.changes[0].relative();
        assert_eq!(rel, (new - old) / old);
        assert!(rel > 0.0 && rel < 4.0 * f64::EPSILON, "{rel}");
        assert!(table(&cmp.changes).contains(&format!("{old:?}")));
    }

    #[test]
    fn a_last_digit_change_to_a_table_cell_is_one_row() {
        let cmp = compare("t", TABLE, &TABLE.replace("12.3", "12.4"));
        assert!(cmp.lines.is_empty(), "{:?}", cmp.lines);
        assert_eq!(cmp.changes.len(), 1);
        let c = &cmp.changes[0];
        assert_eq!(
            (c.row.as_str(), c.old, c.new),
            ("L5 Hetero-ATDCA #1", 12.3, 12.4)
        );
        assert!((c.relative() - 0.1 / 12.3).abs() < 1e-12);
    }

    #[test]
    fn a_changed_label_is_a_line_diff() {
        let cmp = compare("t", TABLE, &TABLE.replace("Hetero-ATDCA", "Hetero-UFCLS"));
        assert!(cmp.changes.is_empty());
        assert_eq!(
            cmp.lines,
            [
                "t:5: -  Hetero-ATDCA       12.3        4.5",
                "t:5: +  Hetero-UFCLS       12.3        4.5",
            ]
        );
        // A dropped line is a line diff too, never a row.
        let cmp = compare("t", TABLE, &TABLE.replace("Table 5\n", ""));
        assert!(!cmp.is_match() && cmp.changes.is_empty());
        // A long diff shows its first lines and counts the rest.
        let cmp = compare("t", "a\n", &"b\n".repeat(30));
        assert_eq!(cmp.lines.len(), MAX_LINE_DIFFS + 1);
        assert_eq!(cmp.lines[MAX_LINE_DIFFS], "t: … 11 more differing lines");
    }

    #[test]
    fn words_with_digits_are_words() {
        assert_eq!(
            split("het16 p3 x86-64 -1.5e-3 +12.3%"),
            (
                vec!["het16 p3 x86-", " ", " ", "%"],
                vec!["64", "-1.5e-3", "+12.3"],
            )
        );
        assert_eq!(value("0x3ff0000000000000"), 1.0);
    }

    #[test]
    fn a_mismatch_leaves_a_fresh_copy_and_a_match_removes_it() {
        let root = tempfile::tempdir().unwrap();
        std::fs::create_dir_all(root.path().join("tests/golden")).unwrap();
        std::fs::write(root.path().join("tests/golden/t.txt"), TABLE).unwrap();
        let copy = root.path().join("target/golden/tests/golden/t.txt");
        let mut h = Harness::new(root.path(), &["tests/golden/t.txt"]);
        h.check("tests/golden/t.txt", &TABLE.replace("4.5", "4.6"));
        let report = h.finish().unwrap_err();
        assert!(report.contains("L5 Hetero-ATDCA #2"), "{report}");
        assert!(report.ends_with("re-baselines them"), "{report}");
        assert_eq!(
            std::fs::read_to_string(&copy).unwrap(),
            TABLE.replace("4.5", "4.6")
        );
        let mut h = Harness::new(root.path(), &["tests/golden/t.txt"]);
        h.check("tests/golden/t.txt", TABLE);
        assert_eq!(h.finish().unwrap(), "1 goldens, 3 values compared");
        assert!(!copy.exists());
    }

    #[test]
    fn a_golden_no_entry_claims_fails_the_harness() {
        let root = tempfile::tempdir().unwrap();
        std::fs::create_dir_all(root.path().join("tests/golden")).unwrap();
        for f in [
            "tests/golden/t.txt",
            "tests/golden/stray.txt",
            "BENCH_x.json",
        ] {
            std::fs::write(root.path().join(f), TABLE).unwrap();
        }
        let mut h = Harness::new(root.path(), &["tests/golden/t.txt", "BENCH_x.json"]);
        h.check("tests/golden/t.txt", TABLE);
        let report = h.finish().unwrap_err();
        assert!(
            report.contains("tests/golden/stray.txt: no golden entry claims this file"),
            "{report}"
        );
        assert!(!report.contains("BENCH_x.json"), "{report}");
    }
}

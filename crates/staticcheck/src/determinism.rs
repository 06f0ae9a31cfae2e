//! Determinism lints: a self-contained source scanner that denies
//! nondeterminism sources in the semantic crates.
//!
//! Every tier of the project — enumerated model checking, seed-pinned
//! sampling, the fuzz harness, the byte-identical bench reports and this
//! crate's own output — relies on the simulator being a pure function of
//! its inputs. Four classes of construct silently break that:
//!
//! * **Wall clocks** (`SC301`): `SystemTime`, `Instant`, `UNIX_EPOCH`.
//! * **Unordered collections** (`SC302`): `HashMap`/`HashSet` iteration
//!   order varies per process (`RandomState`), so any iteration that
//!   feeds outcomes or output is a nondeterminism hazard. Lookup-only
//!   uses are fine but must be waived explicitly with a justification.
//! * **Ambient randomness** (`SC303`): `thread_rng`, `from_entropy`,
//!   `OsRng` — every random choice must flow from a pinned seed.
//! * **Shared mutable state** (`SC304`): `Mutex`, `RwLock` and every
//!   `Atomic*` type. A process-global memo or counter needs one of them,
//!   and either makes a run's cost, or its values, depend on what other
//!   runs and threads did before it; memos belong in the world's
//!   `chainsim::SimCaches`, keyed by what they memoise.
//!
//! The scanner needs no parser dependencies: a small state machine strips
//! comments, string literals and char literals (so a token *named* in a
//! doc comment or message does not fire), then matches the deny-list on
//! identifier boundaries; a token ending in `*` matches every identifier
//! it starts.
//!
//! # Waivers
//!
//! A legitimate use site is waived in the raw source, keeping the
//! justification adjacent to the occurrence:
//!
//! * `// staticcheck: allow(SC302) — <why>` on the flagged line or up to
//!   two lines above waives that occurrence;
//! * `// staticcheck: allow-file(SC301) — <why>` anywhere in the file
//!   waives the code for the whole file.
//!
//! Waived occurrences are counted and surfaced in the suite report, so a
//! waiver can never silently hide growth in nondeterminism debt.

use std::fs;
use std::path::{Path, PathBuf};

use crate::{codes, Finding};

/// The crates whose sources must be deterministic. Vendored stand-ins are
/// exempt (they are dependency shims, not semantics), and so are examples,
/// which live outside `src` and may time themselves.
pub const SEMANTIC_CRATES: &[&str] = &[
    "chainsim",
    "contracts",
    "cryptosim",
    "marketsim",
    "modelcheck",
    "protocols",
    "staticcheck",
    "swapgraph",
];

/// Each denied class: its code, what it is, and its tokens.
const DENY: &[(&str, &str, &[&str])] = &[
    (codes::WALL_CLOCK, "nondeterminism source", &["SystemTime", "Instant", "UNIX_EPOCH"]),
    (codes::UNORDERED_COLLECTION, "nondeterminism source", &["HashMap", "HashSet"]),
    (codes::AMBIENT_RNG, "nondeterminism source", &["thread_rng", "from_entropy", "OsRng"]),
    (codes::SHARED_STATE, "shared mutable state", &["Mutex", "RwLock", "Atomic*"]),
];

/// The result of a determinism scan.
#[derive(Clone, Debug, Default)]
pub struct ScanReport {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Occurrences suppressed by an explicit waiver.
    pub waivers: usize,
    /// Unwaived occurrences.
    pub findings: Vec<Finding>,
}

/// Scans every semantic crate's `src` tree under `repo_root`.
pub fn scan_semantic_crates(repo_root: &Path) -> ScanReport {
    let mut report = ScanReport::default();
    for krate in SEMANTIC_CRATES {
        let src = repo_root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files);
        files.sort();
        for file in files {
            let Ok(source) = fs::read_to_string(&file) else { continue };
            let label = file
                .strip_prefix(repo_root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            report.files_scanned += 1;
            scan_source(&label, &source, &mut report);
        }
    }
    report
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Scans one file's source, appending unwaived findings to `report`.
pub fn scan_source(label: &str, source: &str, report: &mut ScanReport) {
    let stripped = strip_non_code(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    for (idx, line) in stripped.lines().enumerate() {
        for (code, what, tokens) in DENY {
            for token in *tokens {
                let Some(found) = find_identifier(line, token) else { continue };
                if is_waived(&raw_lines, idx, code) {
                    report.waivers += 1;
                } else {
                    report.findings.push(Finding::new(
                        code,
                        format!("{label}:{}", idx + 1),
                        format!("{what} `{found}` in a semantic crate"),
                    ));
                }
            }
        }
    }
}

fn is_waived(raw_lines: &[&str], idx: usize, code: &str) -> bool {
    let file_marker = format!("staticcheck: allow-file({code})");
    if raw_lines.iter().any(|l| l.contains(&file_marker)) {
        return true;
    }
    let line_marker = format!("staticcheck: allow({code})");
    raw_lines[idx.saturating_sub(2)..=idx].iter().any(|l| l.contains(&line_marker))
}

/// The first identifier of `line` that is `token`, or, for a token ending
/// in `*`, that starts with the rest of it.
fn find_identifier<'a>(line: &'a str, token: &str) -> Option<&'a str> {
    let (stem, prefix) = match token.strip_suffix('*') {
        Some(stem) => (stem, true),
        None => (token, false),
    };
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(stem) {
        let at = start + pos;
        let mut end = at + stem.len();
        if prefix {
            while end < bytes.len() && is_ident(bytes[end]) {
                end += 1;
            }
        }
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(&line[at..end]);
        }
        start = at + 1;
    }
    None
}

/// Replaces comments, string literals and char literals with spaces,
/// preserving newlines so line numbers survive.
fn strip_non_code(source: &str) -> String {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    mode = Mode::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: count the hashes after `r`.
                    let mut hashes = 0;
                    while chars.get(i + 1 + hashes) == Some(&'#') {
                        hashes += 1;
                    }
                    if chars.get(i + 1 + hashes) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        for _ in 0..=hashes {
                            out.push(' ');
                            i += 1;
                        }
                        out.push(' ');
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Char literal or lifetime. An escaped or single-char
                    // literal closes with a quote; otherwise (a lifetime)
                    // only the tick itself is non-code.
                    out.push(' ');
                    if next == Some('\\') {
                        i += 1;
                        out.push(' ');
                        while i + 1 < chars.len() && chars[i + 1] != '\'' {
                            i += 1;
                            out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                        }
                        if i + 1 < chars.len() {
                            i += 1;
                            out.push(' ');
                        }
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    }
                }
                _ => out.push(c),
            },
            Mode::LineComment => {
                if c == '\n' {
                    mode = Mode::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Mode::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::BlockComment(depth - 1) };
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            Mode::Str => {
                if c == '\\' {
                    out.push(' ');
                    if next.is_some() {
                        out.push(if next == Some('\n') { '\n' } else { ' ' });
                        i += 1;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    out.push(' ');
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            Mode::RawStr(hashes) => {
                let closes = c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                if closes {
                    mode = Mode::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(source: &str) -> ScanReport {
        let mut report = ScanReport { files_scanned: 1, ..ScanReport::default() };
        scan_source("test.rs", source, &mut report);
        report
    }

    #[test]
    fn flags_each_denied_class() {
        let report = scan(concat!(
            "use std::time::",
            "Instant;\n",
            "use std::collections::",
            "HashMap;\n",
            "let rng = ",
            "thread_rng();\n",
        ));
        let codes_seen: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes_seen,
            vec![codes::WALL_CLOCK, codes::UNORDERED_COLLECTION, codes::AMBIENT_RNG]
        );
        assert_eq!(report.findings[0].subject, "test.rs:1");
    }

    /// The codes `source` raises, in order.
    fn codes_of(source: &str) -> Vec<&'static str> {
        scan(source).findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn flags_mutexes() {
        let source = concat!("static MEMO: std::sync::", "Mutex<u64> = ", "Mutex::new(0);\n");
        assert_eq!(codes_of(source), vec![codes::SHARED_STATE]);
        assert_eq!(
            scan(source).findings[0].message,
            "shared mutable state `Mutex` in a semantic crate"
        );
        assert!(codes_of(concat!("let m = My", "Mutex::new();\n")).is_empty());
    }

    #[test]
    fn flags_rwlocks() {
        let source = concat!("use std::sync::", "RwLock;\n");
        assert_eq!(codes_of(source), vec![codes::SHARED_STATE]);
        assert!(codes_of(concat!("let l = ", "RwLockish;\n")).is_empty());
    }

    #[test]
    fn flags_every_atomic_type_by_prefix() {
        for atomic in ["AtomicU64", "AtomicUsize", "AtomicBool", "AtomicPtr"] {
            let source = format!("static NEXT: {atomic} = {atomic}::new(0);\n");
            let report = scan(&source);
            assert_eq!(report.findings.len(), 1, "{atomic}");
            assert_eq!(report.findings[0].code, codes::SHARED_STATE);
            assert!(report.findings[0].message.contains(&format!("`{atomic}`")));
        }
        // The module path and identifiers that merely contain the word do
        // not fire.
        assert!(codes_of("use std::sync::atomic::Ordering;\nlet non_atomic = 1;\n").is_empty());
        assert!(codes_of(concat!("let x = Non", "AtomicU64;\n")).is_empty());
    }

    #[test]
    fn shared_state_waivers_suppress_and_are_counted() {
        let waived = concat!(
            "// staticcheck: allow(SC304) — per-sweep work cursor\n",
            "let cursor = ",
            "AtomicUsize::new(0);\n",
        );
        let report = scan(waived);
        assert!(report.findings.is_empty());
        assert_eq!(report.waivers, 1);
        let elsewhere = concat!(
            "// staticcheck: allow(SC304) — per-sweep work cursor\n",
            "\n\n",
            "let cursor = ",
            "AtomicUsize::new(0);\n",
        );
        assert_eq!(codes_of(elsewhere), vec![codes::SHARED_STATE]);
    }

    #[test]
    fn comments_strings_and_identifier_boundaries_do_not_fire() {
        let clean = concat!(
            "// a doc mentioning ",
            "Instant and ",
            "HashMap\n",
            "/* block with ",
            "OsRng /* nested ",
            "SystemTime */ */\n",
            "let s = \"",
            "Instant inside a string\";\n",
            "let r = r#\"raw ",
            "HashMap text\"#;\n",
            "let c = '\"'; let x = ",
            "InstantLike + My",
            "HashMap;\n",
        );
        assert!(scan(clean).findings.is_empty());
    }

    #[test]
    fn waivers_suppress_and_are_counted() {
        let line_waived = concat!(
            "// staticcheck: allow(SC302) — lookup-only\n",
            "use std::collections::",
            "HashMap;\n",
        );
        let report = scan(line_waived);
        assert!(report.findings.is_empty());
        assert_eq!(report.waivers, 1);

        let file_waived = concat!(
            "// staticcheck: allow-file(SC301) — bench timing\n",
            "let t = ",
            "Instant::now();\n",
            "let u = ",
            "SystemTime::now();\n",
        );
        let report = scan(file_waived);
        assert!(report.findings.is_empty());
        assert_eq!(report.waivers, 2);

        // A waiver for one code does not suppress another.
        let wrong_code = concat!(
            "// staticcheck: allow(SC301) — mislabeled\n",
            "use std::collections::",
            "HashSet;\n",
        );
        assert_eq!(scan(wrong_code).findings.len(), 1);
    }
}

//! Source scanner: extracts atomic call sites, their `// ord(...)`
//! ordering tags, `unsafe` occurrences, and facade violations from Rust
//! sources without a real parser.
//!
//! The extraction works on a *masked* copy of each file in which
//! comments and string/char literals are replaced by spaces (newlines
//! preserved), so byte offsets and line numbers in the masked text match
//! the original. On top of the masked text a small brace-tracking pass
//! assigns each byte to its innermost enclosing `fn`, for reports.
//!
//! A site's ordering argument is a tag in the original text:
//!
//! ```text
//! // ord(<role>[, sc[=<key>]][, steps=<Step>+<Step>]): <why>
//! // <why, continued>
//! x.load(Ordering::Acquire)
//! ```
//!
//! It sits in the contiguous run of `//` lines directly above the line
//! holding the method name (for a chain continuation, between the chain
//! elements), and covers every atomic on that line. The fields are all
//! on the `ord(` line; the why may continue on the `//` lines below it.
//! Validation of the fields is [`crate::rules`]'s job.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Atomic methods the scanner recognizes, with how many `Ordering`
/// arguments each takes.
pub const ATOMIC_METHODS: &[(&str, usize)] = &[
    ("load", 1),
    ("store", 1),
    ("swap", 1),
    ("compare_exchange", 2),
    ("compare_exchange_weak", 2),
    ("fetch_add", 1),
    ("fetch_sub", 1),
    ("fetch_and", 1),
    ("fetch_or", 1),
    ("fetch_xor", 1),
    ("fetch_nand", 1),
    ("fetch_max", 1),
    ("fetch_min", 1),
    ("fetch_update", 2),
];

/// One extracted atomic operation call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Root-relative path, `/`-separated.
    pub file: String,
    /// 1-based line holding the method name.
    pub line: usize,
    /// Innermost enclosing `fn` name, or `(top)` at module scope.
    pub symbol: String,
    /// Method name (`load`, `compare_exchange`, …).
    pub op: String,
    /// Receiver expression fragment, for human-readable reports.
    pub recv: String,
    /// `Ordering::` arguments in call order; `"?"` when the ordering is
    /// a parameter or otherwise not a literal `Ordering::X` token.
    pub orderings: Vec<String>,
    /// Index into [`ScanReport::tags`] of the tag bound to this site.
    pub tag: Option<usize>,
}

/// One `// ord(...)` tag comment.
#[derive(Debug, Clone, Default)]
pub struct Tag {
    /// Root-relative path.
    pub file: String,
    /// 1-based line of the `// ord(` comment.
    pub line: usize,
    /// Innermost enclosing `fn`, or `(top)`.
    pub symbol: String,
    /// The first field.
    pub role: String,
    /// `None` without an `sc` field, `Some("")` for a bare `sc`,
    /// `Some(key)` for `sc=<key>`.
    pub sc: Option<String>,
    /// The `steps=` names, in order.
    pub steps: Vec<String>,
    /// The justification, its `//` continuation lines joined by spaces.
    pub why: String,
    /// Syntax problems: an unknown or repeated field, a missing `):`.
    pub syntax: Vec<String>,
    /// How many sites the tag binds (0 = an orphan).
    pub sites: usize,
}

/// What kind of `unsafe` occurrence was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }`.
    Block,
    /// `unsafe fn` definition.
    Fn,
    /// `unsafe impl`.
    Impl,
    /// `unsafe trait`.
    Trait,
}

impl fmt::Display for UnsafeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsafeKind::Block => write!(f, "unsafe block"),
            UnsafeKind::Fn => write!(f, "unsafe fn"),
            UnsafeKind::Impl => write!(f, "unsafe impl"),
            UnsafeKind::Trait => write!(f, "unsafe trait"),
        }
    }
}

/// One `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Root-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Innermost enclosing `fn`, or the unsafe fn's own name for
    /// [`UnsafeKind::Fn`].
    pub symbol: String,
    /// Block / fn / impl / trait.
    pub kind: UnsafeKind,
    /// Whether a `SAFETY:` comment (or `# Safety` doc section for fns)
    /// was found attached above the occurrence.
    pub documented: bool,
}

/// A direct `std::sync::atomic` / `crossbeam_utils` reference inside
/// the facade-enforced scope.
#[derive(Debug, Clone)]
pub struct FacadeViolation {
    /// Root-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending path prefix that was matched.
    pub what: String,
}

/// Everything the scanner extracted from one scope.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Atomic call sites, in deterministic (file, byte-offset) order.
    pub sites: Vec<Site>,
    /// `// ord(...)` tags, in the same order.
    pub tags: Vec<Tag>,
    /// `unsafe` occurrences.
    pub unsafes: Vec<UnsafeSite>,
    /// Facade-rule violations.
    pub facade: Vec<FacadeViolation>,
    /// Files scanned (root-relative), for coverage reporting.
    pub files: Vec<String>,
}

/// Scans every `.rs` file under `root/<dir>` for each scope dir.
///
/// Returns an error string for I/O problems (missing scope directories
/// are an error: a typo in the scope must not silently shrink the
/// audit).
pub fn scan_scope(root: &Path, scope: &[&str]) -> Result<ScanReport, String> {
    let mut files = Vec::new();
    for dir in scope {
        let abs = root.join(dir);
        if !abs.is_dir() {
            return Err(format!("scope entry `{dir}` is not a directory under {}", root.display()));
        }
        collect_rs_files(&abs, &mut files)?;
    }
    files.sort();
    let mut report = ScanReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "file escaped root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        scan_file(&rel, &text, &mut report);
        report.files.push(rel);
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one file's text into `report`.
pub fn scan_file(rel: &str, text: &str, report: &mut ScanReport) {
    let masked = mask_comments_and_strings(text);
    let symbols = SymbolMap::build(&masked);
    let lines = LineIndex::new(text);

    let first_site = report.sites.len();
    extract_atomic_sites(rel, &masked, &symbols, &lines, report);
    bind_tags(rel, text, &symbols, &lines, first_site, report);
    extract_unsafe_sites(rel, text, &masked, &symbols, &lines, report);
    extract_facade_violations(rel, &masked, &lines, report);
}

// ---------------------------------------------------------------------
// masking
// ---------------------------------------------------------------------

/// Replaces comments, string literals, and char literals with spaces,
/// preserving length and newlines.
pub fn mask_comments_and_strings(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment (also doc comments).
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment; Rust block comments nest.
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                // String literal (handles escapes).
                out[i] = b' ';
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out[i] = b' ';
                        if b[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                    } else if b[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"…" / r#"…"# (only if it really is one).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' && !is_ident_byte(b[i.wrapping_sub(1)].min(b'z')) {
                    // Find the closing `"###…`.
                    let closer: Vec<u8> =
                        std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                    let start = i;
                    let mut k = j + 1;
                    while k < b.len() && !b[k..].starts_with(&closer) {
                        k += 1;
                    }
                    let end = (k + closer.len()).min(b.len());
                    for slot in &mut out[start..end] {
                        if *slot != b'\n' {
                            *slot = b' ';
                        }
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime. A char literal closes within
                // a few bytes; a lifetime never has a closing quote.
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    // Escaped char literal: scan to closing quote.
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' && j - i < 12 {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' {
                        for slot in &mut out[i..=j] {
                            *slot = b' ';
                        }
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    out[i + 2] = b' ';
                    i += 3;
                } else {
                    // Lifetime; leave it (identifier-ish, harmless).
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII spaces over ASCII bytes")
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

// ---------------------------------------------------------------------
// line numbers
// ---------------------------------------------------------------------

struct LineIndex {
    /// Byte offset of the start of each line.
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(text: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line of `offset`.
    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

// ---------------------------------------------------------------------
// symbol map (innermost enclosing fn per byte offset)
// ---------------------------------------------------------------------

struct SymbolMap {
    /// `(start, end, name)` spans of fn bodies, innermost resolvable by
    /// taking the latest-starting span containing the offset.
    spans: Vec<(usize, usize, String)>,
}

impl SymbolMap {
    fn build(masked: &str) -> Self {
        let b = masked.as_bytes();
        let mut spans = Vec::new();
        let mut stack: Vec<(usize, usize, String)> = Vec::new(); // (depth, start, name)
        let mut depth = 0usize;
        let mut pending_fn: Option<String> = None;
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if is_ident_start(c) {
                let start = i;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                let word = &masked[start..i];
                if word == "fn" {
                    // Next identifier (if any) is the fn's name; `fn(`
                    // is a fn-pointer type and has none.
                    let mut j = i;
                    while j < b.len() && (b[j] as char).is_whitespace() {
                        j += 1;
                    }
                    if j < b.len() && is_ident_start(b[j]) {
                        let ns = j;
                        while j < b.len() && is_ident_byte(b[j]) {
                            j += 1;
                        }
                        pending_fn = Some(masked[ns..j].to_string());
                        i = j;
                    }
                }
                continue;
            }
            match c {
                b'{' => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        stack.push((depth, i, name));
                    }
                }
                b'}' => {
                    if let Some(&(d, start, _)) = stack.last() {
                        if d == depth {
                            let (_, _, name) = stack.pop().expect("non-empty");
                            spans.push((start, i, name));
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                b';' => {
                    // Bodyless fn signature (trait method declaration).
                    pending_fn = None;
                }
                _ => {}
            }
            i += 1;
        }
        // Unclosed spans (truncated file): close at EOF.
        for (_, start, name) in stack {
            spans.push((start, masked.len(), name));
        }
        spans.sort_by_key(|&(s, _, _)| s);
        SymbolMap { spans }
    }

    fn symbol_at(&self, offset: usize) -> String {
        self.spans
            .iter()
            .rfind(|&&(s, e, _)| s <= offset && offset < e)
            .map(|(_, _, n)| n.clone())
            .unwrap_or_else(|| "(top)".to_string())
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

// ---------------------------------------------------------------------
// atomic sites
// ---------------------------------------------------------------------

fn extract_atomic_sites(
    rel: &str,
    masked: &str,
    symbols: &SymbolMap,
    lines: &LineIndex,
    report: &mut ScanReport,
) {
    let b = masked.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'.' {
            i += 1;
            continue;
        }
        // Method name after the dot.
        let ns = i + 1;
        let mut j = ns;
        while j < b.len() && is_ident_byte(b[j]) {
            j += 1;
        }
        let name = &masked[ns..j];
        let Some(&(op, _n_orderings)) = ATOMIC_METHODS.iter().find(|(m, _)| *m == name) else {
            i = j.max(i + 1);
            continue;
        };
        // Must be a call: `(` immediately after (whitespace allowed).
        let mut k = j;
        while k < b.len() && (b[k] as char).is_whitespace() {
            k += 1;
        }
        if k >= b.len() || b[k] != b'(' {
            i = j;
            continue;
        }
        // Balance parens to find the argument span.
        let args_start = k + 1;
        let mut pdepth = 1usize;
        let mut m = args_start;
        while m < b.len() && pdepth > 0 {
            match b[m] {
                b'(' => pdepth += 1,
                b')' => pdepth -= 1,
                _ => {}
            }
            m += 1;
        }
        let args = &masked[args_start..m.saturating_sub(1)];
        let orderings = extract_orderings(args);
        let recv = receiver_fragment(masked, i);
        report.sites.push(Site {
            file: rel.to_string(),
            line: lines.line_of(i),
            symbol: symbols.symbol_at(i),
            op: op.to_string(),
            recv,
            orderings,
            tag: None,
        });
        i = j;
    }
}

/// All `Ordering::X` tokens in an argument list, in order; `["?"]` when
/// none are literal (ordering passed as a parameter).
fn extract_orderings(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let b = args.as_bytes();
    let needle = b"Ordering::";
    let mut i = 0;
    while i + needle.len() <= b.len() {
        if &b[i..i + needle.len()] == needle
            && (i == 0 || !is_ident_byte(b[i - 1]))
        {
            let ns = i + needle.len();
            let mut j = ns;
            while j < b.len() && is_ident_byte(b[j]) {
                j += 1;
            }
            out.push(args[ns..j].to_string());
            i = j;
        } else {
            i += 1;
        }
    }
    if out.is_empty() {
        out.push("?".to_string());
    }
    out
}

/// A short receiver fragment ending at the dot at `dot`, for reports.
fn receiver_fragment(masked: &str, dot: usize) -> String {
    let b = masked.as_bytes();
    let mut s = dot;
    let mut depth = 0usize;
    while s > 0 {
        let c = b[s - 1];
        match c {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            c if is_ident_byte(c) || c == b'.' || c == b':' || c == b'*' || c == b'&' => {}
            _ if depth > 0 => {}
            _ => break,
        }
        s -= 1;
    }
    masked[s..dot].trim().chars().take(48).collect()
}

// ---------------------------------------------------------------------
// ordering tags
// ---------------------------------------------------------------------

const TAG_OPEN: &str = "// ord(";

/// A plain `//` comment line, not a `///` or `//!` doc comment.
fn is_plain_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") && !t.starts_with("///") && !t.starts_with("//!")
}

/// Parses every tag in `text`, then binds each of this file's sites
/// (`report.sites[first_site..]`) to the nearest tag in the `//` run
/// directly above its line.
fn bind_tags(
    rel: &str,
    text: &str,
    symbols: &SymbolMap,
    lines: &LineIndex,
    first_site: usize,
    report: &mut ScanReport,
) {
    let src: Vec<&str> = text.lines().collect();
    let mut tag_at = HashMap::new(); // 0-based line -> index into report.tags
    for (i, line) in src.iter().enumerate() {
        let Some(header) = line.trim_start().strip_prefix(TAG_OPEN) else {
            continue;
        };
        let continuation = src[i + 1..]
            .iter()
            .take_while(|l| is_plain_comment(l) && !l.trim_start().starts_with(TAG_OPEN))
            .map(|l| l.trim_start()[2..].trim());
        let tag = Tag {
            file: rel.to_string(),
            line: i + 1,
            symbol: symbols.symbol_at(lines.starts[i]),
            ..parse_tag(header, continuation)
        };
        tag_at.insert(i, report.tags.len());
        report.tags.push(tag);
    }
    for site in &mut report.sites[first_site..] {
        let bound = (0..site.line - 1)
            .rev()
            .take_while(|&k| is_plain_comment(src[k]))
            .find_map(|k| tag_at.get(&k).copied());
        if let Some(t) = bound {
            site.tag = Some(t);
            report.tags[t].sites += 1;
        }
    }
}

/// Parses the text after `// ord(` and the why's continuation lines.
fn parse_tag<'a>(header: &'a str, continuation: impl Iterator<Item = &'a str>) -> Tag {
    let mut tag = Tag::default();
    let (fields, why) = header.split_once("):").unwrap_or_else(|| {
        tag.syntax.push("the fields must close with `):` on the `ord(` line".into());
        (header, "")
    });
    let mut fields = fields.split(',').map(str::trim);
    tag.role = fields.next().unwrap_or_default().to_string();
    for field in fields {
        let (name, value) = match field.split_once('=') {
            Some((n, v)) => (n.trim(), Some(v.trim())),
            None => (field, None),
        };
        match (name, value) {
            ("sc", None) if tag.sc.is_none() => tag.sc = Some(String::new()),
            ("sc", Some(key)) if tag.sc.is_none() && !key.is_empty() => {
                tag.sc = Some(key.to_string())
            }
            ("steps", Some(list)) if tag.steps.is_empty() && !list.is_empty() => {
                tag.steps = list.split('+').map(|s| s.trim().to_string()).collect()
            }
            _ => tag.syntax.push(format!("unknown or repeated field `{field}`")),
        }
    }
    tag.why = std::iter::once(why.trim())
        .chain(continuation)
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join(" ");
    tag
}

// ---------------------------------------------------------------------
// unsafe occurrences
// ---------------------------------------------------------------------

fn extract_unsafe_sites(
    rel: &str,
    original: &str,
    masked: &str,
    symbols: &SymbolMap,
    lines: &LineIndex,
    report: &mut ScanReport,
) {
    let b = masked.as_bytes();
    let orig_lines: Vec<&str> = original.lines().collect();
    let mut i = 0;
    while i < b.len() {
        if !is_ident_start(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if &masked[start..i] != "unsafe" {
            continue;
        }
        // Classify by the next token.
        let mut j = i;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        let kind = if j < b.len() && b[j] == b'{' {
            UnsafeKind::Block
        } else {
            let ts = j;
            while j < b.len() && is_ident_byte(b[j]) {
                j += 1;
            }
            match &masked[ts..j] {
                "fn" => {
                    // `unsafe fn(…)` with no name is a fn-pointer *type*
                    // (e.g. a `drop_fn: unsafe fn(*mut u8)` field), not
                    // unsafe code — nothing to document.
                    let mut k = j;
                    while k < b.len() && (b[k] as char).is_whitespace() {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'(' {
                        continue;
                    }
                    UnsafeKind::Fn
                }
                "impl" => UnsafeKind::Impl,
                "trait" => UnsafeKind::Trait,
                // `unsafe` in type position (`unsafe fn(…)` pointers hit
                // the Fn arm above) or anything unrecognized: treat as a
                // block-like occurrence so nothing escapes the audit.
                _ => UnsafeKind::Block,
            }
        };
        let line = lines.line_of(start);
        let documented = has_safety_comment(&orig_lines, line, kind);
        report.unsafes.push(UnsafeSite {
            file: rel.to_string(),
            line,
            symbol: symbols.symbol_at(start),
            kind,
            documented,
        });
    }
}

/// Whether an attached `SAFETY:` comment (or, for `unsafe fn`/`unsafe
/// trait`, a `# Safety` doc section) precedes `line` (1-based).
///
/// "Attached" means: on the same line, or in the contiguous run of
/// comment/attribute/blank lines directly above the occurrence's
/// statement. One intervening code line is tolerated when it belongs to
/// the same statement (the comment sits above a multi-line statement
/// whose `unsafe` is not on the first line) — recognized by the
/// preceding line not ending in `;`, `{`, or `}`.
fn has_safety_comment(orig_lines: &[&str], line: usize, kind: UnsafeKind) -> bool {
    let idx = line - 1;
    let mentions = |s: &str| {
        s.contains("SAFETY") || ((kind == UnsafeKind::Fn || kind == UnsafeKind::Trait) && s.contains("# Safety"))
    };
    if idx < orig_lines.len() && mentions(orig_lines[idx]) {
        return true;
    }
    let mut k = idx;
    let mut crossed_code = false;
    while k > 0 {
        k -= 1;
        let t = orig_lines[k].trim();
        if t.is_empty() || t.starts_with("#[") {
            continue;
        }
        if t.starts_with("//") {
            if mentions(t) {
                return true;
            }
            continue;
        }
        // A code line. If it plausibly continues into our statement
        // (doesn't terminate one), look one step further — this covers
        //     // SAFETY: …
        //     let x = foo
        //         .bar(unsafe { … });
        // without walking past genuine statement boundaries.
        if !crossed_code && !t.ends_with(';') && !t.ends_with('{') && !t.ends_with('}') {
            crossed_code = true;
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------
// facade rule
// ---------------------------------------------------------------------

/// Paths that must not appear (outside the facade crate itself).
const FORBIDDEN: &[&str] = &["std::sync::atomic", "core::sync::atomic", "crossbeam_utils::"];

fn extract_facade_violations(rel: &str, masked: &str, lines: &LineIndex, report: &mut ScanReport) {
    for pat in FORBIDDEN {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(pat) {
            let at = from + pos;
            report.facade.push(FacadeViolation {
                file: rel.to_string(),
                line: lines.line_of(at),
                what: (*pat).trim_end_matches(':').to_string(),
            });
            from = at + pat.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(src: &str) -> ScanReport {
        let mut r = ScanReport::default();
        scan_file("test.rs", src, &mut r);
        r
    }

    #[test]
    fn masks_comments_strings_and_chars() {
        let src = "let a = \"Ordering::SeqCst\"; // x.load(Ordering::SeqCst)\nlet c = 'x'; /* y.store(1, Ordering::Relaxed) */ let l: &'static str = s;";
        let m = mask_comments_and_strings(src);
        assert!(!m.contains("SeqCst"));
        assert!(m.contains("'static"), "lifetimes survive masking");
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn extracts_sites_with_symbols_and_orderings() {
        let src = r#"
impl Foo {
    fn alpha(&self) {
        self.a.load(Ordering::SeqCst);
        self.b.load(Ordering::Acquire);
        self.c.compare_exchange(a, b, Ordering::AcqRel, Ordering::Relaxed);
    }
}
fn beta(x: &AtomicUsize) -> usize {
    x.fetch_add(1, Ordering::Relaxed)
}
"#;
        let r = scan_str(src);
        assert_eq!(r.sites.len(), 4);
        assert_eq!(r.sites[0].symbol, "alpha");
        assert_eq!(r.sites[0].op, "load");
        assert_eq!(r.sites[1].orderings, vec!["Acquire"]);
        assert_eq!(r.sites[2].op, "compare_exchange");
        assert_eq!(r.sites[2].orderings, vec!["AcqRel", "Relaxed"]);
        assert_eq!(r.sites[3].symbol, "beta");
        assert_eq!(r.sites[3].orderings, vec!["Relaxed"]);
    }

    #[test]
    fn parameterized_ordering_is_dynamic() {
        let r = scan_str("fn f(o: Ordering) { X.load(o); }");
        assert_eq!(r.sites[0].orderings, vec!["?"]);
    }

    #[test]
    fn multiline_calls_are_captured() {
        let src = "fn f() {\n  x.compare_exchange(\n    a,\n    b,\n    Ordering::SeqCst,\n    Ordering::Relaxed,\n  );\n}";
        let r = scan_str(src);
        assert_eq!(r.sites[0].orderings, vec!["SeqCst", "Relaxed"]);
    }

    #[test]
    fn swap_remove_is_not_swap() {
        let r = scan_str("fn f(v: &mut Vec<u8>) { v.swap_remove(0); }");
        assert!(r.sites.is_empty());
    }

    #[test]
    fn unsafe_classification_and_safety_comments() {
        let src = r#"
// SAFETY: documented block.
unsafe { work() };
unsafe { undocumented() };
/// # Safety
/// caller promises things
unsafe fn g() {}
unsafe impl Send for X {}
"#;
        let r = scan_str(src);
        assert_eq!(r.unsafes.len(), 4);
        assert!(r.unsafes[0].documented);
        assert_eq!(r.unsafes[0].kind, UnsafeKind::Block);
        assert!(!r.unsafes[1].documented);
        assert!(r.unsafes[2].documented, "# Safety doc counts for unsafe fn");
        assert_eq!(r.unsafes[2].kind, UnsafeKind::Fn);
        assert_eq!(r.unsafes[3].kind, UnsafeKind::Impl);
        assert!(!r.unsafes[3].documented);
    }

    #[test]
    fn safety_comment_spanning_statement_is_attached() {
        let src = "fn f() {\n    // SAFETY: spans the statement.\n    let x = foo\n        .bar(unsafe { baz() });\n}";
        let r = scan_str(src);
        assert_eq!(r.unsafes.len(), 1);
        assert!(r.unsafes[0].documented);
    }

    #[test]
    fn facade_violations_found_outside_comments_only() {
        let src = "use std::sync::atomic::AtomicU8;\n// use std::sync::atomic::AtomicU16;\nuse crossbeam_utils::CachePadded;\n";
        let r = scan_str(src);
        assert_eq!(r.facade.len(), 2);
        assert_eq!(r.facade[0].line, 1);
        assert_eq!(r.facade[1].what, "crossbeam_utils");
    }

    #[test]
    fn unsafe_fn_pointer_type_is_not_flagged() {
        let r = scan_str("struct S { f: unsafe fn(*mut u8, *mut u8) }\nfn g(h: unsafe fn() -> u8) {}");
        assert!(r.unsafes.is_empty(), "{:?}", r.unsafes);
    }

    /// The tag bound to site `i`, if any.
    fn tag_of(r: &ScanReport, i: usize) -> Option<&Tag> {
        r.sites[i].tag.map(|t| &r.tags[t])
    }

    #[test]
    fn tag_parses_role_sc_steps_and_why() {
        let src = "fn f() {\n    // ord(linearization, sc=append, steps=Append+FastAppend): the append\n    x.compare_exchange(a, b, Ordering::SeqCst, Ordering::Relaxed);\n}";
        let r = scan_str(src);
        let tag = tag_of(&r, 0).expect("bound");
        assert_eq!((tag.line, tag.symbol.as_str()), (2, "f"));
        assert_eq!(tag.role, "linearization");
        assert_eq!(tag.sc.as_deref(), Some("append"));
        assert_eq!(tag.steps, ["Append", "FastAppend"]);
        assert_eq!(tag.why, "the append");
        assert!(tag.syntax.is_empty(), "{:?}", tag.syntax);
        let bare = scan_str("fn f() {\n    // ord(stats, sc): why\n    x.load(Ordering::SeqCst);\n}");
        assert_eq!(tag_of(&bare, 0).expect("bound").sc.as_deref(), Some(""));
    }

    #[test]
    fn tag_binds_to_a_chain_continuation_line() {
        let src = "fn f() {\n    let v = self\n        .head\n        // ord(stats): chained\n        .load(Ordering::Acquire);\n}";
        let r = scan_str(src);
        assert_eq!(r.sites[0].line, 5);
        assert_eq!(tag_of(&r, 0).expect("bound").why, "chained");
    }

    #[test]
    fn multi_line_why_is_joined() {
        let src = "fn f() {\n    // ord(stats): first part,\n    //   second part\n    //\n    // and third\n    x.load(Ordering::Relaxed);\n}";
        let r = scan_str(src);
        assert_eq!(tag_of(&r, 0).expect("bound").why, "first part, second part and third");
    }

    #[test]
    fn blank_or_code_line_between_tag_and_site_unbinds_both() {
        for gap in ["", "    work();"] {
            let src = format!("fn f() {{\n    // ord(stats): detached\n{gap}\n    x.load(Ordering::Relaxed);\n}}");
            let r = scan_str(&src);
            assert!(r.sites[0].tag.is_none(), "gap {gap:?}: site must stay undocumented");
            assert_eq!(r.tags[0].sites, 0, "gap {gap:?}: tag must be an orphan");
        }
    }

    #[test]
    fn one_tag_covers_every_site_on_its_line() {
        let src = "fn bump(&self) {\n    // ord(stats): single-writer bump\n    self.0.store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);\n}";
        let r = scan_str(src);
        assert_eq!(r.sites.len(), 2);
        assert_eq!((r.sites[0].tag, r.sites[1].tag), (Some(0), Some(0)));
        assert_eq!(r.tags[0].sites, 2);
    }

    #[test]
    fn doc_comment_ord_is_not_a_tag() {
        let r = scan_str("fn f() {\n    /// ord(stats): a doc line\n    x.load(Ordering::Relaxed);\n}");
        assert!(r.tags.is_empty());
        assert!(r.sites[0].tag.is_none());
    }

    #[test]
    fn binding_survives_line_churn_above_the_function() {
        let a = scan_str("fn f() {\n    // ord(stats): why\n    x.load(Ordering::SeqCst);\n}");
        let b = scan_str("// new comment\n\nfn unrelated() {\n    work();\n}\nfn f() {\n    // ord(stats): why\n    x.load(Ordering::SeqCst);\n}");
        assert_ne!(a.sites[0].line, b.sites[0].line, "lines moved");
        let (ta, tb) = (tag_of(&a, 0).expect("bound"), tag_of(&b, 0).expect("bound"));
        assert_eq!((&ta.role, &ta.why), (&tb.role, &tb.why), "binding did not");
    }
}

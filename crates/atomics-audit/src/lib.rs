//! Static audit of the workspace's atomic operations and `unsafe` code
//! against the ordering tags written beside them.
//!
//! The PPoPP 2011 wait-free queue's correctness argument lives in its
//! memory orderings: the doorway load, the three-CAS enqueue/dequeue
//! scheme, the Lemma 1/2 exactly-once guards. A silent `SeqCst` →
//! `Relaxed` "cleanup" compiles fine and passes every unit test on
//! x86, then loses dequeues on ARM. This crate makes each ordering a
//! *reviewed claim*: every atomic call site in the audited crates must
//! carry a `// ord(<role>[, sc[=<key>]][, steps=...]): <why>` tag on the
//! comment lines directly above it, and CI checks code against tags on
//! every run (`cargo run -p atomics-audit`). A refactor edits a reason
//! in the same diff hunk as the code it justifies.
//!
//! The pipeline:
//!
//! 1. [`scan`] extracts atomic call sites, their tags, `unsafe`
//!    occurrences and facade violations from the [`SCOPE`] sources.
//! 2. [`rules`] checks each site against its tag and emits findings.
//!
//! The binary exits 0 when clean, 1 on findings, 2 on operational
//! errors — `scripts/ci.sh` treats non-zero as a gate failure.

#![warn(missing_docs)]

pub mod rules;
pub mod scan;

use std::path::Path;

/// The audited crates, root-relative. Test code inside them is audited
/// too.
pub const SCOPE: &[&str] =
    &["crates/kp-queue", "crates/hazard", "crates/idpool", "crates/wcq", "crates/kp-channel"];

/// Outcome of one audit run, for the binary and for tests.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Findings (empty = gate passes).
    pub findings: Vec<rules::Finding>,
    /// Scan statistics for the summary line.
    pub stats: AuditStats,
}

/// Coverage counters printed in the summary.
#[derive(Debug, Default)]
pub struct AuditStats {
    /// Files scanned.
    pub files: usize,
    /// Atomic call sites found in code.
    pub sites: usize,
    /// `unsafe` occurrences found.
    pub unsafes: usize,
}

/// Runs the full audit: scans [`SCOPE`] under `root` and applies the
/// rules.
pub fn audit(root: &Path) -> Result<AuditOutcome, String> {
    let report = scan::scan_scope(root, SCOPE)?;
    Ok(AuditOutcome {
        findings: rules::run(&report),
        stats: AuditStats {
            files: report.files.len(),
            sites: report.sites.len(),
            unsafes: report.unsafes.len(),
        },
    })
}

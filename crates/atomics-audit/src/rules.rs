//! Lint rules run over the scan report: each atomic site against its
//! `// ord(...)` tag, each tag on its own, and every `unsafe`
//! occurrence and facade reference. Every finding names its rule.

use crate::scan::{ScanReport, Site, Tag};
use std::fmt;

/// Rule identifiers, kept in one place so reports can't drift from the
/// implementation.
pub mod rule {
    /// Atomic call site with no `// ord(...)` tag above it.
    pub const UNDOCUMENTED: &str = "undocumented-atomic";
    /// `// ord(...)` tag that binds no site.
    pub const ORPHAN: &str = "orphan-tag";
    /// SeqCst ordering without an `sc` field, or an `sc` field on a
    /// site with no literal SeqCst.
    pub const SC_JUSTIFICATION: &str = "sc-justification";
    /// CAS failure ordering stronger than the success ordering's
    /// load half.
    pub const CAS_FAILURE: &str = "cas-failure-order";
    /// `linearization`-tagged site weaker than its op class requires.
    pub const LIN_STRENGTH: &str = "linearization-strength";
    /// `unsafe` occurrence without an attached `SAFETY:` comment.
    pub const SAFETY: &str = "safety-comment";
    /// Direct `std::sync::atomic` / `crossbeam_utils` reference outside
    /// the `kp-sync` facade.
    pub const FACADE: &str = "facade";
    /// Unknown role, field or `sc` key, an empty why, or `steps=` on
    /// the wrong role.
    pub const BAD_TAG: &str = "bad-tag";
}

/// The roles a tag may name:
///
/// - `linearization`: implements a linearization step (names kp-model
///   steps in `steps=`);
/// - `doorway`: bakery/phase announcement protocol (wait-freedom);
/// - `helper-guard`: exactly-once helping guards and validations;
/// - `reclamation`: memory reclamation, recycling, hazard machinery;
/// - `stats`: counters and diagnostics with no synchronization intent.
pub const ROLES: &[&str] = &["linearization", "doorway", "helper-guard", "reclamation", "stats"];

/// The shared SeqCst arguments an `sc=<key>` field names, by key. A
/// bare `sc` instead means the tag's why argues for SeqCst itself.
pub const SC_REASONS: &[(&str, &str)] = &[
    (
        "help",
        "helping coherence: this read participates in the Lemma 1/2 \
         argument and must agree with the descriptors' SeqCst pending \
         checks in the single total order; the DESIGN.md SS11 \
         counterexamples show Acquire losing operations",
    ),
    (
        "doorway",
        "bakery doorway: the phase announcement must be totally ordered \
         with peers' maxPhase scans or a helper can overlook an older \
         pending operation, breaking the wait-freedom bound (DESIGN.md \
         SS11)",
    ),
    (
        "reset",
        "no-op-skip recycling counterexample (DESIGN.md SS11): a helper \
         still scanning must not act on a stale pending descriptor after \
         the owner recycled the node; the idle transition must enter the \
         total order",
    ),
    (
        "append",
        "linearization point of enqueue (L74): total order with the SeqCst \
         pending checks gives Lemma 1's exactly-once append; failure \
         ordering is Relaxed because the loaded value is discarded and \
         helpers re-read with SeqCst",
    ),
    (
        "lock",
        "linearization point of a successful dequeue (L135): the deq_tid \
         lock must be totally ordered with the helpers' pending checks \
         (Lemma 2 exactly-once); failure value discarded, re-read with \
         SeqCst",
    ),
    (
        "ctrl",
        "the exactly-once descriptor transition (step 2 of Figures 5-6) \
         must be coherent with helpers' SeqCst pending checks (Lemmas 1-2); \
         failure value unused (.is_ok()) so the failure ordering is \
         Relaxed",
    ),
    (
        "swing",
        "tail/head swing races with the same CAS from every helper; SeqCst \
         keeps the swing ordered with the pending checks so a helper never \
         operates on a retired sentinel; failure discarded",
    ),
    (
        "token",
        "reap token handoff (DESIGN.md SS13.4): token publication, \
         retraction and the reaper's swap must share the single total order \
         with the lease transitions, or a reaper could quarantine a token \
         published after revocation (erasing a live pin, a use-after-free) \
         or miss a retraction and quarantine the recycled slot's live \
         successor thread",
    ),
    (
        "hazard-scan",
        "hazard-pointer scan requirement: the scan's reads must follow the \
         retiree's unlink in the total order (store-load), or the scan can \
         miss a hazard a racing protect() already validated",
    ),
    (
        "hazard-pub",
        "Dekker-style store-load: the hazard publication must precede the \
         validating re-read in the total order; Release is insufficient",
    ),
    (
        "quiescent",
        "quiescent-only diagnostic off every hot path; SeqCst chosen for \
         simplicity over a caller-trusted Relaxed walk",
    ),
    (
        "wcq",
        "SCQ cross-variable agreement (DESIGN.md SS14): tail/head tickets, \
         ring entries and the threshold are separate atomics read in \
         store-load pairs (FAA ticket then entry, entry install then threshold, \
         catchup then decrement); SeqCst keeps every pair in the single \
         total order -- Acquire/Release admits the reordering that breaks \
         the emptiness argument. SeqCst loads are free on x86 and the RMWs \
         are lock-prefixed at any ordering",
    ),
    (
        "park-dekker",
        "waiter-registry doorway (DESIGN.md SS15/SS16): the sleepers gauge \
         and the guarded condition (shard contents for receivers, free \
         capacity for senders) form a Dekker-style store-load pair -- a \
         waiter registers (gauge up) then re-checks the condition, a \
         notifier makes the condition true then reads the gauge -- and both \
         sides must share the single total order or the notifier can read \
         gauge==0 while the waiter's re-check misses the change: a lost \
         wakeup with the waiter parked forever. Acquire/Release admits \
         exactly that reordering",
    ),
    (
        "wcq-rec",
        "wCQ record handshake (DESIGN.md SS14): the owner's arg/gauge/ctrl \
         publication and the helpers' gauge-probe/ctrl-scan/arg-dispatch \
         reads form a Dekker-style store-load pair, and the seq/ring echo \
         that rejects mixed-generation reads only works if both sides share \
         the single total order; CAS failure values are re-read, so \
         failure orderings are Relaxed unless the failure value itself is \
         re-tested",
    ),
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Root-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing symbol, when known.
    pub symbol: String,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}:{} ({}): {}", self.rule, self.file, self.line, self.symbol, self.msg)
    }
}

/// Synchronization strength rank for whole orderings.
/// `Release` and `Acquire` are incomparable in the memory model; for
/// lint purposes both rank as "half" (1) below `AcqRel` (2) below
/// `SeqCst` (3) — the rules below only ever compare within one
/// direction class, where the rank order is sound.
fn rank(ord: &str) -> Option<u8> {
    match ord {
        "Relaxed" => Some(0),
        "Acquire" | "Release" => Some(1),
        "AcqRel" => Some(2),
        "SeqCst" => Some(3),
        _ => None, // "?" or unknown
    }
}

/// The *load half* of an ordering, for the CAS failure-vs-success
/// comparison: a CAS failure performs only a load, so its ordering must
/// not promise more acquire strength than the success ordering's load
/// side already does.
fn load_half(ord: &str) -> Option<u8> {
    match ord {
        "Relaxed" | "Release" => Some(0),
        "Acquire" | "AcqRel" => Some(1),
        "SeqCst" => Some(2),
        _ => None,
    }
}

fn is_cas(op: &str) -> bool {
    matches!(op, "compare_exchange" | "compare_exchange_weak" | "fetch_update")
}

fn is_rmw(op: &str) -> bool {
    op != "load" && op != "store"
}

/// Runs every rule and returns the findings (empty = the gate passes).
pub fn run(report: &ScanReport) -> Vec<Finding> {
    let mut findings = Vec::new();

    for site in &report.sites {
        let mut flag = |rule: &'static str, msg: String| {
            findings.push(Finding {
                rule,
                file: site.file.clone(),
                line: site.line,
                symbol: site.symbol.clone(),
                msg,
            })
        };
        check_cas_failure(site, &mut flag);
        match site.tag {
            None => flag(
                rule::UNDOCUMENTED,
                format!(
                    "atomic `{}.{}({})` has no `// ord(...)` tag on the line above",
                    site.recv,
                    site.op,
                    site.orderings.join(", ")
                ),
            ),
            Some(t) => check_site(site, &report.tags[t], &mut flag),
        }
    }

    for tag in &report.tags {
        let mut flag = |rule: &'static str, msg: String| {
            findings.push(Finding {
                rule,
                file: tag.file.clone(),
                line: tag.line,
                symbol: tag.symbol.clone(),
                msg,
            })
        };
        if tag.sites == 0 {
            flag(
                rule::ORPHAN,
                "`// ord(` tag binds no site -- it must sit in the `//` run directly above \
                 the line holding the atomic's method name"
                    .into(),
            );
        }
        check_tag(tag, &mut flag);
    }

    for u in &report.unsafes {
        if !u.documented {
            findings.push(Finding {
                rule: rule::SAFETY,
                file: u.file.clone(),
                line: u.line,
                symbol: u.symbol.clone(),
                msg: format!("{} without an attached `// SAFETY:` comment", u.kind),
            });
        }
    }

    for v in &report.facade {
        findings.push(Finding {
            rule: rule::FACADE,
            file: v.file.clone(),
            line: v.line,
            symbol: "(import)".into(),
            msg: format!("direct `{}` reference — import via `kp_sync` instead", v.what),
        });
    }

    findings
}

/// cas-failure-order: needs only the code.
fn check_cas_failure(site: &Site, flag: &mut impl FnMut(&'static str, String)) {
    if is_cas(&site.op) && site.orderings.len() == 2 {
        let (succ, fail) = (&site.orderings[0], &site.orderings[1]);
        if let (Some(s), Some(f)) = (load_half(succ), load_half(fail)) {
            if f > s {
                flag(
                    rule::CAS_FAILURE,
                    format!(
                        "CAS failure ordering {fail} is stronger than the load half of \
                         success ordering {succ} — relax the failure ordering"
                    ),
                );
            }
        }
    }
}

/// Rules that need both the code site and its tag.
fn check_site(site: &Site, tag: &Tag, flag: &mut impl FnMut(&'static str, String)) {
    // Both directions: a SeqCst needs its argument, and an argument for
    // SeqCst on a weaker site is a stale claim -- which is also what
    // catches a SeqCst weakened without its tag being reviewed.
    let seqcst = site.orderings.iter().any(|o| o == "SeqCst");
    if seqcst && tag.sc.is_none() {
        flag(
            rule::SC_JUSTIFICATION,
            "SeqCst needs an `sc` field in its tag: `sc=<key>` for a shared argument, \
             a bare `sc` when the why argues for it"
                .into(),
        );
    }
    if !seqcst && tag.sc.is_some() {
        flag(
            rule::SC_JUSTIFICATION,
            format!(
                "tag claims an `sc` argument, but the site's orderings are [{}]",
                site.orderings.join(", ")
            ),
        );
    }

    if tag.role == "linearization" {
        // A linearization point must synchronize: RMW ops need both
        // halves (>= AcqRel), a load needs Acquire, a store Release.
        let needed = if is_rmw(&site.op) { 2 } else { 1 };
        let actual = site.orderings.first().and_then(|o| rank(o));
        if let Some(a) = actual {
            if a < needed {
                flag(
                    rule::LIN_STRENGTH,
                    format!(
                        "linearization site uses {} but its op class requires at least {}",
                        site.orderings[0],
                        if needed == 2 { "AcqRel" } else { "Acquire/Release" }
                    ),
                );
            }
        }
    }
}

/// bad-tag: the tag's own fields, whatever it binds.
fn check_tag(tag: &Tag, flag: &mut impl FnMut(&'static str, String)) {
    for problem in &tag.syntax {
        flag(rule::BAD_TAG, problem.clone());
    }
    if !ROLES.contains(&tag.role.as_str()) {
        flag(
            rule::BAD_TAG,
            format!("unknown role `{}`; expected one of: {}", tag.role, ROLES.join(", ")),
        );
    }
    if let Some(key) = tag.sc.as_deref().filter(|k| !k.is_empty()) {
        if !SC_REASONS.iter().any(|(k, _)| *k == key) {
            let keys: Vec<&str> = SC_REASONS.iter().map(|(k, _)| *k).collect();
            flag(
                rule::BAD_TAG,
                format!("unknown `sc` key `{key}`; expected one of: {}", keys.join(", ")),
            );
        }
    }
    if tag.why.is_empty() {
        flag(rule::BAD_TAG, "empty why: the tag must say why this ordering".into());
    }
    if tag.role == "linearization" && tag.steps.is_empty() {
        flag(rule::BAD_TAG, "a linearization site must name its kp-model `steps=`".into());
    }
    if tag.role != "linearization" && !tag.steps.is_empty() {
        flag(rule::BAD_TAG, "`steps=` is only meaningful for role linearization".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan;

    fn run_on(src: &str) -> Vec<Finding> {
        let mut r = ScanReport::default();
        scan::scan_file("lib.rs", src, &mut r);
        run(&r)
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        run_on(src).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn undocumented_site_is_flagged() {
        assert_eq!(rules_of("fn f() { X.load(Ordering::Acquire); }"), [rule::UNDOCUMENTED]);
    }

    #[test]
    fn documented_site_is_clean() {
        let f = run_on("fn f() {\n    // ord(helper-guard): x\n    X.load(Ordering::Acquire);\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn orphan_tag_is_flagged() {
        assert_eq!(rules_of("fn g() {\n    // ord(stats): nothing below\n    work();\n}"), [rule::ORPHAN]);
    }

    #[test]
    fn seqcst_needs_sc_field() {
        let bare = "fn f() {\n    // ord(doorway): x\n    X.load(Ordering::SeqCst);\n}";
        assert_eq!(rules_of(bare), [rule::SC_JUSTIFICATION]);
        for sc in ["sc", "sc=doorway"] {
            let src = bare.replace("doorway)", &format!("doorway, {sc})"));
            let f = run_on(&src);
            assert!(f.is_empty(), "{sc}: {f:?}");
        }
    }

    #[test]
    fn sc_on_a_relaxed_site_is_flagged() {
        // A SeqCst weakened in code but not in its tag, or an argument
        // copied onto the wrong site: the claim no longer matches.
        let src = "fn f() {\n    // ord(stats, sc=wcq-rec): x\n    X.fetch_add(1, Ordering::Relaxed);\n}";
        assert_eq!(rules_of(src), [rule::SC_JUSTIFICATION]);
    }

    #[test]
    fn cas_failure_stronger_than_success_is_flagged() {
        let src = "fn f() {\n    // ord(reclamation): x\n    X.compare_exchange(a, b, Ordering::Release, Ordering::Acquire);\n}";
        assert_eq!(rules_of(src), [rule::CAS_FAILURE]);
    }

    #[test]
    fn cas_acqrel_acquire_is_fine() {
        let src = "fn f() {\n    // ord(reclamation): x\n    X.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n}";
        let f = run_on(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn weak_linearization_site_is_flagged() {
        let src = "fn f() {\n    // ord(linearization, steps=Append): x\n    X.compare_exchange(a, b, Ordering::Acquire, Ordering::Relaxed);\n}";
        assert_eq!(rules_of(src), [rule::LIN_STRENGTH]);
    }

    #[test]
    fn linearization_load_needs_only_acquire() {
        let src = "fn f() {\n    // ord(linearization, steps=Stage0Empty): x\n    X.load(Ordering::Acquire);\n}";
        let f = run_on(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        assert_eq!(rules_of("fn f() { unsafe { g() } }"), [rule::SAFETY]);
    }

    #[test]
    fn facade_violation_is_flagged() {
        assert_eq!(rules_of("use std::sync::atomic::AtomicUsize;\n"), [rule::FACADE]);
    }

    #[test]
    fn bad_tags_are_flagged() {
        for tag in [
            "ord(gauge): unknown role",
            "ord(stats, order=Relaxed): unknown field",
            "ord(stats, sc, sc): repeated field",
            "ord(stats, sc=nope): unknown sc key",
            "ord(stats):",
            "ord(stats) missing the colon",
            "ord(stats, steps=Append): steps on a non-linearization site",
            "ord(linearization): linearization without steps",
        ] {
            let src = format!("fn f() {{\n    // {tag}\n    X.load(Ordering::SeqCst);\n}}");
            let rules = rules_of(&src);
            assert!(rules.contains(&rule::BAD_TAG), "{tag}: {rules:?}");
        }
    }
}

//! End-to-end tests over the fixture workspaces in `tests/fixtures/`.
//!
//! `fixtures/ws` is a miniature workspace seeded with at least one
//! violation of every rule, one allowed site per escape hatch, and
//! string/comment/test-module decoys that must NOT fire. `fixtures/bad`
//! holds malformed directives. The fixture sources are plain text to
//! meshlint — they are never compiled.

use std::path::{Path, PathBuf};
use std::process::Command;

use meshlint::{analyze, Analysis, Baseline, Config, Finding, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze(&Config::workspace(fixture(name))).expect("fixture tree readable")
}

fn count(findings: &[Finding], rule: Rule, file: &str) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .count()
}

#[test]
fn every_rule_fires_on_its_seeded_violation() {
    let a = analyze_fixture("ws");
    let codec = "crates/core/src/codec.rs";
    assert_eq!(count(&a.findings, Rule::D1, codec), 1, "HashMap import");
    assert_eq!(count(&a.findings, Rule::C1, codec), 1, "bare `as u8`");
    assert_eq!(
        count(&a.findings, Rule::R1, codec),
        5,
        "indexing, unwrap, expect, panic!, unreachable!"
    );
    assert_eq!(
        count(&a.findings, Rule::N1, codec),
        1,
        "ungated std:: import (the feature-gated ones are decoys)"
    );
    let runner = "crates/scenario/src/runner.rs";
    assert_eq!(
        count(&a.findings, Rule::D2, runner),
        4,
        "Instant, SystemTime x2, thread_rng"
    );
    assert_eq!(
        a.findings.len(),
        12,
        "no unexpected findings: {:#?}",
        a.findings
    );
    assert!(a.directive_errors.is_empty());
}

#[test]
fn exempt_crates_and_test_modules_do_not_fire() {
    let a = analyze_fixture("ws");
    // bench measures wall time for a living: d2 does not apply.
    assert!(!a
        .findings
        .iter()
        .any(|f| f.file.starts_with("crates/bench/")));
    // cli is not determinism-critical: its HashMap is fine.
    assert!(!a.findings.iter().any(|f| f.file.starts_with("crates/cli/")));
    // The #[cfg(test)] module in codec.rs repeats every violation; none
    // may leak out (all 5 r1 findings sit above line 17).
    assert!(a.findings.iter().all(|f| f.line < 17), "{:#?}", a.findings);
}

#[test]
fn strings_and_comments_never_match() {
    let a = analyze_fixture("ws");
    // cli/main.rs packs every forbidden token into comments, a plain
    // string and a raw string — zero findings there (checked above) and
    // zero phantom allows from tokens inside them.
    let codec_and_runner_and_allowed: usize = a
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/core/") || f.file.starts_with("crates/scenario/"))
        .count();
    assert_eq!(codec_and_runner_and_allowed, a.findings.len());
}

#[test]
fn allow_directives_suppress_with_reason() {
    let a = analyze_fixture("ws");
    assert_eq!(a.allowed, 3, "d1 + n1 + c1 sites in allowed.rs");
    assert!(!a.findings.iter().any(|f| f.file.ends_with("allowed.rs")));
}

#[test]
fn malformed_directives_are_errors_and_do_not_suppress() {
    let a = analyze_fixture("bad");
    assert_eq!(
        a.directive_errors.len(),
        3,
        "missing reason + unknown rule + allow(e1): {:#?}",
        a.directive_errors
    );
    // The reasonless allow must NOT suppress the HashMap underneath it.
    assert_eq!(count(&a.findings, Rule::D1, "crates/core/src/bad.rs"), 1);
}

#[test]
fn graph_rules_fire_on_their_seeded_violations() {
    let a = analyze_fixture("graph");
    let transport = "crates/core/src/stack/transport.rs";
    assert_eq!(
        count(&a.findings, Rule::R1, transport),
        2,
        "same-crate + cross-crate panicking helpers: {:#?}",
        a.findings
    );
    let engine = "crates/radio-sim/src/engine.rs";
    assert_eq!(
        count(&a.findings, Rule::P1, engine),
        2,
        "direct Mutex + transitive AtomicBool"
    );
    assert_eq!(count(&a.findings, Rule::F1, engine), 1, "captured `total`");
    let prefetch = "crates/radio-sim/src/prefetch.rs";
    assert_eq!(
        count(&a.findings, Rule::P1, prefetch),
        2,
        "direct alloc_seq mint + transitive Trace write in a \
         map_chunks region: {:#?}",
        a.findings
    );
    let sim = "crates/radio-sim/src/sim.rs";
    assert_eq!(
        count(&a.findings, Rule::S1, sim),
        2,
        "arithmetic seq + literal seq"
    );
    let flood = "crates/core/src/flood/mod.rs";
    assert_eq!(
        count(&a.findings, Rule::S1, flood),
        1,
        "a protocol impl minting its own relay seq: {:#?}",
        a.findings
    );
    let state = "crates/radio-sim/src/state.rs";
    assert_eq!(count(&a.findings, Rule::E1, state), 2, "stale allows");
    assert_eq!(a.findings.len(), 12, "{:#?}", a.findings);
    assert_eq!(a.allowed, 3, "p1 + f1 + s1 escapes");
    assert!(a.directive_errors.is_empty());
}

#[test]
fn graph_findings_carry_witness_details() {
    let a = analyze_fixture("graph");
    let cross = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::R1 && f.snippet.contains("util::widen"))
        .expect("cross-crate r1 finding");
    assert!(
        cross.detail.contains("crates/util/src/lib.rs"),
        "witness names the panic site: {}",
        cross.detail
    );
    let p1t = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::P1 && f.snippet.contains("bump_shared"))
        .expect("transitive p1 finding");
    assert!(p1t.detail.contains("bump_shared"), "{}", p1t.detail);
    let s1 = a
        .findings
        .iter()
        .find(|f| f.rule == Rule::S1)
        .expect("s1 finding");
    assert!(
        s1.detail.contains("not a coordinator-issued seq"),
        "{}",
        s1.detail
    );
}

#[test]
fn graph_decoys_do_not_fire() {
    let a = analyze_fixture("graph");
    // Dep scoping: the `isolated` crate's same-named panicking fn is
    // outside core's dependency closure — no finding references it.
    assert!(
        a.findings
            .iter()
            .all(|f| !f.file.contains("isolated") && !f.detail.contains("isolated")),
        "{:#?}",
        a.findings
    );
    // Helpers are reported at their hot anchors, never in their own files.
    assert!(!a.findings.iter().any(|f| f.file.ends_with("frag.rs")));
    assert!(!a
        .findings
        .iter()
        .any(|f| f.file.starts_with("crates/util/")));
    // The allow(r1) escape and the string decoy leave only the two
    // seeded anchors in the hot file.
    let anchors: Vec<&str> = a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("transport.rs"))
        .map(|f| f.snippet.as_str())
        .collect();
    assert!(anchors
        .iter()
        .all(|s| s.contains("decode_frame") || s.contains("util::widen")));
    // `#[cfg(test)]` regions and macro bodies in engine.rs are excised:
    // every engine finding sits above the macro definition (line 36).
    assert!(a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("engine.rs"))
        .all(|f| f.line < 36));
}

#[test]
fn graph_findings_ratchet_like_line_findings() {
    let a = analyze_fixture("graph");
    let baseline = Baseline::from_findings(&a.findings);
    let r = baseline.ratchet(&a.findings);
    assert!(r.new.is_empty());
    assert_eq!(r.grandfathered.len(), 12);
    // Deleting the stale directives fixes the e1 findings and leaves
    // stale baseline entries to burn down, like any other rule.
    let keep: Vec<Finding> = a
        .findings
        .iter()
        .filter(|f| f.rule != Rule::E1)
        .cloned()
        .collect();
    let r = baseline.ratchet(&keep);
    assert!(r.new.is_empty());
    assert_eq!(r.stale.len(), 2);
}

#[test]
fn cli_json_over_graph_fixture() {
    let bin = env!("CARGO_BIN_EXE_meshlint");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("graph"))
        .arg("--json")
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"new\": 12"), "{json}");
    for rule in ["p1", "s1", "f1", "e1"] {
        assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{json}");
    }
    assert!(json.contains("\"detail\": \""), "{json}");
}

#[test]
fn baseline_ratchets() {
    let a = analyze_fixture("ws");
    let baseline = Baseline::from_findings(&a.findings);

    // Everything grandfathered: nothing new, nothing stale.
    let r = baseline.ratchet(&a.findings);
    assert!(r.new.is_empty());
    assert_eq!(r.grandfathered.len(), a.findings.len());
    assert!(r.stale.is_empty());

    // Fixing a finding leaves a stale entry (progress to lock in)...
    let mut fewer = a.findings.clone();
    let fixed = fewer.pop().expect("fixture has findings");
    let r = baseline.ratchet(&fewer);
    assert!(r.new.is_empty());
    assert!(r.stale.iter().any(|(key, _)| *key == fixed.baseline_key()));

    // ...while a regression shows up as new and fails the run.
    let mut more = a.findings.clone();
    more.push(Finding {
        rule: Rule::D1,
        file: "crates/core/src/fresh.rs".into(),
        line: 1,
        col: 1,
        snippet: "use std::collections::HashSet;".into(),
        detail: String::new(),
    });
    let r = baseline.ratchet(&more);
    assert_eq!(r.new.len(), 1);
    assert_eq!(
        r.new.first().map(|f| f.file.as_str()),
        Some("crates/core/src/fresh.rs")
    );

    // The file format round-trips.
    assert_eq!(Baseline::parse(&baseline.serialize()), baseline);
}

#[test]
fn cli_exit_codes_json_and_baseline_flow() {
    let bin = env!("CARGO_BIN_EXE_meshlint");
    let ws = fixture("ws");

    // Dirty tree, no baseline: findings → exit 1.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&ws)
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(1));

    // --json emits the counters.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&ws)
        .arg("--json")
        .output()
        .expect("meshlint runs");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"new\": 12"), "{json}");
    assert!(json.contains("\"allowed\": 3"), "{json}");

    // Write a baseline, then the same tree is green against it.
    let baseline_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fixture.baseline");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&ws)
        .arg("--write-baseline")
        .arg(&baseline_path)
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(0));
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&ws)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(0), "baselined tree must pass");

    // Malformed directives fail even with a fully-covering baseline.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("bad"))
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(1));

    // Unknown flag → usage error.
    let out = Command::new(bin)
        .arg("--frobnicate")
        .output()
        .expect("meshlint runs");
    assert_eq!(out.status.code(), Some(2));
}

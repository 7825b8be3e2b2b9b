//! Golden replay of the checked-in fuzz corpus (`models/fuzz-corpus/`).
//!
//! Each corpus case is a minimized `.xtuml`/`.marks`/`.stim` triple
//! produced by shrinking a divergence the conformance fuzzer found under
//! the `pair-order` scheduler ablation. The committed bytes are the
//! regression artifact: every case must keep replaying **clean** under
//! the defined semantics and keep reproducing a **divergence** under the
//! injected fault. If either direction drifts, a scheduler or oracle
//! change altered observable behavior.

use std::path::Path;
use xtuml::fuzz::{load_dir, replay, Ablation, CaseOutcome};

fn corpus() -> Vec<xtuml::fuzz::CorpusEntry> {
    let entries = load_dir(Path::new("models/fuzz-corpus")).expect("corpus dir is readable");
    assert!(!entries.is_empty(), "corpus must not be empty");
    entries
}

#[test]
fn corpus_replays_clean_under_defined_semantics() {
    for e in corpus() {
        // Checkpointing on: corpus replay doubles as a snapshot/restore
        // conformance check on real minimized witnesses.
        let outcome = replay(&e.model, &e.marks, &e.stim, Ablation::None, true)
            .unwrap_or_else(|err| panic!("{}: replay failed: {err}", e.name));
        assert!(
            !outcome.is_failure(),
            "{}: expected a clean replay, got: {}",
            e.name,
            outcome.describe()
        );
    }
}

#[test]
fn corpus_reproduces_divergence_under_pair_order_fault() {
    for e in corpus() {
        let outcome = replay(&e.model, &e.marks, &e.stim, Ablation::PairOrder, false)
            .unwrap_or_else(|err| panic!("{}: replay failed: {err}", e.name));
        assert!(
            matches!(outcome, CaseOutcome::Divergence { .. }),
            "{}: the minimized witness no longer reproduces; got: {}",
            e.name,
            outcome.describe()
        );
    }
}

#[test]
fn corpus_cases_are_minimized() {
    // Shrinking guarantees small witnesses; keep them that way so a
    // regression in the shrinker (or an unshrunk check-in) fails loudly.
    for e in corpus() {
        let domain = xtuml::lang::parse_domain(&e.model)
            .unwrap_or_else(|err| panic!("{}: model does not parse: {err}", e.name));
        assert!(
            domain.classes.len() <= 3,
            "{}: {} classes — corpus cases must be shrunk",
            e.name,
            domain.classes.len()
        );
    }
}

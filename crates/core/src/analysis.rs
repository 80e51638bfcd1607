//! Ontology analysis on top of the paraconsistent reasoner:
//! contradiction diagnosis and four-valued classification.
//!
//! Because SHOIN(D)4 keeps inconsistent KBs non-trivial, it can do what a
//! classical reasoner cannot: *survey* a contradictory ontology — which
//! facts are contested (`⊤`), which are clean, how contaminated the KB is
//! overall. This is the practical payoff of "the inconsistencies are
//! localized" (§5).
//!
//! Both drivers are batch workloads over independent queries, so they
//! fan out across the reasoner's worker threads (see
//! [`crate::reasoner4::QueryOptions::jobs`]); results are assembled in
//! grid order and are bit-identical to a sequential run.

use crate::kb4::KnowledgeBase4;
use crate::reasoner4::Reasoner4;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use fourval::TruthValue;
use std::collections::BTreeMap;
use tableau::ReasonerError;

/// A survey of the KB's atomic facts: every individual × atomic-concept
/// pair in the signature, with its four-valued verdict.
#[derive(Debug, Clone, Default)]
pub struct ContradictionReport {
    /// Facts with contradictory information (`⊤`).
    pub contested: Vec<(IndividualName, ConceptName)>,
    /// Facts with positive-only information (`t`).
    pub asserted: Vec<(IndividualName, ConceptName)>,
    /// Facts with negative-only information (`f`).
    pub denied: Vec<(IndividualName, ConceptName)>,
    /// Number of pairs with no information (`⊥`).
    pub unknown: usize,
}

impl ContradictionReport {
    /// Total pairs surveyed.
    pub fn total(&self) -> usize {
        self.contested.len() + self.asserted.len() + self.denied.len() + self.unknown
    }

    /// Fraction of surveyed facts that are contested — a simple
    /// inconsistency degree in `[0, 1]`.
    pub fn contamination(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.contested.len() as f64 / self.total() as f64
    }
}

/// Survey every individual × atomic concept of the KB's signature.
pub fn contradiction_report(
    reasoner: &Reasoner4,
    kb: &KnowledgeBase4,
) -> Result<ContradictionReport, ReasonerError> {
    contradiction_report_seeded(reasoner, kb, &[])
}

/// [`contradiction_report`] with a fast path: `seeded` pairs are facts
/// already *known* to be contested — typically the syntactically-certain
/// findings of a static pass (`ontolint::certain_contested_facts`) — so
/// the survey records them as `⊤` without running the two tableau
/// entailment queries each would otherwise cost.
///
/// Seeded pairs outside the signature are ignored; the total therefore
/// stays `|individuals| × |concepts|`. Soundness is the caller's promise:
/// a pair that is not in fact contested in every model would corrupt the
/// report (the linter's `Error` contract is exactly that promise).
pub fn contradiction_report_seeded(
    reasoner: &Reasoner4,
    kb: &KnowledgeBase4,
    seeded: &[(IndividualName, ConceptName)],
) -> Result<ContradictionReport, ReasonerError> {
    let sig = kb.signature();
    let seeded: std::collections::BTreeSet<(&IndividualName, &ConceptName)> =
        seeded.iter().map(|(a, c)| (a, c)).collect();
    // Collect the un-seeded grid cells, in grid order, and answer them as
    // one batch (striped over worker threads).
    let mut queries = Vec::new();
    for a in &sig.individuals {
        for c in &sig.concepts {
            if !seeded.contains(&(a, c)) {
                queries.push((a.clone(), Concept::atomic(c.as_str())));
            }
        }
    }
    let answers = reasoner.query_batch(&queries)?;
    let mut report = ContradictionReport::default();
    let mut next = answers.into_iter();
    for a in &sig.individuals {
        for c in &sig.concepts {
            if seeded.contains(&(a, c)) {
                report.contested.push((a.clone(), c.clone()));
                continue;
            }
            match next.next().expect("one answer per query") {
                TruthValue::Both => report.contested.push((a.clone(), c.clone())),
                TruthValue::True => report.asserted.push((a.clone(), c.clone())),
                TruthValue::False => report.denied.push((a.clone(), c.clone())),
                TruthValue::Neither => report.unknown += 1,
            }
        }
    }
    Ok(report)
}

/// Four-valued classification: the internal-inclusion (`⊏`) taxonomy over
/// the named concepts, computed via Corollary 7. Returns, for each
/// concept, its (reflexive) set of super-concepts. Rows are computed on
/// worker threads; the result does not depend on the thread count.
pub fn classify4(
    reasoner: &Reasoner4,
    kb: &KnowledgeBase4,
) -> Result<BTreeMap<ConceptName, Vec<ConceptName>>, ReasonerError> {
    let sig = kb.signature();
    let names: Vec<ConceptName> = sig.concepts.into_iter().collect();
    let row = |a: &ConceptName| -> Result<Vec<ConceptName>, ReasonerError> {
        let mut supers = Vec::new();
        for b in &names {
            let ax = crate::kb4::Axiom4::ConceptInclusion(
                crate::inclusion::InclusionKind::Internal,
                Concept::atomic(a.as_str()),
                Concept::atomic(b.as_str()),
            );
            if reasoner.entails(&ax)? {
                supers.push(b.clone());
            }
        }
        Ok(supers)
    };
    let jobs = reasoner.options().effective_jobs().min(names.len().max(1));
    let mut out = BTreeMap::new();
    if jobs <= 1 {
        for a in &names {
            out.insert(a.clone(), row(a)?);
        }
        return Ok(out);
    }
    let indexed: Vec<(usize, Result<Vec<ConceptName>, ReasonerError>)> =
        std::thread::scope(|scope| {
            let row = &row;
            let names = &names;
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    scope.spawn(move || {
                        names
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(jobs)
                            .map(|(i, a)| (i, row(a)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("classify worker panicked"))
                .collect()
        });
    let mut first_err: Option<(usize, ReasonerError)> = None;
    for (i, r) in indexed {
        match r {
            Ok(supers) => {
                out.insert(names[i].clone(), supers);
            }
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kb4;
    use crate::reasoner4::QueryOptions;
    use tableau::Config;

    #[test]
    fn report_splits_facts_by_verdict() {
        let kb = parse_kb4(
            "A SubClassOf B
             x : A
             x : not A
             y : B
             z : not B",
        )
        .unwrap();
        let r = Reasoner4::new(&kb);
        let report = contradiction_report(&r, &kb).unwrap();
        // x:A is contested; x:B is asserted (via inclusion from the
        // positive half); y:B asserted; z:B denied.
        assert!(report
            .contested
            .contains(&(IndividualName::new("x"), ConceptName::new("A"))));
        assert!(report
            .asserted
            .contains(&(IndividualName::new("x"), ConceptName::new("B"))));
        assert!(report
            .asserted
            .contains(&(IndividualName::new("y"), ConceptName::new("B"))));
        assert!(report
            .denied
            .contains(&(IndividualName::new("z"), ConceptName::new("B"))));
        assert_eq!(report.total(), 6); // 3 individuals × 2 concepts
        assert!(report.contamination() > 0.0 && report.contamination() < 0.5);
    }

    #[test]
    fn clean_kb_has_zero_contamination() {
        let kb = parse_kb4("A SubClassOf B\nx : A").unwrap();
        let r = Reasoner4::new(&kb);
        let report = contradiction_report(&r, &kb).unwrap();
        assert!(report.contested.is_empty());
        assert_eq!(report.contamination(), 0.0);
    }

    #[test]
    fn classification_respects_internal_taxonomy() {
        let kb = parse_kb4(
            "Surgeon SubClassOf Doctor
             Doctor SubClassOf Person
             Nurse SubClassOf Person",
        )
        .unwrap();
        let r = Reasoner4::new(&kb);
        let taxonomy = classify4(&r, &kb).unwrap();
        let supers = &taxonomy[&ConceptName::new("Surgeon")];
        assert!(supers.contains(&ConceptName::new("Doctor")));
        assert!(supers.contains(&ConceptName::new("Person")));
        assert!(supers.contains(&ConceptName::new("Surgeon")));
        assert!(!taxonomy[&ConceptName::new("Nurse")].contains(&ConceptName::new("Doctor")));
    }

    #[test]
    fn contamination_edge_cases() {
        // Empty KB: nothing surveyed, contamination well-defined at 0.
        let kb = KnowledgeBase4::new();
        let r = Reasoner4::new(&kb);
        let report = contradiction_report(&r, &kb).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(report.contamination(), 0.0);

        // Individuals but no concepts (role assertions only): still a
        // zero-pair survey.
        let kb = parse_kb4("r(a, b)").unwrap();
        let r = Reasoner4::new(&kb);
        let report = contradiction_report(&r, &kb).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(report.contamination(), 0.0);

        // Fully contested: every surveyed fact is ⊤ → contamination 1.
        let kb = parse_kb4("x : A\nx : not A").unwrap();
        let r = Reasoner4::new(&kb);
        let report = contradiction_report(&r, &kb).unwrap();
        assert_eq!(report.total(), 1);
        assert_eq!(report.contamination(), 1.0);

        // Manually assembled report: contamination is contested / total.
        let report = ContradictionReport {
            contested: vec![(IndividualName::new("a"), ConceptName::new("A"))],
            asserted: vec![(IndividualName::new("b"), ConceptName::new("A"))],
            denied: vec![],
            unknown: 2,
        };
        assert_eq!(report.total(), 4);
        assert_eq!(report.contamination(), 0.25);
    }

    #[test]
    fn report_total_is_individuals_times_concepts() {
        // Property: however the verdicts fall, the survey covers exactly
        // the full individual × concept grid — over generated KBs of
        // varying shape.
        for seed in 0..8u64 {
            let kb = ontogen_like_kb(seed);
            let sig = kb.signature();
            let r = Reasoner4::new(&kb);
            let report = contradiction_report(&r, &kb).unwrap();
            assert_eq!(
                report.total(),
                sig.individuals.len() * sig.concepts.len(),
                "seed {seed}"
            );
        }
    }

    /// A small deterministic KB family of varying shape (the `ontogen`
    /// crate depends on this one, so the property test rolls its own).
    fn ontogen_like_kb(seed: u64) -> KnowledgeBase4 {
        let n_concepts = 1 + (seed as usize % 4);
        let n_individuals = 1 + (seed as usize / 2 % 3);
        let mut src = String::new();
        for c in 0..n_concepts {
            src.push_str(&format!("A{c} SubClassOf A{}\n", (c + 1) % n_concepts));
        }
        for i in 0..n_individuals {
            src.push_str(&format!("x{i} : A{}\n", i % n_concepts));
            if seed.is_multiple_of(2) {
                src.push_str(&format!("x{i} : not A{}\n", (i + 1) % n_concepts));
            }
        }
        parse_kb4(&src).unwrap()
    }

    #[test]
    fn seeded_report_matches_unseeded() {
        let kb = parse_kb4(
            "A SubClassOf B
             x : A
             x : not A
             y : B",
        )
        .unwrap();
        let r = Reasoner4::new(&kb);
        let full = contradiction_report(&r, &kb).unwrap();
        // Seed exactly the fact the linter would certify: (x, A) is
        // directly contested. (x, B) is merely asserted — the internal
        // inclusion does not contrapose the negative half.
        let seeds = vec![(IndividualName::new("x"), ConceptName::new("A"))];
        let r2 = Reasoner4::new(&kb);
        let seeded = contradiction_report_seeded(&r2, &kb, &seeds).unwrap();
        assert_eq!(seeded.total(), full.total());
        let sort = |mut v: Vec<(IndividualName, ConceptName)>| {
            v.sort();
            v
        };
        assert_eq!(sort(seeded.contested.clone()), sort(full.contested.clone()));
        assert_eq!(sort(seeded.asserted), sort(full.asserted));
    }

    #[test]
    fn seeded_pairs_outside_the_signature_are_ignored() {
        let kb = parse_kb4("x : A").unwrap();
        let r = Reasoner4::new(&kb);
        let seeds = vec![(IndividualName::new("ghost"), ConceptName::new("A"))];
        let report = contradiction_report_seeded(&r, &kb, &seeds).unwrap();
        assert_eq!(report.total(), 1);
        assert!(report.contested.is_empty());
    }

    #[test]
    fn classification_survives_contradictions() {
        // The headline: classification still works on inconsistent input.
        let kb = parse_kb4(
            "Surgeon SubClassOf Doctor
             Doctor SubClassOf Person
             x : Surgeon
             x : not Surgeon",
        )
        .unwrap();
        let r = Reasoner4::new(&kb);
        assert!(r.is_satisfiable().unwrap());
        let taxonomy = classify4(&r, &kb).unwrap();
        assert!(taxonomy[&ConceptName::new("Surgeon")].contains(&ConceptName::new("Person")));
    }

    fn pairs_sorted(r: &ContradictionReport) -> ContradictionReport {
        let sort = |mut v: Vec<(IndividualName, ConceptName)>| {
            v.sort();
            v
        };
        ContradictionReport {
            contested: sort(r.contested.clone()),
            asserted: sort(r.asserted.clone()),
            denied: sort(r.denied.clone()),
            unknown: r.unknown,
        }
    }

    #[test]
    fn parallel_report_and_classification_match_sequential() {
        for seed in 0..6u64 {
            let kb = ontogen_like_kb(seed);
            let sequential =
                Reasoner4::with_options(&kb, Config::default(), QueryOptions { jobs: 1 });
            let parallel =
                Reasoner4::with_options(&kb, Config::default(), QueryOptions { jobs: 4 });
            let seq_report = contradiction_report(&sequential, &kb).unwrap();
            let par_report = contradiction_report(&parallel, &kb).unwrap();
            // The report is assembled in grid order — not merely
            // equal-as-sets but bit-identical.
            assert_eq!(seq_report.contested, par_report.contested, "seed {seed}");
            assert_eq!(seq_report.asserted, par_report.asserted, "seed {seed}");
            assert_eq!(seq_report.denied, par_report.denied, "seed {seed}");
            assert_eq!(seq_report.unknown, par_report.unknown, "seed {seed}");
            // Sanity: the sorted views agree too (guards the helper).
            let s = pairs_sorted(&seq_report);
            let p = pairs_sorted(&par_report);
            assert_eq!(s.contested, p.contested);
            assert_eq!(
                classify4(&sequential, &kb).unwrap(),
                classify4(&parallel, &kb).unwrap(),
                "seed {seed}"
            );
        }
    }
}

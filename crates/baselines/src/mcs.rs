//! Consistent-subset baselines.
//!
//! * [`McsBaseline`] — reason over **maximal consistent subsets** (MCS)
//!   of the axiom set: *skeptical* (entailed by every MCS) or *credulous*
//!   (entailed by some MCS). Exponential in the number of axioms touched
//!   by conflicts; usable for the benchmark sizes.
//! * [`RelevanceBaseline`] — Huang-style *syntactic relevance* selection
//!   (§5 of the paper, citing Huang et al., IJCAI 2005): grow a
//!   neighborhood of the query by shared symbols, one hop at a time, and
//!   answer from the largest still-consistent neighborhood.

use crate::{Answer, InconsistencyBaseline};
use dl::kb::{KnowledgeBase, Signature};
use dl::Axiom;
use tableau::{Config, QueryEngine, ReasonerError};

/// Skeptical vs credulous MCS entailment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McsMode {
    /// Entailed by every maximal consistent subset.
    Skeptical,
    /// Entailed by at least one maximal consistent subset.
    Credulous,
}

/// Maximal-consistent-subset reasoning.
pub struct McsBaseline {
    axioms: Vec<Axiom>,
    mode: McsMode,
    config: Config,
    /// Cached maximal consistent subsets (axiom index sets).
    mcs_cache: Option<Vec<Vec<usize>>>,
}

impl McsBaseline {
    /// Practical cap: subset enumeration is exponential.
    pub const MAX_AXIOMS: usize = 24;

    /// Wrap a KB.
    pub fn new(kb: &KnowledgeBase, mode: McsMode) -> Self {
        assert!(
            kb.len() <= Self::MAX_AXIOMS,
            "MCS baseline caps at {} axioms, got {}",
            Self::MAX_AXIOMS,
            kb.len()
        );
        McsBaseline {
            axioms: kb.axioms().to_vec(),
            mode,
            config: Config::default(),
            mcs_cache: None,
        }
    }

    fn is_consistent_subset(&self, indices: &[usize]) -> Result<bool, ReasonerError> {
        let kb = KnowledgeBase::from_axioms(indices.iter().map(|&i| self.axioms[i].clone()));
        QueryEngine::with_config(&kb, self.config.clone()).is_consistent()
    }

    /// All maximal consistent subsets, as sorted index vectors.
    pub fn maximal_consistent_subsets(&mut self) -> Result<Vec<Vec<usize>>, ReasonerError> {
        if let Some(cache) = &self.mcs_cache {
            return Ok(cache.clone());
        }
        let n = self.axioms.len();
        // Enumerate subsets largest-first; a subset is an MCS iff it is
        // consistent and no already-found MCS contains it.
        let mut found: Vec<Vec<usize>> = Vec::new();
        let mut by_size: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n + 1];
        for mask in 0u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            by_size[subset.len()].push(subset);
        }
        for size in (0..=n).rev() {
            for subset in &by_size[size] {
                let dominated = found.iter().any(|m| subset.iter().all(|i| m.contains(i)));
                if dominated {
                    continue;
                }
                if self.is_consistent_subset(subset)? {
                    found.push(subset.clone());
                }
            }
        }
        self.mcs_cache = Some(found.clone());
        Ok(found)
    }
}

impl InconsistencyBaseline for McsBaseline {
    fn name(&self) -> &'static str {
        match self.mode {
            McsMode::Skeptical => "mcs-skeptical",
            McsMode::Credulous => "mcs-credulous",
        }
    }

    fn entails(&mut self, query: &Axiom) -> Result<Answer, ReasonerError> {
        let subsets = self.maximal_consistent_subsets()?;
        if subsets.is_empty() {
            // Even the empty set is consistent, so this cannot happen;
            // defend anyway.
            return Ok(Answer::Trivial);
        }
        let mode = self.mode;
        let config = self.config.clone();
        let axioms = self.axioms.clone();
        let mut any = false;
        let mut all = true;
        for subset in &subsets {
            let kb = KnowledgeBase::from_axioms(subset.iter().map(|&i| axioms[i].clone()));
            let hit = QueryEngine::with_config(&kb, config.clone()).entails(query)?;
            any |= hit;
            all &= hit;
        }
        Ok(match (mode, any, all) {
            (McsMode::Skeptical, _, true) | (McsMode::Credulous, true, _) => Answer::Yes,
            _ => Answer::No,
        })
    }
}

/// Huang-style syntactic-relevance selection.
pub struct RelevanceBaseline {
    axioms: Vec<Axiom>,
    config: Config,
}

impl RelevanceBaseline {
    /// Wrap a KB.
    pub fn new(kb: &KnowledgeBase) -> Self {
        RelevanceBaseline {
            axioms: kb.axioms().to_vec(),
            config: Config::default(),
        }
    }

    fn axiom_signature(ax: &Axiom) -> Signature {
        let mut sig = Signature::default();
        sig.extend_from_axiom(ax);
        sig
    }

    fn shares_symbol(a: &Signature, b: &Signature) -> bool {
        a.concepts.intersection(&b.concepts).next().is_some()
            || a.roles.intersection(&b.roles).next().is_some()
            || a.data_roles.intersection(&b.data_roles).next().is_some()
            || a.individuals.intersection(&b.individuals).next().is_some()
    }

    /// The increasing relevance neighborhoods `Σ₁ ⊆ Σ₂ ⊆ …` of a query:
    /// `Σ₁` is the directly relevant axioms, `Σ_{k+1}` adds axioms
    /// sharing a symbol with `Σ_k`.
    pub fn neighborhoods(&self, query: &Axiom) -> Vec<Vec<usize>> {
        let sigs: Vec<Signature> = self.axioms.iter().map(Self::axiom_signature).collect();
        let mut frontier_sig = Self::axiom_signature(query);
        let mut selected: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        loop {
            let mut grew = false;
            for (i, sig) in sigs.iter().enumerate() {
                if !selected.contains(&i) && Self::shares_symbol(&frontier_sig, sig) {
                    selected.push(i);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
            selected.sort_unstable();
            out.push(selected.clone());
            // Extend the frontier signature with everything selected.
            for &i in &selected {
                let s = &sigs[i];
                frontier_sig.concepts.extend(s.concepts.iter().cloned());
                frontier_sig.roles.extend(s.roles.iter().cloned());
                frontier_sig.data_roles.extend(s.data_roles.iter().cloned());
                frontier_sig
                    .individuals
                    .extend(s.individuals.iter().cloned());
            }
        }
        out
    }
}

impl InconsistencyBaseline for RelevanceBaseline {
    fn name(&self) -> &'static str {
        "syntactic-relevance"
    }

    fn entails(&mut self, query: &Axiom) -> Result<Answer, ReasonerError> {
        let hoods = self.neighborhoods(query);
        // Use the largest consistent neighborhood.
        let mut chosen: Option<Vec<usize>> = None;
        for hood in &hoods {
            let kb = KnowledgeBase::from_axioms(hood.iter().map(|&i| self.axioms[i].clone()));
            if QueryEngine::with_config(&kb, self.config.clone()).is_consistent()? {
                chosen = Some(hood.clone());
            } else {
                break;
            }
        }
        let Some(indices) = chosen else {
            // Even the directly relevant axioms are inconsistent: the
            // selection strategy degenerates.
            return Ok(Answer::Trivial);
        };
        let kb = KnowledgeBase::from_axioms(indices.iter().map(|&i| self.axioms[i].clone()));
        Ok(
            if QueryEngine::with_config(&kb, self.config.clone()).entails(query)? {
                Answer::Yes
            } else {
                Answer::No
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;
    use dl::{Concept, IndividualName};

    fn q(i: &str, c: &str) -> Axiom {
        Axiom::ConceptAssertion(IndividualName::new(i), Concept::atomic(c))
    }

    /// The medical KB of the paper's Example 2, classically inconsistent.
    fn example2() -> KnowledgeBase {
        parse_kb(
            "SurgicalTeam SubClassOf not ReadPatientRecordTeam
             UrgencyTeam SubClassOf ReadPatientRecordTeam
             john : SurgicalTeam
             john : UrgencyTeam",
        )
        .unwrap()
    }

    #[test]
    fn mcs_enumeration_finds_repairs() {
        let mut b = McsBaseline::new(&example2(), McsMode::Skeptical);
        let subsets = b.maximal_consistent_subsets().unwrap();
        // Dropping any single axiom restores consistency → four MCS of
        // size 3.
        assert_eq!(subsets.len(), 4);
        assert!(subsets.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn skeptical_vs_credulous() {
        let query = q("john", "ReadPatientRecordTeam");
        let mut skeptical = McsBaseline::new(&example2(), McsMode::Skeptical);
        let mut credulous = McsBaseline::new(&example2(), McsMode::Credulous);
        // Some repairs drop UrgencyTeam(john) or the second axiom, so the
        // skeptical answer is No; a repair keeping them gives credulous
        // Yes.
        assert_eq!(skeptical.entails(&query).unwrap(), Answer::No);
        assert_eq!(credulous.entails(&query).unwrap(), Answer::Yes);
    }

    #[test]
    fn mcs_on_consistent_kb_is_plain_entailment() {
        let kb = parse_kb("A SubClassOf B\nx : A").unwrap();
        let mut b = McsBaseline::new(&kb, McsMode::Skeptical);
        assert_eq!(b.entails(&q("x", "B")).unwrap(), Answer::Yes);
        assert_eq!(b.entails(&q("x", "C")).unwrap(), Answer::No);
    }

    #[test]
    fn relevance_neighborhoods_grow_monotonically() {
        let kb = parse_kb(
            "A SubClassOf B
             B SubClassOf C
             D SubClassOf E
             x : A",
        )
        .unwrap();
        let b = RelevanceBaseline::new(&kb);
        let hoods = b.neighborhoods(&q("x", "A"));
        assert!(!hoods.is_empty());
        for w in hoods.windows(2) {
            assert!(w[0].len() <= w[1].len());
            assert!(w[0].iter().all(|i| w[1].contains(i)));
        }
        // The D ⊑ E axiom is never relevant.
        let last = hoods.last().unwrap();
        assert!(!last.contains(&2));
    }

    #[test]
    fn relevance_answers_from_consistent_neighborhood() {
        // The contradiction lives far from the query, so relevance-based
        // selection answers meaningfully where classical explodes.
        let kb = parse_kb(
            "A SubClassOf B
             x : A
             y : Weird and not Weird",
        )
        .unwrap();
        let mut b = RelevanceBaseline::new(&kb);
        assert_eq!(b.entails(&q("x", "B")).unwrap(), Answer::Yes);
    }

    #[test]
    fn relevance_degenerates_when_conflict_is_local() {
        // The query symbol is the conflict: Σ₁ already inconsistent.
        let kb = parse_kb("x : A\nx : not A").unwrap();
        let mut b = RelevanceBaseline::new(&kb);
        assert_eq!(b.entails(&q("x", "A")).unwrap(), Answer::Trivial);
    }
}

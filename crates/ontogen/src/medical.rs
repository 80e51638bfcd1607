//! The medical access-control workload — the paper's motivating scenario
//! (§1 and Example 2) at configurable scale.
//!
//! `n_teams` hospital teams alternate between permitting and forbidding
//! access to patient records; `n_staff` staff members join `memberships`
//! teams each. A `conflict_fraction` of the staff is deliberately placed
//! in one permitting and one forbidding team — each such member is a
//! "john" from Example 2: classically explosive, four-valued localized.

use dl::axiom::Axiom;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the medical workload.
#[derive(Debug, Clone)]
pub struct MedicalParams {
    /// Number of teams (≥ 2; even indices permit, odd forbid).
    pub n_teams: usize,
    /// Number of staff members.
    pub n_staff: usize,
    /// Fraction of staff placed in conflicting teams.
    pub conflict_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MedicalParams {
    fn default() -> Self {
        MedicalParams {
            n_teams: 4,
            n_staff: 10,
            conflict_fraction: 0.2,
            seed: 0,
        }
    }
}

/// The permission class every team relates to.
pub fn permission_class() -> ConceptName {
    ConceptName::new("ReadPatientRecordTeam")
}

/// Team class name.
pub fn team_name(i: usize) -> ConceptName {
    ConceptName::new(format!("Team{i}"))
}

/// Staff individual name.
pub fn staff_name(i: usize) -> IndividualName {
    IndividualName::new(format!("staff{i}"))
}

/// Generate the workload; returns the KB and the indices of the staff
/// with injected conflicts (for the experiment's query split).
pub fn medical_kb(p: &MedicalParams) -> (KnowledgeBase, Vec<usize>) {
    assert!(p.n_teams >= 2, "need at least one permit/forbid pair");
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut kb = KnowledgeBase::new();
    let perm = Concept::atomic(permission_class());
    for t in 0..p.n_teams {
        let team = Concept::atomic(team_name(t));
        let rhs = if t % 2 == 0 {
            perm.clone()
        } else {
            perm.clone().not()
        };
        kb.add(Axiom::ConceptInclusion(team, rhs));
    }
    let mut conflicted = Vec::new();
    for s in 0..p.n_staff {
        let in_conflict = rng.gen_bool(p.conflict_fraction);
        if in_conflict {
            // One permitting, one forbidding team.
            let permit = 2 * rng.gen_range(0..p.n_teams / 2);
            let forbid_options = p.n_teams / 2;
            let forbid = 2 * rng.gen_range(0..forbid_options) + 1;
            kb.add(Axiom::ConceptAssertion(
                staff_name(s),
                Concept::atomic(team_name(permit)),
            ));
            kb.add(Axiom::ConceptAssertion(
                staff_name(s),
                Concept::atomic(team_name(forbid)),
            ));
            conflicted.push(s);
        } else {
            let team = rng.gen_range(0..p.n_teams);
            kb.add(Axiom::ConceptAssertion(
                staff_name(s),
                Concept::atomic(team_name(team)),
            ));
        }
    }
    (kb, conflicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableau::QueryEngine;

    #[test]
    fn no_conflicts_means_consistent() {
        let (kb, conflicted) = medical_kb(&MedicalParams {
            conflict_fraction: 0.0,
            ..Default::default()
        });
        assert!(conflicted.is_empty());
        assert!(QueryEngine::new(&kb).is_consistent().unwrap());
    }

    #[test]
    fn full_conflicts_mean_inconsistent() {
        let (kb, conflicted) = medical_kb(&MedicalParams {
            conflict_fraction: 1.0,
            n_staff: 3,
            ..Default::default()
        });
        assert_eq!(conflicted.len(), 3);
        assert!(!QueryEngine::new(&kb).is_consistent().unwrap());
    }

    #[test]
    fn generation_is_deterministic() {
        let p = MedicalParams::default();
        assert_eq!(medical_kb(&p).0, medical_kb(&p).0);
    }

    #[test]
    fn conflicted_staff_join_opposing_teams() {
        let (kb, conflicted) = medical_kb(&MedicalParams {
            conflict_fraction: 1.0,
            n_staff: 1,
            ..Default::default()
        });
        assert_eq!(conflicted, vec![0]);
        let teams: Vec<usize> = kb
            .abox()
            .filter_map(|ax| match ax {
                Axiom::ConceptAssertion(_, Concept::Atomic(name)) => name
                    .as_str()
                    .strip_prefix("Team")
                    .and_then(|s| s.parse().ok()),
                _ => None,
            })
            .collect();
        assert_eq!(teams.len(), 2);
        assert_eq!(teams[0] % 2, 0);
        assert_eq!(teams[1] % 2, 1);
    }
}

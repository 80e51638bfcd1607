//! A LUBM-flavoured university workload: the de-facto standard shape for
//! DL benchmarking (departments, professors, students, courses,
//! advisership and teaching relations), sized by a department count.
//!
//! The generator produces a *classical* KB plus a paper-flavoured twist:
//! an optional rate of "double advisership" conflicts — students asserted
//! to be advised by someone who is simultaneously recorded as not being
//! faculty — yielding the natural merged-data contradictions the paper
//! targets.

use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::{IndividualName, RoleName};
use dl::Concept;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the university generator.
#[derive(Debug, Clone)]
pub struct UniversityParams {
    /// Number of departments.
    pub departments: usize,
    /// Professors per department.
    pub professors_per_department: usize,
    /// Students per professor.
    pub students_per_professor: usize,
    /// Fraction of students whose advisor is also (contradictorily)
    /// recorded as non-faculty.
    pub conflict_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniversityParams {
    fn default() -> Self {
        UniversityParams {
            departments: 2,
            professors_per_department: 3,
            students_per_professor: 2,
            conflict_fraction: 0.0,
            seed: 0,
        }
    }
}

fn c(s: &str) -> Concept {
    Concept::atomic(s)
}

/// The fixed schema (TBox) shared by all instances.
pub fn university_tbox() -> Vec<Axiom> {
    let advises = RoleExpr::named("advises");
    let teaches = RoleExpr::named("teaches");
    let member_of = RoleExpr::named("memberOf");
    vec![
        Axiom::ConceptInclusion(c("Professor"), c("Faculty")),
        Axiom::ConceptInclusion(c("Faculty"), c("Employee")),
        Axiom::ConceptInclusion(c("Employee"), c("Person")),
        Axiom::ConceptInclusion(c("Student"), c("Person")),
        Axiom::disjoint(c("Student"), c("Faculty")),
        // Whoever advises someone is faculty.
        Axiom::ConceptInclusion(Concept::some(advises.clone(), Concept::Top), c("Faculty")),
        // Advisees of anyone are students.
        Axiom::range(advises, c("Student")),
        // Teachers teach courses.
        Axiom::range(teaches.clone(), c("Course")),
        Axiom::ConceptInclusion(Concept::some(teaches, Concept::Top), c("Faculty")),
        // Department membership domain.
        Axiom::domain(member_of.clone(), c("Person")),
        Axiom::range(member_of, c("Department")),
    ]
}

/// Individual names.
pub fn department_name(d: usize) -> IndividualName {
    IndividualName::new(format!("dept{d}"))
}
/// Professor `p` of department `d`.
pub fn professor_name(d: usize, p: usize) -> IndividualName {
    IndividualName::new(format!("prof_{d}_{p}"))
}
/// Student `s` of professor `p` in department `d`.
pub fn student_name(d: usize, p: usize, s: usize) -> IndividualName {
    IndividualName::new(format!("student_{d}_{p}_{s}"))
}

/// Generate the workload; returns the KB and the conflicted professors.
pub fn university_kb(params: &UniversityParams) -> (KnowledgeBase, Vec<IndividualName>) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut kb = KnowledgeBase::from_axioms(university_tbox());
    let mut conflicted = Vec::new();
    for d in 0..params.departments {
        kb.add(Axiom::ConceptAssertion(department_name(d), c("Department")));
        for p in 0..params.professors_per_department {
            let prof = professor_name(d, p);
            kb.add(Axiom::ConceptAssertion(prof.clone(), c("Professor")));
            kb.add(Axiom::RoleAssertion(
                RoleName::new("memberOf"),
                prof.clone(),
                department_name(d),
            ));
            kb.add(Axiom::RoleAssertion(
                RoleName::new("teaches"),
                prof.clone(),
                IndividualName::new(format!("course_{d}_{p}")),
            ));
            let conflict_here = rng.gen_bool(params.conflict_fraction);
            if conflict_here {
                // Merged-data contradiction: the professor is also
                // recorded as not faculty.
                kb.add(Axiom::ConceptAssertion(prof.clone(), c("Faculty").not()));
                conflicted.push(prof.clone());
            }
            for s in 0..params.students_per_professor {
                let student = student_name(d, p, s);
                kb.add(Axiom::ConceptAssertion(student.clone(), c("Student")));
                kb.add(Axiom::RoleAssertion(
                    RoleName::new("advises"),
                    prof.clone(),
                    student.clone(),
                ));
                kb.add(Axiom::RoleAssertion(
                    RoleName::new("memberOf"),
                    student,
                    department_name(d),
                ));
            }
        }
    }
    (kb, conflicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableau::QueryEngine;

    #[test]
    fn clean_university_is_consistent() {
        let (kb, conflicted) = university_kb(&UniversityParams::default());
        assert!(conflicted.is_empty());
        let r = QueryEngine::new(&kb);
        assert!(r.is_consistent().unwrap());
        // Professors are persons via the chain.
        assert!(r
            .is_instance_of(&professor_name(0, 0), &c("Person"))
            .unwrap());
        // Students are not faculty.
        assert!(r
            .is_instance_of(&student_name(0, 0, 0), &c("Faculty").not())
            .unwrap());
        // Advisers are faculty via the ∃advises.⊤ axiom.
        assert!(r
            .is_instance_of(&professor_name(0, 0), &c("Faculty"))
            .unwrap());
    }

    #[test]
    fn conflicted_university_is_classically_inconsistent() {
        let (kb, conflicted) = university_kb(&UniversityParams {
            conflict_fraction: 1.0,
            departments: 1,
            professors_per_department: 1,
            students_per_professor: 1,
            seed: 3,
        });
        assert_eq!(conflicted.len(), 1);
        let r = QueryEngine::new(&kb);
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn four_valued_reading_localizes_the_conflict() {
        use shoin4::{InclusionKind, KnowledgeBase4, Reasoner4};
        let (kb, conflicted) = university_kb(&UniversityParams {
            conflict_fraction: 1.0,
            departments: 1,
            professors_per_department: 2,
            students_per_professor: 1,
            seed: 5,
        });
        let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
        let r = Reasoner4::new(&kb4);
        assert!(r.is_satisfiable().unwrap());
        for prof in &conflicted {
            assert_eq!(
                r.query(prof, &c("Faculty")).unwrap(),
                fourval::TruthValue::Both
            );
        }
        // Students stay clean.
        assert_eq!(
            r.query(&student_name(0, 0, 0), &c("Student")).unwrap(),
            fourval::TruthValue::True
        );
    }

    #[test]
    fn size_scales_with_parameters() {
        let small = university_kb(&UniversityParams::default()).0.len();
        let big = university_kb(&UniversityParams {
            departments: 4,
            ..Default::default()
        })
        .0
        .len();
        assert!(big > small * 15 / 10);
    }
}

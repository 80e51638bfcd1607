//! The paper's Examples 3 and 5: Tweety the penguin, material vs
//! internal inclusion, and the transformation pipeline made visible.
//!
//! Run with `cargo run --example penguin`.
//!
//! As a classical SHOIN(D) KB the penguin ontology is unsatisfiable —
//! everything follows from it. As a SHOIN(D)4 KB with the bird-flying
//! rule read *materially* ("birds generally fly"), tweety is simply an
//! exception: `Fly⁻(tweety)` holds and `Fly⁺(tweety)` does not
//! (Example 5's exact result).

use dl::{Concept, IndividualName};
use fourval::TruthValue;
use shoin4::{parse_kb4, Reasoner4};
use tableau::QueryEngine;

const CLASSICAL: &str = "Bird and (hasWing some Wing) SubClassOf Fly
Penguin SubClassOf Bird
Penguin SubClassOf hasWing some Wing
Penguin SubClassOf not Fly
tweety : Bird
tweety : Penguin
w : Wing
hasWing(tweety, w)";

const FOUR_VALUED: &str = "Bird and (hasWing some Wing) MaterialSubClassOf Fly
Penguin SubClassOf Bird
Penguin SubClassOf hasWing some Wing
Penguin SubClassOf not Fly
tweety : Bird
tweety : Penguin
w : Wing
hasWing(tweety, w)";

fn main() {
    // --- Classical reading: explosion. -----------------------------------
    let classical = dl::parser::parse_kb(CLASSICAL).expect("classical KB parses");
    let classical_reasoner = QueryEngine::new(&classical);
    let consistent = classical_reasoner.is_consistent().unwrap();
    println!("classical SHOIN(D) reading consistent? {consistent}");
    assert!(!consistent);
    println!("=> every query is (vacuously) entailed; the KB is useless.\n");

    // --- Four-valued reading: the exception is just an exception. --------
    let kb4 = parse_kb4(FOUR_VALUED).expect("four-valued KB parses");
    let r4 = Reasoner4::new(&kb4);
    println!(
        "SHOIN(D)4 reading satisfiable? {}",
        r4.is_satisfiable().unwrap()
    );

    println!("\nclassical induced KB K̄ (Example 5's transformation):");
    println!("{}", dl::printer::print_kb(r4.induced_kb()));

    let tweety = IndividualName::new("tweety");
    for concept in ["Fly", "Bird", "Penguin"] {
        let c = Concept::atomic(concept);
        let v = r4.query(&tweety, &c).unwrap();
        println!("tweety : {concept:<8} = {v}");
    }
    let fly = Concept::atomic("Fly");
    assert_eq!(r4.query(&tweety, &fly).unwrap(), TruthValue::False);
    println!("\nExample 5 verified: Fly⁻(tweety) holds, Fly⁺(tweety) does not —");
    println!("tweety cannot fly, and nothing else explodes.");
}

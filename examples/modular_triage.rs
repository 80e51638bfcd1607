//! Modular triage: on a KB assembled from independent regions, a
//! contradiction in one region is *statically* confined — the signature
//! dataflow analysis partitions the axioms into clean and contaminated
//! regions without running the tableau, and module-scoped query
//! execution lets clean-region queries run on their own island's
//! axioms, never paying for the contested ones.
//!
//! Run with `cargo run --example modular_triage -- [n_islands]`.

use dl::Concept;
use ontogen::modular::{modular_kb4, ModularParams};
use ontolint::dataflow::{contradiction_seeds, propagate, ModuleExtractor};
use shoin4::dataflow::concept_seed;
use shoin4::reasoner4::QueryOptions;
use shoin4::Reasoner4;
use tableau::Config;

fn main() {
    let n_islands: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let (kb, truth) = modular_kb4(&ModularParams {
        seed: 1,
        n_islands,
        ..ModularParams::default()
    });
    println!(
        "modular KB: {} axioms in {} islands, {} carrying a planted contradiction",
        kb.len(),
        n_islands,
        truth.contaminated.len()
    );

    // Static triage: lint, seed the propagation with the contradiction
    // findings, and partition the KB. No tableau so far.
    let diags = ontolint::lint_kb4(&kb);
    let seeds = contradiction_seeds(&diags);
    let extractor = ModuleExtractor::new(&kb);
    let cont = propagate(extractor.graph(), &seeds);
    println!(
        "\ncontamination: {} seed axioms → {} contaminated / {} clean axioms \
         (radius {})",
        cont.seeds.len(),
        cont.contaminated.len(),
        cont.clean.len(),
        cont.max_radius().unwrap_or(0)
    );
    println!("\nper-region report:");
    for (i, island) in truth.islands.iter().enumerate() {
        let dirty = island
            .iter()
            .filter(|a| cont.distance[**a].is_some())
            .count();
        let status = if dirty > 0 {
            format!("CONTAMINATED ({dirty}/{} axioms reachable)", island.len())
        } else {
            "clean".to_string()
        };
        println!("  island {i:>2}: {status}");
        // The analysis must agree with the planted ground truth.
        assert_eq!(dirty > 0, truth.contaminated.contains(&i));
    }

    // Module-scoped querying: each query the told index does not settle
    // runs on its extracted module only.
    let scoped = Reasoner4::with_options(
        &kb,
        Config {
            module_scoping: true,
            ..Config::default()
        },
        QueryOptions { jobs: 1 },
    );
    let plain = Reasoner4::new(&kb);

    println!("\nclean-region queries (module-scoped):");
    for &island in &truth.clean() {
        let a = &truth.island_individuals[island][0];
        let c = Concept::atomic(truth.island_concepts[island][2].clone());
        let module = extractor.extract(&concept_seed(&c));
        let v = scoped.query(a, &c).expect("within limits");
        println!(
            "  {a} : {c} = {v}   (module: {} of {} axioms, all on island {island})",
            module.axioms.len(),
            kb.len()
        );
        assert_eq!(v, plain.query(a, &c).expect("within limits"));
        let island_set: std::collections::BTreeSet<usize> =
            truth.islands[island].iter().copied().collect();
        assert!(module.axioms.is_subset(&island_set));
        assert!(module.axioms.iter().all(|i| cont.distance[*i].is_none()));
    }

    // The contested fact itself still answers — and answers ⊤.
    let dirty = truth.contaminated[0];
    let a = &truth.island_individuals[dirty][0];
    let c = Concept::atomic(truth.island_concepts[dirty][0].clone());
    let v = scoped.query(a, &c).expect("within limits");
    println!("\ncontested fact: {a} : {c} = {v}");
    assert_eq!(v, fourval::TruthValue::Both);

    let stats = scoped.stats();
    println!(
        "\n{} scoped queries touched {} module axioms in total — an unscoped \
         engine would have carried {} axioms into every search.",
        stats.scoped_queries,
        stats.module_axioms,
        kb.len()
    );
    assert!(stats.module_axioms < stats.scoped_queries * kb.len() as u64);
}

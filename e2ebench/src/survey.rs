//! `survey`: the analyst's batch path. Each op is one pass of the calls
//! `shoin4 report` and then `shoin4 classify` make, over two separate
//! KBs: ontogen `medical` (answered by the told and Horn rungs) and
//! ontogen `university` with merged-data conflicts (its disjointness
//! axiom joins every module, so every query falls to the tableau).

use crate::replica::{Counters, Replica};
use crate::util::{self, Args, Outcome, SpanStats, Tracer, LADDER_LAYERS};
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use fourval::TruthValue;
use ontogen::medical::{medical_kb, permission_class, staff_name, MedicalParams};
use ontogen::university::{university_kb, UniversityParams};
use shoin4::analysis::{classify4, contradiction_report_seeded, ContradictionReport};
use shoin4::reasoner4::QueryOptions;
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Set-ups timed before the passes; with the one of each pass and
/// `SETUPS_PER_PASS` more after it they make the `setup_s` median, which
/// so spans the whole run rather than one moment of the host.
const SETUP_REPS: usize = 8;
const SETUPS_PER_PASS: usize = 2;

type Taxonomy = BTreeMap<ConceptName, Vec<ConceptName>>;

/// One generated KB: its text and the facts planted as contradictions.
struct Input {
    name: &'static str,
    text: String,
    planted: Vec<(IndividualName, ConceptName)>,
}

fn inputs(seed: u64) -> Vec<Input> {
    let (med, conflicted) = medical_kb(&MedicalParams {
        n_teams: 12,
        n_staff: 400,
        conflict_fraction: 0.2,
        seed,
    });
    let (uni, profs) = university_kb(&UniversityParams {
        departments: 4,
        professors_per_department: 4,
        students_per_professor: 3,
        conflict_fraction: 0.25,
        seed,
    });
    let lift = |kb| shoin4::print_kb4(&KnowledgeBase4::from_classical(kb, InclusionKind::Internal));
    vec![
        Input {
            name: "medical",
            text: lift(&med),
            planted: conflicted
                .into_iter()
                .map(|s| (staff_name(s), permission_class()))
                .collect(),
        },
        Input {
            name: "university",
            text: lift(&uni),
            planted: profs
                .into_iter()
                .map(|p| (p, ConceptName::new("Faculty")))
                .collect(),
        },
    ]
}

/// What `report` and `classify` hold once set up, per KB.
struct Prepared {
    kb: KnowledgeBase4,
    certain: Vec<(IndividualName, ConceptName)>,
    report: Reasoner4,
    classify: Reasoner4,
}

fn reasoner(kb: &KnowledgeBase4) -> Reasoner4 {
    // CLI defaults: jobs = nproc, Horn path on, module scoping off.
    Reasoner4::with_options(kb, tableau::Config::default(), QueryOptions::default())
}

/// The set-up half of both commands: each parses the file and builds
/// its own reasoner; `report` also lints for certain contested facts.
fn prepare(input: &Input, t: &mut Tracer, op: u64) -> Prepared {
    let parse = |t: &mut Tracer| {
        t.leaf("parser4.parse_kb", op, || {
            shoin4::parse_kb4(&input.text).expect("generated KB parses")
        })
    };
    let kb = parse(t);
    let certain = t.leaf("ontolint.lint", op, || {
        ontolint::certain_contested_facts(&ontolint::lint_kb4(&kb))
    });
    let report = t.leaf("program.reasoner_build", op, || reasoner(&kb));
    let classify_kb = parse(t);
    let classify = t.leaf("program.reasoner_build", op, || reasoner(&classify_kb));
    Prepared {
        kb,
        certain,
        report,
        classify,
    }
}

#[derive(Clone)]
struct PassResult {
    report_us: f64,
    classify_us: f64,
    reports: Vec<ContradictionReport>,
    taxonomies: Vec<Taxonomy>,
}

fn pass(prepared: &[Prepared], t: &mut Tracer, op: u64) -> Result<PassResult, String> {
    let mut out = PassResult {
        report_us: 0.0,
        classify_us: 0.0,
        reports: Vec::new(),
        taxonomies: Vec::new(),
    };
    for p in prepared {
        let t0 = Instant::now();
        let report = t.leaf("program.report", op, || {
            contradiction_report_seeded(&p.report, &p.kb, &p.certain)
        });
        out.report_us += t0.elapsed().as_secs_f64() * 1e6;
        out.reports
            .push(report.map_err(|e| format!("report: {e}"))?);
    }
    for p in prepared {
        let t0 = Instant::now();
        let taxonomy = t.leaf("program.classify", op, || classify4(&p.classify, &p.kb));
        out.classify_us += t0.elapsed().as_secs_f64() * 1e6;
        out.taxonomies
            .push(taxonomy.map_err(|e| format!("classify: {e}"))?);
    }
    Ok(out)
}

fn questions(prepared: &[Prepared]) -> u64 {
    prepared
        .iter()
        .map(|p| {
            let sig = p.kb.signature();
            (sig.individuals.len() * sig.concepts.len() + sig.concepts.len().pow(2)) as u64
        })
        .sum()
}

/// Planted contradictions must come back ⊤, and a pass must reproduce
/// the first pass exactly. Returns the number of failed checks.
fn check(inputs: &[Input], first: &PassResult, this: &PassResult, notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (input, report) in inputs.iter().zip(&this.reports) {
        let contested: BTreeSet<_> = report.contested.iter().collect();
        for fact in &input.planted {
            if !contested.contains(fact) {
                failed += 1;
                notes.push(format!(
                    "# FAIL {}: planted {} : {} is not ⊤",
                    input.name, fact.0, fact.1
                ));
            }
        }
    }
    for (i, (a, b)) in first.reports.iter().zip(&this.reports).enumerate() {
        if (&a.contested, &a.asserted, &a.denied, a.unknown)
            != (&b.contested, &b.asserted, &b.denied, b.unknown)
        {
            failed += 1;
            notes.push(format!(
                "# FAIL {}: report differs from the first pass",
                inputs[i].name
            ));
        }
    }
    for (i, (a, b)) in first.taxonomies.iter().zip(&this.taxonomies).enumerate() {
        if a != b {
            failed += 1;
            notes.push(format!(
                "# FAIL {}: taxonomy differs from the first pass",
                inputs[i].name
            ));
        }
    }
    failed
}

/// Known subsumptions of the two schemas.
fn check_taxonomy(first: &PassResult, notes: &mut Vec<String>) -> u64 {
    let expect = [
        (1, "Professor", "Faculty"),
        (1, "Faculty", "Employee"),
        (1, "Professor", "Person"),
        (1, "Student", "Person"),
        (0, "Team0", "ReadPatientRecordTeam"),
        (0, "Team2", "ReadPatientRecordTeam"),
    ];
    let mut failed = 0;
    for (kb, sub, sup) in expect {
        let ok = first.taxonomies[kb]
            .get(&ConceptName::new(sub))
            .is_some_and(|s| s.contains(&ConceptName::new(sup)));
        if !ok {
            failed += 1;
            notes.push(format!("# FAIL classify: {sub} ⊏ {sup} missing"));
        }
    }
    failed
}

/// Re-answer every question of the pass through the layer replica and
/// compare with the program's verdicts. Returns mismatches.
fn replicate(
    prepared: &[Prepared],
    result: &PassResult,
    t: &mut Tracer,
    op: u64,
    counters: &mut Counters,
) -> u64 {
    let mut mismatches = 0;
    for (p, (report, taxonomy)) in prepared
        .iter()
        .zip(result.reports.iter().zip(&result.taxonomies))
    {
        let mut verdicts: BTreeMap<(&IndividualName, &ConceptName), TruthValue> = BTreeMap::new();
        for (who, what) in &report.contested {
            verdicts.insert((who, what), TruthValue::Both);
        }
        for (who, what) in &report.asserted {
            verdicts.insert((who, what), TruthValue::True);
        }
        for (who, what) in &report.denied {
            verdicts.insert((who, what), TruthValue::False);
        }
        let seeded: BTreeSet<_> = p.certain.iter().map(|(a, c)| (a, c)).collect();
        let sig = p.kb.signature();
        let mut replica = Replica::new(&p.kb, false);
        for a in &sig.individuals {
            for c in &sig.concepts {
                if seeded.contains(&(a, c)) {
                    continue;
                }
                let want = verdicts
                    .get(&(a, c))
                    .copied()
                    .unwrap_or(TruthValue::Neither);
                let got = replica.query(t, op, a, &Concept::atomic(c.as_str()));
                if got.as_ref().ok() != Some(&want) {
                    mismatches += 1;
                }
            }
        }
        counters.absorb(&replica.counters);
        let mut replica = Replica::new(&p.kb, false);
        for a in &sig.concepts {
            let supers = &taxonomy[a];
            for b in &sig.concepts {
                let ax = Axiom4::ConceptInclusion(
                    InclusionKind::Internal,
                    Concept::atomic(a.as_str()),
                    Concept::atomic(b.as_str()),
                );
                let got = replica.entails(t, op, &ax);
                if got.as_ref().ok() != Some(&supers.contains(b)) {
                    mismatches += 1;
                }
            }
        }
        counters.absorb(&replica.counters);
    }
    mismatches
}

/// The passes of one phase. A traced phase also re-answers every
/// question through the replica and collects the reasoners' counters.
#[derive(Default)]
struct Passes {
    setup_s: Vec<f64>,
    pass_us: Vec<f64>,
    report_us: Vec<f64>,
    classify_us: Vec<f64>,
    /// Program wall time of every call the benchmark makes (set-up included).
    program_us: f64,
    questions: u64,
    first: Option<PassResult>,
    failed: u64,
    stats: tableau::Stats,
    counters: Counters,
}

fn run_passes(
    inputs: &[Input],
    t: &mut Tracer,
    limit: Option<usize>,
    seconds: f64,
    notes: &mut Vec<String>,
) -> Passes {
    let mut p = Passes::default();
    let start = Instant::now();
    let mut op = 0u64;
    loop {
        match limit {
            Some(n) if op as usize >= n => break,
            None if start.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
        op += 1;
        let t0 = Instant::now();
        let prepared: Vec<Prepared> = inputs.iter().map(|i| prepare(i, t, op)).collect();
        let setup = t0.elapsed().as_secs_f64();
        p.setup_s.push(setup);
        p.questions += questions(&prepared);
        let result = match pass(&prepared, t, op) {
            Ok(r) => r,
            Err(e) => {
                notes.push(format!("# FAIL pass {op}: {e}"));
                p.failed += 1;
                continue;
            }
        };
        p.program_us += setup * 1e6 + result.report_us + result.classify_us;
        p.pass_us.push(result.report_us + result.classify_us);
        p.report_us.push(result.report_us);
        p.classify_us.push(result.classify_us);
        if t.is_on() {
            for prep in &prepared {
                p.stats.absorb(&prep.report.stats());
                p.stats.absorb(&prep.classify.stats());
                t.leaf("transform.kb", op, || shoin4::transform_kb(&prep.kb));
                t.leaf("told.build", op, || {
                    shoin4::told::ToldIndex::build(&prep.kb)
                });
            }
            p.failed += replicate(&prepared, &result, t, op, &mut p.counters);
        }
        let base = p.first.get_or_insert_with(|| result.clone());
        p.failed += check(inputs, base, &result, notes);
        drop(prepared);
        let mut off = Tracer::new(false, start);
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            let prepared: Vec<Prepared> = inputs.iter().map(|i| prepare(i, &mut off, 0)).collect();
            p.setup_s.push(t0.elapsed().as_secs_f64());
            drop(prepared);
        }
    }
    if let Some(first) = &p.first {
        p.failed += check_taxonomy(first, notes);
    }
    p
}

pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let prepared: Vec<Prepared> = inputs.iter().map(|i| prepare(i, &mut off, 0)).collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(prepared);
    }
    let a = run_passes(&inputs, &mut off, None, args.seconds, &mut out.notes);
    let rss = util::peak_rss_mb();
    setup_s.extend(&a.setup_s);
    let passes = a.pass_us.len();
    out.attempted = a.questions;
    out.failed = a.failed;
    out.checks_ok = passes > 0 && a.failed == 0;
    out.note(format!(
        "# survey: {passes} passes, {} questions; report_s p50 {:.4}, classify_s p50 {:.4}, setup_s p50 {:.4} (n={}); failed_frac {}",
        out.attempted,
        util::median(&a.report_us) / 1e6,
        util::median(&a.classify_us) / 1e6,
        util::median(&setup_s),
        setup_s.len(),
        util::ratio(out.failed as f64, out.attempted as f64)
    ));
    out.note(format!("# setup_s samples {setup_s:?}"));
    if !args.trace {
        out.set("setup_s", util::median(&setup_s));
        out.set(
            "ops_per_s",
            passes as f64 / (a.pass_us.iter().sum::<f64>() / 1e6),
        );
        out.set("op_p50_us", util::median(&a.pass_us));
        out.set("peak_rss_mb", rss);
        return out;
    }

    // The traced phase repeats the untraced phase's passes.
    let mut t = Tracer::new(true, epoch);
    let b = run_passes(&inputs, &mut t, Some(passes), args.seconds, &mut out.notes);
    let diverged = match (&a.first, &b.first) {
        (Some(x), Some(y)) => check(&inputs, x, y, &mut out.notes),
        _ => 1,
    };
    out.failed += b.failed + diverged;
    out.checks_ok &= b.failed + diverged == 0;
    let spans = SpanStats::of(&[&t]);
    let calls_us = spans.total_us("program.report") + spans.total_us("program.classify");
    let (n, c, stats) = (passes as f64, b.counters, b.stats);
    out.set(
        "parser4.kb_parse_ms",
        spans.total_us("parser4.parse_kb") / (2.0 * n) / 1e3,
    );
    out.set(
        "ontolint.lint_ms",
        spans.total_us("ontolint.lint") / n / 1e3,
    );
    out.set("transform.kb_ms", spans.total_us("transform.kb") / n / 1e3);
    out.set("told.build_ms", spans.total_us("told.build") / n / 1e3);
    crate::replica::ladder_metrics(&mut out, &spans, &c, &stats, c.extractions as f64 / n, n);
    out.set(
        "trace.overhead",
        util::ratio(b.program_us, a.program_us) - 1.0,
    );
    out.set(
        "trace.coverage",
        util::ratio(spans.layer_self_us(&LADDER_LAYERS), calls_us),
    );
    let path = util::out_dir().join(format!("spans-survey-{}.tsv", args.seed));
    util::write_spans(&path, &[&t]).expect("write span file");
    out.note(format!(
        "# spans: {} written to {}",
        t.spans.len(),
        path.display()
    ));
    out
}

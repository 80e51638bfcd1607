//! The `shoin4` command-line reasoner: load a SHOIN(D)4 ontology in the
//! text syntax and ask it things — satisfiability, four-valued queries,
//! contradiction reports, the classical translation, format conversion,
//! and the paper's Table 4.
//!
//! The command surface is a thin, fully testable library: [`run`] takes
//! the argument vector and returns the output text (or a [`CliError`]),
//! and `main.rs` only does I/O plumbing.

use dl::IndividualName;
use fourval::TruthValue;
use shoin4::analysis::{classify4, contradiction_report_seeded};
use shoin4::command::Command;
use shoin4::reasoner4::QueryOptions;
use shoin4::{parse_kb4, KnowledgeBase4, Reasoner4};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Errors surfaced to the user with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage; the string is the usage text.
    Usage(String),
    /// File I/O failure.
    Io(String, std::io::Error),
    /// Ontology parse failure.
    Parse(String),
    /// Reasoning hit a resource limit.
    Reasoning(tableau::ReasonerError),
    /// Snapshot decode failure.
    Snapshot(dl::snapshot::SnapshotError),
    /// Session storage (WAL/snapshot) failure.
    Session(shoin4::incremental::SessionError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "{u}"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Reasoning(e) => write!(f, "reasoning aborted: {e}"),
            CliError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CliError::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl From<tableau::ReasonerError> for CliError {
    fn from(e: tableau::ReasonerError) -> Self {
        CliError::Reasoning(e)
    }
}

impl From<shoin4::incremental::SessionError> for CliError {
    fn from(e: shoin4::incremental::SessionError) -> Self {
        CliError::Session(e)
    }
}

/// Usage text.
pub const USAGE: &str = "shoin4 — paraconsistent OWL DL reasoner (SHOIN(D)4)

USAGE:
    shoin4 check <ontology> [FLAGS]          satisfiability + statistics
    shoin4 query <ontology> <ind> <concept>  four-valued instance query
    shoin4 report <ontology> [FLAGS]         contradiction survey (⊤ map)
    shoin4 lint <ontology> [--format json]   static analysis (no tableau)
    shoin4 analyze <ontology> [--format json]
                                             static hardness analysis: each
                                             module's Horn core, disjunctive
                                             residue, ∃-depth bound and the
                                             predicted search-cost score the
                                             serving lanes admit on
    shoin4 modules <ontology> [--format json]
                                             signature dataflow: dependency
                                             components, dead axioms, the
                                             clean/contaminated partition and
                                             per-concept module sizes
    shoin4 classify <ontology> [FLAGS]       internal-inclusion taxonomy
    shoin4 transform <ontology>              print the classical induced KB
    shoin4 convert <in> <out>                text ⇄ binary snapshot (.dlkb)
    shoin4 session [SESSION FLAGS]           incremental add/retract/query
                                             session (script from --script
                                             FILE or stdin via `--script -`)
    shoin4 serve [SERVE FLAGS]               multi-tenant TCP server (one
                                             session per tenant, line
                                             protocol, JSON replies)
    shoin4 table4                            regenerate the paper's Table 4

FLAGS (check/report/classify, any order):
    --jobs N            N ≥ 1 worker threads (absent = auto)
    --stats             append search counters
    --module-scoping    run each query on its extracted module only

SESSION FLAGS (any order):
    --script FILE       verb script; `-` reads stdin (default `-`)
    --dir DIR           durable session directory (WAL + snapshots);
                        omitted = in-memory session
    --snapshot-every N  compact the WAL every N mutations (default 256)
    --stats             append search + cache counters

SERVE FLAGS (any order; --listen required):
    --listen ADDR       bind address, e.g. 127.0.0.1:7474 (port 0 = any
                        free port; the bound address is printed to stderr)
    --workers N         worker threads executing admitted requests (4)
    --queue-depth N     admission queue bound; beyond it requests are
                        shed with an `overloaded` error (64)
    --budget-ms N       per-request tableau time budget (10000)
    --kb ID=PATH        preload tenant ID from an ontology file
                        (repeatable)
    --serve-for-ms N    serve for N ms, then shut down and print
                        admission + shared-cache stats (for smoke tests)
    --lanes             cost-aware admission: requests whose predicted
                        hardness score reaches the threshold queue on a
                        separate heavy lane (see `shoin4 analyze`)
    --heavy-workers N   worker threads on the heavy lane (2; implies
                        --lanes)
    --heavy-queue-depth N
                        heavy-lane queue bound (16; implies --lanes)
    --heavy-budget-ms N per-request time budget on the heavy lane only
                        (absent = the global --budget-ms; implies
                        --lanes)
    --hardness-threshold X
                        score at which a request routes heavy (8;
                        implies --lanes)

Session scripts take one command per line: `add <axiom>`,
`retract <axiom>`, `query <ind> <concept>`, `role <role> <a> <b>`,
`entails <axiom>`, `check`, `stats`, plus `DataRole:` declarations
(which scope over later lines), blank lines and # comments.

The serve protocol is the same grammar, one command per line over TCP,
plus the connection verbs `tenant <id>` (select the session; required
first), `cancel [<id>]` and `quit`; replies are JSON objects (see
README §Serving).

Ontologies use the line-based Manchester-like syntax (see README).";

fn load_kb4(
    path: &str,
    read: &dyn Fn(&str) -> std::io::Result<Vec<u8>>,
) -> Result<KnowledgeBase4, CliError> {
    let bytes = read(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    if Path::new(path).extension().is_some_and(|e| e == "dlkb") {
        let kb = dl::snapshot::decode(&bytes).map_err(CliError::Snapshot)?;
        return Ok(KnowledgeBase4::from_classical(
            &kb,
            shoin4::InclusionKind::Internal,
        ));
    }
    let text =
        String::from_utf8(bytes).map_err(|_| CliError::Parse(format!("{path} is not UTF-8")))?;
    parse_kb4(&text).map_err(|e| CliError::Parse(e.to_string()))
}

/// Trailing flags accepted by `check`, `report` and `classify`.
#[derive(Debug, Default, Clone, Copy)]
struct QueryFlags {
    /// `--jobs N`: worker threads (0 = auto).
    jobs: usize,
    /// `--stats`: append the search-counter block.
    stats: bool,
    /// `--module-scoping`: run each query on its extracted module.
    module_scoping: bool,
}

impl QueryFlags {
    fn config(self) -> tableau::Config {
        tableau::Config {
            module_scoping: self.module_scoping,
            ..tableau::Config::default()
        }
    }

    fn options(self) -> QueryOptions {
        QueryOptions { jobs: self.jobs }
    }
}

/// Parse trailing query flags: `[--jobs N]` (N ≥ 1 worker threads;
/// absent = auto), `[--stats]` (append search counters) and
/// `[--module-scoping]` (scope each query to its module), in any order.
fn parse_query_flags(rest: &[String]) -> Result<QueryFlags, CliError> {
    let mut flags = QueryFlags::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => flags.jobs = n,
                _ => return Err(CliError::Usage(USAGE.to_string())),
            },
            "--stats" => flags.stats = true,
            "--module-scoping" => flags.module_scoping = true,
            _ => return Err(CliError::Usage(USAGE.to_string())),
        }
    }
    Ok(flags)
}

/// The search-counter block printed by `check` and by `--stats`.
fn write_stats_block(out: &mut String, stats: &tableau::Stats) {
    writeln!(
        out,
        "tableau:      {} nodes, {} rule applications, {} branches",
        stats.nodes_created, stats.rule_applications, stats.branches
    )
    .unwrap();
    let kinds: Vec<String> = tableau::clash::KIND_LABELS
        .iter()
        .zip(stats.clashes_by_kind.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(label, n)| format!("{label} {n}"))
        .collect();
    if kinds.is_empty() {
        writeln!(out, "clashes:      {}", stats.clashes).unwrap();
    } else {
        writeln!(
            out,
            "clashes:      {} ({})",
            stats.clashes,
            kinds.join(", ")
        )
        .unwrap();
    }
    writeln!(
        out,
        "search:       {} backjumps, {} graph clones, trail peak {}, branch depth {}",
        stats.backjumps, stats.graph_clones, stats.trail_len_peak, stats.branch_depth_peak
    )
    .unwrap();
    // Module counters appear only once a module was extracted (module
    // scoping, the Horn rung or a session), so runs that never extract
    // keep the shorter block.
    if stats.scoped_queries > 0 {
        writeln!(
            out,
            "modules:      {} scoped queries, {} module axioms total, {} µs extracting",
            stats.scoped_queries,
            stats.module_axioms,
            stats.module_extraction_ns / 1_000
        )
        .unwrap();
    }
    // Likewise for the Horn fast path: the line appears only once a
    // probe was actually routed (answered or fell back), so runs whose
    // probes never reach that rung keep the historical block
    // byte-identical.
    if stats.horn_queries > 0 || stats.horn_fallbacks > 0 {
        writeln!(
            out,
            "horn:         {} saturated queries, {} clauses, {} rounds, {} fallbacks",
            stats.horn_queries, stats.horn_clauses, stats.saturation_rounds, stats.horn_fallbacks
        )
        .unwrap();
    }
    // Cache observability (hits/misses): printed only once some cache
    // was actually consulted, so cache-free runs keep the historical
    // block byte-identical.
    let consulted = stats.entailment_cache_hits
        + stats.entailment_cache_misses
        + stats.engine_cache_hits
        + stats.engine_cache_misses
        + stats.horn_cache_hits
        + stats.horn_cache_misses;
    if consulted > 0 {
        writeln!(
            out,
            "caches:       entailments {}/{}, engines {}/{}, horn programs {}/{} (hits/misses)",
            stats.entailment_cache_hits,
            stats.entailment_cache_misses,
            stats.engine_cache_hits,
            stats.engine_cache_misses,
            stats.horn_cache_hits,
            stats.horn_cache_misses
        )
        .unwrap();
    }
    if stats.mutations > 0 {
        writeln!(
            out,
            "session:      {} mutations tested {} modules, invalidated {} modules, {} entailments, {} told rows",
            stats.mutations,
            stats.invalidation_tests,
            stats.invalidated_modules,
            stats.invalidated_entailments,
            stats.invalidated_told_rows
        )
        .unwrap();
    }
}

/// The `modules` subcommand: the signature-dataflow view of a KB —
/// dependency components, dead axioms, the clean/contaminated partition
/// seeded from the linter's contradiction findings, and, per signature
/// concept, the larger of the two modules a query about it runs on (one
/// per classical probe, `π(C)` and `π(¬C)`).
fn modules_report(kb: &shoin4::KnowledgeBase4, json: bool) -> String {
    use ontolint::dataflow::{contradiction_seeds, propagate, ModuleExtractor};
    use shoin4::dataflow::{full_signature_seed, probe_seeds};

    let extractor = ModuleExtractor::new(kb);
    let graph = extractor.graph();
    let components = graph.components();
    let full = extractor.extract(&full_signature_seed(kb));
    let dead: Vec<usize> = (0..kb.len()).filter(|i| !full.axioms.contains(i)).collect();
    let seeds = contradiction_seeds(&ontolint::lint_kb4(kb));
    let cont = propagate(graph, &seeds);
    let sizes: Vec<(dl::ConceptName, usize)> =
        ontolint::dataflow::signature::signature_concepts(kb)
            .into_iter()
            .map(|name| {
                let size = probe_seeds(&dl::Concept::Atomic(name.clone()))
                    .iter()
                    .map(|seed| extractor.extract(seed).axioms.len())
                    .max()
                    .unwrap_or(0);
                (name, size)
            })
            .collect();

    if json {
        let comp_json: Vec<jsonio::Value> = components
            .iter()
            .map(|c| jsonio::Value::Array(c.iter().map(|&i| i.into()).collect()))
            .collect();
        let idx_array = |v: &[usize]| jsonio::Value::Array(v.iter().map(|&i| i.into()).collect());
        let module_json: Vec<jsonio::Value> = sizes
            .iter()
            .map(|(name, size)| {
                jsonio::Value::object([
                    ("concept", name.as_str().into()),
                    ("module_size", (*size).into()),
                ])
            })
            .collect();
        let value = jsonio::Value::object([
            ("axioms", kb.len().into()),
            ("components", jsonio::Value::Array(comp_json)),
            ("dead_axioms", idx_array(&dead)),
            (
                "contamination",
                jsonio::Value::object([
                    ("seeds", idx_array(&cont.seeds)),
                    ("contaminated", idx_array(&cont.contaminated)),
                    ("clean", idx_array(&cont.clean)),
                    (
                        "max_radius",
                        match cont.max_radius() {
                            Some(r) => r.into(),
                            None => jsonio::Value::Null,
                        },
                    ),
                ]),
            ),
            ("modules", jsonio::Value::Array(module_json)),
        ]);
        let mut s = value.to_string();
        s.push('\n');
        return s;
    }

    let mut out = String::new();
    writeln!(out, "axioms:        {}", kb.len()).unwrap();
    let comp_sizes: Vec<String> = components.iter().map(|c| c.len().to_string()).collect();
    writeln!(
        out,
        "components:    {} (sizes {})",
        components.len(),
        comp_sizes.join(", ")
    )
    .unwrap();
    if dead.is_empty() {
        writeln!(out, "dead axioms:   none").unwrap();
    } else {
        let ids: Vec<String> = dead.iter().map(|i| i.to_string()).collect();
        writeln!(out, "dead axioms:   {} ({})", dead.len(), ids.join(", ")).unwrap();
    }
    if cont.seeds.is_empty() {
        writeln!(out, "contamination: none detected").unwrap();
    } else {
        writeln!(
            out,
            "contamination: {} seed axioms, {} contaminated / {} clean, max radius {}",
            cont.seeds.len(),
            cont.contaminated.len(),
            cont.clean.len(),
            cont.max_radius().unwrap_or(0),
        )
        .unwrap();
    }
    writeln!(out, "module sizes:").unwrap();
    for (name, size) in &sizes {
        writeln!(out, "  {name}  {size}").unwrap();
    }
    out
}

/// The `analyze` subcommand: the static hardness view of a KB — one row
/// per signature-dataflow module with its Horn/residue stratification,
/// ∃-depth bound, predicted clause count and the calibrated score the
/// serving layer's cost-aware lanes admit on.
fn analyze_report(kb: &shoin4::KnowledgeBase4, json: bool) -> String {
    use shoin4::hardness::{analyze_kb, DEFAULT_HEAVY_THRESHOLD};

    let analysis = analyze_kb(kb);
    let lane = |score: f64| {
        if score >= DEFAULT_HEAVY_THRESHOLD {
            "heavy"
        } else {
            "cheap"
        }
    };

    if json {
        let idx_array = |v: &[usize]| jsonio::Value::Array(v.iter().map(|&i| i.into()).collect());
        let module_json: Vec<jsonio::Value> = analysis
            .modules
            .iter()
            .map(|m| {
                let cost = &m.report.cost;
                jsonio::Value::object([
                    ("axioms", idx_array(&m.axioms)),
                    ("residue_axioms", idx_array(&m.residue_axioms)),
                    ("images", cost.images.into()),
                    ("horn_core", cost.horn_core.into()),
                    ("residue", cost.residue.into()),
                    ("branch_points", (cost.branch_points as i64).into()),
                    (
                        "exists_depth",
                        match cost.exists_depth {
                            Some(d) => (d as i64).into(),
                            None => jsonio::Value::Null,
                        },
                    ),
                    ("predicted_clauses", (cost.predicted_clauses as i64).into()),
                    ("score", m.report.score.into()),
                    ("lane", lane(m.report.score).into()),
                ])
            })
            .collect();
        let value = jsonio::Value::object([
            ("axioms", kb.len().into()),
            ("modules", jsonio::Value::Array(module_json)),
            (
                "heavy_modules",
                analysis.heavy_modules(DEFAULT_HEAVY_THRESHOLD).into(),
            ),
            ("max_score", analysis.max_score().into()),
            ("heavy_threshold", DEFAULT_HEAVY_THRESHOLD.into()),
        ]);
        let mut s = value.to_string();
        s.push('\n');
        return s;
    }

    let mut out = String::new();
    writeln!(out, "axioms:        {}", kb.len()).unwrap();
    writeln!(
        out,
        "modules:       {} ({} heavy at threshold {DEFAULT_HEAVY_THRESHOLD})",
        analysis.modules.len(),
        analysis.heavy_modules(DEFAULT_HEAVY_THRESHOLD),
    )
    .unwrap();
    writeln!(out, "max score:     {:.1}", analysis.max_score()).unwrap();
    if analysis.modules.is_empty() {
        return out;
    }
    writeln!(
        out,
        "{:>6} {:>6} {:>5} {:>7} {:>8} {:>7} {:>8} {:>7}  lane",
        "module", "axioms", "horn", "residue", "branches", "∃-depth", "clauses", "score"
    )
    .unwrap();
    for (i, m) in analysis.modules.iter().enumerate() {
        let cost = &m.report.cost;
        writeln!(
            out,
            "{:>6} {:>6} {:>5} {:>7} {:>8} {:>7} {:>8} {:>7.1}  {}",
            i,
            m.axioms.len(),
            cost.horn_core,
            cost.residue,
            cost.branch_points,
            match cost.exists_depth {
                Some(d) => d.to_string(),
                None => "∞".to_string(),
            },
            cost.predicted_clauses,
            m.report.score,
            lane(m.report.score),
        )
        .unwrap();
    }
    out
}

/// Execute a session script: one [`Command`] per line (`add`,
/// `retract`, `query`, `role`, `entails`, `check`, `stats` and
/// `DataRole:` declarations), blank lines and `#` comments. Axiom
/// statements use the same line syntax as ontology files; declarations
/// accumulate and scope over the rest of the script.
fn run_session_script(
    session: &mut shoin4::Session,
    text: &str,
    out: &mut String,
) -> Result<(), CliError> {
    let mut declared = std::collections::BTreeSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let script_error = |e: String| CliError::Parse(format!("script line {}: {e}", i + 1));
        // The statement as written, echoed back by `add` and `retract`.
        let arg = line
            .split_once(char::is_whitespace)
            .map_or("", |(_, r)| r.trim());
        match Command::parse(line, &declared).map_err(script_error)? {
            Command::DeclareDataRoles(names) => declared.extend(names),
            Command::Add(ax) => {
                session.add_axiom(ax)?;
                writeln!(out, "added {arg}").unwrap();
            }
            Command::Retract(ax) => {
                if session.retract_axiom(&ax)? {
                    writeln!(out, "retracted {arg}").unwrap();
                } else {
                    writeln!(out, "retract no-op {arg}").unwrap();
                }
            }
            Command::Query(a, c) => {
                let v = session.query(&a, &c)?;
                writeln!(out, "{a} : {c} = {}", truth_gloss(v)).unwrap();
            }
            Command::Role(r, a, b) => {
                let v = session.query_role(&r, &a, &b)?;
                writeln!(out, "{r}({a}, {b}) = {}", truth_gloss(v)).unwrap();
            }
            Command::Entails(ax) => {
                writeln!(out, "entailed {arg}: {}", session.entails(&ax)?).unwrap();
            }
            Command::Check => writeln!(out, "satisfiable: {}", session.is_satisfiable()?).unwrap(),
            Command::Stats => write_stats_block(out, &session.stats()),
            Command::Tenant(_) | Command::Cancel(_) | Command::Quit => {
                return Err(script_error(
                    "`tenant`, `cancel` and `quit` are serve verbs".into(),
                ))
            }
        }
    }
    Ok(())
}

fn truth_gloss(v: TruthValue) -> &'static str {
    match v {
        TruthValue::True => "t (information: yes)",
        TruthValue::False => "f (information: no)",
        TruthValue::Both => "⊤ (contradictory information)",
        TruthValue::Neither => "⊥ (no information)",
    }
}

/// Run a command line (without the program name). `read`/`write` abstract
/// the filesystem so tests can run hermetically.
pub fn run_with_fs(
    args: &[String],
    read: &dyn Fn(&str) -> std::io::Result<Vec<u8>>,
    write: &mut dyn FnMut(&str, &[u8]) -> std::io::Result<()>,
) -> Result<String, CliError> {
    let mut out = String::new();
    match args {
        [cmd, path, rest @ ..] if cmd == "check" => {
            let flags = parse_query_flags(rest)?;
            let kb = load_kb4(path, read)?;
            let r = Reasoner4::with_options(&kb, flags.config(), flags.options());
            let sat = r.is_satisfiable()?;
            writeln!(out, "axioms:       {}", kb.len()).unwrap();
            writeln!(out, "size:         {}", kb.size()).unwrap();
            writeln!(out, "satisfiable:  {sat}").unwrap();
            write_stats_block(&mut out, &r.stats());
        }
        [cmd, path, ind, concept] if cmd == "query" => {
            let kb = load_kb4(path, read)?;
            // Data roles read as in the KB, as a session's `query` reads
            // the ones declared before it.
            let c = shoin4::command::parse_concept(concept, &kb.signature().data_roles)
                .map_err(CliError::Parse)?;
            let r = Reasoner4::new(&kb);
            let v = r.query(&IndividualName::new(ind.as_str()), &c)?;
            writeln!(out, "{ind} : {c} = {}", truth_gloss(v)).unwrap();
        }
        [cmd, path, rest @ ..] if cmd == "lint" => {
            let json = match rest {
                [] => false,
                [flag, fmt] if flag == "--format" && fmt == "json" => true,
                _ => return Err(CliError::Usage(USAGE.to_string())),
            };
            let kb = load_kb4(path, read)?;
            let diags = ontolint::lint_kb4(&kb);
            if json {
                out.push_str(&ontolint::diagnostics_to_json(&diags).to_string());
                out.push('\n');
            } else {
                for d in &diags {
                    writeln!(out, "{d}").unwrap();
                }
                let count =
                    |s: ontolint::Severity| diags.iter().filter(|d| d.severity == s).count();
                writeln!(
                    out,
                    "{} findings: {} errors, {} warnings, {} infos",
                    diags.len(),
                    count(ontolint::Severity::Error),
                    count(ontolint::Severity::Warning),
                    count(ontolint::Severity::Info),
                )
                .unwrap();
            }
        }
        [cmd, path, rest @ ..] if cmd == "analyze" => {
            let json = match rest {
                [] => false,
                [flag, fmt] if flag == "--format" && fmt == "json" => true,
                _ => return Err(CliError::Usage(USAGE.to_string())),
            };
            let kb = load_kb4(path, read)?;
            out.push_str(&analyze_report(&kb, json));
        }
        [cmd, path, rest @ ..] if cmd == "modules" => {
            let json = match rest {
                [] => false,
                [flag, fmt] if flag == "--format" && fmt == "json" => true,
                _ => return Err(CliError::Usage(USAGE.to_string())),
            };
            let kb = load_kb4(path, read)?;
            out.push_str(&modules_report(&kb, json));
        }
        [cmd, path, rest @ ..] if cmd == "report" => {
            let flags = parse_query_flags(rest)?;
            let kb = load_kb4(path, read)?;
            // The linter's syntactically-certain ⊤ facts are seeded into
            // the survey so the reasoner skips those queries (fast path).
            let certain = ontolint::certain_contested_facts(&ontolint::lint_kb4(&kb));
            let r = Reasoner4::with_options(&kb, flags.config(), flags.options());
            let report = contradiction_report_seeded(&r, &kb, &certain)?;
            writeln!(
                out,
                "{} facts surveyed: {} contested, {} asserted, {} denied, {} unknown",
                report.total(),
                report.contested.len(),
                report.asserted.len(),
                report.denied.len(),
                report.unknown
            )
            .unwrap();
            writeln!(out, "contamination: {:.1}%", 100.0 * report.contamination()).unwrap();
            for (who, what) in &report.contested {
                writeln!(out, "  ⊤  {who} : {what}").unwrap();
            }
            if flags.stats {
                write_stats_block(&mut out, &r.stats());
            }
        }
        [cmd, path, rest @ ..] if cmd == "classify" => {
            let flags = parse_query_flags(rest)?;
            let kb = load_kb4(path, read)?;
            let r = Reasoner4::with_options(&kb, flags.config(), flags.options());
            let taxonomy = classify4(&r, &kb)?;
            for (class, supers) in &taxonomy {
                let proper: Vec<String> = supers
                    .iter()
                    .filter(|s| s.as_str() != class.as_str())
                    .map(ToString::to_string)
                    .collect();
                if proper.is_empty() {
                    writeln!(out, "{class}").unwrap();
                } else {
                    writeln!(out, "{class} ⊏ {}", proper.join(", ")).unwrap();
                }
            }
            if flags.stats {
                write_stats_block(&mut out, &r.stats());
            }
        }
        [cmd, path] if cmd == "transform" => {
            let kb = load_kb4(path, read)?;
            let induced = shoin4::transform_kb(&kb);
            out.push_str(&dl::printer::print_kb(&induced));
        }
        [cmd, input, output] if cmd == "convert" => {
            let to_binary = Path::new(output).extension().is_some_and(|e| e == "dlkb");
            let bytes = read(input).map_err(|e| CliError::Io(input.clone(), e))?;
            let from_binary = Path::new(input).extension().is_some_and(|e| e == "dlkb");
            let kb = if from_binary {
                dl::snapshot::decode(&bytes).map_err(CliError::Snapshot)?
            } else {
                let text = String::from_utf8(bytes)
                    .map_err(|_| CliError::Parse(format!("{input} is not UTF-8")))?;
                dl::parser::parse_kb(&text).map_err(|e| CliError::Parse(e.to_string()))?
            };
            let payload: Vec<u8> = if to_binary {
                dl::snapshot::encode(&kb).to_vec()
            } else {
                dl::printer::print_kb(&kb).into_bytes()
            };
            write(output, &payload).map_err(|e| CliError::Io(output.clone(), e))?;
            writeln!(
                out,
                "wrote {} ({} axioms, {} bytes)",
                output,
                kb.len(),
                payload.len()
            )
            .unwrap();
        }
        [cmd, rest @ ..] if cmd == "session" => {
            let mut script = "-".to_string();
            let mut dir: Option<String> = None;
            let mut snapshot_every = shoin4::incremental::DEFAULT_SNAPSHOT_EVERY;
            let mut stats = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--script" => match it.next() {
                        Some(p) => script = p.clone(),
                        None => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--dir" => match it.next() {
                        Some(p) => dir = Some(p.clone()),
                        None => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--snapshot-every" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) => snapshot_every = n,
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--stats" => stats = true,
                    _ => return Err(CliError::Usage(USAGE.to_string())),
                }
            }
            let bytes = read(&script).map_err(|e| CliError::Io(script.clone(), e))?;
            let text = String::from_utf8(bytes)
                .map_err(|_| CliError::Parse(format!("{script} is not UTF-8")))?;
            let config = tableau::Config::default();
            // Durable sessions live on the real filesystem (the WAL is
            // not expressible through the read/write closures).
            let mut session = match &dir {
                Some(d) => shoin4::Session::open_with(d, config, snapshot_every)?,
                None => shoin4::Session::new(&KnowledgeBase4::new(), config),
            };
            run_session_script(&mut session, &text, &mut out)?;
            writeln!(out, "axioms: {}", session.len()).unwrap();
            if stats {
                write_stats_block(&mut out, &session.stats());
            }
        }
        [cmd, rest @ ..] if cmd == "serve" => {
            let mut listen: Option<String> = None;
            let mut opts = shoin4::serve::ServeOptions::default();
            let mut budget_ms: u64 = 10_000;
            let mut kbs: Vec<(String, String)> = Vec::new();
            let mut serve_for_ms: Option<u64> = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => match it.next() {
                        Some(a) => listen = Some(a.clone()),
                        None => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--workers" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => opts.workers = n,
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--queue-depth" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => opts.queue_depth = n,
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--budget-ms" => match it.next().map(|n| n.parse::<u64>()) {
                        Some(Ok(n)) if n >= 1 => budget_ms = n,
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--kb" => match it.next().and_then(|s| s.split_once('=')) {
                        Some((id, path)) if !id.is_empty() => {
                            kbs.push((id.to_string(), path.to_string()));
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--serve-for-ms" => match it.next().map(|n| n.parse::<u64>()) {
                        Some(Ok(n)) => serve_for_ms = Some(n),
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--lanes" => {
                        opts.lanes.get_or_insert_with(Default::default);
                    }
                    "--heavy-workers" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => {
                            opts.lanes
                                .get_or_insert_with(Default::default)
                                .heavy_workers = n;
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--heavy-queue-depth" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => {
                            opts.lanes
                                .get_or_insert_with(Default::default)
                                .heavy_queue_depth = n;
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--heavy-budget-ms" => match it.next().map(|n| n.parse::<u64>()) {
                        Some(Ok(n)) if n >= 1 => {
                            opts.lanes.get_or_insert_with(Default::default).heavy_budget =
                                Some(std::time::Duration::from_millis(n));
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    "--hardness-threshold" => match it.next().map(|n| n.parse::<f64>()) {
                        Some(Ok(x)) if x.is_finite() => {
                            opts.lanes.get_or_insert_with(Default::default).threshold = x;
                        }
                        _ => return Err(CliError::Usage(USAGE.to_string())),
                    },
                    _ => return Err(CliError::Usage(USAGE.to_string())),
                }
            }
            let listen = listen.ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
            let config = tableau::Config {
                time_budget: Some(std::time::Duration::from_millis(budget_ms)),
                ..tableau::Config::default()
            };
            let registry = std::sync::Arc::new(shoin4::serve::Registry::new(config));
            for (id, path) in &kbs {
                let kb = load_kb4(path, read)?;
                registry.register(id, &kb);
            }
            let server = shoin4::serve::Server::bind(listen.as_str(), registry, opts)
                .map_err(|e| CliError::Io(listen.clone(), e))?;
            // Announce the bound address eagerly (stderr, so piping the
            // normal output stream stays clean) — clients and the smoke
            // test wait for this line before connecting.
            eprintln!("listening on {}", server.local_addr());
            match serve_for_ms {
                // Bounded run: serve for the window, then report.
                Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
                // Unbounded run: park this thread; the acceptor and the
                // worker pool do all the work until the process is killed.
                None => loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                },
            }
            let addr = server.local_addr();
            let stats = server.stats().to_json();
            let shared = server.registry().shared().stats();
            server.shutdown();
            writeln!(out, "served on {addr}").unwrap();
            writeln!(out, "admission: {stats}").unwrap();
            writeln!(
                out,
                "shared-cache: hit_ratio={:.3} engines={} horn={} rows={}",
                shared.hit_ratio(),
                shared.engines,
                shared.horn_programs,
                shared.rows
            )
            .unwrap();
        }
        [cmd] if cmd == "table4" => {
            out.push_str(&fourmodels::table4::render_table4());
        }
        _ => return Err(CliError::Usage(USAGE.to_string())),
    }
    Ok(out)
}

/// Run against the real filesystem (`-` reads stdin, for piped session
/// scripts).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let read = |p: &str| -> std::io::Result<Vec<u8>> {
        if p == "-" {
            let mut buf = Vec::new();
            std::io::Read::read_to_end(&mut std::io::stdin(), &mut buf)?;
            Ok(buf)
        } else {
            std::fs::read(p)
        }
    };
    run_with_fs(args, &read, &mut |p, bytes| std::fs::write(p, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    /// An in-memory filesystem for hermetic CLI tests.
    struct MemFs {
        files: RefCell<BTreeMap<String, Vec<u8>>>,
    }

    impl MemFs {
        fn new(files: &[(&str, &str)]) -> Self {
            MemFs {
                files: RefCell::new(
                    files
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.as_bytes().to_vec()))
                        .collect(),
                ),
            }
        }

        fn run(&self, args: &[&str]) -> Result<String, CliError> {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let read =
                |p: &str| -> std::io::Result<Vec<u8>> {
                    self.files.borrow().get(p).cloned().ok_or_else(|| {
                        std::io::Error::new(std::io::ErrorKind::NotFound, "not found")
                    })
                };
            let files = &self.files;
            let mut write = |p: &str, bytes: &[u8]| -> std::io::Result<()> {
                files.borrow_mut().insert(p.to_string(), bytes.to_vec());
                Ok(())
            };
            run_with_fs(&args, &read, &mut write)
        }
    }

    const MEDICAL: &str = "SurgicalTeam SubClassOf not ReadPatientRecordTeam
UrgencyTeam SubClassOf ReadPatientRecordTeam
john : SurgicalTeam
john : UrgencyTeam";

    #[test]
    fn check_reports_satisfiability() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["check", "kb.dl4"]).unwrap();
        assert!(out.contains("satisfiable:  true"), "{out}");
        assert!(out.contains("axioms:       4"), "{out}");
    }

    #[test]
    fn query_gives_four_valued_answer() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs
            .run(&["query", "kb.dl4", "john", "ReadPatientRecordTeam"])
            .unwrap();
        assert!(out.contains('⊤'), "{out}");
        let out = fs.run(&["query", "kb.dl4", "john", "Patient"]).unwrap();
        assert!(out.contains('⊥'), "{out}");
        let fs = MemFs::new(&[("kb.dl4", "DataRole: age\nage(pat, 41)")]);
        let out = fs.run(&["query", "kb.dl4", "pat", "age min 1"]).unwrap();
        assert!(out.contains("= t (information: yes)"), "{out}");
    }

    #[test]
    fn report_lists_contested_facts() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["report", "kb.dl4"]).unwrap();
        assert!(out.contains("⊤  john : ReadPatientRecordTeam"), "{out}");
        assert!(out.contains("contamination"), "{out}");
    }

    #[test]
    fn report_jobs_flag_gives_identical_output() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let plain = fs.run(&["report", "kb.dl4"]).unwrap();
        let threaded = fs.run(&["report", "kb.dl4", "--jobs", "3"]).unwrap();
        assert_eq!(plain, threaded);
        let classified = fs.run(&["classify", "kb.dl4", "--jobs", "2"]).unwrap();
        assert_eq!(classified, fs.run(&["classify", "kb.dl4"]).unwrap());
    }

    #[test]
    fn report_rejects_bad_jobs_values() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        for bad in [
            &["report", "kb.dl4", "--jobs", "0"][..],
            &["report", "kb.dl4", "--jobs", "many"][..],
            &["report", "kb.dl4", "--threads", "2"][..],
            &["report", "kb.dl4", "--stats", "extra"][..],
            &["classify", "kb.dl4", "--jobs"][..],
            &["report", "kb.dl4", "--no-horn"][..],
            &["check", "kb.dl4", "--no-horn"][..],
            &["classify", "kb.dl4", "--stats", "--no-horn"][..],
        ] {
            assert!(matches!(fs.run(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn stats_flag_appends_search_counters() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let plain = fs.run(&["report", "kb.dl4"]).unwrap();
        assert!(!plain.contains("backjumps"), "{plain}");
        // Flags compose in either order.
        let with_stats = fs
            .run(&["report", "kb.dl4", "--stats", "--jobs", "2"])
            .unwrap();
        assert!(with_stats.starts_with(&plain), "{with_stats}");
        assert!(with_stats.contains("backjumps"), "{with_stats}");
        assert!(with_stats.contains("graph clones"), "{with_stats}");
        // The contested KB's survey closes branches: the per-kind clash
        // breakdown shows up with labels.
        assert!(with_stats.contains("clashes:"), "{with_stats}");
        let classified = fs.run(&["classify", "kb.dl4", "--stats"]).unwrap();
        assert!(classified.contains("branch depth"), "{classified}");
    }

    /// Every fact of this KB is contested and told-certain both ways,
    /// so a survey settles each one before the Horn rung or any module
    /// is reached.
    const TOLD_ONLY: &str = "x : A\nx : not A\nx : B\nx : not B";

    #[test]
    fn horn_counters_appear_only_when_the_fast_path_runs() {
        // A fully Horn KB: every routed query saturates instead of
        // searching, so `check` (which always prints the stats block)
        // surfaces the horn counters.
        const HORN: &str = "Doctor SubClassOf Person\nPerson SubClassOf Agent\nmeredith : Doctor";
        let fs = MemFs::new(&[("kb.dl4", HORN)]);
        let fast = fs.run(&["check", "kb.dl4"]).unwrap();
        assert!(fast.contains("horn:"), "{fast}");
        assert!(fast.contains("saturated queries"), "{fast}");
        assert!(fast.contains("0 fallbacks"), "{fast}");
        // Routing is invisible in answers: the survey reads what the KB
        // says, inherited memberships included.
        let surveyed = fs.run(&["report", "kb.dl4"]).unwrap();
        assert_eq!(
            surveyed,
            "3 facts surveyed: 0 contested, 3 asserted, 0 denied, 0 unknown\ncontamination: 0.0%\n"
        );
        // A survey whose probes never reach the Horn rung keeps the
        // historical block, with no horn line.
        let fs = MemFs::new(&[("kb.dl4", TOLD_ONLY)]);
        let slow = fs.run(&["report", "kb.dl4", "--stats"]).unwrap();
        assert!(!slow.contains("horn:"), "{slow}");
        assert!(slow.contains("⊤  x : A"), "{slow}");
        // The contested medical KB forces non-Horn modules, so routed
        // queries are counted as fallbacks rather than saturations.
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let surveyed = fs.run(&["report", "kb.dl4", "--stats"]).unwrap();
        assert!(surveyed.contains("fallbacks"), "{surveyed}");
    }

    #[test]
    fn check_breaks_clashes_down_by_kind() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["check", "kb.dl4"]).unwrap();
        assert!(out.contains("clashes:"), "{out}");
        assert!(out.contains("search:"), "{out}");
        // The default engine is the trail search: no whole-graph clones.
        assert!(out.contains("0 graph clones"), "{out}");
    }

    #[test]
    fn lint_reports_findings_human_readably() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["lint", "kb.dl4"]).unwrap();
        // john is contested about ReadPatientRecordTeam through the told
        // chain — an OL003 error — and the summary line counts it.
        assert!(out.contains("error [OL003]"), "{out}");
        assert!(out.contains("ReadPatientRecordTeam"), "{out}");
        assert!(out.contains("1 errors"), "{out}");
    }

    #[test]
    fn lint_emits_machine_readable_json() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["lint", "kb.dl4", "--format", "json"]).unwrap();
        let value = jsonio::Value::parse(&out).unwrap();
        let arr = value.as_array().unwrap();
        assert!(!arr.is_empty());
        assert_eq!(arr[0].get("rule").unwrap().as_str(), Some("OL003"));
        assert_eq!(
            arr[0].get("claim").unwrap().get("kind").unwrap().as_str(),
            Some("contested-concept")
        );
    }

    #[test]
    fn lint_rejects_unknown_format() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        assert!(matches!(
            fs.run(&["lint", "kb.dl4", "--format", "xml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_prints_the_hardness_table() {
        // One disjunctive module (heavy) and one Horn chain (cheap).
        let fs = MemFs::new(&[(
            "kb.dl4",
            "A SubClassOf B or C\nx : A\nD SubClassOf E\ny : D",
        )]);
        let out = fs.run(&["analyze", "kb.dl4"]).unwrap();
        assert!(out.contains("axioms:        4"), "{out}");
        assert!(out.contains("modules:       2 (1 heavy"), "{out}");
        assert!(out.contains("heavy"), "{out}");
        assert!(out.contains("cheap"), "{out}");
        // A pure Horn KB reports no heavy modules.
        let fs = MemFs::new(&[("kb.dl4", "D SubClassOf E\ny : D")]);
        let out = fs.run(&["analyze", "kb.dl4"]).unwrap();
        assert!(out.contains("(0 heavy"), "{out}");
        // The unbounded ∃-cycle prints ∞ for its depth bound.
        let fs = MemFs::new(&[("kb.dl4", "A SubClassOf r some A\nx : A")]);
        let out = fs.run(&["analyze", "kb.dl4"]).unwrap();
        assert!(out.contains('∞'), "{out}");
    }

    #[test]
    fn analyze_emits_machine_readable_json() {
        let fs = MemFs::new(&[(
            "kb.dl4",
            "A SubClassOf B or C\nx : A\nD SubClassOf E\ny : D",
        )]);
        let out = fs.run(&["analyze", "kb.dl4", "--format", "json"]).unwrap();
        let v = jsonio::Value::parse(&out).unwrap();
        assert_eq!(v.get("axioms").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("heavy_modules").unwrap().as_i64(), Some(1));
        assert!(v.get("max_score").unwrap().as_f64().unwrap() >= 8.0);
        let modules = v.get("modules").unwrap().as_array().unwrap();
        assert_eq!(modules.len(), 2);
        let lanes: Vec<&str> = modules
            .iter()
            .map(|m| m.get("lane").unwrap().as_str().unwrap())
            .collect();
        assert!(
            lanes.contains(&"heavy") && lanes.contains(&"cheap"),
            "{out}"
        );
        for m in modules {
            assert!(m.get("images").unwrap().as_i64().is_some());
            assert!(m.get("score").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn analyze_rejects_unknown_format() {
        let fs = MemFs::new(&[("kb.dl4", "x : A")]);
        assert!(matches!(
            fs.run(&["analyze", "kb.dl4", "--format", "xml"]),
            Err(CliError::Usage(_))
        ));
    }

    /// Two signature islands; the left one carries a direct contradiction.
    const ISLANDS: &str = "x : A
x : not A
A SubClassOf B
D SubClassOf E
y : D";

    #[test]
    fn modules_prints_the_dataflow_partition() {
        let fs = MemFs::new(&[("kb.dl4", ISLANDS)]);
        let out = fs.run(&["modules", "kb.dl4"]).unwrap();
        assert!(out.contains("axioms:        5"), "{out}");
        assert!(out.contains("components:    2 (sizes 3, 2)"), "{out}");
        assert!(out.contains("dead axioms:   none"), "{out}");
        // The contradiction seeds contaminate its island; the D/E
        // island stays clean.
        assert!(out.contains("contamination:"), "{out}");
        assert!(out.contains("2 clean"), "{out}");
        assert!(out.contains("module sizes:"), "{out}");
        // A clean KB reports no contamination at all.
        let fs = MemFs::new(&[("kb.dl4", "A SubClassOf B\nx : A")]);
        let out = fs.run(&["modules", "kb.dl4"]).unwrap();
        assert!(out.contains("contamination: none detected"), "{out}");
        // C's probes run on 3 and 1 axioms; one seed of both
        // polarities would extract all 4.
        let fs = MemFs::new(&[("kb.dl4", PROBE_MODULES)]);
        let out = fs.run(&["modules", "kb.dl4"]).unwrap();
        assert!(out.contains("\n  C  3\n"), "{out}");
    }

    /// `π(C)` pulls in the chain into `C`, `π(¬C)` only `y : not C`.
    const PROBE_MODULES: &str = "A SubClassOf B
B SubClassOf C
x : A
y : not C";

    #[test]
    fn modules_emits_machine_readable_json() {
        let fs = MemFs::new(&[("kb.dl4", ISLANDS)]);
        let out = fs.run(&["modules", "kb.dl4", "--format", "json"]).unwrap();
        let v = jsonio::Value::parse(&out).unwrap();
        assert_eq!(v.get("axioms").unwrap().as_i64(), Some(5));
        assert_eq!(v.get("components").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("dead_axioms").unwrap().as_array().unwrap().is_empty());
        let cont = v.get("contamination").unwrap();
        assert_eq!(cont.get("clean").unwrap().as_array().unwrap().len(), 2);
        assert!(cont.get("max_radius").unwrap().as_i64().is_some());
        let modules = v.get("modules").unwrap().as_array().unwrap();
        // One entry per signature concept (A, B, D, E), sorted.
        assert_eq!(modules.len(), 4);
        assert_eq!(modules[0].get("concept").unwrap().as_str(), Some("A"));
        assert!(modules[0].get("module_size").unwrap().as_i64().unwrap() >= 1);
        let fs = MemFs::new(&[("kb.dl4", PROBE_MODULES)]);
        let out = fs.run(&["modules", "kb.dl4", "--format", "json"]).unwrap();
        let v = jsonio::Value::parse(&out).unwrap();
        let modules = v.get("modules").unwrap().as_array().unwrap();
        let size = |concept: &str| {
            let m = modules
                .iter()
                .find(|m| m.get("concept").unwrap().as_str() == Some(concept));
            m.unwrap().get("module_size").unwrap().as_i64()
        };
        assert_eq!(
            [size("A"), size("B"), size("C")],
            [Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn modules_rejects_unknown_format() {
        let fs = MemFs::new(&[("kb.dl4", ISLANDS)]);
        assert!(matches!(
            fs.run(&["modules", "kb.dl4", "--format", "xml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn module_scoping_flag_preserves_output_and_reports_counters() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        // Scoped and unscoped runs must print identical reports …
        let plain = fs.run(&["report", "kb.dl4"]).unwrap();
        let scoped = fs.run(&["report", "kb.dl4", "--module-scoping"]).unwrap();
        assert_eq!(plain, scoped);
        let classified = fs.run(&["classify", "kb.dl4", "--module-scoping"]).unwrap();
        assert_eq!(classified, fs.run(&["classify", "kb.dl4"]).unwrap());
        // … and `check --module-scoping` surfaces the module counters
        // of its scoped run (this KB's satisfiability is settled by
        // saturating the Horn ∅-seed module) …
        let checked = fs.run(&["check", "kb.dl4", "--module-scoping"]).unwrap();
        assert!(checked.contains("satisfiable:  true"), "{checked}");
        assert!(checked.contains("modules:"), "{checked}");
        assert!(checked.contains("scoped queries"), "{checked}");
        assert!(checked.contains("horn:"), "{checked}");
        // … while an unscoped survey whose probes never reach the Horn
        // rung never extracts.
        let fs = MemFs::new(&[("kb.dl4", TOLD_ONLY)]);
        let unscoped = fs.run(&["report", "kb.dl4", "--stats"]).unwrap();
        assert!(!unscoped.contains("modules:"), "{unscoped}");
    }

    #[test]
    fn transform_prints_induced_kb() {
        let fs = MemFs::new(&[("kb.dl4", MEDICAL)]);
        let out = fs.run(&["transform", "kb.dl4"]).unwrap();
        assert!(
            out.contains("SurgicalTeam+ SubClassOf ReadPatientRecordTeam-"),
            "{out}"
        );
    }

    #[test]
    fn classify_prints_taxonomy() {
        let fs = MemFs::new(&[(
            "kb.dl4",
            "Surgeon SubClassOf Doctor\nDoctor SubClassOf Person",
        )]);
        let out = fs.run(&["classify", "kb.dl4"]).unwrap();
        assert!(out.contains("Surgeon ⊏ Doctor, Person"), "{out}");
    }

    #[test]
    fn convert_round_trips_through_snapshot() {
        let fs = MemFs::new(&[("kb.dl", "A SubClassOf B\nx : A")]);
        let out = fs.run(&["convert", "kb.dl", "kb.dlkb"]).unwrap();
        assert!(out.contains("wrote kb.dlkb"), "{out}");
        let out = fs.run(&["convert", "kb.dlkb", "back.dl"]).unwrap();
        assert!(out.contains("2 axioms"), "{out}");
        let files = fs.files.borrow();
        let text = String::from_utf8(files["back.dl"].clone()).unwrap();
        assert!(text.contains("A SubClassOf B"));
        // And the snapshot can be loaded directly by `check`.
        drop(files);
        let out = fs.run(&["check", "kb.dlkb"]).unwrap();
        assert!(out.contains("satisfiable:  true"), "{out}");
    }

    #[test]
    fn table4_renders() {
        let fs = MemFs::new(&[]);
        let out = fs.run(&["table4"]).unwrap();
        assert!(out.contains("M1-M4"), "{out}");
        assert!(out.contains("M9"), "{out}");
    }

    const SESSION_SCRIPT: &str = "# build a little clinic
add Doctor SubClassOf Person
add meredith : Doctor
query meredith Person
add meredith : not Person
query meredith Person
retract meredith : not Person
query meredith Person
retract meredith : not Person
check";

    #[test]
    fn session_runs_a_mutation_script() {
        let fs = MemFs::new(&[("ops.txt", SESSION_SCRIPT)]);
        let out = fs.run(&["session", "--script", "ops.txt"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "added Doctor SubClassOf Person");
        assert_eq!(lines[2], "meredith : Person = t (information: yes)");
        assert!(lines[4].contains('⊤'), "{out}");
        assert_eq!(lines[6], "meredith : Person = t (information: yes)");
        assert_eq!(lines[7], "retract no-op meredith : not Person");
        assert_eq!(lines[8], "satisfiable: true");
        assert_eq!(lines[9], "axioms: 2");
    }

    #[test]
    fn session_stats_reports_cache_and_invalidation_counters() {
        let fs = MemFs::new(&[("ops.txt", SESSION_SCRIPT)]);
        let out = fs
            .run(&["session", "--script", "ops.txt", "--stats"])
            .unwrap();
        assert!(out.contains("caches:"), "{out}");
        assert!(out.contains("horn programs"), "{out}");
        assert!(out.contains("session:"), "{out}");
        assert!(out.contains("4 mutations"), "{out}");
        // One module is cached when `meredith : not Person` is added,
        // and none sits under that slot's atoms at the retract.
        assert!(out.contains("tested 1 modules"), "{out}");
        // A session whose queries the told index settles never reaches
        // the Horn rung, and answers the same.
        let fs = MemFs::new(&[("told.txt", "add x : A\nadd x : not A\nquery x A")]);
        let told = fs
            .run(&["session", "--script", "told.txt", "--stats"])
            .unwrap();
        assert!(!told.contains("horn:"), "{told}");
        let lines: Vec<&str> = told.lines().collect();
        assert!(lines[2].contains('⊤'), "{told}");
        assert_eq!(lines[3], "axioms: 2");
    }

    #[test]
    fn session_reads_the_script_from_stdin_path() {
        let fs = MemFs::new(&[("-", "add x : A\nquery x A")]);
        let out = fs.run(&["session"]).unwrap();
        assert!(out.contains("x : A = t"), "{out}");
    }

    #[test]
    fn session_scripts_support_data_role_declarations() {
        let fs = MemFs::new(&[(
            "ops.txt",
            "DataRole: age\nadd age(pat, 41)\nquery pat Person\nquery pat age min 1",
        )]);
        let out = fs.run(&["session", "--script", "ops.txt"]).unwrap();
        assert!(out.contains("added age(pat, 41)"), "{out}");
        assert!(out.contains("= t (information: yes)"), "{out}");
        assert!(out.contains("axioms: 1"), "{out}");
    }

    #[test]
    fn session_rejects_bad_scripts_and_flags() {
        let fs = MemFs::new(&[("ops.txt", "frobnicate x : A")]);
        assert!(matches!(
            fs.run(&["session", "--script", "ops.txt"]),
            Err(CliError::Parse(_))
        ));
        let fs = MemFs::new(&[("ops.txt", "add A SubClassOf")]);
        let err = fs
            .run(&["session", "--script", "ops.txt"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("script line 1"), "{err}");
        let fs = MemFs::new(&[]);
        for bad in [
            &["session", "--script"][..],
            &["session", "--dir"][..],
            &["session", "--snapshot-every", "many"][..],
            &["session", "--bogus"][..],
            &["session", "--no-horn"][..],
            &["session", "--script", "ops.txt", "--stats", "--no-horn"][..],
        ] {
            assert!(matches!(fs.run(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn session_scripts_hold_concepts_to_the_depth_cap() {
        // `n` negations of `A`: a tree of height `n + 1`.
        let script = |n: usize| format!("add x : A\nquery x {}A", "not ".repeat(n));
        let at_cap = dl::MAX_CONCEPT_DEPTH - 1;
        let fs = MemFs::new(&[("ops.txt", &script(at_cap))]);
        let out = fs.run(&["session", "--script", "ops.txt"]).unwrap();
        let want = if at_cap.is_multiple_of(2) {
            "= t"
        } else {
            "= f"
        };
        assert!(out.contains(want), "{out}");
        for n in [at_cap + 1, 30_000] {
            let fs = MemFs::new(&[("ops.txt", &script(n))]);
            let err = fs
                .run(&["session", "--script", "ops.txt"])
                .unwrap_err()
                .to_string();
            assert!(err.contains("script line 2"), "{err}");
            assert!(err.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn durable_session_dir_persists_across_invocations() {
        let dir = std::env::temp_dir().join(format!("shoin4-cli-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let fs = MemFs::new(&[
            (
                "build.txt",
                "add Doctor SubClassOf Person\nadd meredith : Doctor",
            ),
            ("ask.txt", "query meredith Person"),
        ]);
        fs.run(&["session", "--script", "build.txt", "--dir", dir_s])
            .unwrap();
        let out = fs
            .run(&["session", "--script", "ask.txt", "--dir", dir_s])
            .unwrap();
        assert!(out.contains("meredith : Person = t"), "{out}");
        assert!(out.contains("axioms: 2"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let fs = MemFs::new(&[]);
        for bad in [
            &["serve"][..], // --listen is required
            &["serve", "--listen"][..],
            &["serve", "--listen", "127.0.0.1:0", "--workers", "0"][..],
            &["serve", "--listen", "127.0.0.1:0", "--queue-depth", "lots"][..],
            &["serve", "--listen", "127.0.0.1:0", "--budget-ms", "0"][..],
            &["serve", "--listen", "127.0.0.1:0", "--kb", "no-equals-sign"][..],
            &["serve", "--listen", "127.0.0.1:0", "--kb", "=path.dl4"][..],
            &["serve", "--listen", "127.0.0.1:0", "--serve-for-ms", "soon"][..],
            &["serve", "--listen", "127.0.0.1:0", "--heavy-workers", "0"][..],
            &["serve", "--listen", "127.0.0.1:0", "--heavy-queue-depth"][..],
            &["serve", "--listen", "127.0.0.1:0", "--heavy-budget-ms", "0"][..],
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--hardness-threshold",
                "nan",
            ][..],
            &["serve", "--listen", "127.0.0.1:0", "--bogus"][..],
        ] {
            assert!(matches!(fs.run(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
        assert!(matches!(
            fs.run(&["serve", "--listen", "127.0.0.1:0", "--kb", "t=missing.dl4"]),
            Err(CliError::Io(..))
        ));
    }

    #[test]
    fn serve_bounded_run_loads_kbs_and_reports_stats() {
        let fs = MemFs::new(&[("clinic.dl4", "john : Doctor\nDoctor SubClassOf Person")]);
        let out = fs
            .run(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue-depth",
                "8",
                "--budget-ms",
                "500",
                "--kb",
                "clinic=clinic.dl4",
                "--serve-for-ms",
                "50",
            ])
            .unwrap();
        assert!(out.contains("served on 127.0.0.1:"), "{out}");
        assert!(out.contains("admission:"), "{out}");
        assert!(out.contains("shared-cache:"), "{out}");
    }

    #[test]
    fn serve_lane_flags_enable_the_heavy_lane() {
        let fs = MemFs::new(&[("clinic.dl4", "john : Doctor\nDoctor SubClassOf Person")]);
        let out = fs
            .run(&[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--lanes",
                "--heavy-workers",
                "1",
                "--heavy-budget-ms",
                "250",
                "--hardness-threshold",
                "6.5",
                "--kb",
                "clinic=clinic.dl4",
                "--serve-for-ms",
                "50",
            ])
            .unwrap();
        // The lane counters surface in the admission JSON once lanes are
        // configured (all zero on an idle run, but the keys are there).
        assert!(out.contains("heavy_admitted"), "{out}");
        assert!(out.contains("cheap_admitted"), "{out}");
    }

    #[test]
    fn usage_on_bad_args() {
        let fs = MemFs::new(&[]);
        assert!(matches!(fs.run(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(fs.run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        let fs = MemFs::new(&[]);
        assert!(matches!(
            fs.run(&["check", "nope.dl4"]),
            Err(CliError::Io(..))
        ));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let fs = MemFs::new(&[("bad.dl4", "A SubClassOf\n")]);
        let err = fs.run(&["check", "bad.dl4"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }
}

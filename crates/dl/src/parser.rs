//! A compact, line-oriented Manchester-like concrete syntax for SHOIN(D).
//!
//! Each non-empty, non-comment line is one statement. `#` starts a comment.
//!
//! ```text
//! # declarations (only needed to disambiguate data roles)
//! DataRole: hasAge hasName
//!
//! # TBox / RBox
//! Doctor SubClassOf Person
//! Surgeon EquivalentTo Doctor and (performs some Surgery)
//! Cat DisjointWith Dog
//! hasParent SubRoleOf hasAncestor
//! inverse hasChild SubRoleOf hasParent
//! hasAge SubDataRoleOf hasProperty
//! Transitive(hasAncestor)
//!
//! # ABox
//! john : Doctor and not Patient
//! hasPatient(bill, mary)
//! hasAge(john, 42)
//! john = johnny
//! john != mary
//! ```
//!
//! Concept syntax (precedence low→high: `or`, `and`, unary):
//!
//! ```text
//! C, D ::= Thing | Nothing | A | not C | C and D | C or D | (C)
//!        | {a, b, c}                       # nominal
//!        | R some C | R only C             # ∃R.C, ∀R.C
//!        | R min n  | R max n              # ≥n.R, ≤n.R
//!        | inverse R some C | ...          # inverse roles
//!        | U some DR | U only DR | U min n | U max n   # datatype forms
//! DR   ::= integer | integer[lo..hi] | boolean | string
//!        | {1, 2} | {"a"} | {true} | not(DR)
//! ```
//!
//! A restriction is a *datatype* restriction when the role is declared via
//! `DataRole:` or the filler is unambiguously a data range (datatype name,
//! facet, or a brace set of literals).

use crate::axiom::{Axiom, RoleExpr};
use crate::concept::{deeper, Concept, MAX_CONCEPT_DEPTH};
use crate::datatype::{BuiltinDatatype, DataRange, DataValue};
use crate::kb::KnowledgeBase;
use crate::name::{DataRoleName, IndividualName, RoleName};
use std::collections::BTreeSet;
use std::fmt;

/// A parse error with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Neq,
    DotDot,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Neq => write!(f, "`!=`"),
            Tok::DotDot => write!(f, "`..`"),
        }
    }
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Tok>> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let mut toks = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    // `i` stays on a char boundary: every arm consumes whole chars.
    while let Some(c) = line[i..].chars().next() {
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => break,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Neq);
                    i += 2;
                } else {
                    return Err(err("stray `!` (expected `!=`)".into()));
                }
            }
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push(Tok::DotDot);
                    i += 2;
                } else {
                    return Err(err("stray `.` (expected `..`)".into()));
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err("unterminated string literal".into())),
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                _ => return Err(err("bad escape in string".into())),
                            }
                            i += 2;
                        }
                        Some(_) => {
                            let ch = line[i..].chars().next().expect("i < len");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &line[start..i];
                if text == "-" {
                    return Err(err("stray `-`".into()));
                }
                toks.push(Tok::Int(
                    text.parse()
                        .map_err(|_| err(format!("integer out of range: {text}")))?,
                ));
            }
            _ if c.is_alphabetic() || c == '_' => {
                // `+`, `-` and `=` are allowed inside names so the
                // SHOIN(D)4 transformation's `A+`/`A-`/`R=` companions are
                // parseable; equality statements therefore need spaces
                // around `=` (the printer always emits them).
                let start = i;
                while let Some(b) = line[i..].chars().next() {
                    if b.is_alphanumeric() || matches!(b, '_' | '+' | '-' | '=' | '\'') {
                        i += b.len_utf8();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(line[start..i].to_string()));
            }
            other => return Err(err(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

/// Statement-level parser state shared across lines (data-role
/// declarations accumulate as they are seen).
struct Parser {
    data_roles: BTreeSet<String>,
}

/// Cursor over the tokens of one line.
struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
    /// How many concept parses enclose the current token.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError {
            line: self.line,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos + 1)
    }

    fn peek_n(&self, n: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + n)
    }

    fn peek3(&self) -> Option<&'a Tok> {
        self.peek_n(2)
    }

    fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<()> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(t) => self.err(format!("expected {want}, found {t}")),
            None => self.err(format!("expected {want}, found end of line")),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => self.err(format!("expected a name, found {t}")),
            None => self.err("expected a name, found end of line"),
        }
    }

    /// Enter one nested concept parse. Parentheses nest the parse
    /// without adding a tree node, so the parser bounds its own
    /// recursion too: the printer writes at most one pair of
    /// parentheses per node, so twice the tree cap admits every printed
    /// concept the tree cap admits.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > 2 * MAX_CONCEPT_DEPTH {
            return self.too_deep();
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// The height of a node whose tallest child stands `child` tall.
    fn taller(&self, child: usize) -> Result<usize> {
        deeper(child).map_or_else(|| self.too_deep(), Ok)
    }

    fn too_deep<T>(&self) -> Result<T> {
        self.err(format!(
            "concept nested deeper than {MAX_CONCEPT_DEPTH} levels"
        ))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn done(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            self.err(format!("unexpected trailing {}", self.toks[self.pos]))
        }
    }
}

const RESTRICTION_KEYWORDS: [&str; 4] = ["some", "only", "min", "max"];
const DATATYPE_NAMES: [&str; 3] = ["integer", "boolean", "string"];

impl Parser {
    fn new() -> Self {
        Parser {
            data_roles: BTreeSet::new(),
        }
    }

    fn parse_statement(&mut self, cur: &mut Cursor<'_>, out: &mut Vec<Axiom>) -> Result<()> {
        // Declarations: `DataRole: u v w` / `Role: r s` (Role: accepted and
        // ignored — object roles are the default).
        if let (Some(Tok::Ident(head)), Some(Tok::Colon)) = (cur.peek(), cur.peek2()) {
            if head == "DataRole" {
                cur.next();
                cur.next();
                while let Some(Tok::Ident(name)) = cur.peek() {
                    self.data_roles.insert(name.clone());
                    cur.next();
                }
                return cur.done();
            }
            if head == "Role" {
                cur.next();
                cur.next();
                while matches!(cur.peek(), Some(Tok::Ident(_))) {
                    cur.next();
                }
                return cur.done();
            }
        }

        // `Transitive(r)`
        if let Some(Tok::Ident(head)) = cur.peek() {
            if head == "Transitive" && cur.peek2() == Some(&Tok::LParen) {
                cur.next();
                cur.next();
                let name = cur.expect_ident()?.to_string();
                cur.expect(&Tok::RParen)?;
                cur.done()?;
                out.push(Axiom::Transitive(RoleName::new(name)));
                return Ok(());
            }
        }

        // Role inclusions: `[inverse] r SubRoleOf [inverse] s`,
        // `u SubDataRoleOf v`.
        if let Some(axiom) = self.try_role_inclusion(cur)? {
            out.push(axiom);
            return Ok(());
        }

        // Simple-name-headed ABox forms: `a : C`, `r(a,b)`, `u(a,v)`,
        // `a = b`, `a != b`. Reserved words head concept expressions
        // (`not (A or B) SubClassOf …`), never ABox statements.
        const RESERVED: [&str; 8] = ["not", "inverse", "and", "or", "some", "only", "min", "max"];
        if let Some(Tok::Ident(name)) = cur.peek() {
            if RESERVED.contains(&name.as_str()) {
                // fall through to the TBox concept parse below
            } else {
                match cur.peek2() {
                    Some(Tok::Colon) => {
                        let subject = name.clone();
                        cur.next();
                        cur.next();
                        let c = self.parse_concept_expr(cur)?;
                        cur.done()?;
                        out.push(Axiom::ConceptAssertion(IndividualName::new(subject), c));
                        return Ok(());
                    }
                    Some(Tok::Eq) => {
                        let a = name.clone();
                        cur.next();
                        cur.next();
                        let b = cur.expect_ident()?.to_string();
                        cur.done()?;
                        out.push(Axiom::SameIndividual(
                            IndividualName::new(a),
                            IndividualName::new(b),
                        ));
                        return Ok(());
                    }
                    Some(Tok::Neq) => {
                        let a = name.clone();
                        cur.next();
                        cur.next();
                        let b = cur.expect_ident()?.to_string();
                        cur.done()?;
                        out.push(Axiom::DifferentIndividuals(
                            IndividualName::new(a),
                            IndividualName::new(b),
                        ));
                        return Ok(());
                    }
                    Some(Tok::LParen) => {
                        let role = name.clone();
                        cur.next();
                        cur.next();
                        let a = cur.expect_ident()?.to_string();
                        cur.expect(&Tok::Comma)?;
                        let axiom = match cur.next() {
                            Some(Tok::Ident(b)) if b == "true" || b == "false" => {
                                Axiom::DataAssertion(
                                    DataRoleName::new(role),
                                    IndividualName::new(a),
                                    DataValue::Boolean(b == "true"),
                                )
                            }
                            Some(Tok::Ident(b)) => Axiom::RoleAssertion(
                                RoleName::new(role),
                                IndividualName::new(a),
                                IndividualName::new(b.clone()),
                            ),
                            Some(Tok::Int(i)) => Axiom::DataAssertion(
                                DataRoleName::new(role),
                                IndividualName::new(a),
                                DataValue::Integer(*i),
                            ),
                            Some(Tok::Str(s)) => Axiom::DataAssertion(
                                DataRoleName::new(role),
                                IndividualName::new(a),
                                DataValue::Str(s.clone()),
                            ),
                            other => {
                                return cur.err(format!(
                                    "expected individual or literal, found {}",
                                    other.map_or("end of line".to_string(), |t| t.to_string())
                                ))
                            }
                        };
                        cur.expect(&Tok::RParen)?;
                        cur.done()?;
                        out.push(axiom);
                        return Ok(());
                    }
                    _ => {}
                }
            }
        }

        // TBox: `C SubClassOf D` / `C EquivalentTo D` / `C DisjointWith D`.
        let (lhs, lhs_height) = self.parse_or(cur)?;
        let keyword = match cur.next() {
            Some(Tok::Ident(k)) => k.as_str(),
            Some(t) => {
                return cur.err(format!(
                    "expected SubClassOf/EquivalentTo/DisjointWith, found {t}"
                ))
            }
            None => return cur.err("expected SubClassOf/EquivalentTo/DisjointWith"),
        };
        let (rhs, rhs_height) = self.parse_or(cur)?;
        cur.done()?;
        match keyword {
            "SubClassOf" => out.push(Axiom::ConceptInclusion(lhs, rhs)),
            "EquivalentTo" => out.extend(Axiom::equivalent(lhs, rhs)),
            "DisjointWith" => {
                // Stored as `C and D SubClassOf Nothing`: the cap holds
                // for that conjunction.
                cur.taller(lhs_height.max(rhs_height))?;
                out.push(Axiom::disjoint(lhs, rhs))
            }
            other => {
                return cur.err(format!(
                "unknown axiom keyword `{other}` (expected SubClassOf/EquivalentTo/DisjointWith)"
            ))
            }
        }
        Ok(())
    }

    /// Try `[inverse] r SubRoleOf [inverse] s` or `u SubDataRoleOf v`
    /// without consuming input on failure.
    fn try_role_inclusion(&mut self, cur: &mut Cursor<'_>) -> Result<Option<Axiom>> {
        let save = cur.pos;
        let parse_role = |cur: &mut Cursor<'_>| -> Option<RoleExpr> {
            match cur.peek() {
                Some(Tok::Ident(s)) if s == "inverse" => {
                    cur.next();
                    match cur.next() {
                        Some(Tok::Ident(n)) => Some(RoleExpr::named(n.as_str()).inverse()),
                        _ => None,
                    }
                }
                Some(Tok::Ident(_)) => {
                    let Some(Tok::Ident(n)) = cur.next() else {
                        unreachable!()
                    };
                    Some(RoleExpr::named(n.as_str()))
                }
                _ => None,
            }
        };
        if let Some(r) = parse_role(cur) {
            if let Some(Tok::Ident(k)) = cur.peek() {
                if k == "SubRoleOf" {
                    cur.next();
                    let Some(s) = parse_role(cur) else {
                        return cur.err("expected role after SubRoleOf");
                    };
                    cur.done()?;
                    return Ok(Some(Axiom::RoleInclusion(r, s)));
                }
                if k == "SubDataRoleOf" {
                    if r.is_inverse() {
                        return cur.err("data roles have no inverses");
                    }
                    cur.next();
                    let v = cur.expect_ident()?.to_string();
                    cur.done()?;
                    let u = r.name().as_str().to_string();
                    self.data_roles.insert(u.clone());
                    self.data_roles.insert(v.clone());
                    return Ok(Some(Axiom::DataRoleInclusion(
                        DataRoleName::new(u),
                        DataRoleName::new(v),
                    )));
                }
            }
        }
        cur.pos = save;
        Ok(None)
    }

    fn parse_concept_expr(&self, cur: &mut Cursor<'_>) -> Result<Concept> {
        Ok(self.parse_or(cur)?.0)
    }

    // The concept levels return the concept with the height of its
    // tree, counted by the rule `MAX_CONCEPT_DEPTH` documents and held
    // to that cap as the tree is built.

    fn parse_or(&self, cur: &mut Cursor<'_>) -> Result<(Concept, usize)> {
        let (mut c, mut height) = self.parse_and(cur)?;
        while matches!(cur.peek(), Some(Tok::Ident(k)) if k == "or") {
            cur.next();
            let (rhs, h) = self.parse_and(cur)?;
            height = cur.taller(height.max(h))?;
            c = c.or(rhs);
        }
        Ok((c, height))
    }

    fn parse_and(&self, cur: &mut Cursor<'_>) -> Result<(Concept, usize)> {
        let (mut c, mut height) = self.parse_unary(cur)?;
        while matches!(cur.peek(), Some(Tok::Ident(k)) if k == "and") {
            cur.next();
            let (rhs, h) = self.parse_unary(cur)?;
            height = cur.taller(height.max(h))?;
            c = c.and(rhs);
        }
        Ok((c, height))
    }

    fn parse_unary(&self, cur: &mut Cursor<'_>) -> Result<(Concept, usize)> {
        cur.enter()?;
        let parsed = match cur.peek() {
            Some(Tok::Ident(k)) if k == "not" => {
                cur.next();
                let (c, h) = self.parse_unary(cur)?;
                (c.not(), cur.taller(h)?)
            }
            Some(Tok::Ident(k)) if k == "inverse" => {
                // `inverse R some C` etc.
                cur.next();
                let name = cur.expect_ident()?.to_string();
                let role = RoleExpr::named(name).inverse();
                self.parse_restriction_tail(cur, RoleOrData::Role(role))?
            }
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(name)) = cur.next() else {
                    unreachable!()
                };
                // Restriction if followed by a restriction keyword.
                if matches!(cur.peek(), Some(Tok::Ident(k)) if RESTRICTION_KEYWORDS.contains(&k.as_str()))
                {
                    let rod = if self.data_roles.contains(name) {
                        RoleOrData::Data(DataRoleName::new(name.as_str()))
                    } else {
                        RoleOrData::Undetermined(name.clone())
                    };
                    self.parse_restriction_tail(cur, rod)?
                } else {
                    let c = match name.as_str() {
                        "Thing" => Concept::Top,
                        "Nothing" => Concept::Bottom,
                        _ => Concept::atomic(name.as_str()),
                    };
                    (c, 1)
                }
            }
            Some(Tok::LParen) => {
                cur.next();
                let c = self.parse_or(cur)?;
                cur.expect(&Tok::RParen)?;
                c
            }
            Some(Tok::LBrace) => {
                cur.next();
                // Nominal {a, b} — literals in braces only occur as data
                // ranges, which are handled inside restrictions.
                let mut names = Vec::new();
                loop {
                    match cur.next() {
                        Some(Tok::Ident(n)) => names.push(IndividualName::new(n.as_str())),
                        Some(t) => {
                            return cur
                                .err(format!("expected individual name in nominal, found {t}"))
                        }
                        None => return cur.err("unterminated nominal"),
                    }
                    match cur.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBrace) => break,
                        Some(t) => return cur.err(format!("expected `,` or `}}`, found {t}")),
                        None => return cur.err("unterminated nominal"),
                    }
                }
                (Concept::one_of(names), 1)
            }
            Some(t) => return cur.err(format!("expected a concept, found {t}")),
            None => return cur.err("expected a concept, found end of line"),
        };
        cur.leave();
        Ok(parsed)
    }

    fn parse_restriction_tail(
        &self,
        cur: &mut Cursor<'_>,
        role: RoleOrData,
    ) -> Result<(Concept, usize)> {
        let Some(Tok::Ident(kw)) = cur.next() else {
            return cur.err("expected restriction keyword");
        };
        match kw.as_str() {
            "some" | "only" => {
                // Datatype filler?
                if role.could_be_data() && self.filler_is_data_range(cur) {
                    let range = self.parse_data_range(cur)?;
                    // The range shares the restriction's level, and a
                    // complement (they collapse, so a parsed range has at
                    // most one) puts its operand one level lower.
                    let height = match range {
                        DataRange::Not(_) => cur.taller(1)?,
                        _ => 1,
                    };
                    let u = role.into_data(cur)?;
                    let c = if kw == "some" {
                        Concept::DataSome(u, range)
                    } else {
                        Concept::DataAll(u, range)
                    };
                    Ok((c, height))
                } else {
                    let (filler, h) = self.parse_unary(cur)?;
                    let r = role.into_role(cur)?;
                    let c = if kw == "some" {
                        Concept::some(r, filler)
                    } else {
                        Concept::all(r, filler)
                    };
                    Ok((c, cur.taller(h)?))
                }
            }
            "min" | "max" => {
                let n = match cur.next() {
                    Some(Tok::Int(i)) if *i >= 0 => *i as u32,
                    Some(t) => return cur.err(format!("expected cardinality, found {t}")),
                    None => return cur.err("expected cardinality"),
                };
                let c = match role {
                    RoleOrData::Data(u) => {
                        if kw == "min" {
                            Concept::DataAtLeast(n, u)
                        } else {
                            Concept::DataAtMost(n, u)
                        }
                    }
                    other => {
                        let r = other.into_role(cur)?;
                        if kw == "min" {
                            Concept::at_least(n, r)
                        } else {
                            Concept::at_most(n, r)
                        }
                    }
                };
                Ok((c, 1))
            }
            other => cur.err(format!("unknown restriction keyword `{other}`")),
        }
    }

    /// Lookahead: does the filler start a data range rather than a concept?
    fn filler_is_data_range(&self, cur: &Cursor<'_>) -> bool {
        match cur.peek() {
            Some(Tok::Ident(k)) if DATATYPE_NAMES.contains(&k.as_str()) => true,
            Some(Tok::Ident(k)) if k == "not" => {
                // `not(<datatype>…)` / `not({literal…})` is a data-range
                // complement; `not (C …)` is a concept. Complements never
                // nest (they collapse on construction), so the token
                // after `(` decides.
                cur.peek2() == Some(&Tok::LParen)
                    && match cur.peek3() {
                        Some(Tok::Ident(k2)) => DATATYPE_NAMES.contains(&k2.as_str()),
                        // `not({…})`: literal set = data, nominal = concept.
                        Some(Tok::LBrace) => {
                            matches!(cur.peek_n(3), Some(Tok::Int(_)) | Some(Tok::Str(_)))
                                || matches!(
                                    cur.peek_n(3),
                                    Some(Tok::Ident(b)) if b == "true" || b == "false"
                                )
                        }
                        _ => false,
                    }
            }
            Some(Tok::LBrace) => {
                matches!(cur.peek2(), Some(Tok::Int(_)) | Some(Tok::Str(_)))
                    || matches!(cur.peek2(), Some(Tok::Ident(b)) if b == "true" || b == "false")
            }
            _ => false,
        }
    }

    fn parse_data_range(&self, cur: &mut Cursor<'_>) -> Result<DataRange> {
        match cur.next() {
            Some(Tok::Ident(k)) if k == "not" => {
                cur.expect(&Tok::LParen)?;
                let inner = self.parse_data_range(cur)?;
                cur.expect(&Tok::RParen)?;
                Ok(inner.complement())
            }
            Some(Tok::Ident(k)) if k == "integer" || k == "int" => {
                if cur.peek() == Some(&Tok::LBracket) {
                    cur.next();
                    let min = match cur.peek() {
                        Some(Tok::Int(i)) => {
                            let v = *i;
                            cur.next();
                            Some(v)
                        }
                        _ => None,
                    };
                    cur.expect(&Tok::DotDot)?;
                    let max = match cur.peek() {
                        Some(Tok::Int(i)) => {
                            let v = *i;
                            cur.next();
                            Some(v)
                        }
                        _ => None,
                    };
                    cur.expect(&Tok::RBracket)?;
                    Ok(DataRange::IntRange { min, max })
                } else {
                    Ok(DataRange::Datatype(BuiltinDatatype::Integer))
                }
            }
            Some(Tok::Ident(k)) if k == "boolean" || k == "bool" => {
                Ok(DataRange::Datatype(BuiltinDatatype::Boolean))
            }
            Some(Tok::Ident(k)) if k == "string" => Ok(DataRange::Datatype(BuiltinDatatype::Str)),
            Some(Tok::LBrace) => {
                let mut values = Vec::new();
                loop {
                    match cur.next() {
                        Some(Tok::Int(i)) => values.push(DataValue::Integer(*i)),
                        Some(Tok::Str(s)) => values.push(DataValue::Str(s.clone())),
                        Some(Tok::Ident(b)) if b == "true" || b == "false" => {
                            values.push(DataValue::Boolean(b == "true"))
                        }
                        Some(t) => return cur.err(format!("expected literal, found {t}")),
                        None => return cur.err("unterminated literal set"),
                    }
                    match cur.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBrace) => break,
                        Some(t) => return cur.err(format!("expected `,` or `}}`, found {t}")),
                        None => return cur.err("unterminated literal set"),
                    }
                }
                Ok(DataRange::one_of(values))
            }
            Some(t) => cur.err(format!("expected data range, found {t}")),
            None => cur.err("expected data range"),
        }
    }
}

/// Which kind of role a restriction head names; `Undetermined` resolves to
/// an object role unless the filler forces a data reading.
enum RoleOrData {
    Role(RoleExpr),
    Data(DataRoleName),
    Undetermined(String),
}

impl RoleOrData {
    fn could_be_data(&self) -> bool {
        !matches!(self, RoleOrData::Role(_))
    }

    fn into_role(self, cur: &Cursor<'_>) -> Result<RoleExpr> {
        match self {
            RoleOrData::Role(r) => Ok(r),
            RoleOrData::Undetermined(n) => Ok(RoleExpr::named(n)),
            RoleOrData::Data(u) => cur.err(format!(
                "`{u}` is declared as a data role but used with a concept filler"
            )),
        }
    }

    fn into_data(self, cur: &Cursor<'_>) -> Result<DataRoleName> {
        match self {
            RoleOrData::Data(u) => Ok(u),
            RoleOrData::Undetermined(n) => Ok(DataRoleName::new(n)),
            RoleOrData::Role(r) => cur.err(format!(
                "inverse role `{r}` cannot be used with a data range"
            )),
        }
    }
}

/// Parse a whole knowledge base (one statement per line).
pub fn parse_kb(input: &str) -> Result<KnowledgeBase> {
    let mut parser = Parser::new();
    let mut axioms = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let toks = tokenize(raw, lineno)?;
        if toks.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
            line: lineno,
            depth: 0,
        };
        parser.parse_statement(&mut cur, &mut axioms)?;
    }
    Ok(KnowledgeBase::from_axioms(axioms))
}

/// Parse a single concept expression (no data-role declarations in scope).
pub fn parse_concept(input: &str) -> Result<Concept> {
    let toks = tokenize(input, 1)?;
    let mut cur = Cursor {
        toks: &toks,
        pos: 0,
        line: 1,
        depth: 0,
    };
    let parser = Parser::new();
    let c = parser.parse_concept_expr(&mut cur)?;
    cur.done()?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Concept {
        Concept::atomic(s)
    }

    #[test]
    fn parse_simple_inclusion() {
        let kb = parse_kb("A SubClassOf B").unwrap();
        assert_eq!(kb.axioms(), &[Axiom::ConceptInclusion(a("A"), a("B"))]);
    }

    #[test]
    fn parse_precedence_or_binds_loosest() {
        let c = parse_concept("A and B or C").unwrap();
        assert_eq!(c, a("A").and(a("B")).or(a("C")));
        let c = parse_concept("A or B and C").unwrap();
        assert_eq!(c, a("A").or(a("B").and(a("C"))));
        let c = parse_concept("not A and B").unwrap();
        assert_eq!(c, a("A").not().and(a("B")));
    }

    #[test]
    fn parse_parentheses() {
        let c = parse_concept("A and (B or C)").unwrap();
        assert_eq!(c, a("A").and(a("B").or(a("C"))));
        let c = parse_concept("not (A and B)").unwrap();
        assert_eq!(c, a("A").and(a("B")).not());
    }

    #[test]
    fn parse_restrictions() {
        let c = parse_concept("hasPatient some Patient").unwrap();
        assert_eq!(
            c,
            Concept::some(RoleExpr::named("hasPatient"), a("Patient"))
        );
        let c = parse_concept("r only (A or B)").unwrap();
        assert_eq!(c, Concept::all(RoleExpr::named("r"), a("A").or(a("B"))));
        let c = parse_concept("hasChild min 1").unwrap();
        assert_eq!(c, Concept::at_least(1, RoleExpr::named("hasChild")));
        let c = parse_concept("r max 0").unwrap();
        assert_eq!(c, Concept::at_most(0, RoleExpr::named("r")));
    }

    #[test]
    fn parse_inverse_restriction() {
        let c = parse_concept("inverse hasChild some Person").unwrap();
        assert_eq!(
            c,
            Concept::some(RoleExpr::named("hasChild").inverse(), a("Person"))
        );
    }

    #[test]
    fn restriction_filler_binds_tighter_than_and() {
        let c = parse_concept("r some A and B").unwrap();
        // `some` takes one unary filler: (∃r.A) ⊓ B.
        assert_eq!(c, Concept::some(RoleExpr::named("r"), a("A")).and(a("B")));
    }

    #[test]
    fn nested_restrictions() {
        let c = parse_concept("r some (s only (A and Thing))").unwrap();
        assert_eq!(
            c,
            Concept::some(
                RoleExpr::named("r"),
                Concept::all(RoleExpr::named("s"), a("A").and(Concept::Top))
            )
        );
    }

    #[test]
    fn parse_nominals() {
        let c = parse_concept("{kate, smith}").unwrap();
        assert_eq!(
            c,
            Concept::one_of([IndividualName::new("kate"), IndividualName::new("smith")])
        );
    }

    #[test]
    fn parse_thing_nothing() {
        assert_eq!(parse_concept("Thing").unwrap(), Concept::Top);
        assert_eq!(parse_concept("Nothing").unwrap(), Concept::Bottom);
    }

    #[test]
    fn parse_abox_forms() {
        let kb =
            parse_kb("john : Doctor\nhasPatient(bill, mary)\njohn = johnny\nbill != mary").unwrap();
        assert_eq!(kb.len(), 4);
        assert!(matches!(kb.axioms()[0], Axiom::ConceptAssertion(..)));
        assert!(matches!(kb.axioms()[1], Axiom::RoleAssertion(..)));
        assert!(matches!(kb.axioms()[2], Axiom::SameIndividual(..)));
        assert!(matches!(kb.axioms()[3], Axiom::DifferentIndividuals(..)));
    }

    #[test]
    fn parse_data_assertions_by_literal_kind() {
        let kb = parse_kb("age(john, 42)\nname(john, \"J\")\nflag(x, true)").unwrap();
        assert!(matches!(
            &kb.axioms()[0],
            Axiom::DataAssertion(_, _, DataValue::Integer(42))
        ));
        assert!(matches!(
            &kb.axioms()[1],
            Axiom::DataAssertion(_, _, DataValue::Str(s)) if s == "J"
        ));
        assert!(matches!(
            &kb.axioms()[2],
            Axiom::DataAssertion(_, _, DataValue::Boolean(true))
        ));
    }

    #[test]
    fn parse_role_axioms() {
        let kb = parse_kb(
            "hasParent SubRoleOf hasAncestor\n\
             inverse hasChild SubRoleOf hasParent\n\
             Transitive(hasAncestor)",
        )
        .unwrap();
        assert_eq!(kb.len(), 3);
        assert!(matches!(
            &kb.axioms()[1],
            Axiom::RoleInclusion(r, _) if r.is_inverse()
        ));
        assert!(matches!(&kb.axioms()[2], Axiom::Transitive(_)));
    }

    #[test]
    fn parse_data_role_declaration_disambiguates() {
        let kb =
            parse_kb("DataRole: hasAge\nAdult EquivalentTo Person and hasAge some integer[18..]")
                .unwrap();
        assert_eq!(kb.len(), 2); // EquivalentTo expands to two inclusions
        let Axiom::ConceptInclusion(_, rhs) = &kb.axioms()[0] else {
            panic!()
        };
        let expected = a("Person").and(Concept::DataSome(
            DataRoleName::new("hasAge"),
            DataRange::IntRange {
                min: Some(18),
                max: None,
            },
        ));
        assert_eq!(rhs, &expected);
    }

    #[test]
    fn data_range_detected_from_filler_without_declaration() {
        let c = parse_concept("hasAge some integer[0..150]").unwrap();
        assert!(matches!(c, Concept::DataSome(..)));
        let c = parse_concept("score some {1, 2, 3}").unwrap();
        assert!(matches!(c, Concept::DataSome(..)));
        let c = parse_concept("val only not(boolean)").unwrap();
        assert!(matches!(c, Concept::DataAll(..)));
    }

    #[test]
    fn declared_data_role_min_max() {
        let kb = parse_kb("DataRole: u\nC SubClassOf u min 2\nD SubClassOf u max 0").unwrap();
        let Axiom::ConceptInclusion(_, rhs) = &kb.axioms()[0] else {
            panic!()
        };
        assert!(matches!(rhs, Concept::DataAtLeast(2, _)));
        let Axiom::ConceptInclusion(_, rhs) = &kb.axioms()[1] else {
            panic!()
        };
        assert!(matches!(rhs, Concept::DataAtMost(0, _)));
    }

    #[test]
    fn equivalent_and_disjoint_sugar() {
        let kb = parse_kb("A EquivalentTo B\nC DisjointWith D").unwrap();
        assert_eq!(kb.len(), 3);
        assert!(matches!(
            &kb.axioms()[2],
            Axiom::ConceptInclusion(Concept::And(..), Concept::Bottom)
        ));
    }

    #[test]
    fn comments_and_blank_lines() {
        let kb = parse_kb("# a comment\n\nA SubClassOf B # trailing\n").unwrap();
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn transformed_names_parse() {
        // The SHOIN(D)4 transformation mints names like `Doctor+`, `Fly-`.
        let kb = parse_kb("Doctor+ SubClassOf not Fly-").unwrap();
        assert_eq!(
            kb.axioms()[0],
            Axiom::ConceptInclusion(a("Doctor+"), a("Fly-").not())
        );
    }

    #[test]
    fn error_reporting_has_line_numbers() {
        let err = parse_kb("A SubClassOf B\nA SubClassOf").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_kb("A SubClassOf B C").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse_kb("A ~ B").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn negative_cardinality_rejected() {
        assert!(parse_kb("A SubClassOf r min -1").is_err());
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(parse_kb("name(a, \"oops)").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_concept_depth() {
        let cap = MAX_CONCEPT_DEPTH;
        let too_deep =
            |r: Result<Concept>| matches!(r, Err(e) if e.message.contains("nested deeper"));
        // Tree height: `n` negations of `A` stand `n + 1` tall, a
        // left-deep chain of `n` conjuncts `n` tall.
        let negations = |n: usize| format!("{}A", "not ".repeat(n));
        let chain = |n: usize| vec!["A"; n].join(" and ");
        let fillers = |n: usize| format!("{}A", "r some ".repeat(n));
        for shape in [&negations as &dyn Fn(usize) -> String, &fillers] {
            assert!(parse_concept(&shape(cap - 1)).is_ok());
            assert!(too_deep(parse_concept(&shape(cap))));
        }
        assert!(parse_concept(&chain(cap)).is_ok());
        assert!(too_deep(parse_concept(&chain(cap + 1))));
        // Parentheses add no node but nest the parse itself, which is
        // held to twice the tree cap.
        let parens = |n: usize| format!("{}A{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_concept(&parens(2 * cap - 1)).is_ok());
        assert!(too_deep(parse_concept(&parens(2 * cap))));
        // Every printed concept at the cap re-parses to itself.
        for shape in [&negations as &dyn Fn(usize) -> String, &fillers] {
            let c = parse_concept(&shape(cap - 1)).unwrap();
            assert_eq!(parse_concept(&c.to_string()), Ok(c));
        }
        let right_nested = (1..cap).fold(Concept::atomic("A"), |c, _| Concept::atomic("A").and(c));
        assert_eq!(parse_concept(&right_nested.to_string()), Ok(right_nested));
        // Far past the cap is the same typed error, not a stack overflow.
        assert!(too_deep(parse_concept(&parens(100_000))));
        assert!(too_deep(parse_concept(&chain(100_000))));
        let e = parse_kb(&format!("A SubClassOf B\nx : {}", negations(100_000))).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    /// The parser and the snapshot decoder count depth by one rule:
    /// whatever the parser stores at the cap prints, re-parses and
    /// decodes, and one level more is refused by both.
    #[test]
    fn the_parser_and_the_snapshot_decoder_agree_on_depth() {
        use crate::snapshot::{get_concept, put_concept, SnapshotError};
        fn too_deep<T>(r: Result<T>) -> bool {
            matches!(r, Err(e) if e.message.contains("nested deeper"))
        }
        let decode = |c: &Concept| {
            let mut buf = Vec::new();
            put_concept(&mut buf, c);
            get_concept(&mut &buf[..])
        };
        let r = || RoleExpr::named("r");
        // Wrap `c` in `n` nodes, one level each, cycling through every
        // constructor with a child and both sides of `and`/`or`.
        let tower = |mut c: Concept, n: usize| {
            for i in 0..n {
                c = match i % 6 {
                    0 => c.not(),
                    1 => Concept::some(r(), c),
                    2 => a("A").and(c),
                    3 => c.or(a("B")),
                    4 => Concept::all(r().inverse(), c),
                    _ => a("C").or(c),
                };
            }
            c
        };
        // `u some not(integer)` stands two levels tall.
        let complement = DataRange::Datatype(BuiltinDatatype::Integer).complement();
        let data = Concept::DataSome(DataRoleName::new("u"), complement);
        // Concepts `h` levels tall.
        let shapes: [&dyn Fn(usize) -> Concept; 4] = [
            &|h| tower(a("A"), h - 1),
            &|h| tower(data.clone(), h - 2),
            &|h| (2..h).fold(data.clone(), |c, _| c.not()),
            &|h| Concept::and_all((0..h).map(|_| a("A"))),
        ];
        let disjoint = |c: &Concept| parse_kb(&format!("({c}) DisjointWith B"));
        for shape in shapes {
            let (at_cap, past) = (shape(MAX_CONCEPT_DEPTH), shape(MAX_CONCEPT_DEPTH + 1));
            assert_eq!(decode(&at_cap), Ok(at_cap.clone()));
            assert_eq!(parse_concept(&at_cap.to_string()), Ok(at_cap.clone()));
            assert_eq!(decode(&past), Err(SnapshotError::TooDeep));
            assert!(too_deep(parse_concept(&past.to_string())));
            // `C DisjointWith B` stores `C and B`, one level above `C`.
            let kb = disjoint(&shape(MAX_CONCEPT_DEPTH - 1)).unwrap();
            let [Axiom::ConceptInclusion(stored, _)] = kb.axioms() else {
                panic!("DisjointWith stores one inclusion")
            };
            assert_eq!(decode(stored), Ok(stored.clone()));
            assert!(too_deep(disjoint(&at_cap)));
            assert_eq!(decode(&at_cap.and(a("B"))), Err(SnapshotError::TooDeep));
        }
    }

    #[test]
    fn paper_example_2_parses() {
        let kb = parse_kb(
            "SurgicalTeam SubClassOf not ReadPatientRecordTeam
             UrgencyTeam SubClassOf ReadPatientRecordTeam
             john : SurgicalTeam
             john : UrgencyTeam",
        )
        .unwrap();
        assert_eq!(kb.tbox().count(), 2);
        assert_eq!(kb.abox().count(), 2);
    }

    #[test]
    fn paper_example_3_parses() {
        let kb = parse_kb(
            "Bird and (hasWing some Wing) SubClassOf Fly
             Penguin SubClassOf Bird
             Penguin SubClassOf hasWing some Wing
             Penguin SubClassOf not Fly
             tweety : Bird
             tweety : Penguin
             w : Wing
             hasWing(tweety, w)",
        )
        .unwrap();
        assert_eq!(kb.tbox().count(), 4);
        assert_eq!(kb.abox().count(), 4);
    }
}

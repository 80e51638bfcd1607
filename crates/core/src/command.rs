//! The request grammar shared by every line-oriented front end: `shoin4
//! session` scripts, the `serve` line protocol (connection loop, lane
//! predictor, workers and [`crate::serve::execute`]) and the session
//! write-ahead log's replay.
//!
//! One command per line; axioms and concepts use the [`crate::parser4`]
//! syntax under the `DataRole:` declarations seen so far on the same
//! script, connection or log:
//!
//! ```text
//! DataRole: u v …              declare datatype roles for later lines
//! add <axiom>                  add an axiom
//! retract <axiom>              retract one occurrence of an axiom
//! query <individual> <concept> four-valued membership
//! role <role> <a> <b>          four-valued role membership
//! entails <axiom>              four-valued entailment
//! check                        satisfiability
//! stats                        counters
//! tenant <id>                  select (creating if needed) a tenant   } server
//! cancel [<tenant>]            revoke a tenant's in-flight requests   } connection
//! quit                         close the connection                   } verbs
//! ```
//!
//! Each front end serves the commands that make sense for it and
//! rejects the rest.

use crate::kb4::Axiom4;
use crate::parser4::parse_kb4;
use dl::name::{DataRoleName, IndividualName, RoleName};
use dl::Concept;
use std::collections::BTreeSet;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `DataRole: u v …`.
    DeclareDataRoles(Vec<DataRoleName>),
    /// `add <axiom>`.
    Add(Axiom4),
    /// `retract <axiom>`.
    Retract(Axiom4),
    /// `query <individual> <concept>`.
    Query(IndividualName, Concept),
    /// `role <role> <a> <b>`.
    Role(RoleName, IndividualName, IndividualName),
    /// `entails <axiom>`.
    Entails(Axiom4),
    /// `check`.
    Check,
    /// `stats`.
    Stats,
    /// `tenant <id>`.
    Tenant(String),
    /// `cancel [<tenant>]`; `None` means the connection's own tenant.
    Cancel(Option<String>),
    /// `quit`.
    Quit,
}

impl Command {
    /// Parse one request line under the data roles `declared` so far.
    /// The error is a human-readable message.
    pub fn parse(line: &str, declared: &BTreeSet<DataRoleName>) -> Result<Command, String> {
        let line = line.trim();
        if let Some(names) = line.strip_prefix("DataRole:") {
            let names = names.split_whitespace().map(DataRoleName::new).collect();
            return Ok(Command::DeclareDataRoles(names));
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let usage = |shape: &str| Err(format!("usage: {shape}"));
        match verb {
            "add" => Ok(Command::Add(parse_axiom(rest, declared)?)),
            "retract" => Ok(Command::Retract(parse_axiom(rest, declared)?)),
            "entails" => Ok(Command::Entails(parse_axiom(rest, declared)?)),
            "query" => match rest.split_once(char::is_whitespace) {
                Some((a, c)) => Ok(Command::Query(
                    IndividualName::new(a),
                    parse_concept(c.trim(), declared)?,
                )),
                None => usage("query <individual> <concept>"),
            },
            "role" => match rest.split_whitespace().collect::<Vec<_>>()[..] {
                [r, a, b] => Ok(Command::Role(
                    RoleName::new(r),
                    IndividualName::new(a),
                    IndividualName::new(b),
                )),
                _ => usage("role <role> <a> <b>"),
            },
            "check" => Ok(Command::Check),
            "stats" => Ok(Command::Stats),
            "tenant" if rest.is_empty() => usage("tenant <id>"),
            "tenant" => Ok(Command::Tenant(rest.to_string())),
            "cancel" => Ok(Command::Cancel(
                (!rest.is_empty()).then(|| rest.to_string()),
            )),
            "quit" => Ok(Command::Quit),
            _ => Err(format!("unknown verb {verb:?}")),
        }
    }
}

/// Parse `src` as a KB under the declarations, returning its axioms.
fn parse_with_declarations(
    src: &str,
    declared: &BTreeSet<DataRoleName>,
) -> Result<Vec<Axiom4>, String> {
    let mut text = String::new();
    if !declared.is_empty() {
        text.push_str("DataRole:");
        for u in declared {
            text.push(' ');
            text.push_str(u.as_str());
        }
        text.push('\n');
    }
    text.push_str(src);
    Ok(parse_kb4(&text)
        .map_err(|e| e.to_string())?
        .axioms()
        .to_vec())
}

fn parse_axiom(src: &str, declared: &BTreeSet<DataRoleName>) -> Result<Axiom4, String> {
    match &parse_with_declarations(src, declared)?[..] {
        [ax] => Ok(ax.clone()),
        other => Err(format!("expected exactly one axiom, got {}", other.len())),
    }
}

/// Parse a concept under the declared data roles. It parses as the
/// filler of a throwaway assertion, so its syntax — data restrictions
/// included — is exactly the KB parser's.
pub fn parse_concept(src: &str, declared: &BTreeSet<DataRoleName>) -> Result<Concept, String> {
    match &parse_with_declarations(&format!("__command_probe : {src}"), declared)?[..] {
        [Axiom4::ConceptAssertion(_, c)] => Ok(c.clone()),
        _ => Err(format!("not a concept: {src:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, declared: &[&str]) -> Result<Command, String> {
        let declared = declared.iter().map(|u| DataRoleName::new(*u)).collect();
        Command::parse(line, &declared)
    }

    #[test]
    fn every_verb_parses_and_malformed_lines_are_errors() {
        assert_eq!(
            parse("DataRole: age height", &[]),
            Ok(Command::DeclareDataRoles(vec![
                DataRoleName::new("age"),
                DataRoleName::new("height")
            ]))
        );
        assert!(matches!(parse("add x : A", &[]), Ok(Command::Add(_))));
        assert!(matches!(
            parse("retract x : A", &[]),
            Ok(Command::Retract(_))
        ));
        assert!(matches!(
            parse("entails A SubClassOf B", &[]),
            Ok(Command::Entails(_))
        ));
        assert!(matches!(parse("role r a b", &[]), Ok(Command::Role(..))));
        assert_eq!(parse("check", &[]), Ok(Command::Check));
        assert_eq!(parse("stats", &[]), Ok(Command::Stats));
        assert_eq!(parse("tenant t1", &[]), Ok(Command::Tenant("t1".into())));
        assert_eq!(parse("cancel", &[]), Ok(Command::Cancel(None)));
        assert_eq!(parse("quit", &[]), Ok(Command::Quit));
        assert!(matches!(parse("query x Café", &[]), Ok(Command::Query(..))));
        for bad in [
            "frobnicate x",
            "add A SubClassOf",
            "add x : A\ny : B",
            "query x",
            "role r a",
            "tenant",
            "query x ©",
        ] {
            assert!(parse(bad, &[]).is_err(), "{bad:?} parsed");
        }
    }
}

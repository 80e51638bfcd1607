//! Compact binary snapshots of knowledge bases.
//!
//! A tagged, length-prefixed binary format for persisting and shipping
//! KBs (the text syntax is for humans; snapshots are for caches and
//! benchmark corpora). The format is self-contained and versioned:
//!
//! ```text
//! "DLKB" <version:u8> <axiom-count:u32> <axiom>*
//! ```
//!
//! with recursive tag bytes for concepts, roles and data ranges. Decoding
//! never panics on corrupt input — every failure is a typed
//! [`SnapshotError`].
//!
//! The wire primitives (`put_*`/`get_*`) are public so downstream
//! formats — e.g. the four-valued session snapshots and write-ahead
//! log in `shoin4::incremental` — can frame their own structures in
//! the same encoding instead of inventing a second one.

use crate::axiom::{Axiom, RoleExpr};
use crate::concept::{deeper, Concept, MAX_CONCEPT_DEPTH};
use crate::datatype::{BuiltinDatatype, DataRange, DataValue};
use crate::kb::KnowledgeBase;
use crate::name::{ConceptName, DataRoleName, IndividualName, RoleName};
use std::fmt;

const MAGIC: &[u8; 4] = b"DLKB";
const VERSION: u8 = 1;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `DLKB` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ended mid-structure.
    UnexpectedEof,
    /// An unknown tag byte for the given structure kind.
    BadTag(&'static str, u8),
    /// A string payload was not UTF-8.
    BadUtf8,
    /// A concept or data range nested deeper than [`MAX_CONCEPT_DEPTH`].
    TooDeep,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a DLKB snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::UnexpectedEof => write!(f, "truncated snapshot"),
            SnapshotError::BadTag(kind, t) => write!(f, "bad {kind} tag byte {t:#x}"),
            SnapshotError::BadUtf8 => write!(f, "non-UTF-8 string in snapshot"),
            SnapshotError::TooDeep => {
                write!(f, "concept nested deeper than {MAX_CONCEPT_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

type Result<T> = std::result::Result<T, SnapshotError>;

/// Serialize a KB to bytes.
pub fn encode(kb: &KnowledgeBase) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + kb.size() * 8);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    put_u32(&mut buf, kb.len() as u32);
    for ax in kb.axioms() {
        put_axiom(&mut buf, ax);
    }
    buf
}

/// Deserialize a KB from bytes.
pub fn decode(mut buf: &[u8]) -> Result<KnowledgeBase> {
    if buf.len() < 4 {
        return Err(SnapshotError::UnexpectedEof);
    }
    let (magic, rest) = buf.split_at(4);
    buf = rest;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = get_u8(&mut buf)?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let count = get_u32(&mut buf)?;
    let mut axioms = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        axioms.push(get_axiom(&mut buf)?);
    }
    Ok(KnowledgeBase::from_axioms(axioms))
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, n: u32) {
    buf.extend_from_slice(&n.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, n: i64) {
    buf.extend_from_slice(&n.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Read one byte.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&b, rest) = buf.split_first().ok_or(SnapshotError::UnexpectedEof)?;
    *buf = rest;
    Ok(b)
}

/// Read a little-endian `u32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.len() < 4 {
        return Err(SnapshotError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

/// Read a little-endian `i64`.
pub fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    if buf.len() < 8 {
        return Err(SnapshotError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(i64::from_le_bytes(head.try_into().expect("8 bytes")))
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(SnapshotError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(head.to_vec()).map_err(|_| SnapshotError::BadUtf8)
}

/// Append a role expression (inverse flag + name).
pub fn put_role(buf: &mut Vec<u8>, r: &RoleExpr) {
    buf.push(u8::from(r.is_inverse()));
    put_str(buf, r.name().as_str());
}

/// Read a role expression.
pub fn get_role(buf: &mut &[u8]) -> Result<RoleExpr> {
    let inv = get_u8(buf)? != 0;
    let name = get_str(buf)?;
    let r = RoleExpr::named(name);
    Ok(if inv { r.inverse() } else { r })
}

/// Append a tagged data value.
pub fn put_value(buf: &mut Vec<u8>, v: &DataValue) {
    match v {
        DataValue::Integer(i) => {
            buf.push(0);
            put_i64(buf, *i);
        }
        DataValue::Boolean(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        DataValue::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
    }
}

/// Read a tagged data value.
pub fn get_value(buf: &mut &[u8]) -> Result<DataValue> {
    match get_u8(buf)? {
        0 => Ok(DataValue::Integer(get_i64(buf)?)),
        1 => Ok(DataValue::Boolean(get_u8(buf)? != 0)),
        2 => Ok(DataValue::Str(get_str(buf)?)),
        t => Err(SnapshotError::BadTag("data value", t)),
    }
}

/// Append a tagged data range.
pub fn put_range(buf: &mut Vec<u8>, d: &DataRange) {
    match d {
        DataRange::Datatype(dt) => {
            buf.push(0);
            buf.push(match dt {
                BuiltinDatatype::Integer => 0,
                BuiltinDatatype::Boolean => 1,
                BuiltinDatatype::Str => 2,
            });
        }
        DataRange::OneOf(vs) => {
            buf.push(1);
            put_u32(buf, vs.len() as u32);
            for v in vs {
                put_value(buf, v);
            }
        }
        DataRange::IntRange { min, max } => {
            buf.push(2);
            buf.push(u8::from(min.is_some()));
            if let Some(m) = min {
                put_i64(buf, *m);
            }
            buf.push(u8::from(max.is_some()));
            if let Some(m) = max {
                put_i64(buf, *m);
            }
        }
        DataRange::Not(inner) => {
            buf.push(3);
            put_range(buf, inner);
        }
    }
}

/// Read a tagged data range.
pub fn get_range(buf: &mut &[u8]) -> Result<DataRange> {
    get_range_at(buf, 1)
}

/// The level of a child of a node at level `depth`, counted by the
/// rule [`MAX_CONCEPT_DEPTH`] documents.
fn nest(depth: usize) -> Result<usize> {
    deeper(depth).ok_or(SnapshotError::TooDeep)
}

fn get_range_at(buf: &mut &[u8], depth: usize) -> Result<DataRange> {
    match get_u8(buf)? {
        0 => Ok(DataRange::Datatype(match get_u8(buf)? {
            0 => BuiltinDatatype::Integer,
            1 => BuiltinDatatype::Boolean,
            2 => BuiltinDatatype::Str,
            t => return Err(SnapshotError::BadTag("datatype", t)),
        })),
        1 => {
            let n = get_u32(buf)?;
            let mut vs = Vec::with_capacity(n.min(1 << 16) as usize);
            for _ in 0..n {
                vs.push(get_value(buf)?);
            }
            Ok(DataRange::one_of(vs))
        }
        2 => {
            let min = if get_u8(buf)? != 0 {
                Some(get_i64(buf)?)
            } else {
                None
            };
            let max = if get_u8(buf)? != 0 {
                Some(get_i64(buf)?)
            } else {
                None
            };
            Ok(DataRange::IntRange { min, max })
        }
        3 => Ok(DataRange::Not(Box::new(get_range_at(buf, nest(depth)?)?))),
        t => Err(SnapshotError::BadTag("data range", t)),
    }
}

/// Append a concept, recursively tagged.
pub fn put_concept(buf: &mut Vec<u8>, c: &Concept) {
    match c {
        Concept::Top => buf.push(0),
        Concept::Bottom => buf.push(1),
        Concept::Atomic(a) => {
            buf.push(2);
            put_str(buf, a.as_str());
        }
        Concept::Not(inner) => {
            buf.push(3);
            put_concept(buf, inner);
        }
        Concept::And(l, r) => {
            buf.push(4);
            put_concept(buf, l);
            put_concept(buf, r);
        }
        Concept::Or(l, r) => {
            buf.push(5);
            put_concept(buf, l);
            put_concept(buf, r);
        }
        Concept::OneOf(os) => {
            buf.push(6);
            put_u32(buf, os.len() as u32);
            for o in os {
                put_str(buf, o.as_str());
            }
        }
        Concept::Some(r, f) => {
            buf.push(7);
            put_role(buf, r);
            put_concept(buf, f);
        }
        Concept::All(r, f) => {
            buf.push(8);
            put_role(buf, r);
            put_concept(buf, f);
        }
        Concept::AtLeast(n, r) => {
            buf.push(9);
            put_u32(buf, *n);
            put_role(buf, r);
        }
        Concept::AtMost(n, r) => {
            buf.push(10);
            put_u32(buf, *n);
            put_role(buf, r);
        }
        Concept::DataSome(u, d) => {
            buf.push(11);
            put_str(buf, u.as_str());
            put_range(buf, d);
        }
        Concept::DataAll(u, d) => {
            buf.push(12);
            put_str(buf, u.as_str());
            put_range(buf, d);
        }
        Concept::DataAtLeast(n, u) => {
            buf.push(13);
            put_u32(buf, *n);
            put_str(buf, u.as_str());
        }
        Concept::DataAtMost(n, u) => {
            buf.push(14);
            put_u32(buf, *n);
            put_str(buf, u.as_str());
        }
    }
}

/// Read a concept; one nested deeper than [`MAX_CONCEPT_DEPTH`] is
/// [`SnapshotError::TooDeep`].
pub fn get_concept(buf: &mut &[u8]) -> Result<Concept> {
    get_concept_at(buf, 1)
}

fn get_concept_at(buf: &mut &[u8], depth: usize) -> Result<Concept> {
    let child = |buf: &mut &[u8]| get_concept_at(buf, nest(depth)?);
    Ok(match get_u8(buf)? {
        0 => Concept::Top,
        1 => Concept::Bottom,
        2 => Concept::atomic(get_str(buf)?),
        3 => child(buf)?.not(),
        4 => {
            let l = child(buf)?;
            let r = child(buf)?;
            l.and(r)
        }
        5 => {
            let l = child(buf)?;
            let r = child(buf)?;
            l.or(r)
        }
        6 => {
            let n = get_u32(buf)?;
            let mut os = Vec::with_capacity(n.min(1 << 16) as usize);
            for _ in 0..n {
                os.push(IndividualName::new(get_str(buf)?));
            }
            Concept::one_of(os)
        }
        7 => {
            let r = get_role(buf)?;
            Concept::some(r, child(buf)?)
        }
        8 => {
            let r = get_role(buf)?;
            Concept::all(r, child(buf)?)
        }
        9 => {
            let n = get_u32(buf)?;
            Concept::at_least(n, get_role(buf)?)
        }
        10 => {
            let n = get_u32(buf)?;
            Concept::at_most(n, get_role(buf)?)
        }
        11 => {
            let u = DataRoleName::new(get_str(buf)?);
            Concept::DataSome(u, get_range_at(buf, depth)?)
        }
        12 => {
            let u = DataRoleName::new(get_str(buf)?);
            Concept::DataAll(u, get_range_at(buf, depth)?)
        }
        13 => {
            let n = get_u32(buf)?;
            Concept::DataAtLeast(n, DataRoleName::new(get_str(buf)?))
        }
        14 => {
            let n = get_u32(buf)?;
            Concept::DataAtMost(n, DataRoleName::new(get_str(buf)?))
        }
        t => return Err(SnapshotError::BadTag("concept", t)),
    })
}

/// Append a classical axiom.
pub fn put_axiom(buf: &mut Vec<u8>, ax: &Axiom) {
    match ax {
        Axiom::ConceptInclusion(c, d) => {
            buf.push(0);
            put_concept(buf, c);
            put_concept(buf, d);
        }
        Axiom::RoleInclusion(r, s) => {
            buf.push(1);
            put_role(buf, r);
            put_role(buf, s);
        }
        Axiom::Transitive(r) => {
            buf.push(2);
            put_str(buf, r.as_str());
        }
        Axiom::DataRoleInclusion(u, v) => {
            buf.push(3);
            put_str(buf, u.as_str());
            put_str(buf, v.as_str());
        }
        Axiom::ConceptAssertion(a, c) => {
            buf.push(4);
            put_str(buf, a.as_str());
            put_concept(buf, c);
        }
        Axiom::RoleAssertion(r, a, b) => {
            buf.push(5);
            put_str(buf, r.as_str());
            put_str(buf, a.as_str());
            put_str(buf, b.as_str());
        }
        Axiom::DataAssertion(u, a, v) => {
            buf.push(6);
            put_str(buf, u.as_str());
            put_str(buf, a.as_str());
            put_value(buf, v);
        }
        Axiom::SameIndividual(a, b) => {
            buf.push(7);
            put_str(buf, a.as_str());
            put_str(buf, b.as_str());
        }
        Axiom::DifferentIndividuals(a, b) => {
            buf.push(8);
            put_str(buf, a.as_str());
            put_str(buf, b.as_str());
        }
    }
}

/// Read a classical axiom.
pub fn get_axiom(buf: &mut &[u8]) -> Result<Axiom> {
    Ok(match get_u8(buf)? {
        0 => {
            let c = get_concept(buf)?;
            let d = get_concept(buf)?;
            Axiom::ConceptInclusion(c, d)
        }
        1 => {
            let r = get_role(buf)?;
            let s = get_role(buf)?;
            Axiom::RoleInclusion(r, s)
        }
        2 => Axiom::Transitive(RoleName::new(get_str(buf)?)),
        3 => {
            let u = DataRoleName::new(get_str(buf)?);
            let v = DataRoleName::new(get_str(buf)?);
            Axiom::DataRoleInclusion(u, v)
        }
        4 => {
            let a = IndividualName::new(get_str(buf)?);
            Axiom::ConceptAssertion(a, get_concept(buf)?)
        }
        5 => {
            let r = RoleName::new(get_str(buf)?);
            let a = IndividualName::new(get_str(buf)?);
            let b = IndividualName::new(get_str(buf)?);
            Axiom::RoleAssertion(r, a, b)
        }
        6 => {
            let u = DataRoleName::new(get_str(buf)?);
            let a = IndividualName::new(get_str(buf)?);
            Axiom::DataAssertion(u, a, get_value(buf)?)
        }
        7 => {
            let a = IndividualName::new(get_str(buf)?);
            let b = IndividualName::new(get_str(buf)?);
            Axiom::SameIndividual(a, b)
        }
        8 => {
            let a = IndividualName::new(get_str(buf)?);
            let b = IndividualName::new(get_str(buf)?);
            Axiom::DifferentIndividuals(a, b)
        }
        t => return Err(SnapshotError::BadTag("axiom", t)),
    })
}

// Silence the unused-import warning for ConceptName: names in snapshots
// are created through `Concept::atomic`, keeping one construction path.
#[allow(unused_imports)]
use ConceptName as _ConceptNameUsedViaAtomic;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kb;

    fn sample() -> KnowledgeBase {
        parse_kb(
            "DataRole: hasAge
             Adult EquivalentTo Person and hasAge some integer[18..]
             Kid SubClassOf not Adult and (hasParent some {alice, bob})
             inverse hasParent SubRoleOf hasChild
             Transitive(partOf)
             u SubDataRoleOf v
             alice : Adult
             hasParent(kid1, alice)
             hasAge(alice, 40)
             name(alice, \"Alice\")
             flag(alice, true)
             alice = al
             alice != bob
             Kid SubClassOf hasParent min 1
             Kid SubClassOf hasParent max 2
             Weird SubClassOf hasAge only not({1, 2})",
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let kb = sample();
        let bytes = encode(&kb);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, kb);
    }

    #[test]
    fn round_trip_empty() {
        let kb = KnowledgeBase::new();
        assert_eq!(decode(&encode(&kb)).unwrap(), kb);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE....."), Err(SnapshotError::BadMagic));
        assert_eq!(decode(b""), Err(SnapshotError::UnexpectedEof));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(SnapshotError::BadVersion(99)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&sample());
        // Every proper prefix must fail cleanly (no panic, no wrong KB).
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(kb) => {
                    // A prefix that decodes must be a KB with fewer
                    // axioms declared — impossible since the count is in
                    // the header; treat as failure.
                    panic!("prefix of length {cut} decoded to {} axioms", kb.len());
                }
            }
        }
    }

    #[test]
    fn corrupted_tags_rejected() {
        let bytes = encode(&sample()).to_vec();
        // Flip a byte somewhere past the header and require a clean
        // result (either an error or a *different* KB, never a panic).
        for i in 9..bytes.len().min(60) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = decode(&corrupt);
        }
    }

    #[test]
    fn nesting_past_the_cap_is_too_deep() {
        // `n` negations of `⊤`: a tree of height `n + 1`.
        let negations = |n: usize| (0..n).fold(Concept::Top, |c, _| c.not());
        let decode = |c: &Concept| {
            let mut buf = Vec::new();
            put_concept(&mut buf, c);
            get_concept(&mut &buf[..])
        };
        let at_cap = negations(MAX_CONCEPT_DEPTH - 1);
        assert_eq!(decode(&at_cap), Ok(at_cap));
        let past = Concept::some(RoleExpr::named("r"), negations(MAX_CONCEPT_DEPTH - 1));
        assert_eq!(decode(&past), Err(SnapshotError::TooDeep));
        // Crafted input far past the cap: 200,000 `Not` tags before `⊤`,
        // and as many complements around a datatype.
        let mut tags = vec![3u8; 200_000];
        tags.push(0);
        assert_eq!(get_concept(&mut &tags[..]), Err(SnapshotError::TooDeep));
        tags.push(0);
        assert_eq!(get_range(&mut &tags[..]), Err(SnapshotError::TooDeep));
    }

    #[test]
    fn snapshots_are_compact() {
        let kb = sample();
        let bytes = encode(&kb);
        let text = crate::printer::print_kb(&kb);
        // Not a strong guarantee, just a sanity bound: the binary form
        // should not balloon past ~3x the text form.
        assert!(
            bytes.len() < text.len() * 3,
            "{} vs {}",
            bytes.len(),
            text.len()
        );
    }
}

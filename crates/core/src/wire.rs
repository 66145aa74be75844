//! Stable binary wire codec for model types.
//!
//! The durability layer (`currency-store`) persists specifications as
//! snapshots and update streams as logged [`SpecDelta`]s.  Both need a
//! byte representation that is **stable across builds** (no `derive`d
//! hashing, no platform-dependent layouts) and **self-validating** on the
//! way back in — a corrupted or truncated buffer must surface as a
//! [`WireError`], never as a panic or a silently wrong model object.
//! This module is that representation, hand-rolled with no external
//! dependencies (the same offline discipline as the shim crates):
//!
//! * [`WireWriter`] / [`WireReader`] — little-endian primitives with
//!   bounds-checked reads;
//! * [`encode_spec`] / [`decode_spec`] — a whole [`Specification`]:
//!   catalog, instances (tuple slots with tombstone flags, initial
//!   currency orders), denial constraints, copy functions;
//! * [`encode_delta`] / [`decode_delta`] — every [`DeltaOp`] kind, with
//!   explicit wire tags;
//! * [`encode_compact_step`] / [`decode_compact_step`] — the slices a
//!   compaction step executed, logged so post-compaction replay stays
//!   id-correct.
//!
//! ## Stability contract
//!
//! Every enum crossing the wire (value kinds, comparison operators,
//! predicate/term/delta-op kinds) is encoded through an **explicit tag
//! byte** assigned here, never through `as`-casts of source-order
//! discriminants — reordering a Rust enum cannot silently change the
//! format.  [`WIRE_VERSION`] names the format; containers (snapshot and
//! log headers in `currency-store`) persist it and refuse files from a
//! different version.
//!
//! Decoding reconstructs objects through the same validating constructors
//! the live API uses (`push_tuple`, `add_order`, `add_constraint`,
//! `add_copy`, the [`SpecDelta`] builder), so a decoded specification
//! upholds every model invariant or fails with the underlying
//! [`CurrencyError`] — the codec cannot be used to smuggle in states the
//! API would reject.  Encoding is deterministic: one model state has
//! exactly one byte representation, which lets the recovery tests compare
//! specifications by comparing encodings.

use crate::copy::{CopyFunction, CopySignature};
use crate::delta::{DeltaOp, SpecDelta};
use crate::denial::{CmpOp, DenialConstraint, Predicate, Term};
use crate::error::CurrencyError;
use crate::instance::Tuple;
use crate::schema::{AttrId, Catalog, RelId, RelationSchema};
use crate::spec::{CompactSlice, CompactStepReport, Specification};
use crate::value::{Eid, TupleId, Value};
use std::fmt;

/// Version of the wire format produced by this module.  Bump on any
/// layout change; containers persist it and reject mismatches.
pub const WIRE_VERSION: u32 = 1;

/// A decoding failure: the buffer is truncated, malformed, or encodes a
/// model state the validating constructors reject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside the named field.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
    },
    /// An enum tag byte had no assigned meaning.
    BadTag {
        /// The enum being read.
        what: &'static str,
        /// The unassigned tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// What was being read.
        what: &'static str,
    },
    /// Decoding finished with bytes left over.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The decoded object violates a model invariant.
    Model(CurrencyError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => {
                write!(f, "wire buffer truncated while reading {what}")
            }
            WireError::BadTag { what, tag } => {
                write!(f, "unknown wire tag {tag} for {what}")
            }
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete wire object")
            }
            WireError::Model(e) => write!(f, "decoded object violates a model invariant: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CurrencyError> for WireError {
    fn from(e: CurrencyError) -> WireError {
        WireError::Model(e)
    }
}

/// Little-endian byte-buffer writer (see module docs).
#[derive(Clone, Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish, handing back the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a boolean as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a collection length (as `u64`).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn expect_empty(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read a boolean byte (strict: only `0`/`1` are accepted, so a
    /// corrupted flag surfaces instead of collapsing to `true`).
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.get_len(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    /// Read a collection length, bounds-checked against the bytes left
    /// (every element costs at least one byte, so a length beyond
    /// `remaining()` is corrupt — this keeps garbage lengths from turning
    /// into huge allocations).
    pub fn get_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.get_u64(what)?;
        if v > self.remaining() as u64 {
            return Err(WireError::UnexpectedEof { what });
        }
        Ok(v as usize)
    }
}

// ---------------------------------------------------------------------
// Wire tags (explicit; see the module-level stability contract).
// ---------------------------------------------------------------------

const TAG_VALUE_BOOL: u8 = 0;
const TAG_VALUE_INT: u8 = 1;
const TAG_VALUE_STR: u8 = 2;
const TAG_VALUE_FRESH: u8 = 3;

const TAG_TERM_ATTR: u8 = 0;
const TAG_TERM_CONST: u8 = 1;

const TAG_CMP_EQ: u8 = 0;
const TAG_CMP_NE: u8 = 1;
const TAG_CMP_LT: u8 = 2;
const TAG_CMP_LE: u8 = 3;
const TAG_CMP_GT: u8 = 4;
const TAG_CMP_GE: u8 = 5;

const TAG_PRED_ORDER: u8 = 0;
const TAG_PRED_CMP: u8 = 1;

const TAG_OP_INSERT: u8 = 0;
const TAG_OP_REMOVE: u8 = 1;
const TAG_OP_ORDER_EDGE: u8 = 2;
const TAG_OP_CONSTRAINT: u8 = 3;
const TAG_OP_ADD_COPY: u8 = 4;
const TAG_OP_EXTEND_COPY: u8 = 5;

// ---------------------------------------------------------------------
// Leaf encoders/decoders.
// ---------------------------------------------------------------------

fn put_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Bool(b) => {
            w.put_u8(TAG_VALUE_BOOL);
            w.put_bool(*b);
        }
        Value::Int(i) => {
            w.put_u8(TAG_VALUE_INT);
            w.put_i64(*i);
        }
        Value::Str(s) => {
            w.put_u8(TAG_VALUE_STR);
            w.put_str(s);
        }
        Value::Fresh(n) => {
            w.put_u8(TAG_VALUE_FRESH);
            w.put_u64(*n);
        }
    }
}

fn get_value(r: &mut WireReader<'_>) -> Result<Value, WireError> {
    match r.get_u8("value tag")? {
        TAG_VALUE_BOOL => Ok(Value::Bool(r.get_bool("bool value")?)),
        TAG_VALUE_INT => Ok(Value::Int(r.get_i64("int value")?)),
        TAG_VALUE_STR => Ok(Value::Str(r.get_str("str value")?)),
        TAG_VALUE_FRESH => Ok(Value::Fresh(r.get_u64("fresh value")?)),
        tag => Err(WireError::BadTag { what: "value", tag }),
    }
}

fn put_tuple(w: &mut WireWriter, t: &Tuple) {
    w.put_u64(t.eid.0);
    w.put_len(t.values.len());
    for v in &t.values {
        put_value(w, v);
    }
}

fn get_tuple(r: &mut WireReader<'_>) -> Result<Tuple, WireError> {
    let eid = Eid(r.get_u64("tuple eid")?);
    let n = r.get_len("tuple arity")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(r)?);
    }
    Ok(Tuple::new(eid, values))
}

fn put_term(w: &mut WireWriter, t: &Term) {
    match t {
        Term::Attr(var, attr) => {
            w.put_u8(TAG_TERM_ATTR);
            w.put_u64(*var as u64);
            w.put_u32(attr.0);
        }
        Term::Const(v) => {
            w.put_u8(TAG_TERM_CONST);
            put_value(w, v);
        }
    }
}

fn get_term(r: &mut WireReader<'_>) -> Result<Term, WireError> {
    match r.get_u8("term tag")? {
        TAG_TERM_ATTR => {
            let var = r.get_u64("term variable")? as usize;
            let attr = AttrId(r.get_u32("term attribute")?);
            Ok(Term::Attr(var, attr))
        }
        TAG_TERM_CONST => Ok(Term::Const(get_value(r)?)),
        tag => Err(WireError::BadTag { what: "term", tag }),
    }
}

fn put_cmp_op(w: &mut WireWriter, op: CmpOp) {
    w.put_u8(match op {
        CmpOp::Eq => TAG_CMP_EQ,
        CmpOp::Ne => TAG_CMP_NE,
        CmpOp::Lt => TAG_CMP_LT,
        CmpOp::Le => TAG_CMP_LE,
        CmpOp::Gt => TAG_CMP_GT,
        CmpOp::Ge => TAG_CMP_GE,
    });
}

fn get_cmp_op(r: &mut WireReader<'_>) -> Result<CmpOp, WireError> {
    match r.get_u8("comparison operator")? {
        TAG_CMP_EQ => Ok(CmpOp::Eq),
        TAG_CMP_NE => Ok(CmpOp::Ne),
        TAG_CMP_LT => Ok(CmpOp::Lt),
        TAG_CMP_LE => Ok(CmpOp::Le),
        TAG_CMP_GT => Ok(CmpOp::Gt),
        TAG_CMP_GE => Ok(CmpOp::Ge),
        tag => Err(WireError::BadTag {
            what: "comparison operator",
            tag,
        }),
    }
}

fn put_constraint(w: &mut WireWriter, dc: &DenialConstraint) {
    w.put_u32(dc.rel().0);
    w.put_u64(dc.num_vars() as u64);
    w.put_len(dc.premises().len());
    for p in dc.premises() {
        match p {
            Predicate::Order {
                lesser,
                attr,
                greater,
            } => {
                w.put_u8(TAG_PRED_ORDER);
                w.put_u64(*lesser as u64);
                w.put_u32(attr.0);
                w.put_u64(*greater as u64);
            }
            Predicate::Cmp { left, op, right } => {
                w.put_u8(TAG_PRED_CMP);
                put_term(w, left);
                put_cmp_op(w, *op);
                put_term(w, right);
            }
        }
    }
    let (lesser, attr, greater) = dc.conclusion();
    w.put_u64(lesser as u64);
    w.put_u32(attr.0);
    w.put_u64(greater as u64);
}

fn get_constraint(r: &mut WireReader<'_>) -> Result<DenialConstraint, WireError> {
    let rel = RelId(r.get_u32("constraint relation")?);
    let num_vars = r.get_u64("constraint variable count")? as usize;
    let mut b = DenialConstraint::builder(rel, num_vars);
    let n = r.get_len("constraint premise count")?;
    for _ in 0..n {
        match r.get_u8("predicate tag")? {
            TAG_PRED_ORDER => {
                let lesser = r.get_u64("order premise lesser")? as usize;
                let attr = AttrId(r.get_u32("order premise attribute")?);
                let greater = r.get_u64("order premise greater")? as usize;
                b = b.when_order(lesser, attr, greater);
            }
            TAG_PRED_CMP => {
                let left = get_term(r)?;
                let op = get_cmp_op(r)?;
                let right = get_term(r)?;
                b = b.when_cmp(left, op, right);
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "predicate",
                    tag,
                })
            }
        }
    }
    let lesser = r.get_u64("conclusion lesser")? as usize;
    let attr = AttrId(r.get_u32("conclusion attribute")?);
    let greater = r.get_u64("conclusion greater")? as usize;
    Ok(b.then_order(lesser, attr, greater).build()?)
}

fn put_signature(w: &mut WireWriter, sig: &CopySignature) {
    w.put_u32(sig.target.0);
    w.put_u32(sig.source.0);
    w.put_len(sig.target_attrs.len());
    for a in &sig.target_attrs {
        w.put_u32(a.0);
    }
    for a in &sig.source_attrs {
        w.put_u32(a.0);
    }
}

fn get_signature(r: &mut WireReader<'_>) -> Result<CopySignature, WireError> {
    let target = RelId(r.get_u32("signature target")?);
    let source = RelId(r.get_u32("signature source")?);
    let width = r.get_len("signature width")?;
    let mut target_attrs = Vec::with_capacity(width);
    for _ in 0..width {
        target_attrs.push(AttrId(r.get_u32("signature target attribute")?));
    }
    let mut source_attrs = Vec::with_capacity(width);
    for _ in 0..width {
        source_attrs.push(AttrId(r.get_u32("signature source attribute")?));
    }
    Ok(CopySignature::new(
        target,
        target_attrs,
        source,
        source_attrs,
    )?)
}

fn put_copy(w: &mut WireWriter, cf: &CopyFunction) {
    put_signature(w, cf.signature());
    w.put_len(cf.len());
    for (t, s) in cf.mappings() {
        w.put_u32(t.0);
        w.put_u32(s.0);
    }
}

fn get_copy(r: &mut WireReader<'_>) -> Result<CopyFunction, WireError> {
    let sig = get_signature(r)?;
    let mut cf = CopyFunction::new(sig);
    let n = r.get_len("copy mapping count")?;
    for _ in 0..n {
        let t = TupleId(r.get_u32("mapping target")?);
        let s = TupleId(r.get_u32("mapping source")?);
        cf.set_mapping(t, s);
    }
    Ok(cf)
}

// ---------------------------------------------------------------------
// Specification.
// ---------------------------------------------------------------------

/// Encode a whole specification (see module docs for the layout).
pub fn encode_spec(spec: &Specification) -> Vec<u8> {
    let mut w = WireWriter::new();
    // Catalog.
    w.put_len(spec.catalog().len());
    for (_, schema) in spec.catalog().iter() {
        w.put_str(schema.name());
        w.put_len(schema.arity());
        for (_, name) in schema.attrs() {
            w.put_str(name);
        }
    }
    // Instances: tuple slots (live + tombstoned, so ids survive the round
    // trip), then the per-attribute initial orders.
    for inst in spec.instances() {
        w.put_len(inst.len());
        for i in 0..inst.len() {
            let id = TupleId(i as u32);
            put_tuple(&mut w, inst.tuple(id));
            w.put_bool(inst.is_live(id));
        }
        for a in 0..inst.arity() {
            let order = inst.order(AttrId(a as u32));
            w.put_len(order.len());
            for (l, g) in order.iter() {
                w.put_u32(l.0);
                w.put_u32(g.0);
            }
        }
    }
    // Constraints and copies.
    w.put_len(spec.constraints().len());
    for dc in spec.constraints() {
        put_constraint(&mut w, dc);
    }
    w.put_len(spec.copies().len());
    for cf in spec.copies() {
        put_copy(&mut w, cf);
    }
    w.into_bytes()
}

/// Decode a specification, re-validating every model invariant (the
/// inverse of [`encode_spec`]; rejects trailing bytes).
pub fn decode_spec(bytes: &[u8]) -> Result<Specification, WireError> {
    let mut r = WireReader::new(bytes);
    let spec = decode_spec_from(&mut r)?;
    r.expect_empty()?;
    Ok(spec)
}

/// Decode a specification from a reader, leaving any following bytes
/// unconsumed (for callers embedding a spec in a larger frame).
pub fn decode_spec_from(r: &mut WireReader<'_>) -> Result<Specification, WireError> {
    let nrels = r.get_len("catalog size")?;
    let mut cat = Catalog::new();
    for _ in 0..nrels {
        let name = r.get_str("relation name")?;
        let arity = r.get_len("relation arity")?;
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            attrs.push(r.get_str("attribute name")?);
        }
        let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        cat.add_checked(RelationSchema::new(name, &attr_refs))?;
    }
    let rels: Vec<RelId> = cat.iter().map(|(rel, _)| rel).collect();
    let arities: Vec<usize> = cat.iter().map(|(_, s)| s.arity()).collect();
    let mut spec = Specification::new(cat);
    for (&rel, &arity) in rels.iter().zip(&arities) {
        let slots = r.get_len("instance slot count")?;
        let mut dead: Vec<TupleId> = Vec::new();
        for _ in 0..slots {
            let tuple = get_tuple(r)?;
            let live = r.get_bool("tuple liveness")?;
            let id = spec.instance_mut(rel).push_tuple(tuple)?;
            if !live {
                dead.push(id);
            }
        }
        for id in dead {
            spec.instance_mut(rel)
                .remove_tuple(id)
                .expect("freshly pushed slot");
        }
        for a in 0..arity {
            let attr = AttrId(a as u32);
            let npairs = r.get_len("order pair count")?;
            for _ in 0..npairs {
                let l = TupleId(r.get_u32("order lesser")?);
                let g = TupleId(r.get_u32("order greater")?);
                spec.instance_mut(rel).add_order(attr, l, g)?;
            }
        }
    }
    let ncons = r.get_len("constraint count")?;
    for _ in 0..ncons {
        let dc = get_constraint(r)?;
        spec.add_constraint(dc)?;
    }
    let ncopies = r.get_len("copy count")?;
    for _ in 0..ncopies {
        let cf = get_copy(r)?;
        spec.add_copy(cf)?;
    }
    spec.validate()?;
    Ok(spec)
}

// ---------------------------------------------------------------------
// SpecDelta.
// ---------------------------------------------------------------------

/// Encode a delta as its operation list, each op behind an explicit tag.
pub fn encode_delta(delta: &SpecDelta) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_delta(&mut w, delta);
    w.into_bytes()
}

/// Encode a delta into an existing writer (for framed containers).
pub fn put_delta(w: &mut WireWriter, delta: &SpecDelta) {
    w.put_len(delta.len());
    for op in delta.ops() {
        match op {
            DeltaOp::InsertTuple { rel, tuple } => {
                w.put_u8(TAG_OP_INSERT);
                w.put_u32(rel.0);
                put_tuple(w, tuple);
            }
            DeltaOp::RemoveTuple { rel, tuple } => {
                w.put_u8(TAG_OP_REMOVE);
                w.put_u32(rel.0);
                w.put_u32(tuple.0);
            }
            DeltaOp::AddOrderEdge {
                rel,
                attr,
                lesser,
                greater,
            } => {
                w.put_u8(TAG_OP_ORDER_EDGE);
                w.put_u32(rel.0);
                w.put_u32(attr.0);
                w.put_u32(lesser.0);
                w.put_u32(greater.0);
            }
            DeltaOp::AddConstraint(dc) => {
                w.put_u8(TAG_OP_CONSTRAINT);
                put_constraint(w, dc);
            }
            DeltaOp::AddCopy(cf) => {
                w.put_u8(TAG_OP_ADD_COPY);
                put_copy(w, cf);
            }
            DeltaOp::ExtendCopy {
                copy,
                target,
                source,
            } => {
                w.put_u8(TAG_OP_EXTEND_COPY);
                w.put_u64(*copy as u64);
                w.put_u32(target.0);
                w.put_u32(source.0);
            }
        }
    }
}

/// Decode a delta (the inverse of [`encode_delta`]; rejects trailing
/// bytes).
pub fn decode_delta(bytes: &[u8]) -> Result<SpecDelta, WireError> {
    let mut r = WireReader::new(bytes);
    let delta = get_delta(&mut r)?;
    r.expect_empty()?;
    Ok(delta)
}

/// Decode a delta from a reader, leaving following bytes unconsumed.
pub fn get_delta(r: &mut WireReader<'_>) -> Result<SpecDelta, WireError> {
    let n = r.get_len("delta op count")?;
    let mut delta = SpecDelta::new();
    for _ in 0..n {
        match r.get_u8("delta op tag")? {
            TAG_OP_INSERT => {
                let rel = RelId(r.get_u32("insert relation")?);
                let tuple = get_tuple(r)?;
                delta.insert_tuple(rel, tuple);
            }
            TAG_OP_REMOVE => {
                let rel = RelId(r.get_u32("remove relation")?);
                let tuple = TupleId(r.get_u32("remove tuple")?);
                delta.remove_tuple(rel, tuple);
            }
            TAG_OP_ORDER_EDGE => {
                let rel = RelId(r.get_u32("edge relation")?);
                let attr = AttrId(r.get_u32("edge attribute")?);
                let lesser = TupleId(r.get_u32("edge lesser")?);
                let greater = TupleId(r.get_u32("edge greater")?);
                delta.add_order_edge(rel, attr, lesser, greater);
            }
            TAG_OP_CONSTRAINT => {
                delta.add_constraint(get_constraint(r)?);
            }
            TAG_OP_ADD_COPY => {
                delta.add_copy(get_copy(r)?);
            }
            TAG_OP_EXTEND_COPY => {
                let copy = r.get_u64("extend-copy index")? as usize;
                let target = TupleId(r.get_u32("extend-copy target")?);
                let source = TupleId(r.get_u32("extend-copy source")?);
                delta.extend_copy(copy, target, source);
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "delta op",
                    tag,
                })
            }
        }
    }
    Ok(delta)
}

// ---------------------------------------------------------------------
// CompactStepReport (incremental-compaction slices).
// ---------------------------------------------------------------------

/// Encode one incremental-compaction slice into an existing writer.
pub fn put_compact_slice(w: &mut WireWriter, slice: &CompactSlice) {
    w.put_u32(slice.rel.0);
    w.put_u32(slice.write);
    w.put_u32(slice.start);
    w.put_u32(slice.end);
    w.put_u32(slice.reclaimed);
    w.put_len(slice.remap.len());
    for entry in &slice.remap {
        match entry {
            Some(id) => {
                w.put_bool(true);
                w.put_u32(id.0);
            }
            None => w.put_bool(false),
        }
    }
}

/// Decode one incremental-compaction slice from a reader.
pub fn get_compact_slice(r: &mut WireReader<'_>) -> Result<CompactSlice, WireError> {
    let rel = RelId(r.get_u32("slice relation")?);
    let write = r.get_u32("slice write cursor")?;
    let start = r.get_u32("slice scan start")?;
    let end = r.get_u32("slice scan end")?;
    let reclaimed = r.get_u32("slice reclaimed count")?;
    let n = r.get_len("slice remap length")?;
    let mut remap = Vec::with_capacity(n);
    for _ in 0..n {
        let present = r.get_bool("slice remap entry presence")?;
        remap.push(if present {
            Some(TupleId(r.get_u32("slice remap entry")?))
        } else {
            None
        });
    }
    Ok(CompactSlice {
        rel,
        write,
        start,
        end,
        remap,
        reclaimed,
    })
}

/// Encode a compaction step report (slice list) as a byte payload.
pub fn encode_compact_step(step: &CompactStepReport) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_compact_step(&mut w, step);
    w.into_bytes()
}

/// Encode a compaction step report into an existing writer.
pub fn put_compact_step(w: &mut WireWriter, step: &CompactStepReport) {
    w.put_u64(step.reclaimed as u64);
    w.put_bool(step.done);
    w.put_len(step.slices.len());
    for slice in &step.slices {
        put_compact_slice(w, slice);
    }
}

/// Decode a compaction step report (rejects trailing bytes).
pub fn decode_compact_step(bytes: &[u8]) -> Result<CompactStepReport, WireError> {
    let mut r = WireReader::new(bytes);
    let step = get_compact_step(&mut r)?;
    r.expect_empty()?;
    Ok(step)
}

/// Decode a compaction step report from a reader.
pub fn get_compact_step(r: &mut WireReader<'_>) -> Result<CompactStepReport, WireError> {
    let reclaimed = r.get_u64("step reclaimed count")? as usize;
    let done = r.get_bool("step done flag")?;
    let n = r.get_len("step slice count")?;
    let mut slices = Vec::with_capacity(n);
    for _ in 0..n {
        slices.push(get_compact_slice(r)?);
    }
    Ok(CompactStepReport {
        reclaimed,
        done,
        slices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denial::{CmpOp, Term};
    use crate::schema::RelationSchema;

    const A: AttrId = AttrId(0);

    /// A specification exercising every wire construct: two relations,
    /// tombstones, initial orders, a constraint with both premise kinds
    /// and every value kind, and a copy function.
    fn rich_spec() -> Specification {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let s = cat.add(RelationSchema::new("Src", &["A", "B"]));
        let mut spec = Specification::new(cat);
        let mk =
            |e: u64, a: i64| Tuple::new(Eid(e), vec![Value::int(a), Value::Str(format!("v{a}"))]);
        let t0 = spec.instance_mut(r).push_tuple(mk(1, 10)).unwrap();
        let t1 = spec.instance_mut(r).push_tuple(mk(1, 20)).unwrap();
        let dead = spec.instance_mut(r).push_tuple(mk(2, 5)).unwrap();
        let t3 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(3), vec![Value::bool(true), Value::Fresh(7)]))
            .unwrap();
        let _ = t3;
        spec.instance_mut(r).add_order(A, t0, t1).unwrap();
        spec.instance_mut(r).remove_tuple(dead).unwrap();
        let s0 = spec.instance_mut(s).push_tuple(mk(9, 10)).unwrap();
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .when_order(0, AttrId(1), 1)
            .when_cmp(Term::attr(0, AttrId(1)), CmpOp::Ne, Term::val("x"))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        let sig = CopySignature::new(r, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(t0, s0);
        spec.add_copy(cf).unwrap();
        spec
    }

    #[test]
    fn spec_round_trip_is_byte_identical() {
        let spec = rich_spec();
        let bytes = encode_spec(&spec);
        let decoded = decode_spec(&bytes).expect("valid encoding");
        assert_eq!(encode_spec(&decoded), bytes, "round trip is a fixpoint");
        assert!(decoded.validate().is_ok());
        // Structure survived: tombstone, order, constraint, copy.
        let r = decoded.rel("R").unwrap();
        assert_eq!(decoded.instance(r).len(), 4);
        assert_eq!(decoded.instance(r).live_len(), 3);
        assert!(decoded
            .instance(r)
            .order(A)
            .contains(TupleId(0), TupleId(1)));
        assert_eq!(decoded.constraints().len(), 1);
        assert_eq!(decoded.copies()[0].mapping(TupleId(0)), Some(TupleId(0)));
        assert!(
            decoded.copies()[0].is_indexed(),
            "add_copy rebuilt the index"
        );
    }

    #[test]
    fn delta_round_trip_covers_every_op_kind() {
        let spec = rich_spec();
        let r = spec.rel("R").unwrap();
        let s = spec.rel("Src").unwrap();
        let dc = spec.constraints()[0].clone();
        let sig = CopySignature::new(r, vec![AttrId(1)], s, vec![AttrId(1)]).unwrap();
        let mut delta = SpecDelta::new();
        delta
            .insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(30), Value::str("z")]))
            .remove_tuple(r, TupleId(0))
            .add_order_edge(r, A, TupleId(0), TupleId(1))
            .add_constraint(dc)
            .add_copy(CopyFunction::new(sig))
            .extend_copy(1, TupleId(1), TupleId(0));
        let bytes = encode_delta(&delta);
        let decoded = decode_delta(&bytes).expect("valid encoding");
        assert_eq!(decoded.len(), delta.len());
        assert_eq!(encode_delta(&decoded), bytes, "round trip is a fixpoint");
    }

    #[test]
    fn applying_a_decoded_delta_matches_the_original() {
        // The semantic check: original delta and its round-tripped twin
        // drive two copies of one spec to identical states.
        let mut a = rich_spec();
        let mut b = rich_spec();
        let r = a.rel("R").unwrap();
        let mut delta = SpecDelta::new();
        delta
            .insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(30), Value::str("z")]))
            .remove_tuple(r, TupleId(1));
        let twin = decode_delta(&encode_delta(&delta)).unwrap();
        a.apply_delta(&delta).unwrap();
        b.apply_delta(&twin).unwrap();
        assert_eq!(encode_spec(&a), encode_spec(&b));
    }

    #[test]
    fn compact_step_round_trip() {
        let mut spec = rich_spec();
        let mut step = CompactStepReport::default();
        while let Some(slice) = spec.compact_slice(u32::MAX as usize) {
            step.reclaimed += slice.reclaimed as usize;
            step.slices.push(slice);
        }
        step.done = true;
        assert_eq!(step.reclaimed, 1);
        let decoded = decode_compact_step(&encode_compact_step(&step)).unwrap();
        assert_eq!(decoded, step);
        // The empty (nothing-to-reclaim) step round-trips too.
        let empty = CompactStepReport::default();
        assert_eq!(
            decode_compact_step(&encode_compact_step(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn truncation_and_garbage_error_cleanly() {
        let spec = rich_spec();
        let bytes = encode_spec(&spec);
        // Every proper prefix fails with a clean error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                decode_spec(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_spec(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
        // A bad enum tag is named.
        let delta_bytes = {
            let mut delta = SpecDelta::new();
            delta.remove_tuple(RelId(0), TupleId(0));
            encode_delta(&delta)
        };
        let mut bad = delta_bytes.clone();
        bad[8] = 250; // the op tag byte after the u64 length
        assert!(matches!(
            decode_delta(&bad),
            Err(WireError::BadTag {
                what: "delta op",
                tag: 250
            })
        ));
    }

    #[test]
    fn decoded_specs_revalidate_model_invariants() {
        // Hand-craft an encoding of a cyclic order: decode must refuse it
        // through the model's own validation, not accept it silently.
        let mut w = WireWriter::new();
        w.put_len(1); // one relation
        w.put_str("R");
        w.put_len(1);
        w.put_str("A");
        w.put_len(2); // two tuple slots
        for v in [1i64, 2] {
            w.put_u64(1); // eid
            w.put_len(1);
            put_value(&mut w, &Value::int(v));
            w.put_bool(true);
        }
        w.put_len(2); // two order pairs: 0≺1 and 1≺0 (a cycle)
        w.put_u32(0);
        w.put_u32(1);
        w.put_u32(1);
        w.put_u32(0);
        w.put_len(0); // constraints
        w.put_len(0); // copies
        let err = decode_spec(w.bytes()).unwrap_err();
        assert!(matches!(
            err,
            WireError::Model(CurrencyError::CyclicOrder { .. })
        ));
    }

    #[test]
    fn lengths_are_bounds_checked_against_remaining_bytes() {
        // A garbage length field (e.g. u64::MAX) must error, not allocate.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let mut r = WireReader::new(w.bytes());
        assert!(matches!(
            r.get_len("catalog size"),
            Err(WireError::UnexpectedEof { .. })
        ));
    }
}

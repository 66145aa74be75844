//! Denial constraints: syntax, a builder DSL, and grounding.
//!
//! A denial constraint (paper §2) is a universally quantified sentence
//!
//! ```text
//! ∀ t₁ … t_k : R ( ⋀ⱼ t₁[EID] = tⱼ[EID]  ∧  ψ  →  t_u ≺_{A_i} t_v )
//! ```
//!
//! where `ψ` conjoins *currency atoms* `tⱼ ≺_{A_ℓ} t_h` and *value atoms*
//! (equalities, inequalities and built-in comparisons over attribute values
//! and constants).  The same-entity premise is built in: all tuple
//! variables range over tuples of one entity.
//!
//! ## Grounding
//!
//! Reasoners consume constraints in *ground* form: for a concrete temporal
//! instance, [`DenialConstraint::ground`] enumerates the assignments of
//! tuple variables to same-entity tuples that satisfy every value atom, and
//! emits one [`GroundRule`] per assignment — a Horn-style implication from
//! currency premises to a currency conclusion (or to falsum, when the
//! conclusion instantiates to the irreflexive `t ≺ t`, the paper's idiom
//! for "reject").
//!
//! Naive grounding is `|group|^k`; the proofs' reduction gadgets use
//! constraints whose value atoms pin most variables to one or two
//! candidates, so the grounder backtracks over per-variable candidate
//! lists filtered by unary atoms and checks binary atoms as soon as both
//! endpoints are bound.  This keeps the hardness gadgets
//! (`currency_datagen::gadgets`) within reach.

use crate::error::CurrencyError;
use crate::schema::{AttrId, RelId};
use crate::temporal::TemporalInstance;
use crate::value::{Eid, TupleId, Value};

/// Index of a universally quantified tuple variable within a constraint.
pub type VarId = usize;

/// A term of a value atom: an attribute of a tuple variable, or a constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// `t_var[attr]`.
    Attr(VarId, AttrId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for `t_var[attr]`.
    pub fn attr(var: VarId, attr: AttrId) -> Term {
        Term::Attr(var, attr)
    }

    /// Convenience constructor for a constant term.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }
}

/// Comparison operators for value atoms.
///
/// `Lt`/`Le`/`Gt`/`Ge` use the total order on [`Value`]; they are
/// meaningful within one value kind, mirroring the paper's "built-in
/// predicates defined on particular domains".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two values.
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// A premise of a denial constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Predicate {
    /// Currency atom `t_lesser ≺_attr t_greater`.
    Order {
        /// The less-current tuple variable.
        lesser: VarId,
        /// The attribute of the currency order.
        attr: AttrId,
        /// The more-current tuple variable.
        greater: VarId,
    },
    /// Value atom `left op right`.
    Cmp {
        /// Left term.
        left: Term,
        /// Comparison operator.
        op: CmpOp,
        /// Right term.
        right: Term,
    },
}

/// A ground currency fact `lesser ≺_attr greater` over concrete tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderEdge {
    /// Attribute of the currency order.
    pub attr: AttrId,
    /// The less-current tuple.
    pub lesser: TupleId,
    /// The more-current tuple.
    pub greater: TupleId,
}

/// A grounded denial constraint: `⋀ premises → conclusion`.
///
/// `conclusion == None` encodes falsum — the constraint instantiated its
/// conclusion to the unsatisfiable `t ≺ t`, so the premises must never
/// jointly hold.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroundRule {
    /// Currency premises (value atoms have already been checked).
    pub premises: Vec<OrderEdge>,
    /// Currency conclusion, or `None` for falsum.
    pub conclusion: Option<OrderEdge>,
}

/// A denial constraint over one relation (see module docs).
#[derive(Clone, Debug)]
pub struct DenialConstraint {
    rel: RelId,
    num_vars: usize,
    premises: Vec<Predicate>,
    conclusion: (VarId, AttrId, VarId),
}

impl DenialConstraint {
    /// Start building a constraint over `rel` with `num_vars` tuple
    /// variables `t₀ … t_{num_vars−1}`.
    pub fn builder(rel: RelId, num_vars: usize) -> DenialBuilder {
        DenialBuilder {
            rel,
            num_vars,
            premises: Vec::new(),
            conclusion: None,
        }
    }

    /// The relation this constraint speaks about.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of quantified tuple variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The premise list.
    pub fn premises(&self) -> &[Predicate] {
        &self.premises
    }

    /// The conclusion `(lesser, attr, greater)` over variable indices.
    pub fn conclusion(&self) -> (VarId, AttrId, VarId) {
        self.conclusion
    }

    /// Largest attribute index mentioned (for schema validation).
    pub fn max_attr_index(&self) -> usize {
        let mut m = self.conclusion.1.index();
        for p in &self.premises {
            match p {
                Predicate::Order { attr, .. } => m = m.max(attr.index()),
                Predicate::Cmp { left, right, .. } => {
                    if let Term::Attr(_, a) = left {
                        m = m.max(a.index());
                    }
                    if let Term::Attr(_, a) = right {
                        m = m.max(a.index());
                    }
                }
            }
        }
        m
    }

    /// Ground the constraint against an instance (see module docs).
    ///
    /// Rules are deduplicated and deterministically ordered.
    pub fn ground(&self, inst: &TemporalInstance) -> Vec<GroundRule> {
        debug_assert_eq!(inst.rel(), self.rel);
        let grounder = self.entity_grounder();
        let mut buf = GroundBuffer::default();
        for eid in inst.entities() {
            grounder.ground_entity_into(inst, eid, &mut buf);
        }
        buf.sort_dedup_from(0);
        buf.to_rules()
    }

    /// Ground the constraint against a **single entity** of the instance.
    ///
    /// Tuple variables range over one entity's tuples (the same-entity
    /// premise is built in), so full grounding is exactly the union of the
    /// per-entity groundings.  Grounding many entities of one constraint?
    /// Build one [`DenialConstraint::entity_grounder`] and reuse it — the
    /// value-atom analysis is then paid once, not per entity.
    pub fn ground_entity(&self, inst: &TemporalInstance, eid: Eid) -> Vec<GroundRule> {
        self.entity_grounder().ground_entity(inst, eid)
    }

    /// A reusable per-entity grounder: the constraint's value atoms are
    /// analyzed once (unary filters vs multi-variable atoms), after which
    /// each [`EntityGrounder::ground_entity_into`] call pays only for its
    /// own entity's backtracking — the entry point the component compiler
    /// grounds a component's cells through.
    pub fn entity_grounder(&self) -> EntityGrounder<'_> {
        let (unary, rest) = self.split_value_atoms();
        EntityGrounder {
            dc: self,
            unary,
            rest,
        }
    }

    /// Split the value atoms into unary filters (per variable) and the
    /// rest, indexed by their deepest variable (see module docs).
    fn split_value_atoms(&self) -> (Vec<Vec<&Predicate>>, Vec<Vec<&Predicate>>) {
        let mut unary: Vec<Vec<&Predicate>> = vec![Vec::new(); self.num_vars];
        let mut rest: Vec<Vec<&Predicate>> = vec![Vec::new(); self.num_vars];
        for p in &self.premises {
            if let Predicate::Cmp { left, right, .. } = p {
                match (left, right) {
                    (Term::Attr(v, _), Term::Const(_)) | (Term::Const(_), Term::Attr(v, _)) => {
                        unary[*v].push(p);
                    }
                    (Term::Attr(v1, _), Term::Attr(v2, _)) => {
                        if v1 == v2 {
                            unary[*v1].push(p);
                        } else {
                            rest[(*v1).max(*v2)].push(p);
                        }
                    }
                    (Term::Const(_), Term::Const(_)) => {
                        // Constant-only atom: check once up front; if false
                        // the constraint grounds to nothing.
                        if let Some(v) = rest.first_mut() {
                            v.push(p);
                        }
                    }
                }
            }
        }
        (unary, rest)
    }

    /// Evaluate a value atom; `tuple_of` resolves every variable the atom
    /// mentions (callers guarantee they are bound).  Values are compared
    /// in place, never cloned.
    fn eval_cmp(
        &self,
        p: &Predicate,
        inst: &TemporalInstance,
        tuple_of: impl Fn(VarId) -> TupleId,
    ) -> bool {
        match p {
            Predicate::Cmp { left, op, right } => {
                fn value<'v>(
                    t: &'v Term,
                    inst: &'v TemporalInstance,
                    tuple_of: &impl Fn(VarId) -> TupleId,
                ) -> &'v Value {
                    match t {
                        Term::Attr(v, a) => inst.tuple(tuple_of(*v)).value(*a),
                        Term::Const(c) => c,
                    }
                }
                op.eval(value(left, inst, &tuple_of), value(right, inst, &tuple_of))
            }
            Predicate::Order { .. } => true,
        }
    }

    /// Append the rule of one complete assignment to `premises`/`rules`,
    /// unless a reflexive premise makes it vacuous.  Premises are sorted
    /// and deduplicated in place.
    fn emit_rule(
        &self,
        assignment: &[TupleId],
        premises: &mut Vec<OrderEdge>,
        rules: &mut Vec<FlatRule>,
    ) {
        let start = premises.len();
        for p in &self.premises {
            if let Predicate::Order {
                lesser,
                attr,
                greater,
            } = p
            {
                let (l, g) = (assignment[*lesser], assignment[*greater]);
                if l == g {
                    // Premise `t ≺ t` is false by irreflexivity: the whole
                    // instantiation is vacuously satisfied.
                    premises.truncate(start);
                    return;
                }
                premises.push(OrderEdge {
                    attr: *attr,
                    lesser: l,
                    greater: g,
                });
            }
        }
        let (cl, ca, cg) = self.conclusion;
        let (l, g) = (assignment[cl], assignment[cg]);
        let conclusion = if l == g {
            None // conclusion `t ≺ t`: falsum
        } else {
            Some(OrderEdge {
                attr: ca,
                lesser: l,
                greater: g,
            })
        };
        premises[start..].sort_unstable();
        let mut kept = start;
        for i in start..premises.len() {
            if kept == start || premises[kept - 1] != premises[i] {
                premises[kept] = premises[i];
                kept += 1;
            }
        }
        premises.truncate(kept);
        rules.push(FlatRule {
            start: start as u32,
            end: kept as u32,
            conclusion,
        });
    }

    /// Check satisfaction against a completed order oracle.
    ///
    /// `precedes(attr, u, v)` must report whether `u ≺ᶜ_attr v` holds in the
    /// completion; the constraint is satisfied iff every ground rule whose
    /// premises all hold has a holding conclusion.
    pub fn satisfied_by(
        &self,
        inst: &TemporalInstance,
        precedes: &dyn Fn(AttrId, TupleId, TupleId) -> bool,
    ) -> bool {
        self.ground(inst).iter().all(|rule| {
            let fire = rule
                .premises
                .iter()
                .all(|e| precedes(e.attr, e.lesser, e.greater));
            if !fire {
                return true;
            }
            match &rule.conclusion {
                Some(e) => precedes(e.attr, e.lesser, e.greater),
                None => false,
            }
        })
    }
}

/// One rule held in a [`GroundBuffer`]: a premise range into the
/// buffer's shared premise vector, plus the conclusion.
#[derive(Clone, Copy, Debug)]
struct FlatRule {
    start: u32,
    end: u32,
    conclusion: Option<OrderEdge>,
}

/// Reusable output and work buffers for streamed grounding
/// ([`EntityGrounder::ground_entity_into`]).
///
/// Rules are stored flat — every rule's premises live in one shared
/// vector — so grounding allocates nothing once the buffers have grown
/// to the largest entity seen.  [`GroundBuffer::sort_dedup_from`] orders
/// a run of rules exactly as [`GroundRule`]'s `Ord` does, which is the
/// order [`DenialConstraint::ground`] returns.
#[derive(Clone, Debug, Default)]
pub struct GroundBuffer {
    premises: Vec<OrderEdge>,
    rules: Vec<FlatRule>,
    /// Per-variable candidate lists of the entity being grounded.
    candidates: Vec<Vec<TupleId>>,
    /// The partial assignment of the backtracking search.
    assignment: Vec<TupleId>,
}

impl GroundBuffer {
    /// Drop every buffered rule, keeping the capacity.
    pub fn clear(&mut self) {
        self.premises.clear();
        self.rules.clear();
    }

    /// Number of buffered rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rule is buffered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule `i`: its (sorted, duplicate-free) premises and its
    /// conclusion (`None` = falsum).
    pub fn rule(&self, i: usize) -> (&[OrderEdge], Option<OrderEdge>) {
        let r = &self.rules[i];
        (
            &self.premises[r.start as usize..r.end as usize],
            r.conclusion,
        )
    }

    /// Append a rule.
    pub fn push(&mut self, premises: &[OrderEdge], conclusion: Option<OrderEdge>) {
        let start = self.premises.len() as u32;
        self.premises.extend_from_slice(premises);
        self.rules.push(FlatRule {
            start,
            end: self.premises.len() as u32,
            conclusion,
        });
    }

    /// Remove rule `i`, shifting the later rules down.
    pub fn remove(&mut self, i: usize) {
        self.rules.remove(i);
    }

    /// Sort the rules from index `from` on into [`GroundRule`] order and
    /// drop duplicates among them; earlier rules are left alone.
    pub fn sort_dedup_from(&mut self, from: usize) {
        let GroundBuffer {
            premises, rules, ..
        } = self;
        let key = |r: &FlatRule| (&premises[r.start as usize..r.end as usize], r.conclusion);
        rules[from..].sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        let mut kept = from;
        for i in from..rules.len() {
            if kept == from || key(&rules[kept - 1]) != key(&rules[i]) {
                rules[kept] = rules[i];
                kept += 1;
            }
        }
        rules.truncate(kept);
    }

    /// The buffered rules as owned [`GroundRule`]s, in buffer order.
    pub fn to_rules(&self) -> Vec<GroundRule> {
        (0..self.len())
            .map(|i| {
                let (premises, conclusion) = self.rule(i);
                GroundRule {
                    premises: premises.to_vec(),
                    conclusion,
                }
            })
            .collect()
    }
}

/// A [`DenialConstraint`] with its value atoms pre-analyzed for repeated
/// per-entity grounding (see [`DenialConstraint::entity_grounder`]).
#[derive(Clone, Debug)]
pub struct EntityGrounder<'c> {
    dc: &'c DenialConstraint,
    /// Unary filters per tuple variable.
    unary: Vec<Vec<&'c Predicate>>,
    /// Multi-variable atoms, indexed by their deepest variable.
    rest: Vec<Vec<&'c Predicate>>,
}

impl EntityGrounder<'_> {
    /// The constraint this grounder grounds.
    pub fn constraint(&self) -> &DenialConstraint {
        self.dc
    }

    /// Ground the constraint against a single entity of the instance
    /// (equals the corresponding slice of [`DenialConstraint::ground`]).
    pub fn ground_entity(&self, inst: &TemporalInstance, eid: Eid) -> Vec<GroundRule> {
        let mut buf = GroundBuffer::default();
        self.ground_entity_into(inst, eid, &mut buf);
        buf.sort_dedup_from(0);
        buf.to_rules()
    }

    /// Append the rules of one entity to `buf`, unsorted and possibly
    /// with duplicates: follow with [`GroundBuffer::sort_dedup_from`] to
    /// get [`EntityGrounder::ground_entity`]'s sequence.  Allocates only
    /// while `buf` grows.
    pub fn ground_entity_into(&self, inst: &TemporalInstance, eid: Eid, buf: &mut GroundBuffer) {
        debug_assert_eq!(inst.rel(), self.dc.rel);
        let group = inst.entity_group(eid);
        let num_vars = self.dc.num_vars;
        let mut candidates = std::mem::take(&mut buf.candidates);
        candidates.resize_with(num_vars.max(candidates.len()), Vec::new);
        // Per-variable candidate lists after unary filtering.
        for (v, list) in candidates.iter_mut().enumerate().take(num_vars) {
            list.clear();
            list.extend(group.iter().copied().filter(|&tid| {
                self.unary[v]
                    .iter()
                    .all(|p| self.dc.eval_cmp(p, inst, |_| tid))
            }));
        }
        if candidates[..num_vars].iter().all(|c| !c.is_empty()) {
            let mut assignment = std::mem::take(&mut buf.assignment);
            assignment.clear();
            self.ground_rec(inst, &candidates[..num_vars], &mut assignment, buf);
            buf.assignment = assignment;
        }
        buf.candidates = candidates;
    }

    /// Backtracking over the candidate lists; multi-variable atoms are
    /// checked as soon as their deepest variable is bound.
    fn ground_rec(
        &self,
        inst: &TemporalInstance,
        candidates: &[Vec<TupleId>],
        assignment: &mut Vec<TupleId>,
        buf: &mut GroundBuffer,
    ) {
        let depth = assignment.len();
        if depth == self.dc.num_vars {
            self.dc
                .emit_rule(assignment, &mut buf.premises, &mut buf.rules);
            return;
        }
        for &tid in &candidates[depth] {
            assignment.push(tid);
            let ok = self.rest[depth]
                .iter()
                .all(|p| self.dc.eval_cmp(p, inst, |w| assignment[w]));
            if ok {
                self.ground_rec(inst, candidates, assignment, buf);
            }
            assignment.pop();
        }
    }
}

/// Fluent builder for [`DenialConstraint`] (see [`DenialConstraint::builder`]).
#[derive(Clone, Debug)]
pub struct DenialBuilder {
    rel: RelId,
    num_vars: usize,
    premises: Vec<Predicate>,
    conclusion: Option<(VarId, AttrId, VarId)>,
}

impl DenialBuilder {
    /// Add a value atom `left op right` to the premise.
    pub fn when_cmp(mut self, left: Term, op: CmpOp, right: Term) -> Self {
        self.premises.push(Predicate::Cmp { left, op, right });
        self
    }

    /// Add a currency atom `t_lesser ≺_attr t_greater` to the premise.
    pub fn when_order(mut self, lesser: VarId, attr: AttrId, greater: VarId) -> Self {
        self.premises.push(Predicate::Order {
            lesser,
            attr,
            greater,
        });
        self
    }

    /// Set the conclusion `t_lesser ≺_attr t_greater`.
    ///
    /// Using the same variable on both sides (`t ≺ t`) makes the constraint
    /// a pure denial: the premises must never jointly hold.
    pub fn then_order(mut self, lesser: VarId, attr: AttrId, greater: VarId) -> Self {
        self.conclusion = Some((lesser, attr, greater));
        self
    }

    /// Set a falsum conclusion (`t₀ ≺ t₀`): premises must never hold.
    pub fn then_false(self) -> Self {
        let attr = AttrId(0);
        self.then_order(0, attr, 0)
    }

    /// Finish, validating variable indices.
    pub fn build(self) -> Result<DenialConstraint, CurrencyError> {
        let conclusion = self.conclusion.ok_or(CurrencyError::SignatureMismatch {
            detail: "denial constraint lacks a conclusion".to_string(),
        })?;
        let check_var = |v: VarId| -> Result<(), CurrencyError> {
            if v >= self.num_vars {
                Err(CurrencyError::BadVariable {
                    var: v,
                    num_vars: self.num_vars,
                })
            } else {
                Ok(())
            }
        };
        check_var(conclusion.0)?;
        check_var(conclusion.2)?;
        for p in &self.premises {
            match p {
                Predicate::Order {
                    lesser, greater, ..
                } => {
                    check_var(*lesser)?;
                    check_var(*greater)?;
                }
                Predicate::Cmp { left, right, .. } => {
                    if let Term::Attr(v, _) = left {
                        check_var(*v)?;
                    }
                    if let Term::Attr(v, _) = right {
                        check_var(*v)?;
                    }
                }
            }
        }
        Ok(DenialConstraint {
            rel: self.rel,
            num_vars: self.num_vars,
            premises: self.premises,
            conclusion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Tuple;
    use crate::schema::RelationSchema;
    use crate::value::Eid;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn inst_with(rows: &[(u64, i64, i64)]) -> TemporalInstance {
        let schema = RelationSchema::new("R", &["A", "B"]);
        let mut d = TemporalInstance::new(RelId(0), &schema);
        for &(e, a, b) in rows {
            d.push_tuple(Tuple::new(Eid(e), vec![Value::int(a), Value::int(b)]))
                .unwrap();
        }
        d
    }

    /// "Higher A ⇒ more current in A" (the paper's φ₁ shape).
    fn monotone_a() -> DenialConstraint {
        DenialConstraint::builder(RelId(0), 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_variables() {
        let err = DenialConstraint::builder(RelId(0), 1)
            .then_order(0, A, 1)
            .build();
        assert!(matches!(err, Err(CurrencyError::BadVariable { .. })));
        let err = DenialConstraint::builder(RelId(0), 2)
            .when_cmp(Term::attr(5, A), CmpOp::Eq, Term::val(1))
            .then_order(0, A, 1)
            .build();
        assert!(matches!(err, Err(CurrencyError::BadVariable { .. })));
        let err = DenialConstraint::builder(RelId(0), 2).build();
        assert!(matches!(err, Err(CurrencyError::SignatureMismatch { .. })));
    }

    #[test]
    fn grounding_monotone_constraint() {
        // Entity 1: A-values 10 < 20; entity 2: single tuple.
        let d = inst_with(&[(1, 10, 0), (1, 20, 0), (2, 5, 0)]);
        let rules = monotone_a().ground(&d);
        assert_eq!(
            rules,
            vec![GroundRule {
                premises: vec![],
                conclusion: Some(OrderEdge {
                    attr: A,
                    lesser: TupleId(0),
                    greater: TupleId(1)
                }),
            }]
        );
    }

    #[test]
    fn grounding_does_not_cross_entities() {
        let d = inst_with(&[(1, 10, 0), (2, 20, 0)]);
        assert!(monotone_a().ground(&d).is_empty());
    }

    #[test]
    fn grounding_order_premises() {
        // "t ≺_A s ⇒ t ≺_B s" (the paper's φ₃ shape).
        let dc = DenialConstraint::builder(RelId(0), 2)
            .when_order(0, A, 1)
            .then_order(0, B, 1)
            .build()
            .unwrap();
        let d = inst_with(&[(1, 0, 0), (1, 1, 1)]);
        let rules = dc.ground(&d);
        // Two non-vacuous instantiations: (t0,t1) and (t1,t0).
        assert_eq!(rules.len(), 2);
        for r in &rules {
            assert_eq!(r.premises.len(), 1);
            assert_eq!(r.premises[0].attr, A);
            let c = r.conclusion.unwrap();
            assert_eq!(c.attr, B);
            assert_eq!(
                (r.premises[0].lesser, r.premises[0].greater),
                (c.lesser, c.greater)
            );
        }
    }

    #[test]
    fn reflexive_premise_instantiations_are_vacuous() {
        let dc = DenialConstraint::builder(RelId(0), 2)
            .when_order(0, A, 1)
            .then_order(0, B, 1)
            .build()
            .unwrap();
        let d = inst_with(&[(1, 0, 0)]); // single tuple: only t0,t0 binding
        assert!(dc.ground(&d).is_empty());
    }

    #[test]
    fn falsum_conclusion() {
        // "No two tuples of one entity may share an A value" — premises
        // must never hold (conclusion t₀ ≺ t₀).
        let dc = DenialConstraint::builder(RelId(0), 2)
            .when_cmp(Term::attr(0, A), CmpOp::Eq, Term::attr(1, A))
            .when_cmp(Term::attr(0, B), CmpOp::Ne, Term::attr(1, B))
            .then_false()
            .build()
            .unwrap();
        let d = inst_with(&[(1, 7, 0), (1, 7, 1)]);
        let rules = dc.ground(&d);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].conclusion, None);
        assert!(rules[0].premises.is_empty());
    }

    #[test]
    fn ground_entity_partitions_full_grounding() {
        // Two entities with in-group value spreads: the per-entity
        // groundings must union (disjointly) to the full grounding.
        let d = inst_with(&[(1, 10, 0), (1, 20, 0), (2, 5, 0), (2, 7, 0)]);
        let dc = monotone_a();
        let full = dc.ground(&d);
        let mut merged: Vec<GroundRule> = [Eid(1), Eid(2)]
            .into_iter()
            .flat_map(|e| dc.ground_entity(&d, e))
            .collect();
        merged.sort();
        assert_eq!(full, merged);
        assert!(dc.ground_entity(&d, Eid(9)).is_empty(), "unknown entity");
    }

    /// One buffer reused across entities: each entity's sorted run equals
    /// its `ground_entity` list, and the runs together sort into
    /// `ground`.
    #[test]
    fn streamed_grounding_matches_the_vector_forms() {
        let d = inst_with(&[
            (1, 10, 0),
            (1, 20, 1),
            (1, 20, 0),
            (2, 5, 0),
            (2, 7, 1),
            (3, 1, 1),
        ]);
        let correlated = DenialConstraint::builder(RelId(0), 2)
            .when_order(0, A, 1)
            .then_order(0, B, 1)
            .build()
            .unwrap();
        for dc in [monotone_a(), correlated] {
            let grounder = dc.entity_grounder();
            let mut buf = GroundBuffer::default();
            for round in 0..2 {
                buf.clear();
                for eid in d.entities() {
                    let from = buf.len();
                    grounder.ground_entity_into(&d, eid, &mut buf);
                    buf.sort_dedup_from(from);
                    let run: Vec<GroundRule> = (from..buf.len())
                        .map(|i| {
                            let (premises, conclusion) = buf.rule(i);
                            GroundRule {
                                premises: premises.to_vec(),
                                conclusion,
                            }
                        })
                        .collect();
                    assert_eq!(run, dc.ground_entity(&d, eid), "round {round}, {eid:?}");
                }
                buf.sort_dedup_from(0);
                assert_eq!(buf.to_rules(), dc.ground(&d), "round {round}");
            }
        }
    }

    #[test]
    fn satisfied_by_oracle() {
        let d = inst_with(&[(1, 10, 0), (1, 20, 0)]);
        let dc = monotone_a();
        // Completion where t0 ≺ t1 in A: satisfied.
        let good =
            |attr: AttrId, l: TupleId, g: TupleId| attr == A && l == TupleId(0) && g == TupleId(1);
        assert!(dc.satisfied_by(&d, &good));
        // Completion with the opposite order: violated.
        let bad =
            |attr: AttrId, l: TupleId, g: TupleId| attr == A && l == TupleId(1) && g == TupleId(0);
        assert!(!dc.satisfied_by(&d, &bad));
    }

    #[test]
    fn status_style_constraint_with_constants() {
        // "married is more current than single in attribute B" (φ₂ shape),
        // written over string values.
        let schema = RelationSchema::new("R", &["status", "LN"]);
        let mut d = TemporalInstance::new(RelId(0), &schema);
        let t0 = d
            .push_tuple(Tuple::new(
                Eid(1),
                vec![Value::str("single"), Value::str("Smith")],
            ))
            .unwrap();
        let t1 = d
            .push_tuple(Tuple::new(
                Eid(1),
                vec![Value::str("married"), Value::str("Dupont")],
            ))
            .unwrap();
        let status = AttrId(0);
        let ln = AttrId(1);
        let dc = DenialConstraint::builder(RelId(0), 2)
            .when_cmp(Term::attr(0, status), CmpOp::Eq, Term::val("married"))
            .when_cmp(Term::attr(1, status), CmpOp::Eq, Term::val("single"))
            .then_order(1, ln, 0)
            .build()
            .unwrap();
        let rules = dc.ground(&d);
        assert_eq!(rules.len(), 1);
        assert_eq!(
            rules[0].conclusion,
            Some(OrderEdge {
                attr: ln,
                lesser: t0,
                greater: t1
            })
        );
    }

    #[test]
    fn max_attr_index_scans_everything() {
        let dc = DenialConstraint::builder(RelId(0), 2)
            .when_cmp(Term::attr(0, AttrId(4)), CmpOp::Eq, Term::val(1))
            .when_order(0, AttrId(2), 1)
            .then_order(0, AttrId(1), 1)
            .build()
            .unwrap();
        assert_eq!(dc.max_attr_index(), 4);
    }

    #[test]
    fn cmp_op_semantics() {
        let a = Value::int(1);
        let b = Value::int(2);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Gt.eval(&b, &a));
        assert!(CmpOp::Ge.eval(&b, &b));
        assert!(CmpOp::Eq.eval(&a, &a));
        assert!(CmpOp::Ne.eval(&a, &b));
    }
}

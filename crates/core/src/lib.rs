//! # currency-core
//!
//! The data-currency model of Fan, Geerts & Wijsen, *Determining the
//! Currency of Data* (PODS 2011 / ACM TODS 37(4), 2012), as a Rust library.
//!
//! The model answers a practical question: when a database holds several
//! values for the same entity — old addresses, superseded salaries — and no
//! reliable timestamps, *which value is current?*  The paper's formalism
//! (§2 of the paper) has four ingredients, all implemented here:
//!
//! * **Temporal instances** ([`TemporalInstance`]): ordinary relations whose
//!   tuples carry an entity id ([`Eid`]), plus one *partial currency order*
//!   per attribute.  `t₁ ≺_A t₂` states that `t₂`'s `A`-value is more
//!   current than `t₁`'s.  Orders are per-attribute: a tuple can be current
//!   in one column and stale in another.
//! * **Denial constraints** ([`DenialConstraint`]): universally quantified
//!   rules deriving currency from data semantics ("salaries never
//!   decrease", "a `married` status is more current than a `single` one").
//! * **Copy functions** ([`CopyFunction`]): partial mappings recording that
//!   tuples of one relation were imported from another, which transports
//!   currency orders from the source into the target (≺-compatibility).
//! * **Specifications** ([`Specification`]): a bundle of temporal
//!   instances, constraint sets and copy functions.  Its semantics is the
//!   set `Mod(S)` of **consistent completions** ([`Completion`]) — ways of
//!   extending every partial order to a total order per entity that satisfy
//!   all constraints.  Each completion induces a **current instance**
//!   ([`current_instance`]): one synthesized most-current tuple per entity.
//!
//! Specifications are *live*: a [`SpecDelta`] batches tuple inserts and
//! removals, new order edges, new constraints and copy-function
//! extensions, and [`Specification::apply_delta`] applies the batch
//! atomically (validate first, mutate only if everything is admissible),
//! reporting the touched `(relation, entity)` cells so incremental
//! consumers can invalidate precisely.
//!
//! Decision procedures over this model (consistency, certain orders,
//! certain current query answers, currency preservation) live in the
//! `currency-reason` crate; this crate is purely the model plus its local
//! validation and grounding machinery — including the stable binary
//! [`wire`] codec the durability layer (`currency-store`) persists
//! specifications and deltas with.
//!
//! ## Example: two stale records, one constraint
//!
//! ```
//! use currency_core::*;
//!
//! let mut catalog = Catalog::new();
//! let emp = catalog.add(RelationSchema::new("Emp", &["name", "salary"]));
//! let mut spec = Specification::new(catalog);
//!
//! // Two records for the same person (entity 0) with different salaries.
//! let mary = Eid(0);
//! let t0 = spec.instance_mut(emp).push_tuple(Tuple::new(mary, vec![Value::str("Mary"), Value::int(50)])).unwrap();
//! let t1 = spec.instance_mut(emp).push_tuple(Tuple::new(mary, vec![Value::str("Mary"), Value::int(80)])).unwrap();
//!
//! // "Salaries never decrease": higher salary ⇒ more current (paper's φ₁).
//! let salary = AttrId(1);
//! let dc = DenialConstraint::builder(emp, 2)
//!     .when_cmp(Term::attr(0, salary), CmpOp::Gt, Term::attr(1, salary))
//!     .then_order(1, salary, 0)
//!     .build()
//!     .unwrap();
//! spec.add_constraint(dc).unwrap();
//! assert!(spec.validate().is_ok());
//!
//! // Grounding the constraint on the instance yields t0 ≺ t1 (80 > 50).
//! let rules = spec.constraints()[0].ground(spec.instance(emp));
//! assert_eq!(rules.len(), 1);
//! assert_eq!(rules[0].conclusion, Some(OrderEdge { attr: salary, lesser: t0, greater: t1 }));
//! ```

mod completion;
mod copy;
pub mod cow;
mod current;
mod delta;
mod denial;
mod error;
mod instance;
mod order;
mod render;
mod schema;
mod spec;
mod temporal;
mod value;
pub mod wire;

pub use completion::{Completion, RelCompletion};
pub use copy::{CopyFunction, CopyGroups, CopySignature};
pub use current::{current_instance, current_tuple, lst};
pub use delta::{DeltaEffects, DeltaOp, DeltaRouting, SpecDelta};
pub use denial::{
    CmpOp, DenialBuilder, DenialConstraint, EntityGrounder, GroundBuffer, GroundRule, OrderEdge,
    Predicate, Term, VarId,
};
pub use error::CurrencyError;
pub use instance::{NormalInstance, Tuple};
pub use order::{linear_extensions, OrderRelation};
pub use render::{render_instance, render_spec, render_temporal};
pub use schema::{AttrId, Catalog, RelId, RelationSchema};
#[cfg(any(test, feature = "oracle"))]
pub use spec::CompactReport;
pub use spec::{CompactSlice, CompactStepReport, Specification};
pub use temporal::TemporalInstance;
pub use value::{Eid, TupleId, Value};

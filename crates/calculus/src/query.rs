//! Typed calculus queries `Q = {t/T | φ}` (Section 2).

use crate::classify::{classify, QueryClassification};
use crate::error::CalcError;
use crate::eval::{evaluate, EvalConfig, Evaluation};
use crate::formula::Formula;
use crate::term::Var;
use crate::typing::{check_formula, TypeEnv};
use itq_object::{Atom, Database, Instance, Interrupt, Schema, Type};
use std::collections::BTreeSet;
use std::fmt;

/// A typed calculus query `{t/T | φ}` from a database schema `D` to a type `T`.
///
/// Construction enforces the paper's well-formedness conditions:
///
/// * the only free variable of `φ` is the target variable `t`;
/// * `(φ, α)` is a t-wff where `α` assigns `T` to `t` and the schema types to the
///   predicate symbols;
/// * every predicate symbol of `φ` is declared by the schema.
#[derive(Clone, PartialEq)]
pub struct Query {
    target: Var,
    target_type: Type,
    body: Formula,
    schema: Schema,
}

impl Query {
    /// Build and validate a query.
    pub fn new(
        target: &str,
        target_type: Type,
        body: Formula,
        schema: Schema,
    ) -> Result<Self, CalcError> {
        target_type.validate()?;
        let free = body.free_vars();
        let extra: Vec<String> = free
            .iter()
            .filter(|v| v.as_str() != target)
            .cloned()
            .collect();
        if !extra.is_empty() {
            return Err(CalcError::ExtraFreeVariables { vars: extra });
        }
        for pred in body.predicates() {
            if !schema.contains(&pred) {
                return Err(CalcError::UnknownPredicate { name: pred });
            }
        }
        let env = TypeEnv::single(target, target_type.clone());
        check_formula(&body, &schema, &env)?;
        Ok(Query {
            target: target.to_string(),
            target_type,
            body,
            schema,
        })
    }

    /// The target variable `t`.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// The output type `T`.
    pub fn target_type(&self) -> &Type {
        &self.target_type
    }

    /// The query formula `φ`.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// The input database schema `D`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Replace the body with an equivalent formula (used by normal-form
    /// transformations); the result is re-validated.
    pub fn with_body(&self, body: Formula) -> Result<Query, CalcError> {
        Query::new(
            &self.target,
            self.target_type.clone(),
            body,
            self.schema.clone(),
        )
    }

    /// The constants occurring in the query (`adom(Q)`).
    pub fn constants(&self) -> BTreeSet<Atom> {
        self.body.constants()
    }

    /// The atoms over which evaluation of this query on `db` ranges:
    /// `adom(d) ∪ adom(Q)`.
    pub fn evaluation_domain(&self, db: &Database) -> BTreeSet<Atom> {
        let mut atoms = db.active_domain();
        atoms.extend(self.constants());
        atoms
    }

    /// Classify this query into its (minimal) `CALC_{k,i}` family.
    pub fn classification(&self) -> QueryClassification {
        classify(self)
    }

    /// Evaluate the query under the limited interpretation, returning only the
    /// answer instance.
    pub fn eval(&self, db: &Database, config: &EvalConfig) -> Result<Instance, CalcError> {
        Ok(self.eval_full(db, config)?.result)
    }

    /// Evaluate the query under the limited interpretation, returning the answer
    /// together with evaluation statistics.
    pub fn eval_full(&self, db: &Database, config: &EvalConfig) -> Result<Evaluation, CalcError> {
        evaluate(self, db, &[], config, Interrupt::disarmed())
    }

    /// Evaluate `Q|^Y` where `Y` is the given set of extra (typically invented)
    /// atoms: all variables range over objects constructed from
    /// `Y ∪ adom(d) ∪ adom(Q)`.
    ///
    /// The answer is *not* restricted to the original active domain; the
    /// invented-value semantics of Section 6 (in `itq-invention`) apply that
    /// restriction on top of this primitive.
    pub fn eval_with_extra(
        &self,
        db: &Database,
        extra: &[Atom],
        config: &EvalConfig,
    ) -> Result<Evaluation, CalcError> {
        evaluate(self, db, extra, config, Interrupt::disarmed())
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}/{} | {:?}}}",
            self.target, self.target_type, self.body
        )
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn par_schema() -> Schema {
        Schema::single("PAR", Type::flat_tuple(2))
    }

    #[test]
    fn construction_validates_free_variables() {
        let body = Formula::pred("PAR", Term::var("t"));
        assert!(Query::new("t", Type::flat_tuple(2), body.clone(), par_schema()).is_ok());
        // A stray free variable is rejected.
        let stray = Formula::and(vec![body, Formula::pred("PAR", Term::var("u"))]);
        assert!(matches!(
            Query::new("t", Type::flat_tuple(2), stray, par_schema()),
            Err(CalcError::ExtraFreeVariables { .. })
        ));
    }

    #[test]
    fn construction_validates_predicates_and_types() {
        let unknown = Formula::pred("NOPE", Term::var("t"));
        assert!(matches!(
            Query::new("t", Type::flat_tuple(2), unknown, par_schema()),
            Err(CalcError::UnknownPredicate { .. })
        ));
        let ill_typed = Formula::pred("PAR", Term::var("t"));
        assert!(matches!(
            Query::new("t", Type::Atomic, ill_typed, par_schema()),
            Err(CalcError::PredTypeMismatch { .. })
        ));
    }

    #[test]
    fn accessors_and_display() {
        let body = Formula::pred("PAR", Term::var("t"));
        let q = Query::new("t", Type::flat_tuple(2), body, par_schema()).unwrap();
        assert_eq!(q.target(), "t");
        assert_eq!(q.target_type(), &Type::flat_tuple(2));
        assert_eq!(q.schema().names(), vec!["PAR"]);
        assert!(q.constants().is_empty());
        let s = q.to_string();
        assert!(s.contains("t/[U, U]"));
        assert!(s.contains("PAR(t)"));
    }

    #[test]
    fn evaluation_domain_includes_query_constants() {
        let c = Atom(42);
        let body = Formula::and(vec![
            Formula::pred("PAR", Term::var("t")),
            Formula::eq(Term::constant(c), Term::constant(c)),
        ]);
        let q = Query::new("t", Type::flat_tuple(2), body, par_schema()).unwrap();
        let db = Database::single("PAR", Instance::from_pairs(vec![(Atom(0), Atom(1))]));
        let dom = q.evaluation_domain(&db);
        assert!(dom.contains(&c));
        assert!(dom.contains(&Atom(0)));
        assert_eq!(dom.len(), 3);
        assert_eq!(q.constants(), BTreeSet::from([c]));
    }

    #[test]
    fn with_body_revalidates() {
        let q = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::pred("PAR", Term::var("t")),
            par_schema(),
        )
        .unwrap();
        let ok = q.with_body(Formula::and(vec![Formula::pred("PAR", Term::var("t"))]));
        assert!(ok.is_ok());
        let bad = q.with_body(Formula::pred("PAR", Term::var("other")));
        assert!(bad.is_err());
    }
}

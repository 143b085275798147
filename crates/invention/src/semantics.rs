//! The invented-value semantics of Section 6.
//!
//! All semantics are built from the primitive `Q|_n[d]`: evaluate `Q` with the
//! ranges of all variables extended by `n` fresh atoms, then restrict the answer
//! to objects constructed from the *original* active domain (invented values are
//! scratch paper, never output).  By Proposition 6.1 the choice of the `n` fresh
//! atoms is irrelevant, so we simply draw them from a [`Universe`].
//!
//! * **Finite invention** `Q^fi[d] = ⋃_{0 ≤ n < ω} Q|_n[d]`.  The exact union is
//!   not computable in general (Lemma 6.16 shows it is only recursively
//!   enumerable, and Lemma 6.18 separates it from countable invention), so
//!   [`finite_invention`] computes the union up to a configurable bound and
//!   reports how the per-`n` answers evolved.
//! * **Bounded invention** `Q|_f[d] = ⋃ { Q|_n[d] : n ≤ f(|adom(d)|) }`
//!   is computable outright and implemented exactly.
//! * **Terminal invention** `Q^ti[d]` returns `Q|_n[d]` for the least `n` at which
//!   the *unrestricted* answer `Q|^Y[d]` contains an invented value, and is
//!   undefined (`?`) if there is no such `n` (Theorem 6.19 shows this semantics is
//!   equivalent to the computable queries).

use crate::error::InventionError;
use itq_calculus::eval::{EvalConfig, Evaluable, Evaluation};
use itq_object::{Atom, Database, Instance, Interrupt, Universe, Value};
use itq_trace::{ExecStats, Span};
use std::collections::BTreeSet;
use std::time::Instant;

/// A per-level observation hook, monomorphized so the untraced loops pay
/// nothing — [`NoHook`] skips even the timing call.
trait LevelHook {
    const ENABLED: bool;
    fn level(&mut self, n: usize, restricted: &Instance, unrestricted: &Evaluation, micros: u64);
    /// The sweep's root span over the recorded levels (`None` untraced).
    fn root(self, name: &str, rows_out: usize) -> Option<Span>;
}

/// The untraced instantiation.
struct NoHook;

impl LevelHook for NoHook {
    const ENABLED: bool = false;
    #[inline(always)]
    fn level(&mut self, _n: usize, _r: &Instance, _u: &Evaluation, _micros: u64) {}
    fn root(self, _name: &str, _rows_out: usize) -> Option<Span> {
        None
    }
}

/// The traced instantiation: one span per `Q|_n[d]` level.
#[derive(Default)]
struct SpanHook {
    spans: Vec<Span>,
}

impl LevelHook for SpanHook {
    const ENABLED: bool = true;
    fn level(&mut self, n: usize, restricted: &Instance, unrestricted: &Evaluation, micros: u64) {
        let mut span = Span::new(format!("Q|_{n}[d]"));
        span.push_field("invented", n as u64);
        span.push_field("answers", restricted.len() as u64);
        span.push_field("unrestricted_answers", unrestricted.result.len() as u64);
        span.push_counters(&unrestricted.stats);
        span.wall_micros = micros;
        self.spans.push(span);
    }

    fn root(self, name: &str, rows_out: usize) -> Option<Span> {
        let mut root = Span::new(name);
        root.push_field("invention_levels", self.spans.len() as u64);
        root.push_field("rows_out", rows_out as u64);
        root.children = self.spans;
        Some(root)
    }
}

/// Configuration for the bounded searches that approximate the non-recursive
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InventionConfig {
    /// Largest number of invented values to try.
    pub max_invented: usize,
    /// Budgets for each underlying calculus evaluation.
    pub eval: EvalConfig,
}

impl Default for InventionConfig {
    fn default() -> Self {
        InventionConfig {
            max_invented: 4,
            eval: EvalConfig::default(),
        }
    }
}

/// Evaluate `Q|_n[d]`: extend every variable's range by `n` fresh atoms and keep
/// only the answers built from the original active domain.
///
/// Returns both the restricted answer and the unrestricted `Q|^Y[d]` evaluation
/// (which terminal invention needs in order to detect invented values in the
/// output).
///
/// Generic over the query form: a source-level [`Query`](itq_calculus::Query)
/// runs the tree walker, a [`CompiledQuery`](itq_calculus::CompiledQuery) runs
/// the slot-based interpreter — the prepared pipeline passes the latter so
/// per-level re-evaluation never re-lowers the query.  The evaluation polls
/// `interrupt` at its usual step granularity, so a deadline or cancellation
/// fires mid-level rather than only between levels, and splits its candidate
/// loop across `workers` partitions where the backend supports it.
pub fn eval_with_invented<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    n: usize,
    config: &EvalConfig,
    interrupt: &Interrupt,
    workers: usize,
) -> Result<(Instance, Evaluation), InventionError> {
    let original_domain: BTreeSet<Atom> = query.evaluation_domain(db);
    // Draw atoms from the universe until we have `n` that are genuinely outside
    // the active domain of the database and query — the universe may not have
    // interned the database's atoms, so plain invention could collide with them.
    let mut invented: Vec<Atom> = Vec::with_capacity(n);
    while invented.len() < n {
        let candidate = universe.invent();
        if !original_domain.contains(&candidate) {
            invented.push(candidate);
        }
    }
    let evaluation = query.evaluate(db, &invented, config, interrupt, workers)?;
    let restricted = Instance::from_values(
        evaluation
            .result
            .iter()
            .filter(|v| {
                v.active_domain()
                    .iter()
                    .all(|a| original_domain.contains(a))
            })
            .cloned()
            .collect::<Vec<Value>>(),
    );
    Ok((restricted, evaluation))
}

/// The per-`n` trace and final union computed by [`finite_invention`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteInventionReport {
    /// `answers[n]` is `Q|_n[d]`.
    pub answers: Vec<Instance>,
    /// The union of all computed answers — the bounded approximation of `Q^fi[d]`.
    pub union: Instance,
    /// The smallest `n` after which no new answer appeared within the bound, if
    /// the trace stabilised before the bound was hit.
    pub stabilised_at: Option<usize>,
    /// `Some(n)` when a resource limit interrupted the sweep while evaluating
    /// level `n` and the governor was configured to degrade rather than fail:
    /// the report then holds the union of the levels `0..n` that completed — a
    /// sound under-approximation of the bounded finite-invention answer (every
    /// `Q|_k[d]` is a subset of the union, so stopping early can omit answers
    /// but never fabricate them).
    pub interrupted_at: Option<usize>,
}

impl FiniteInventionReport {
    /// Number of invention levels evaluated.
    pub fn levels(&self) -> usize {
        self.answers.len()
    }
}

/// Approximate finite invention: `⋃_{n ≤ max} Q|_n[d]`, with a stabilisation
/// report and the aggregated [`ExecStats`] of every per-level evaluation
/// (`invention_levels` counts the levels evaluated).  (The exact semantics
/// is a countable union and is not computable in general; see Lemma 6.16.)
///
/// Every per-level evaluation polls `interrupt` and partitions across
/// `workers` (see [`eval_with_invented`]).  When `degrade` is `true` and a
/// resource limit trips, the error is converted into a partial report with
/// [`FiniteInventionReport::interrupted_at`] set — the union of the completed
/// levels, which is a sound under-approximation of the bounded answer.  When
/// `degrade` is `false` the resource error propagates unchanged.
///
/// With `traced`, the returned `finite-invention` [`Span`] carries one child
/// per completed `Q|_n[d]` level with the level's answer sizes and
/// evaluation counters; the report and statistics are byte-identical to the
/// untraced run.
///
/// ```
/// use itq_calculus::{Formula, Query};
/// use itq_invention::{finite_invention, InventionConfig};
/// use itq_object::{Atom, Database, Instance, Interrupt, Schema, Type, Universe};
///
/// let q = Query::new("t", Type::Atomic, Formula::pred("R", itq_calculus::Term::var("t")),
///                    Schema::single("R", Type::Atomic)).unwrap();
/// let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
/// let mut universe = Universe::new();
/// let config = InventionConfig::default();
/// let (report, stats, span) =
///     finite_invention(&q, &db, &mut universe, &config, Interrupt::disarmed(), 1, false, true)
///         .unwrap();
/// assert_eq!(report.union.len(), 1);
/// assert!(stats.steps > 0, "one evaluation per invention level was counted");
/// assert_eq!(span.unwrap().children.len(), report.levels());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn finite_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    config: &InventionConfig,
    interrupt: &Interrupt,
    workers: usize,
    degrade: bool,
    traced: bool,
) -> Result<(FiniteInventionReport, ExecStats, Option<Span>), InventionError> {
    if traced {
        let hook = SpanHook::default();
        finite_sweep(
            query, db, universe, config, interrupt, workers, degrade, hook,
        )
    } else {
        finite_sweep(
            query, db, universe, config, interrupt, workers, degrade, NoHook,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn finite_sweep<Q: Evaluable + ?Sized, H: LevelHook>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    config: &InventionConfig,
    interrupt: &Interrupt,
    workers: usize,
    degrade: bool,
    mut hook: H,
) -> Result<(FiniteInventionReport, ExecStats, Option<Span>), InventionError> {
    let mut answers = Vec::new();
    let mut union = Instance::empty();
    let mut stabilised_at = None;
    let mut interrupted_at = None;
    let mut stats = ExecStats::default();
    for n in 0..=config.max_invented {
        let start = H::ENABLED.then(Instant::now);
        let level = eval_with_invented(query, db, universe, n, &config.eval, interrupt, workers);
        let (restricted, evaluation) = match level {
            Ok(level) => level,
            Err(InventionError::Resource(_)) if degrade => {
                // Sound under-approximation: every completed level is a
                // subset of the bounded union, so returning what finished
                // can omit answers but never invent wrong ones.
                stabilised_at = None;
                interrupted_at = Some(n);
                break;
            }
            Err(e) => return Err(e),
        };
        if let Some(start) = start {
            hook.level(
                n,
                &restricted,
                &evaluation,
                start.elapsed().as_micros() as u64,
            );
        }
        stats.merge(&evaluation.stats);
        let before = union.len();
        for v in restricted.iter() {
            union.insert(v.clone());
        }
        if union.len() == before && n > 0 {
            stabilised_at.get_or_insert(n);
        } else {
            stabilised_at = None;
        }
        answers.push(restricted);
    }
    stats.invention_levels = answers.len() as u64;
    let span = hook.root("finite-invention", union.len());
    let report = FiniteInventionReport {
        answers,
        union,
        stabilised_at,
        interrupted_at,
    };
    Ok((report, stats, span))
}

/// Bounded invention `Q|_f[d]` for a bound function `f` of the active-domain
/// size: the union of `Q|_n[d]` for `n ≤ f(|adom(d)|)`.
pub fn bounded_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    bound: impl Fn(usize) -> usize,
    config: &EvalConfig,
) -> Result<Instance, InventionError> {
    let limit = bound(db.active_domain().len());
    let mut union = Instance::empty();
    for n in 0..=limit {
        let (restricted, _) =
            eval_with_invented(query, db, universe, n, config, Interrupt::disarmed(), 1)?;
        for v in restricted.iter() {
            union.insert(v.clone());
        }
    }
    Ok(union)
}

/// The outcome of a terminal-invention evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminalOutcome {
    /// The least `n` at which the unrestricted answer contained an invented value,
    /// together with `Q|_n[d]`.
    Defined {
        /// The least such `n`.
        n: usize,
        /// The answer `Q|_n[d]`.
        answer: Instance,
    },
    /// No such `n` was found within the configured bound — the paper's `?`
    /// (undefined) outcome, which in general cannot be distinguished from
    /// "defined at some larger n" by any terminating procedure.
    UndefinedWithinBound {
        /// The number of invention levels tried.
        tried: usize,
    },
}

/// Terminal invention `Q^ti[d]` (Theorem 6.19), searched up to
/// `config.max_invented` levels, plus the aggregated [`ExecStats`] of every
/// level searched (`invention_levels` counts them).
///
/// Every per-level evaluation polls `interrupt` and partitions across
/// `workers` (see [`eval_with_invented`]).  Terminal invention returns the
/// answer at the *least* inventing level, so a partially completed search
/// carries no sound answer — unlike finite invention there is no degraded
/// mode, and a resource limit always surfaces as an error.
///
/// With `traced`, the returned `terminal-invention` [`Span`] carries one
/// child per `Q|_n[d]` level searched (the search stops at the defining
/// level, so a defined outcome at `n` yields `n + 1` children).  The outcome
/// and statistics are byte-identical to the untraced run.
///
/// ```
/// use itq_calculus::{Formula, Query};
/// use itq_invention::{terminal_invention, InventionConfig, TerminalOutcome};
/// use itq_object::{Atom, Database, Instance, Interrupt, Schema, Type, Universe};
///
/// // {t/U | ⊤} surfaces an invented value at n = 1.
/// let q = Query::new("t", Type::Atomic, Formula::truth(),
///                    Schema::single("R", Type::Atomic)).unwrap();
/// let db = Database::single("R", Instance::from_atoms(vec![Atom(0)]));
/// let mut universe = Universe::new();
/// let config = InventionConfig::default();
/// let (outcome, stats, span) =
///     terminal_invention(&q, &db, &mut universe, &config, Interrupt::disarmed(), 1, false)
///         .unwrap();
/// assert!(matches!(outcome, TerminalOutcome::Defined { n: 1, .. }));
/// assert!(stats.candidates_checked > 0);
/// assert!(span.is_none(), "untraced runs build no spans");
/// ```
pub fn terminal_invention<Q: Evaluable + ?Sized>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    config: &InventionConfig,
    interrupt: &Interrupt,
    workers: usize,
    traced: bool,
) -> Result<(TerminalOutcome, ExecStats, Option<Span>), InventionError> {
    if traced {
        terminal_search(
            query,
            db,
            universe,
            config,
            interrupt,
            workers,
            SpanHook::default(),
        )
    } else {
        terminal_search(query, db, universe, config, interrupt, workers, NoHook)
    }
}

fn terminal_search<Q: Evaluable + ?Sized, H: LevelHook>(
    query: &Q,
    db: &Database,
    universe: &mut Universe,
    config: &InventionConfig,
    interrupt: &Interrupt,
    workers: usize,
    mut hook: H,
) -> Result<(TerminalOutcome, ExecStats, Option<Span>), InventionError> {
    let original_domain: BTreeSet<Atom> = query.evaluation_domain(db);
    let mut stats = ExecStats::default();
    for n in 0..=config.max_invented {
        let start = H::ENABLED.then(Instant::now);
        let (restricted, unrestricted) =
            eval_with_invented(query, db, universe, n, &config.eval, interrupt, workers)?;
        if let Some(start) = start {
            hook.level(
                n,
                &restricted,
                &unrestricted,
                start.elapsed().as_micros() as u64,
            );
        }
        stats.merge(&unrestricted.stats);
        let contains_invented = unrestricted.result.iter().any(|v| {
            v.active_domain()
                .iter()
                .any(|a| !original_domain.contains(a))
        });
        if contains_invented {
            stats.invention_levels = n as u64 + 1;
            let span = hook.root("terminal-invention", restricted.len());
            let outcome = TerminalOutcome::Defined {
                n,
                answer: restricted,
            };
            return Ok((outcome, stats, span));
        }
    }
    let tried = config.max_invented + 1;
    stats.invention_levels = tried as u64;
    let outcome = TerminalOutcome::UndefinedWithinBound { tried };
    Ok((outcome, stats, hook.root("terminal-invention", 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itq_calculus::{Formula, Query, Term};
    use itq_object::{Schema, Type};

    /// One ungoverned, one-worker `Q|_n[d]` level.
    fn level(
        q: &Query,
        db: &Database,
        universe: &mut Universe,
        n: usize,
        cfg: &EvalConfig,
    ) -> (Instance, Evaluation) {
        eval_with_invented(q, db, universe, n, cfg, Interrupt::disarmed(), 1).unwrap()
    }

    /// An ungoverned, untraced, one-worker finite-invention sweep.
    fn finite(
        q: &Query,
        db: &Database,
        universe: &mut Universe,
        config: &InventionConfig,
    ) -> FiniteInventionReport {
        finite_invention(
            q,
            db,
            universe,
            config,
            Interrupt::disarmed(),
            1,
            false,
            false,
        )
        .unwrap()
        .0
    }

    /// An ungoverned, untraced, one-worker terminal-invention search.
    fn terminal(
        q: &Query,
        db: &Database,
        universe: &mut Universe,
        config: &InventionConfig,
    ) -> TerminalOutcome {
        terminal_invention(q, db, universe, config, Interrupt::disarmed(), 1, false)
            .unwrap()
            .0
    }

    fn unary_schema() -> Schema {
        Schema::single("R", Type::Atomic)
    }

    fn unary_db(n: u32) -> Database {
        Database::single("R", Instance::from_atoms((0..n).map(Atom)))
    }

    /// `{t/U | R(t) ∧ ∃y/U (¬R(y))}`: returns R exactly when some atom outside R
    /// is available — false under the limited interpretation, true with ≥1
    /// invented value.
    fn needs_external_witness() -> Query {
        Query::new(
            "t",
            Type::Atomic,
            Formula::and(vec![
                Formula::pred("R", Term::var("t")),
                Formula::exists(
                    "y",
                    Type::Atomic,
                    Formula::not(Formula::pred("R", Term::var("y"))),
                ),
            ]),
            unary_schema(),
        )
        .unwrap()
    }

    #[test]
    fn invention_levels_change_answers() {
        let q = needs_external_witness();
        let db = unary_db(3);
        let mut universe = Universe::new();
        universe.atoms(["a", "b", "c"]);
        let cfg = EvalConfig::default();
        let (level0, _) = level(&q, &db, &mut universe, 0, &cfg);
        assert!(level0.is_empty(), "no witness without invention");
        let (level1, _) = level(&q, &db, &mut universe, 1, &cfg);
        assert_eq!(level1.len(), 3, "one invented value provides the witness");
        // The answer never contains an invented value.
        let original = q.evaluation_domain(&db);
        for v in level1.iter() {
            assert!(v.active_domain().iter().all(|a| original.contains(a)));
        }
    }

    #[test]
    fn finite_invention_unions_all_levels() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let mut universe = Universe::new();
        universe.atoms(["a", "b"]);
        let report = finite(&q, &db, &mut universe, &InventionConfig::default());
        assert_eq!(report.levels(), 5);
        assert!(report.answers[0].is_empty());
        assert_eq!(report.answers[1].len(), 2);
        assert_eq!(report.union.len(), 2);
        assert!(report.stabilised_at.is_some());
    }

    #[test]
    fn relational_queries_gain_nothing_from_invention() {
        // Theorem 6.11 (executable spot-check): for a pure relational-calculus
        // query, Q|_n = Q|_0 for every n.
        let q = Query::new(
            "t",
            Type::flat_tuple(2),
            Formula::exists(
                "x",
                Type::flat_tuple(2),
                Formula::and(vec![
                    Formula::pred("PAR", Term::var("x")),
                    Formula::eq(Term::proj("t", 1), Term::proj("x", 2)),
                    Formula::eq(Term::proj("t", 2), Term::proj("x", 1)),
                ]),
            ),
            Schema::single("PAR", Type::flat_tuple(2)),
        )
        .unwrap();
        let db = Database::single("PAR", Instance::from_pairs(vec![(Atom(0), Atom(1))]));
        let mut universe = Universe::new();
        universe.atoms(["a", "b"]);
        let cfg = EvalConfig::default();
        let (baseline, _) = level(&q, &db, &mut universe, 0, &cfg);
        for n in 1..4 {
            let (with_invention, _) = level(&q, &db, &mut universe, n, &cfg);
            assert_eq!(with_invention, baseline, "n = {n}");
        }
    }

    #[test]
    fn bounded_invention_respects_the_bound_function() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let mut universe = Universe::new();
        universe.atoms(["a", "b"]);
        let cfg = EvalConfig::default();
        // Bound 0: no invention allowed → empty.
        let zero = bounded_invention(&q, &db, &mut universe, |_| 0, &cfg).unwrap();
        assert!(zero.is_empty());
        // Bound n ↦ n: plenty of invention → full answer.
        let linear = bounded_invention(&q, &db, &mut universe, |n| n, &cfg).unwrap();
        assert_eq!(linear.len(), 2);
    }

    #[test]
    fn terminal_invention_detects_the_first_inventing_level() {
        // {t/U | ⊤} outputs every atom in range, so with 1 invented value the
        // unrestricted answer already contains an invented atom.
        let q = Query::new("t", Type::Atomic, Formula::truth(), unary_schema()).unwrap();
        let db = unary_db(2);
        let mut universe = Universe::new();
        universe.atoms(["a", "b"]);
        let outcome = terminal(&q, &db, &mut universe, &InventionConfig::default());
        match outcome {
            TerminalOutcome::Defined { n, answer } => {
                assert_eq!(n, 1);
                // The restricted answer only holds original atoms.
                assert_eq!(answer.len(), 2);
            }
            other => panic!("expected defined outcome, got {other:?}"),
        }
    }

    #[test]
    fn terminal_invention_reports_undefined_within_bound() {
        // {t/U | R(t)} never outputs an invented value, so terminal invention is
        // undefined (the paper's "?").
        let q = Query::new(
            "t",
            Type::Atomic,
            Formula::pred("R", Term::var("t")),
            unary_schema(),
        )
        .unwrap();
        let db = unary_db(2);
        let mut universe = Universe::new();
        universe.atoms(["a", "b"]);
        let config = InventionConfig {
            max_invented: 2,
            ..Default::default()
        };
        let outcome = terminal(&q, &db, &mut universe, &config);
        assert_eq!(outcome, TerminalOutcome::UndefinedWithinBound { tried: 3 });
    }

    #[test]
    fn even_cardinality_via_invention_example_6_2_style() {
        // With invention, parity can be decided with a *flat* intermediate pairing
        // held in a variable of type {[U,U]} whose left column uses invented
        // "indices": here we check the simpler observable from Example 6.2's
        // discussion — the query that needs an external witness has, for every n,
        // answers that are always restricted to the original domain.
        let q = needs_external_witness();
        let db = unary_db(4);
        let mut universe = Universe::new();
        universe.atoms(["a", "b", "c", "d"]);
        let config = InventionConfig {
            max_invented: 2,
            ..Default::default()
        };
        let report = finite(&q, &db, &mut universe, &config);
        let original = q.evaluation_domain(&db);
        for answer in &report.answers {
            for v in answer.iter() {
                assert!(v.active_domain().iter().all(|a| original.contains(a)));
            }
        }
    }

    #[test]
    fn traced_invention_is_identical_and_records_one_span_per_level() {
        let q = needs_external_witness();
        let db = unary_db(2);
        let config = InventionConfig {
            max_invented: 3,
            ..Default::default()
        };

        let disarmed = Interrupt::disarmed();
        let mut u1 = Universe::new();
        u1.atoms(["a", "b"]);
        let (plain_report, plain_stats, none) =
            finite_invention(&q, &db, &mut u1, &config, disarmed, 1, false, false).unwrap();
        assert!(none.is_none());
        let mut u2 = Universe::new();
        u2.atoms(["a", "b"]);
        let (traced_report, traced_stats, root) =
            finite_invention(&q, &db, &mut u2, &config, disarmed, 1, false, true).unwrap();
        let root = root.unwrap();
        assert_eq!(plain_report, traced_report);
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(root.name, "finite-invention");
        assert_eq!(root.field("invention_levels"), Some(4));
        assert_eq!(
            root.field("rows_out"),
            Some(traced_report.union.len() as u64)
        );
        let spans = &root.children;
        assert_eq!(spans.len(), 4, "one span per level 0..=3");
        assert_eq!(spans[0].name, "Q|_0[d]");
        assert_eq!(spans[0].field("answers"), Some(0));
        assert_eq!(spans[1].field("invented"), Some(1));
        assert_eq!(spans[1].field("answers"), Some(2));
        let span_steps: u64 = spans.iter().map(|s| s.field("steps").unwrap()).sum();
        assert_eq!(
            span_steps, traced_stats.steps,
            "level spans cover all steps"
        );

        let mut u3 = Universe::new();
        u3.atoms(["a", "b"]);
        let (plain_outcome, plain_term_stats, _) =
            terminal_invention(&q, &db, &mut u3, &config, disarmed, 1, false).unwrap();
        let mut u4 = Universe::new();
        u4.atoms(["a", "b"]);
        let (traced_outcome, traced_term_stats, term_root) =
            terminal_invention(&q, &db, &mut u4, &config, disarmed, 1, true).unwrap();
        let term_spans = term_root.unwrap().children;
        assert_eq!(plain_outcome, traced_outcome);
        assert_eq!(plain_term_stats, traced_term_stats);
        assert_eq!(term_spans.len(), 4, "undefined search visits every level");
    }
}

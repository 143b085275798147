//! The traced run's spans and the layer replay behind them.
//!
//! The program under test has no tracing of its own on these paths, so the
//! benchmark records spans around its own calls into each layer's public
//! functions.  Each statement gets a `statement` root span.  Under it,
//! `surface.run_statement` times [`itq_surface::Session::run_statement`], the
//! call users make.  A [`Mirror`] then replays the same statement one layer
//! at a time — `parse_stmt`, `Engine::prepare`/`prepare_algebra`,
//! `Prepared::execute`, `IncrementalDb::insert`/`delete` — making the same
//! prepare-or-reuse decisions the session makes, and each replayed call is
//! recorded as a child of the `run_statement` span whose work it repeats.  A
//! span's self time is its duration minus its children's, so the session's
//! own share (`surface.session_self_us`) is `run_statement` minus the parse,
//! prepare, execute and mutation it contains.  Counters the layers return
//! (`PrepareStats`, `ExecStats`, `MutationOutcome`) are attached to the
//! span of the call that returned them.

use itq_algebra::AlgExpr;
use itq_calculus::Query;
use itq_core::engine::{Engine, Semantics};
use itq_core::incremental::{IncrementalDb, MutationOutcome, RefreshPath};
use itq_core::pipeline::{Prepared, QueryOutcome};
use itq_object::{Database, Schema, Value};
use itq_surface::script::parse_stmt;
use itq_surface::Stmt;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub stmt: usize,
    pub kind: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    pub fn field(&self, name: &str) -> u64 {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_stmt: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_stmt: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a statement's root span; returns its id.
    pub fn open_statement(&mut self, kind: &'static str) -> usize {
        self.next_stmt += 1;
        let start = self.now();
        self.spans.push(Span {
            stmt: self.next_stmt,
            kind,
            name: "statement",
            parent: None,
            start_ns: start,
            end_ns: start,
            fields: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        let (stmt, kind) = (self.spans[parent].stmt, self.spans[parent].kind);
        self.spans.push(Span {
            stmt,
            kind,
            name,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
            fields: Vec::new(),
        });
        (out, self.spans.len() - 1)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::micros).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.micros();
            }
        }
        own
    }

    /// One JSON object per span.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_micros();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"stmt\":{},\"kind\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_us\":{:.3}",
                s.stmt, s.kind, s.name, s.start_ns, s.end_ns, own[id]
            );
            for (k, v) in &s.fields {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Prepared handles keyed by declaration text, mirroring the `PlanCache`
/// that sessions of one server share.
pub type SharedPlans = BTreeMap<String, Prepared>;

/// The layer-by-layer replay of one session: its own engine (same settings
/// as the session's), schema table, databases, prepared handles and
/// incremental state, fed the same statement text in the same order.
pub struct Mirror {
    engine: Engine,
    schemas: BTreeMap<String, Schema>,
    /// Each database with the name of its schema.
    databases: BTreeMap<String, (String, Database)>,
    /// Named declarations: their shared-cache key and how to prepare them.
    decls: BTreeMap<String, (String, Decl)>,
    prepared: BTreeMap<String, Prepared>,
    incremental: BTreeMap<String, IncrementalDb>,
}

enum Decl {
    Query(Query),
    /// Schema name and expression.
    Algebra(String, AlgExpr),
}

impl Mirror {
    pub fn new(engine: Engine) -> Mirror {
        Mirror {
            engine,
            schemas: BTreeMap::new(),
            databases: BTreeMap::new(),
            decls: BTreeMap::new(),
            prepared: BTreeMap::new(),
            incremental: BTreeMap::new(),
        }
    }

    /// Replay one statement's layer calls as children of `parent`.  Returns
    /// the answer size of an `eval`, for cross-checking.
    pub fn replay(
        &mut self,
        text: &str,
        shared: Option<&mut SharedPlans>,
        tracer: &mut Tracer,
        parent: usize,
    ) -> Result<Option<usize>, String> {
        // Statement text ends in `;`; the parser takes the chunk before it.
        let chunk = text.trim_end().trim_end_matches(';');
        let (schemas, universe) = (&self.schemas, self.engine.universe_mut());
        let (stmt, _) = tracer.time("surface.parse_stmt", parent, || {
            parse_stmt(chunk, schemas, universe)
        });
        match stmt.map_err(|e| format!("parse: {e}"))? {
            Stmt::DefSchema { name, schema } => {
                self.schemas.insert(name, schema);
            }
            Stmt::DefDatabase {
                name,
                schema,
                database,
            } => {
                self.incremental.remove(&name);
                self.databases.insert(name, (schema, database));
            }
            Stmt::DefQuery {
                name, query, src, ..
            } => {
                self.prepared.remove(&name);
                let key = format!("query\u{1f}{src}");
                self.decls.insert(name, (key, Decl::Query(query)));
            }
            Stmt::DefAlgebra {
                name,
                schema,
                expr,
                src,
                ..
            } => {
                self.prepared.remove(&name);
                let key = format!("algebra\u{1f}{schema}\u{1f}{src}");
                self.decls.insert(name, (key, Decl::Algebra(schema, expr)));
            }
            Stmt::Typecheck { name } | Stmt::Plan { name } => {
                self.ensure_prepared(&name, shared, tracer, parent)?;
            }
            Stmt::Eval {
                name,
                database,
                semantics,
            } => {
                self.ensure_prepared(&name, shared, tracer, parent)?;
                let prepared = &self.prepared[&name];
                let (_, db) = self
                    .databases
                    .get(&database)
                    .ok_or_else(|| format!("unknown database {database}"))?;
                let span = match (semantics, prepared.is_algebra()) {
                    (Semantics::Limited, false) => "core.execute.compiled",
                    (Semantics::Limited, true) => "core.execute.planned",
                    _ => "core.execute.invention",
                };
                let (outcome, id) = tracer.time(span, parent, || prepared.execute(db, semantics));
                let outcome = outcome.map_err(|e| format!("execute: {e}"))?;
                tracer.spans[id].fields = exec_fields(&outcome);
                return Ok(Some(outcome.result.len()));
            }
            Stmt::Insert {
                database,
                pred,
                values,
            } => self.mutate(&database, &pred, values, true, tracer, parent)?,
            Stmt::Delete {
                database,
                pred,
                values,
            } => self.mutate(&database, &pred, values, false, tracer, parent)?,
            Stmt::Watch {
                name,
                database,
                semantics,
            } => {
                self.ensure_prepared(&name, shared, tracer, parent)?;
                let prepared = self.prepared[&name].clone();
                self.incremental_for(&database)?
                    .watch(&name, prepared, semantics);
            }
            _ => return Err(format!("the replay does not model `{text}`")),
        }
        Ok(None)
    }

    /// The session's prepare-once rule: reuse this session's handle, else a
    /// handle another session published under the same declaration text,
    /// else prepare (the only case that does static work, and so the only
    /// one recorded as a prepare span).
    fn ensure_prepared(
        &mut self,
        name: &str,
        shared: Option<&mut SharedPlans>,
        tracer: &mut Tracer,
        parent: usize,
    ) -> Result<(), String> {
        if self.prepared.contains_key(name) {
            return Ok(());
        }
        let (key, decl) = self
            .decls
            .get(name)
            .ok_or_else(|| format!("nothing named {name}"))?;
        if let Some(handle) = shared.as_ref().and_then(|s| s.get(key)) {
            self.prepared.insert(name.to_string(), handle.clone());
            return Ok(());
        }
        let engine = &self.engine;
        let (handle, id) = match decl {
            Decl::Query(q) => tracer.time("core.prepare", parent, || engine.prepare(q)),
            Decl::Algebra(schema, expr) => {
                let schema = self.schemas.get(schema).ok_or("unknown schema")?;
                tracer.time("core.prepare_algebra", parent, || {
                    engine.prepare_algebra(expr, schema)
                })
            }
        };
        let handle = handle.map_err(|e| format!("prepare: {e}"))?;
        let p = handle.prepare_stats();
        tracer.spans[id].fields = vec![
            ("typecheck_us", p.typecheck_micros),
            ("plan_us", p.plan_micros),
            ("classify_us", p.classify_micros),
            ("normalize_us", p.normalize_micros),
            ("compile_us", p.compile_micros),
            ("analyze_us", p.analyze_micros),
        ];
        if let Some(shared) = shared {
            shared.insert(key.clone(), handle.clone());
        }
        self.prepared.insert(name.to_string(), handle);
        Ok(())
    }

    fn incremental_for(&mut self, database: &str) -> Result<&mut IncrementalDb, String> {
        if !self.incremental.contains_key(database) {
            let (schema, db) = self.databases.get(database).ok_or("unknown database")?;
            let schema = self.schemas.get(schema).ok_or("unknown schema")?.clone();
            let inc = IncrementalDb::new(schema, db).map_err(|e| e.to_string())?;
            self.incremental.insert(database.to_string(), inc);
        }
        Ok(self.incremental.get_mut(database).expect("just inserted"))
    }

    fn mutate(
        &mut self,
        database: &str,
        pred: &str,
        values: Vec<Value>,
        inserting: bool,
        tracer: &mut Tracer,
        parent: usize,
    ) -> Result<(), String> {
        let inc = self.incremental_for(database)?;
        let name = match inserting {
            true => "core.incremental.insert",
            false => "core.incremental.delete",
        };
        let (outcome, id) = tracer.time(name, parent, || match inserting {
            true => inc.insert(pred, values),
            false => inc.delete(pred, values),
        });
        let outcome = outcome.map_err(|e| format!("mutate: {e}"))?;
        tracer.spans[id].fields = mutation_fields(&outcome);
        // The session writes the new contents back for later `eval`s.
        let snapshot = inc.snapshot();
        if let Some((_, db)) = self.databases.get_mut(database) {
            *db = snapshot;
        }
        Ok(())
    }
}

fn exec_fields(outcome: &QueryOutcome) -> Vec<(&'static str, u64)> {
    let s = &outcome.stats;
    vec![
        ("rows", outcome.result.len() as u64),
        ("steps", s.steps),
        ("quantifier_values", s.quantifier_values),
        ("candidates_checked", s.candidates_checked),
        ("max_domain_seen", s.max_domain_seen),
        ("invention_levels", s.invention_levels),
        ("domain_cache_hits", s.domain_cache_hits),
        ("domain_cache_misses", s.domain_cache_misses),
        ("interned_values", s.interned_values),
        ("join_probes", s.join_probes),
        ("tuples_materialised", s.tuples_materialised),
        ("interrupt_polls", s.interrupt_polls),
    ]
}

fn mutation_fields(outcome: &MutationOutcome) -> Vec<(&'static str, u64)> {
    let refreshed = &outcome.refreshed;
    let delta = refreshed
        .iter()
        .filter(|r| {
            matches!(
                r.path,
                RefreshPath::DeltaSeminaive | RefreshPath::DeltaRules
            )
        })
        .count();
    let run = refreshed
        .iter()
        .filter(|r| r.path != RefreshPath::SkippedUnchangedSupport)
        .count();
    vec![
        ("refresh_us", refreshed.iter().map(|r| r.wall_micros).sum()),
        ("delta_refreshes", delta as u64),
        ("refreshes_run", run as u64),
    ]
}

/// Sums over the spans of the measured (non-set-up) statements.
#[derive(Default)]
pub struct LayerTotals {
    pub statements: u64,
    pub run_us: f64,
    pub parse_us: f64,
    pub session_self_us: f64,
    pub prepare_us: f64,
    pub exec_us: BTreeMap<&'static str, f64>,
    pub mutation_us: f64,
    pub fields: BTreeMap<(&'static str, &'static str), u64>,
    pub max_domain_seen: u64,
    /// Per statement kind: (count, run_statement µs, execute µs).
    pub kinds: BTreeMap<&'static str, (u64, f64, f64)>,
}

impl LayerTotals {
    pub fn from(tracer: &Tracer) -> LayerTotals {
        let own = tracer.self_micros();
        let mut t = LayerTotals::default();
        for (id, span) in tracer.spans.iter().enumerate() {
            if span.kind == "setup" {
                continue;
            }
            let us = span.micros();
            match span.name {
                "statement" => {
                    t.statements += 1;
                    t.kinds.entry(span.kind).or_default().0 += 1;
                }
                "surface.run_statement" => {
                    t.run_us += us;
                    t.session_self_us += own[id];
                    t.kinds.entry(span.kind).or_default().1 += us;
                }
                "surface.parse_stmt" => t.parse_us += us,
                "core.prepare" | "core.prepare_algebra" => t.prepare_us += us,
                "core.incremental.insert" | "core.incremental.delete" => t.mutation_us += us,
                name if name.starts_with("core.execute.") => {
                    *t.exec_us.entry(name).or_default() += us;
                    t.kinds.entry(span.kind).or_default().2 += us;
                    t.max_domain_seen = t.max_domain_seen.max(span.field("max_domain_seen"));
                }
                _ => {}
            }
            for (k, v) in &span.fields {
                *t.fields.entry((span.name, k)).or_default() += v;
            }
        }
        t
    }

    /// A counter summed over every span of the given names.
    pub fn sum(&self, spans: &[&'static str], field: &str) -> u64 {
        self.fields
            .iter()
            .filter(|((s, f), _)| spans.contains(s) && *f == field)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn per_stmt(&self, total: f64) -> f64 {
        total / self.statements.max(1) as f64
    }
}

pub const EXECUTE_SPANS: [&str; 3] = [
    "core.execute.compiled",
    "core.execute.planned",
    "core.execute.invention",
];
pub const PREPARE_SPANS: [&str; 2] = ["core.prepare", "core.prepare_algebra"];
pub const MUTATION_SPANS: [&str; 2] = ["core.incremental.insert", "core.incremental.delete"];

/// Ratio with an empty denominator reported as 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

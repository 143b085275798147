//! The three workloads: seeded statement text plus, for every statement, the
//! output the oracle in `gen` says the program must print.
//!
//! * `calc-relational` — CALC_{0,0} `eval`s (grandparent, sibling,
//!   leaf-parents) over chain/tree/forest `PAR` instances of 8–11 atoms.
//! * `calc-intermediate` — queries whose variables range over set-height-1
//!   types: transitive closure (Example 3.1), even cardinality (Example 3.2),
//!   perfect square (the Example 3.7 analogue), and grandparent under finite
//!   and terminal invention (Section 6).
//! * `serve-mix` — planned-algebra joins on ~2k-tuple relations, small
//!   compiled `eval`s whose declarations hit the shared plan cache,
//!   insert/delete pairs under a watched view, and never-seen declarations.
//!
//! In-process workloads cycle through every (query, database) pair once per
//! round, in a fresh seeded order each round, so every run sees the same mix.

use crate::gen::{atom_rows, names, pair_rows, sorted, Graph};
use crate::rng::Rng;
use itq_object::{Atom, Database, Instance};
use std::sync::Arc;

pub const WORKLOADS: [&str; 3] = ["calc-relational", "calc-intermediate", "serve-mix"];

/// Under default engine settings an invention semantics explores the levels
/// `n = 0..=4` (at most four invented atoms), so a query that never surfaces
/// an invented value is reported undefined after five levels.
const INVENTION_LEVELS_TRIED: usize = 5;

const GRANDPARENT: &str = "{t/[U, U] | exists x/[U, U] exists y/[U, U] \
    (PAR(x) and PAR(y) and x.2 == y.1 and t.1 == x.1 and t.2 == y.2)}";
const SIBLING: &str = "{t/[U, U] | exists x/[U, U] exists y/[U, U] \
    (PAR(x) and PAR(y) and x.1 == y.1 and not x.2 == y.2 and t.1 == x.2 and t.2 == y.2)}";
const LEAF_PARENTS: &str = "{t/U | exists x/[U, U] \
    (PAR(x) and t == x.1 and not exists y/[U, U] (PAR(y) and y.1 == x.2))}";

/// What one statement must print.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Lines that must come first, in order.  A watched view's refresh line
    /// is compared up to its ` via …` path, which is the engine's choice.
    pub head: Vec<String>,
    /// Answer lines, sorted; compared as a set because answer order is the
    /// engine's.  Not printed by a quiet session.  Shared, because a
    /// prototype request is cloned every time the loop sends it.
    pub rows: Arc<Vec<String>>,
    /// Set-up statements only: some line must start with `head[0]`.
    pub loose: bool,
}

impl Expect {
    fn line(prefix: impl Into<String>) -> Expect {
        Expect {
            head: vec![prefix.into()],
            rows: Arc::default(),
            loose: true,
        }
    }

    fn exact(head: Vec<String>, rows: Vec<String>) -> Expect {
        Expect {
            head,
            rows: Arc::new(rows),
            loose: false,
        }
    }

    /// How many lines this statement prints.
    pub fn line_count(&self, quiet: bool) -> usize {
        self.head.len() + if quiet { 0 } else { self.rows.len() }
    }

    pub fn check(&self, lines: &[String], quiet: bool) -> Result<(), String> {
        if let Some(e) = lines.iter().find(|l| l.starts_with("error")) {
            return Err(e.clone());
        }
        if self.loose {
            return match lines.iter().any(|l| l.starts_with(&self.head[0])) {
                true => Ok(()),
                false => Err(format!("expected `{}`, got {lines:?}", self.head[0])),
            };
        }
        if lines.len() != self.line_count(quiet) {
            return Err(format!(
                "expected {:?} + {} rows, got {lines:?}",
                self.head,
                self.rows.len()
            ));
        }
        for (got, want) in lines.iter().zip(&self.head) {
            let got = match got.starts_with("  watch ") {
                true => got.split(" via ").next().unwrap_or(got),
                false => got.as_str(),
            };
            if got != want {
                return Err(format!("expected `{want}`, got `{got}`"));
            }
        }
        if !quiet && sorted(lines[self.head.len()..].iter().cloned()) != *self.rows {
            return Err(format!("answer rows differ from {:?}", self.rows));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub text: String,
    pub expect: Expect,
}

/// One closed-loop step: a single statement in process, or one request line
/// (a declaration plus its `eval`, say) over the wire.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: &'static str,
    /// Requests of one group cost the same up to the machine's noise: one
    /// statement text in process; over the wire, a kind whose texts differ
    /// only in names, constants or the inserted edge.
    pub group: Arc<str>,
    pub stmts: Vec<Stmt>,
}

impl Request {
    fn one(kind: &'static str, text: String, expect: Expect) -> Request {
        Request {
            kind,
            group: Arc::from(text.as_str()),
            stmts: vec![Stmt { text, expect }],
        }
    }

    /// The request as one wire line: the server answers each newline-ended
    /// batch with one `.`-terminated response.
    pub fn line(&self) -> String {
        let texts: Vec<&str> = self.stmts.iter().map(|s| s.text.as_str()).collect();
        texts.join(" ")
    }
}

pub struct Workload {
    /// Declarations every session runs before the first timed statement.
    pub setup: Vec<Stmt>,
    /// One request stream per session (per client for `serve-mix`).
    pub streams: Vec<Stream>,
}

#[derive(Debug, Clone)]
pub enum Stream {
    Rounds(Rounds),
    Serve(ServeMix),
}

impl Iterator for Stream {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        match self {
            Stream::Rounds(r) => r.next(),
            Stream::Serve(s) => s.next(),
        }
    }
}

/// Every prototype once per round, each round in a fresh seeded order.
#[derive(Debug, Clone)]
pub struct Rounds {
    protos: Vec<Request>,
    order: Vec<usize>,
    pos: usize,
    rng: Rng,
}

impl Rounds {
    fn new(protos: Vec<Request>, rng: Rng) -> Rounds {
        Rounds {
            order: (0..protos.len()).collect(),
            pos: protos.len(),
            protos,
            rng,
        }
    }
}

impl Iterator for Rounds {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.protos[self.order[self.pos - 1]].clone())
    }
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "calc-relational" => Some(calc_relational(seed)),
        "calc-intermediate" => Some(calc_intermediate(seed)),
        // One client.  The benchmark and the server it starts run on one
        // vCPU (see `calib::pin_to_one_cpu`), where the client and the
        // server's connection thread take turns.  With two clients the two
        // connection threads would share that vCPU and measure its run queue;
        // unpinned, two clients put up to four runnable threads on two vCPUs,
        // and under a busy host 10-seed sets spread 17–28% in throughput.
        "serve-mix" => Some(serve_mix(seed, 1)),
        _ => None,
    }
}

fn plural(n: usize, word: &str) -> String {
    format!("{n} {word}{}", if n == 1 { "" } else { "s" })
}

fn eval_header(name: &str, db: &str, semantics: &str, n: usize) -> String {
    format!(
        "eval {name} on {db} with {semantics}: {}",
        plural(n, "object")
    )
}

fn database(
    setup: &mut Vec<Stmt>,
    name: &str,
    schema: &str,
    pred: &str,
    literal: String,
    atoms: usize,
) {
    setup.push(Stmt {
        text: format!("database {name} : {schema} {{{pred} = {literal}}};"),
        expect: Expect::line(format!(
            "database {name} : {schema} (1 relation, {atoms} atoms in adom)"
        )),
    });
}

fn query(setup: &mut Vec<Stmt>, name: &str, schema: &str, body: &str, target: &str) {
    setup.push(Stmt {
        text: format!("query {name} : {schema} {body};"),
        expect: Expect::line(format!("query {name} : {schema} → {target}")),
    });
    // Preparing is part of set-up: `typecheck` prepares without executing.
    setup.push(Stmt {
        text: format!("typecheck {name};"),
        expect: Expect::line(format!("{name} : {schema} → {target} ✓")),
    });
}

fn schema(setup: &mut Vec<Stmt>, name: &str, decl: &str) {
    setup.push(Stmt {
        text: format!("schema {name} {{{decl}}};"),
        expect: Expect::line(format!("schema {name} = {{{decl}}}")),
    });
}

/// Per (size, shape): differently ordered copies, so each run averages over
/// where the program's searches happen to stop early.
const ORDERINGS: usize = 3;

fn calc_relational(seed: u64) -> Workload {
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let mut setup = Vec::new();
    schema(&mut setup, "Gen", "PAR : [U, U]");
    let mut protos = Vec::new();
    let mut dbs = Vec::new();
    for size in [8, 9, 10, 11] {
        for shape in ["chain", "tree", "forest"] {
            for copy in 0..ORDERINGS {
                let db = format!("{shape}{size}v{copy}");
                let nodes = names(&mut rng, &format!("{db}n"), size);
                let graph = match shape {
                    "chain" => Graph::chain(&nodes),
                    "tree" => Graph::heap(&nodes, 2),
                    _ => Graph::forest(&nodes, 2, 2),
                }
                .shuffled(&mut rng);
                database(&mut setup, &db, "Gen", "PAR", graph.literal(), size);
                dbs.push((db, graph));
            }
        }
    }
    query(&mut setup, "gp", "Gen", GRANDPARENT, "[U, U]");
    query(&mut setup, "sib", "Gen", SIBLING, "[U, U]");
    query(&mut setup, "lp", "Gen", LEAF_PARENTS, "U");
    for (i, (db, graph)) in dbs.iter().enumerate() {
        let mut answers = vec![
            ("gp", pair_rows(&graph.grandparents())),
            ("sib", pair_rows(&graph.siblings())),
        ];
        // Leaf-parents costs a fraction of a millisecond.  Asking it of half
        // the databases makes it a fifth of the mix, which puts the median in
        // the middle of the 9-atom class and the 90th percentile in the
        // middle of the 11-atom class, away from the steps between classes.
        if i % 2 == 0 {
            answers.push(("lp", atom_rows(&graph.leaf_parents())));
        }
        for (q, rows) in answers {
            let header = eval_header(q, db, "limited", rows.len());
            let text = format!("eval {q} on {db};");
            protos.push(Request::one(q, text, Expect::exact(vec![header], rows)));
        }
    }
    Workload {
        setup,
        streams: vec![Stream::Rounds(Rounds::new(protos, root.fork(2)))],
    }
}

fn calc_intermediate(seed: u64) -> Workload {
    use itq_core::queries;
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let mut setup = Vec::new();
    schema(&mut setup, "Gen", "PAR : [U, U]");
    schema(&mut setup, "People", "PERSON : U");
    schema(&mut setup, "Unary", "R : U");

    // Two-edge instances over three atoms: the closure query quantifies over
    // all 2^9 binary relations on them (a third edge makes it 2^16).  Each
    // shape comes in both tuple orders, which are all the orders in which
    // its atoms can first appear, so every seed runs the same searches.
    let mut graphs = Vec::new();
    for shape in ["chain", "fork", "join"] {
        for order in 0..2 {
            let db = format!("t{shape}{order}");
            let n = names(&mut rng, &format!("{db}n"), 3);
            let mut edges = match shape {
                "chain" => vec![(0, 1), (1, 2)],
                "fork" => vec![(0, 1), (0, 2)],
                _ => vec![(0, 2), (1, 2)],
            };
            if order == 1 {
                edges.reverse();
            }
            let graph = Graph {
                edges: edges
                    .into_iter()
                    .map(|(a, b)| (n[a].clone(), n[b].clone()))
                    .collect(),
            };
            database(&mut setup, &db, "Gen", "PAR", graph.literal(), 3);
            graphs.push((db, graph));
        }
    }
    let mut people = Vec::new();
    for size in [3, 4] {
        let db = format!("people{size}");
        let persons = names(&mut rng, &format!("{db}n"), size);
        let literal = format!("{{{}}}", persons.join(", "));
        database(&mut setup, &db, "People", "PERSON", literal, size);
        people.push((db, persons));
    }
    let mut unary = Vec::new();
    for size in [1, 2] {
        let db = format!("unary{size}");
        let elems = names(&mut rng, &format!("{db}n"), size);
        let literal = format!("{{{}}}", elems.join(", "));
        database(&mut setup, &db, "Unary", "R", literal, size);
        unary.push((db, elems));
    }
    let tc = queries::transitive_closure_query().to_string();
    let even = queries::even_cardinality_query().to_string();
    let square = queries::perfect_square_query().to_string();
    query(&mut setup, "tc", "Gen", &tc, "[U, U]");
    query(&mut setup, "even", "People", &even, "U");
    query(&mut setup, "psq", "Unary", &square, "U");
    query(&mut setup, "gp", "Gen", GRANDPARENT, "[U, U]");

    let mut protos = Vec::new();
    for (db, graph) in &graphs {
        let rows = pair_rows(&graph.closure());
        let header = eval_header("tc", db, "limited", rows.len());
        protos.push(Request::one(
            "tc",
            format!("eval tc on {db};"),
            Expect::exact(vec![header], rows),
        ));
        // Grandparent is domain independent: finite invention returns the
        // limited answer, and no level ever surfaces an invented value.
        let rows = pair_rows(&graph.grandparents());
        let header = eval_header("gp", db, "finite-invention", rows.len());
        let text = format!("eval gp on {db} with finite-invention;");
        protos.push(Request::one(
            "gp-fi",
            text,
            Expect::exact(vec![header], rows),
        ));
        let header = format!(
            "eval gp on {db} with terminal-invention: undefined within bound \
             (tried {INVENTION_LEVELS_TRIED} invention levels)"
        );
        let text = format!("eval gp on {db} with terminal-invention;");
        protos.push(Request::one(
            "gp-ti",
            text,
            Expect::exact(vec![header], Vec::new()),
        ));
    }
    // The parity and perfect-square statements cost the same under any
    // naming; repeat them so they are not swamped by the graph statements.
    for _ in 0..graphs.len() {
        for (db, persons) in &people {
            let atoms = (0..persons.len() as u32).map(Atom);
            let even =
                queries::parity_reference(&Database::single("PERSON", Instance::from_atoms(atoms)));
            let rows = if even { atom_rows(persons) } else { Vec::new() };
            let header = eval_header("even", db, "limited", rows.len());
            protos.push(Request::one(
                "even",
                format!("eval even on {db};"),
                Expect::exact(vec![header], rows),
            ));
        }
        for (db, elems) in &unary {
            let square = queries::perfect_square_reference(elems.len());
            let rows = if square { atom_rows(elems) } else { Vec::new() };
            let header = eval_header("psq", db, "limited", rows.len());
            protos.push(Request::one(
                "psq",
                format!("eval psq on {db};"),
                Expect::exact(vec![header], rows),
            ));
        }
    }
    Workload {
        setup,
        streams: vec![Stream::Rounds(Rounds::new(protos, root.fork(2)))],
    }
}

/// Inputs shared by every `serve-mix` client stream.
#[derive(Debug)]
struct MixData {
    joins: Vec<Request>,
    cached: Vec<Request>,
    tiny: Graph,
    watched: Graph,
}

/// Never-seen declarations per client and server.  Each one adds a prepared
/// plan (with its snapshot of the session's ~2k-atom table, some 300 KB) to
/// the server's unbounded plan cache; past this many the client re-declares
/// its earlier texts, so the server's memory stops growing at a size that
/// does not depend on how fast a run goes.  Clients reach it in about two
/// seconds, well within a server's segment of a run.
pub const FRESH_PER_CLIENT: usize = 100;

/// One client's request stream: 30% planned joins, 30% declarations the
/// plan cache has seen, 20% insert/delete pairs on a watched database, 20%
/// never-seen declarations (re-declarations once `FRESH_PER_CLIENT` is
/// reached).
#[derive(Debug, Clone)]
pub struct ServeMix {
    data: Arc<MixData>,
    rng: Rng,
    client: usize,
    version: u64,
    pending: Option<(String, String)>,
    fresh: Vec<Request>,
    repeats: usize,
}

fn serve_mix(seed: u64, clients: usize) -> Workload {
    let root = Rng::new(seed);
    let mut rng = root.fork(1);
    let mut setup = Vec::new();
    schema(&mut setup, "Gen", "PAR : [U, U]");
    // The forest reuses the chain's atoms in another order: every prepared
    // plan snapshots the session's atom table, so its size sets how much
    // each never-seen declaration costs the server.
    let mut chain_nodes = names(&mut rng, "c", 2001);
    let big = Graph::chain(&chain_nodes).shuffled(&mut rng);
    rng.shuffle(&mut chain_nodes);
    let forest = Graph::forest(&chain_nodes[..2000], 20, 3).shuffled(&mut rng);
    // Small enough that a brute-force compiled `eval` takes well under a
    // millisecond: its cost grows with the fourth power of the atom count.
    let tiny = Graph::heap(&names(&mut rng, "s", 5), 2).shuffled(&mut rng);
    let watched = Graph::heap(&names(&mut rng, "w", 6), 2).shuffled(&mut rng);
    database(&mut setup, "big", "Gen", "PAR", big.literal(), 2001);
    database(&mut setup, "forest", "Gen", "PAR", forest.literal(), 2000);
    database(&mut setup, "tiny", "Gen", "PAR", tiny.literal(), 5);
    database(&mut setup, "w", "Gen", "PAR", watched.literal(), 6);
    for (name, expr) in [
        ("gpa", "pi_{1,4}(sigma_{$2 = $3}(PAR * PAR))"),
        (
            "siba",
            "pi_{2,4}(sigma_{$1 = $3 and not $2 = $4}(PAR * PAR))",
        ),
    ] {
        setup.push(Stmt {
            text: format!("algebra {name} : Gen {expr};"),
            expect: Expect::line(format!("algebra {name} : Gen → [U, U]")),
        });
        // `plan` prepares the algebra handle without executing it.
        setup.push(Stmt {
            text: format!("plan {name};"),
            expect: Expect::line(format!("plan {name}: ")),
        });
    }
    setup.push(Stmt {
        text: format!("query wv : Gen {GRANDPARENT};"),
        expect: Expect::line("query wv : Gen → [U, U]"),
    });
    setup.push(Stmt {
        text: "watch wv on w;".to_string(),
        expect: Expect::line(format!(
            "watch wv on w with limited: {}",
            plural(watched.grandparents().len(), "answer")
        )),
    });

    let joins = vec![
        Request::one(
            "join",
            "eval gpa on big;".to_string(),
            Expect::exact(
                vec![format!(
                    "eval gpa on big: {}",
                    plural(big.grandparents().len(), "object")
                )],
                pair_rows(&big.grandparents()),
            ),
        ),
        Request::one(
            "join",
            "eval siba on forest;".to_string(),
            Expect::exact(
                vec![format!(
                    "eval siba on forest: {}",
                    plural(forest.siblings().len(), "object")
                )],
                pair_rows(&forest.siblings()),
            ),
        ),
    ];
    let cached = [
        (GRANDPARENT, "[U, U]", pair_rows(&tiny.grandparents())),
        (SIBLING, "[U, U]", pair_rows(&tiny.siblings())),
        (LEAF_PARENTS, "U", atom_rows(&tiny.leaf_parents())),
    ]
    .into_iter()
    .map(|(body, target, rows)| declare_and_eval("cached", body, "qs", body, target, rows))
    .collect();
    let data = Arc::new(MixData {
        joins,
        cached,
        tiny,
        watched,
    });
    let streams = (0..clients)
        .map(|client| {
            Stream::Serve(ServeMix {
                data: Arc::clone(&data),
                rng: root.fork(100 + client as u64),
                client,
                version: 1,
                pending: None,
                fresh: Vec::new(),
                repeats: 0,
            })
        })
        .collect();
    Workload { setup, streams }
}

fn declare_and_eval(
    kind: &'static str,
    group: &str,
    name: &str,
    body: &str,
    target: &str,
    rows: Vec<String>,
) -> Request {
    Request {
        kind,
        group: Arc::from(group),
        stmts: vec![
            Stmt {
                text: format!("query {name} : Gen {body};"),
                expect: Expect::exact(
                    vec![format!("query {name} : Gen → {target} (2 quantifiers)")],
                    Vec::new(),
                ),
            },
            Stmt {
                text: format!("eval {name} on tiny;"),
                expect: Expect::exact(vec![eval_header(name, "tiny", "limited", rows.len())], rows),
            },
        ],
    }
}

impl ServeMix {
    fn mutation(&mut self) -> Request {
        self.version += 1;
        let (verb, count, edge, graph) = match self.pending.take() {
            None => {
                let atoms: Vec<String> = self.data.watched.atoms().into_iter().collect();
                let (a, b) = loop {
                    let a = &atoms[self.rng.below(atoms.len())];
                    let b = &atoms[self.rng.below(atoms.len())];
                    if a != b && !self.data.watched.contains(a, b) {
                        break (a.clone(), b.clone());
                    }
                };
                let mut grown = self.data.watched.clone();
                grown.edges.push((a.clone(), b.clone()));
                self.pending = Some((a.clone(), b.clone()));
                ("insert into", "1 added", (a, b), grown)
            }
            Some(edge) => ("delete from", "1 removed", edge, self.data.watched.clone()),
        };
        let answers = plural(graph.grandparents().len(), "answer");
        let head = vec![
            format!("{verb} w.PAR: {count} (version {})", self.version),
            format!("  watch wv: {answers}"),
        ];
        let text = format!("{verb} w.PAR {{{}}};", crate::gen::pair(&edge.0, &edge.1));
        let mut req = Request::one("mutation", text, Expect::exact(head, Vec::new()));
        req.group = Arc::from(verb);
        req
    }

    /// A grandparent variant no session has declared before: fresh variable
    /// names make the text new, a seeded constant filter varies the answer.
    fn fresh(&mut self) -> Request {
        if self.fresh.len() == FRESH_PER_CLIENT {
            self.repeats += 1;
            let mut again = self.fresh[self.repeats % FRESH_PER_CLIENT].clone();
            again.kind = "redeclare";
            again.group = Arc::from("redeclare");
            return again;
        }
        let k = self.fresh.len() + 1;
        let (x, y) = (
            format!("x{}n{k}", self.client),
            format!("y{}n{k}", self.client),
        );
        let atoms: Vec<String> = self.data.tiny.atoms().into_iter().collect();
        let skip = &atoms[self.rng.below(atoms.len())];
        let body = format!(
            "{{t/[U, U] | exists {x}/[U, U] exists {y}/[U, U] (PAR({x}) and PAR({y}) and \
             {x}.2 == {y}.1 and t.1 == {x}.1 and t.2 == {y}.2 and not t.1 == '{skip}')}}"
        );
        let mut answer = self.data.tiny.grandparents();
        answer.retain(|(a, _)| a != skip);
        let req = declare_and_eval("fresh", "fresh", "fq", &body, "[U, U]", pair_rows(&answer));
        self.fresh.push(req.clone());
        req
    }
}

impl Iterator for ServeMix {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        let roll = self.rng.below(100);
        Some(match roll {
            0..=29 => self.data.joins[self.rng.below(self.data.joins.len())].clone(),
            30..=59 => self.data.cached[self.rng.below(self.data.cached.len())].clone(),
            60..=79 => self.mutation(),
            _ => self.fresh(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements() {
        for name in WORKLOADS {
            let a = build(name, 3).unwrap();
            let b = build(name, 3).unwrap();
            let take = |w: Workload| -> Vec<String> {
                w.streams
                    .into_iter()
                    .flat_map(|s| s.take(50).map(|r| r.line()))
                    .collect()
            };
            assert_eq!(take(a), take(b), "{name}");
        }
    }

    #[test]
    fn mutations_come_in_insert_delete_pairs() {
        let w = build("serve-mix", 5).unwrap();
        let muts: Vec<String> = w.streams[0]
            .clone()
            .take(400)
            .filter(|r| r.kind == "mutation")
            .map(|r| r.line())
            .collect();
        assert!(muts.len() > 20);
        for pair in muts.chunks(2).filter(|c| c.len() == 2) {
            assert!(pair[0].starts_with("insert into w.PAR"));
            assert_eq!(pair[1], pair[0].replacen("insert into", "delete from", 1));
        }
    }

    #[test]
    fn checks_compare_rows_as_sets_and_heads_exactly() {
        let e = Expect::exact(
            vec!["eval q on d with limited: 2 objects".into()],
            vec!["  a".into(), "  b".into()],
        );
        let lines = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(e
            .check(
                &lines(&["eval q on d with limited: 2 objects", "  b", "  a"]),
                false
            )
            .is_ok());
        assert!(e
            .check(&lines(&["eval q on d with limited: 2 objects"]), true)
            .is_ok());
        assert!(e
            .check(
                &lines(&["eval q on d with limited: 2 objects", "  a", "  c"]),
                false
            )
            .is_err());
        assert!(e.check(&lines(&["error: boom"]), true).is_err());
    }
}

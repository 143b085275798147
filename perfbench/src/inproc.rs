//! Driving `itq_surface::Session`s in process: set-up, the closed loop, and
//! the replay of a recorded request sequence, untraced or traced.

use crate::trace::{Mirror, SharedPlans, Tracer};
use crate::workload::{Request, Stmt, Stream};
use itq_core::engine::Engine;
use itq_surface::script::split_statements;
use itq_surface::session::SessionError;
use itq_surface::{PlanCache, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the sessions of a run are configured.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Answer lines suppressed, as `itq serve --quiet` does.
    pub quiet: bool,
    /// The governor deadline armed on every session's engine.
    pub deadline_ms: Option<u64>,
    /// Sessions share one `PlanCache`, as the connections of a server do.
    pub shared_plans: bool,
}

impl Config {
    /// Default engine settings, plus the deadline when one is armed.
    pub fn engine(&self) -> Engine {
        let mut builder = Engine::builder();
        if let Some(ms) = self.deadline_ms {
            builder = builder.deadline_millis(ms);
        }
        builder.build()
    }

    pub fn sessions(&self, n: usize) -> (Vec<Session>, Option<PlanCache>) {
        let cache = self.shared_plans.then(PlanCache::new);
        let sessions = (0..n)
            .map(|_| {
                let mut s = Session::with_engine(self.engine());
                s.set_quiet(self.quiet);
                if let Some(cache) = &cache {
                    s.set_shared_plans(cache.clone());
                }
                s
            })
            .collect();
        (sessions, cache)
    }
}

/// Checked statements: how many ran, how many errored or printed something
/// other than the oracle's answer, and the first few mismatches.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The output lines of a statement, split and run the way the REPL and the
/// server do; an error is rendered as `error: …`, as the server sends it.
pub fn run_stmt(session: &mut Session, text: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for (chunk, base) in split_statements(text) {
        match session.run_statement(&chunk, base) {
            Ok(out) => lines.extend(out.lines),
            Err(SessionError::Parse(e)) => lines.push(format!("error: {e}")),
            Err(e) => lines.push(e.to_string()),
        }
    }
    lines
}

/// The traced run's state: spans, one mirror per session, and the mirror of
/// the shared plan cache.
pub struct Traced {
    pub tracer: Tracer,
    pub mirrors: Vec<Mirror>,
    pub shared: Option<SharedPlans>,
}

impl Traced {
    pub fn new(config: &Config, sessions: usize) -> Traced {
        Traced {
            tracer: Tracer::new(),
            mirrors: (0..sessions)
                .map(|_| Mirror::new(config.engine()))
                .collect(),
            shared: config.shared_plans.then(SharedPlans::new),
        }
    }

    /// Run one statement through session `i`, then replay it layer by layer.
    fn run(
        &mut self,
        session: &mut Session,
        i: usize,
        kind: &'static str,
        stmt: &Stmt,
    ) -> Vec<String> {
        let root = self.tracer.open_statement(kind);
        let (mut lines, run) = self.tracer.time("surface.run_statement", root, || {
            run_stmt(session, &stmt.text)
        });
        let replayed =
            self.mirrors[i].replay(&stmt.text, self.shared.as_mut(), &mut self.tracer, run);
        self.tracer.close(root);
        match replayed {
            Err(e) => lines.push(format!("error: replay: {e}")),
            Ok(Some(n)) if n != stmt.expect.rows.len() => {
                lines.push(format!("error: replayed execute returned {n} objects"))
            }
            Ok(_) => {}
        }
        lines
    }
}

/// Run the set-up statements on session `i`; returns the time they took.
pub fn setup(
    session: &mut Session,
    i: usize,
    stmts: &[Stmt],
    quiet: bool,
    tally: &mut Tally,
    mut traced: Option<&mut Traced>,
) -> Duration {
    let start = Instant::now();
    let outputs: Vec<Vec<String>> = stmts
        .iter()
        .map(|s| match traced.as_deref_mut() {
            Some(t) => t.run(session, i, "setup", s),
            None => run_stmt(session, &s.text),
        })
        .collect();
    let took = start.elapsed();
    for (s, lines) in stmts.iter().zip(&outputs) {
        tally.record(&s.text, s.expect.check(lines, quiet));
    }
    took
}

/// Where a loop's requests come from.
pub enum Source<'a> {
    /// Fresh requests from each session's stream until the time is up; the
    /// flag keeps them for a later replay.
    Timed(&'a mut [Stream], Duration, bool),
    /// Exactly the requests an earlier pass ran, per session.
    Replay(&'a [Vec<Request>]),
}

/// One request's kind and group, latency, and when it completed.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: &'static str,
    pub group: Arc<str>,
    /// Latency as measured.
    pub micros: f64,
    /// Latency at the calibration kernel's reference speed (see `calib`);
    /// equal to `micros` until the sample is scaled.
    pub scaled: f64,
    /// Seconds from the start of the loop to the end of the request.
    pub at: f64,
    /// The calibration slice the request ran in.
    pub slice: usize,
}

impl Sample {
    pub fn new(req: &Request, sent: Instant, loop_start: Instant) -> Sample {
        let end = Instant::now();
        let micros = (end - sent).as_nanos() as f64 / 1e3;
        Sample {
            kind: req.kind,
            group: Arc::clone(&req.group),
            micros,
            scaled: micros,
            at: (end - loop_start).as_secs_f64(),
            slice: 0,
        }
    }

    /// The sample as part of slice `slice`, which started `offset` seconds
    /// into the run.
    pub fn in_slice(mut self, offset: f64, slice: usize) -> Sample {
        self.at += offset;
        self.slice = slice;
        self
    }
}

/// One closed-loop pass.
pub struct Pass {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// The requests each session ran, when kept for a later replay.
    pub ran: Vec<Vec<Request>>,
}

/// Zero-think-time loop over the sessions, taking turns one request each.
pub fn drive(
    sessions: &mut [Session],
    mut source: Source,
    quiet: bool,
    tally: &mut Tally,
    mut traced: Option<&mut Traced>,
) -> Pass {
    let mut ran: Vec<Vec<Request>> = vec![Vec::new(); sessions.len()];
    let record = matches!(source, Source::Timed(_, _, true));
    let mut samples = Vec::new();
    let start = Instant::now();
    'outer: for step in 0.. {
        let mut any = false;
        for (i, session) in sessions.iter_mut().enumerate() {
            let req = match &mut source {
                Source::Timed(streams, limit, _) => {
                    if start.elapsed() >= *limit {
                        break 'outer;
                    }
                    streams[i].next().expect("streams are endless")
                }
                Source::Replay(lists) => match lists[i].get(step) {
                    Some(r) => r.clone(),
                    None => continue,
                },
            };
            any = true;
            let t0 = Instant::now();
            let outputs: Vec<Vec<String>> = req
                .stmts
                .iter()
                .map(|s| match traced.as_deref_mut() {
                    Some(t) => t.run(session, i, req.kind, s),
                    None => run_stmt(session, &s.text),
                })
                .collect();
            samples.push(Sample::new(&req, t0, start));
            for (s, lines) in req.stmts.iter().zip(&outputs) {
                tally.record(req.kind, s.expect.check(lines, quiet));
            }
            if record {
                ran[i].push(req);
            }
        }
        if !any {
            break;
        }
    }
    Pass {
        samples,
        wall: start.elapsed(),
        ran,
    }
}

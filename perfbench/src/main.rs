//! `itq-perfbench` — the repository benchmark.
//!
//! Statement text goes in, answers come out, and every answer is checked
//! against the oracle in `gen`.  With `--trace 0` a run measures the
//! end-to-end metrics with nothing but the statement loop on the clock, and
//! scales its times to the host's reference speed (see `calib`); with
//! `--trace 1` it measures the same statements again with spans around each
//! layer call and reports the per-layer metrics.  The last line of standard
//! output is the result as one JSON object; everything else goes to standard
//! error and to `.bench_out/`.
//!
//! ```text
//! itq-perfbench --workload calc-relational|calc-intermediate|serve-mix \
//!     --seed N --seconds S --trace 0|1 [--itq PATH/TO/itq]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this binary and
//! the release `itq` first.

mod calib;
mod gen;
mod inproc;
mod rng;
mod serve;
mod stats;
mod trace;
mod workload;

use inproc::{Config, Pass, Sample, Source, Tally, Traced};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{ratio, LayerTotals, EXECUTE_SPANS, MUTATION_SPANS, PREPARE_SPANS};

/// Set-ups per run, spread over it; the median is reported.  In-process
/// set-up takes about a millisecond.  A serve-mix set-up (spawn, connect,
/// ~6k declared tuples per client) starts the server for one segment of the
/// run.
const INPROC_SETUPS: usize = 25;
const SERVE_SETUPS: usize = 8;
/// Armed on every serve-mix session and never reached: the slowest statement
/// of the mix takes a few milliseconds.
const DEADLINE_MS: u64 = 60_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    itq: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        itq: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => args.trace = value == "1",
            "--itq" => args.itq = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workload::WORKLOADS
        ));
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What a run measured, before it is printed.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
    setup: Tally,
    /// Infrastructure failures (server shutdown, a replay that diverged).
    problems: Vec<String>,
    /// Provenance and breakdown lines for standard error.
    notes: Vec<String>,
    spans: Option<String>,
    /// Every timed request: completion time, kind, group number, latency as
    /// measured and scaled to reference speed.
    samples: Option<String>,
}

fn main() -> ExitCode {
    // Default engine settings: no in-query worker override from outside.
    std::env::remove_var("ITQ_PARALLELISM");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Counted before pinning: the vCPUs of the machine, not of this process.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match calib::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let w = workload::build(&args.workload, args.seed).expect("validated workload name");
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-mix", false) => serve_untraced(&args, &w),
        ("serve-mix", true) => serve_traced(&args, &w),
        (_, false) => Ok(inproc_untraced(&args, &w)),
        (_, true) => Ok(inproc_traced(&args, &w)),
    };
    match result {
        Ok(mut outcome) => {
            outcome.notes.insert(0, format!("pinned to vCPU {cpu}"));
            print_result(&args, nproc, outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn secs(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

/// The end-to-end metrics, from set-up times (each with its calibration
/// slice) and latencies scaled to reference speed: a closed loop of
/// `clients` clients with zero think time completes `clients / mean latency`
/// statements per second.
fn end_to_end(
    out: &mut Outcome,
    setups: &[(usize, f64)],
    samples: &mut [Sample],
    clients: usize,
    wall: Duration,
    clock: &calib::Clock,
    rss_mb: f64,
) {
    let factors = clock.factors();
    for s in samples.iter_mut() {
        s.scaled = s.micros * factors[s.slice];
    }
    let samples = &*samples;
    let setup_s: Vec<f64> = setups.iter().map(|&(i, t)| t * factors[i]).collect();
    let raw_setup_s: Vec<f64> = setups.iter().map(|&(_, t)| t).collect();
    let setup_s = setup_s.as_slice();
    let scaled_ms: Vec<f64> = samples.iter().map(|s| s.scaled / 1e3).collect();
    let raw_ms: Vec<f64> = samples.iter().map(|s| s.micros / 1e3).collect();
    let sorted = stats::sorted(&scaled_ms);
    let mean_ms = scaled_ms.iter().sum::<f64>() / scaled_ms.len().max(1) as f64;
    out.metrics = vec![
        m("setup_s", "s", stats::median(setup_s)),
        m("stmts_per_s", "1/s", clients as f64 * 1e3 / mean_ms),
        m("latency_p50_ms", "ms", stats::quantile(&sorted, 0.5)),
        m("latency_p90_ms", "ms", stats::quantile(&sorted, 0.9)),
        m("peak_rss_mb", "MB", rss_mb),
    ];
    out.notes.push(format!(
        "calibration kernel us (reference {}): {}",
        calib::REFERENCE_US,
        stats::spread(clock.readings())
    ));
    out.notes.push(format!(
        "setup_s at reference speed: {}",
        stats::spread(setup_s)
    ));
    out.notes.push(format!(
        "setup_s as measured: {}",
        stats::spread(&raw_setup_s)
    ));
    out.notes.push(format!(
        "latency_ms at reference speed: {}",
        stats::spread(&scaled_ms)
    ));
    out.notes.push(format!(
        "latency_ms as measured: {}",
        stats::spread(&raw_ms)
    ));
    out.notes.push(format!(
        "as measured: {:.2} requests/s over {:.1} s of wall time",
        samples.len() as f64 / wall.as_secs_f64(),
        wall.as_secs_f64()
    ));
    let tail: Vec<String> = stats::reportable_percentiles(sorted.len())
        .into_iter()
        .map(|q| format!("p{}={:.4}", q * 100.0, stats::quantile(&sorted, q)))
        .collect();
    out.notes.push(format!(
        "latency_ms percentiles with >=10 samples beyond: {}",
        tail.join(" ")
    ));
    kinds_note(out, samples);
    let mut ids: std::collections::HashMap<&str, usize> = Default::default();
    let mut tsv = String::new();
    for s in samples {
        let n = ids.len();
        let id = *ids.entry(&s.group).or_insert(n);
        let _ = writeln!(
            tsv,
            "{:.6}\t{}\t{id}\t{:.1}\t{:.1}",
            s.at, s.kind, s.micros, s.scaled
        );
    }
    out.samples = Some(tsv);
    let mut per_second = vec![0u32; wall.as_secs_f64().ceil() as usize];
    let last = per_second.len() - 1;
    for s in samples {
        per_second[(s.at as usize).min(last)] += 1;
    }
    out.notes
        .push(format!("requests per 1 s window: {per_second:?}"));
}

/// Latency by statement kind.
fn kinds_note(out: &mut Outcome, samples: &[Sample]) {
    let mut kinds: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in samples {
        kinds.entry(s.kind).or_default().push(s.micros / 1e3);
    }
    for (k, v) in kinds {
        out.notes
            .push(format!("  kind {k:<10} latency_ms {}", stats::spread(&v)));
    }
}

fn inproc_config() -> Config {
    Config {
        quiet: false,
        deadline_ms: None,
        shared_plans: false,
    }
}

fn inproc_untraced(args: &Args, w: &workload::Workload) -> Outcome {
    let config = inproc_config();
    let mut out = Outcome::default();
    let mut streams = w.streams.clone();
    let mut clock = calib::Clock::start();
    let (mut setup_s, mut samples) = (Vec::new(), Vec::new());
    let total = secs(args, 1.0);
    // Set-ups are spread over the run, each one starting a fresh session
    // that the loop then uses, so they meet the host at all its speeds.
    let setup_every = total / INPROC_SETUPS as u32;
    let mut sessions = Vec::new();
    let start = Instant::now();
    while start.elapsed() < total {
        let offset = start.elapsed();
        let mut took = None;
        if setup_s.len() < INPROC_SETUPS && offset >= setup_every * setup_s.len() as u32 {
            let (mut fresh, _) = config.sessions(1);
            let s = &mut fresh[0];
            took = Some(inproc::setup(
                s,
                0,
                &w.setup,
                config.quiet,
                &mut out.setup,
                None,
            ));
            sessions = fresh;
        }
        let left = total.saturating_sub(start.elapsed()).min(calib::SLICE);
        let source = Source::Timed(&mut streams, left, false);
        let pass = inproc::drive(&mut sessions, source, config.quiet, &mut out.tally, None);
        let slice = clock.lap();
        if let Some(took) = took {
            setup_s.push((slice, took.as_secs_f64()));
        }
        let offset = offset.as_secs_f64();
        samples.extend(pass.samples.into_iter().map(|s| s.in_slice(offset, slice)));
    }
    let wall = start.elapsed();
    let rss = stats::peak_rss_mb("self").unwrap_or_else(|e| {
        out.problems.push(e);
        0.0
    });
    end_to_end(&mut out, &setup_s, &mut samples, 1, wall, &clock, rss);
    out
}

/// Run `ran` through fresh sessions (spans recorded when `traced` is given);
/// returns the pass and the sessions' shared plan cache.
fn replay(
    config: &Config,
    w: &workload::Workload,
    ran: &[Vec<workload::Request>],
    out: &mut Outcome,
    mut traced: Option<&mut Traced>,
) -> (Pass, Option<itq_surface::PlanCache>) {
    let (mut sessions, cache) = config.sessions(ran.len());
    for (i, s) in sessions.iter_mut().enumerate() {
        let t = traced.as_deref_mut();
        inproc::setup(s, i, &w.setup, config.quiet, &mut out.setup, t);
    }
    let source = Source::Replay(ran);
    let pass = inproc::drive(&mut sessions, source, config.quiet, &mut out.tally, traced);
    (pass, cache)
}

/// The per-layer metrics of the requests in `ran`: replayed once untraced,
/// then once more with spans.  `wire_us` is the summed client round trip of
/// the same requests when they went over the wire first.
fn layers(
    config: &Config,
    w: &workload::Workload,
    ran: &[Vec<workload::Request>],
    wire_us: Option<f64>,
    out: &mut Outcome,
) {
    let (plain, _) = replay(config, w, ran, out, None);
    let mut traced = Traced::new(config, ran.len());
    let (spanned, cache) = replay(config, w, ran, out, Some(&mut traced));
    let overhead = (spanned.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0;
    let local_us: f64 = plain.samples.iter().map(|s| s.micros).sum();
    let n = plain.samples.len().max(1) as f64;
    let transport = wire_us.map_or(0.0, |wire_us| {
        out.notes.push(format!(
            "per request: {:.1} us over the wire, {:.1} us in process ({n} requests)",
            wire_us / n,
            local_us / n
        ));
        (wire_us - local_us) / n
    });
    layer_metrics(out, &traced, transport, cache.as_ref(), overhead);
    kinds_note(out, &plain.samples);
}

fn inproc_traced(args: &Args, w: &workload::Workload) -> Outcome {
    let config = inproc_config();
    let mut out = Outcome::default();
    // Pick the statements with a timed untraced pass, then measure them.
    let (mut sessions, _) = config.sessions(1);
    let s = &mut sessions[0];
    inproc::setup(s, 0, &w.setup, config.quiet, &mut out.setup, None);
    let mut streams = w.streams.clone();
    let source = Source::Timed(&mut streams, secs(args, 0.25), true);
    let chosen = inproc::drive(&mut sessions, source, config.quiet, &mut out.tally, None);
    drop(sessions);
    layers(&config, w, &chosen.ran, None, &mut out);
    out
}

/// Start `itq serve`, connect the clients, and declare the set-up.
fn start_server(
    args: &Args,
    w: &workload::Workload,
    out: &mut Outcome,
) -> Result<(serve::Server, Vec<serve::Conn>), String> {
    let itq = args.itq.as_deref().ok_or("serve-mix needs --itq PATH")?;
    let server = serve::Server::spawn(itq, DEADLINE_MS)?;
    let mut conns = w
        .streams
        .iter()
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    for c in &mut conns {
        serve::setup(c, &w.setup, &mut out.setup)?;
    }
    Ok((server, conns))
}

/// Close the clients and stop the server; an unclean stop fails the run.
fn stop_server(
    server: serve::Server,
    conns: Vec<serve::Conn>,
    out: &mut Outcome,
) -> Result<(), String> {
    for c in conns {
        c.quit()?;
    }
    if let Err(e) = server.shutdown() {
        out.problems.push(e);
    }
    Ok(())
}

fn serve_untraced(args: &Args, w: &workload::Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut clock = calib::Clock::start();
    let (mut setup_s, mut samples, mut rss) = (Vec::new(), Vec::new(), 0.0f64);
    let segment = secs(args, 1.0) / SERVE_SETUPS as u32;
    let start = Instant::now();
    // One server per segment of the run, so the set-ups are spread over it.
    for k in 1..=SERVE_SETUPS as u32 {
        let t0 = Instant::now();
        let (server, mut conns) = start_server(args, w, &mut out)?;
        let took = t0.elapsed().as_secs_f64();
        setup_s.push((clock.lap(), took));
        // Each server starts with an empty plan cache, so each gets the
        // streams from their start.
        let mut streams = w.streams.clone();
        while start.elapsed() < segment * k {
            let left = (segment * k)
                .saturating_sub(start.elapsed())
                .min(calib::SLICE);
            let offset = start.elapsed().as_secs_f64();
            let runs = run_clients(&mut conns, &mut streams, left, false)?;
            let slice = clock.lap();
            for run in runs {
                samples.extend(run.samples.into_iter().map(|s| s.in_slice(offset, slice)));
                merge(&mut out.tally, run.tally);
            }
        }
        // Read before SIGINT: the peak of a server still holding every plan.
        rss = rss.max(stats::peak_rss_mb(&server.pid())?);
        stop_server(server, conns, &mut out)?;
    }
    let wall = start.elapsed();
    let fresh = samples.iter().filter(|s| s.kind == "fresh").count();
    out.notes.push(format!(
        "server VmHWM {rss:.1} MB (highest of {SERVE_SETUPS} servers) after {fresh} never-seen \
         declarations (cap {} per server)",
        w.streams.len() * workload::FRESH_PER_CLIENT
    ));
    let clients = w.streams.len();
    end_to_end(&mut out, &setup_s, &mut samples, clients, wall, &clock, rss);
    Ok(out)
}

fn run_clients(
    conns: &mut [serve::Conn],
    streams: &mut [workload::Stream],
    limit: Duration,
    record: bool,
) -> Result<Vec<serve::ClientRun>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| s.spawn(move || serve::client(conn, stream, limit, record)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn merge(into: &mut Tally, from: Tally) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.errors.extend(from.errors);
}

fn serve_traced(args: &Args, w: &workload::Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Over the wire first: the client round trips of a recorded stream.
    let (server, mut conns) = start_server(args, w, &mut out)?;
    let mut streams = w.streams.clone();
    let runs = run_clients(&mut conns, &mut streams, secs(args, 0.15), true)?;
    stop_server(server, conns, &mut out)?;
    let mut wire_us = 0.0;
    let mut ran = Vec::new();
    for run in runs {
        wire_us += run.samples.iter().map(|s| s.micros).sum::<f64>();
        ran.push(run.ran);
        merge(&mut out.tally, run.tally);
    }
    // Then in process, as the server's sessions run them: quiet, governed,
    // sharing one plan cache.
    let config = Config {
        quiet: true,
        deadline_ms: Some(DEADLINE_MS),
        shared_plans: true,
    };
    layers(&config, w, &ran, Some(wire_us), &mut out);
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    traced: &Traced,
    transport_us: f64,
    cache: Option<&itq_surface::PlanCache>,
    overhead_pct: f64,
) {
    let t = LayerTotals::from(&traced.tracer);
    let per = |x: f64| t.per_stmt(x);
    let sum = |spans: &[&'static str], field: &str| t.sum(spans, field) as f64;
    let exec = |name: &str| t.exec_us.get(name).copied().unwrap_or(0.0);
    let phase = |f: &str| per(sum(&PREPARE_SPANS, f));
    let compiled = ["core.execute.compiled"];
    let planned = ["core.execute.planned"];
    let (hits, misses) = cache.map_or((0, 0), |c| (c.hits(), c.misses()));
    let dc_hits = t.sum(&EXECUTE_SPANS, "domain_cache_hits");
    let dc_misses = t.sum(&EXECUTE_SPANS, "domain_cache_misses");
    out.metrics = vec![
        m("surface.parse_us", "us", per(t.parse_us)),
        m("surface.session_self_us", "us", per(t.session_self_us)),
        m("serve.transport_us", "us", transport_us),
        m("prepare.total_us", "us", per(t.prepare_us)),
        m("prepare.typecheck_us", "us", phase("typecheck_us")),
        m("prepare.plan_us", "us", phase("plan_us")),
        m("prepare.classify_us", "us", phase("classify_us")),
        m("prepare.normalize_us", "us", phase("normalize_us")),
        m("prepare.compile_us", "us", phase("compile_us")),
        m("prepare.analyze_us", "us", phase("analyze_us")),
        m(
            "serve.plan_cache_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        m(
            "serve.plans_cached",
            "count",
            cache.map_or(0, |c| c.len()) as f64,
        ),
        m(
            "execute.compiled_us",
            "us",
            per(exec("core.execute.compiled")),
        ),
        m("calculus.steps", "count", per(sum(&EXECUTE_SPANS, "steps"))),
        m(
            "calculus.quantifier_values",
            "count",
            per(sum(&EXECUTE_SPANS, "quantifier_values")),
        ),
        m(
            "calculus.candidates_checked",
            "count",
            per(sum(&EXECUTE_SPANS, "candidates_checked")),
        ),
        m(
            "calculus.draws_per_answer_row",
            "ratio",
            ratio(
                t.sum(&compiled, "quantifier_values"),
                t.sum(&compiled, "rows"),
            ),
        ),
        m(
            "object.domain_cache_hit_ratio",
            "ratio",
            ratio(dc_hits, dc_hits + dc_misses),
        ),
        m(
            "object.interned_values",
            "count",
            per(sum(&EXECUTE_SPANS, "interned_values")),
        ),
        m("object.max_domain_seen", "count", t.max_domain_seen as f64),
        m(
            "execute.invention_us",
            "us",
            per(exec("core.execute.invention")),
        ),
        m(
            "invention.levels",
            "count",
            per(sum(&EXECUTE_SPANS, "invention_levels")),
        ),
        m(
            "execute.planned_us",
            "us",
            per(exec("core.execute.planned")),
        ),
        m(
            "algebra.join_probes",
            "count",
            per(sum(&EXECUTE_SPANS, "join_probes")),
        ),
        m(
            "algebra.tuples_materialised",
            "count",
            per(sum(&EXECUTE_SPANS, "tuples_materialised")),
        ),
        m(
            "algebra.probes_per_output_row",
            "ratio",
            ratio(t.sum(&planned, "join_probes"), t.sum(&planned, "rows")),
        ),
        m("incremental.mutation_us", "us", per(t.mutation_us)),
        m(
            "incremental.refresh_us",
            "us",
            per(sum(&MUTATION_SPANS, "refresh_us")),
        ),
        m(
            "incremental.delta_refresh_frac",
            "ratio",
            ratio(
                t.sum(&MUTATION_SPANS, "delta_refreshes"),
                t.sum(&MUTATION_SPANS, "refreshes_run"),
            ),
        ),
        m(
            "object.interrupt_polls",
            "count",
            per(sum(&EXECUTE_SPANS, "interrupt_polls")),
        ),
        m("trace.overhead_pct", "%", overhead_pct),
    ];
    out.notes.push(format!(
        "traced statements: {} (mean run_statement {:.1} us)",
        t.statements,
        per(t.run_us)
    ));
    for (kind, (n, run_us, exec_us)) in &t.kinds {
        let n = *n as f64;
        out.notes.push(format!(
            "  kind {kind:<10} n={n} run_statement {:.1} us, execute {:.1} us ({:.0}% of run_statement)",
            run_us / n,
            exec_us / n,
            100.0 * exec_us / run_us.max(f64::MIN_POSITIVE)
        ));
    }
    out.spans = Some(traced.tracer.to_json_lines());
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                x.value,
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_result(args: &Args, nproc: usize, out: Outcome) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("ITQ_PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let correct = out.tally.attempted > 0
        && out.tally.failed == 0
        && out.setup.failed == 0
        && out.problems.is_empty();
    let failed_frac = ratio(out.tally.failed, out.tally.attempted);
    let mode = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    let mut log = format!(
        "itq-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} commit={commit}\n",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        log,
        "statements: attempted {}, failed {} (failed_frac {failed_frac}); set-up statements {} with {} failed",
        out.tally.attempted, out.tally.failed, out.setup.attempted, out.setup.failed
    );
    for e in out
        .tally
        .errors
        .iter()
        .chain(&out.setup.errors)
        .chain(&out.problems)
    {
        let _ = writeln!(log, "FAILED: {e}");
    }
    for note in &out.notes {
        let _ = writeln!(log, "{note}");
    }
    let _ = writeln!(log, "{mode} metrics:");
    for x in &out.metrics {
        let _ = writeln!(
            log,
            "  {:<18} {:<32} {:>14.4} {}",
            args.workload, x.name, x.value, x.unit
        );
    }
    eprint!("{log}");

    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"commit\": {}, \"correct\": {correct}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}, \"log\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&commit),
        out.tally.attempted,
        out.tally.failed,
        metrics_json(&out.metrics),
        json_str(&log)
    );
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|_| std::fs::write(format!("{stem}.json"), record))
        .and_then(|_| match &out.spans {
            Some(spans) => std::fs::write(format!("{stem}.spans.jsonl"), spans),
            None => Ok(()),
        })
        .and_then(|_| match &out.samples {
            Some(tsv) => std::fs::write(format!("{stem}.samples.tsv"), tsv),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("note: could not write {stem}.*: {e}");
    }
    // A run that checked nothing reports one failed attempt.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted.max(1),
        out.tally.failed.max(u64::from(out.tally.attempted == 0)),
        metrics_json(&out.metrics)
    );
}

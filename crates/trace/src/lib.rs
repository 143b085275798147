#![forbid(unsafe_code)]

//! Structured tracing for the itq engine: timed [`Span`] trees with typed
//! counter payloads, the [`ExecStats`] counters every backend fills,
//! pluggable [`TraceSink`]s, and a session-wide [`MetricsRegistry`] of
//! monotonic counters.
//!
//! The design contract is *zero cost when off*: every instrumented layer
//! keeps its untraced execution path byte-for-byte unchanged and only builds
//! spans when its execute entry point is called with tracing on
//! (`Prepared::execute_traced`, `CompiledQuery::run`,
//! `PhysicalPlan::execute`, …).  A sink whose [`TraceSink::is_enabled`] returns `false` — the
//! [`NoopSink`] — short-circuits the traced entry points straight back onto
//! the untraced path, so attaching it costs one virtual call per execution.
//!
//! Spans are plain owned data (no thread-locals, no global registry): the
//! producer builds the tree bottom-up and hands the root to a sink.  This
//! keeps the engine's `&self` execution model intact — a span tree is just
//! another return value.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::Mutex;

/// One timed, named region of work with counter-valued fields and child
/// spans — the node type of a trace tree.
///
/// Fields are `(key, u64)` pairs in insertion order; keys within one span are
/// expected to be unique.  `wall_micros` is *inclusive* of children (the
/// usual `explain analyze` convention); counter fields are whatever the
/// producer says they are — the engine records *exclusive* (own-work) counts
/// so that [`Span::subtree_total`] reproduces whole-execution totals.
///
/// ```
/// use itq_trace::Span;
///
/// let mut probe = Span::new("algebra/scan PAR");
/// probe.push_field("rows_out", 4);
/// let mut join = Span::new("algebra/hash-join");
/// join.push_field("rows_out", 2);
/// join.push_field("join_probes", 4);
/// join.push_child(probe);
///
/// assert_eq!(join.field("join_probes"), Some(4));
/// assert_eq!(join.subtree_total("rows_out"), 6);
/// assert!(join.to_json().starts_with("{\"name\":\"algebra/hash-join\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// The span's name, conventionally `layer/operation`.
    pub name: String,
    /// Counter payloads in insertion order.
    pub fields: Vec<(String, u64)>,
    /// Wall-clock time spent in this span, children included.
    pub wall_micros: u64,
    /// Child spans in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A fresh span named `name` with no fields, no children, zero time.
    pub fn new(name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            ..Span::default()
        }
    }

    /// Append a counter field.
    pub fn push_field(&mut self, key: impl Into<String>, value: u64) {
        self.fields.push((key.into(), value));
    }

    /// Append a child span.
    pub fn push_child(&mut self, child: Span) {
        self.children.push(child);
    }

    /// Append the nonzero counters of `stats` in struct order.  The span
    /// keeps its own `wall_micros`, so the stats' wall clock is skipped; a
    /// counter that is absent reads as zero, as in [`Span::subtree_total`].
    ///
    /// ```
    /// use itq_trace::{ExecStats, Span};
    /// let mut span = Span::new("compiled-eval");
    /// span.push_field("rows_out", 1);
    /// span.push_counters(&ExecStats { steps: 9, candidates_checked: 3, wall_micros: 5, ..Default::default() });
    /// assert_eq!(span.to_string(), "compiled-eval  (rows_out 1, steps 9, candidates_checked 3, 0 µs)\n");
    /// ```
    pub fn push_counters(&mut self, stats: &ExecStats) {
        for (name, value) in stats.fields() {
            if value != 0 && name != "wall_micros" {
                self.push_field(name, value);
            }
        }
    }

    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The sum of field `key` over this span and all descendants — with
    /// exclusive per-span counters this is the whole-subtree total.
    pub fn subtree_total(&self, key: &str) -> u64 {
        self.field(key).unwrap_or(0)
            + self
                .children
                .iter()
                .map(|c| c.subtree_total(key))
                .sum::<u64>()
    }

    /// The number of spans in the tree rooted here (self included).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Whether the tree is a single childless span.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The span serialized as one JSON object:
    /// `{"name":…,"wall_micros":…,<fields…>,"children":[…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str("\",\"wall_micros\":");
        out.push_str(&self.wall_micros.to_string());
        for (key, value) in &self.fields {
            out.push_str(",\"");
            out.push_str(&json_escape(key));
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str(",\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }
}

/// The counters and timing of one execution, shared by every backend: the
/// compiled and tree-walk evaluators, the planner, the invention sweeps and
/// the prepared pipeline all fill this one block, which serializes (see
/// [`ExecStats::to_json`]) so benchmark trajectories can be recorded across
/// revisions.  Each backend leaves the counters it has no use for at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of formula nodes evaluated.
    pub steps: u64,
    /// Number of values drawn from quantifier domains (quantifier expansions).
    pub quantifier_values: u64,
    /// Number of candidate output objects tested (tuples scanned at the top
    /// level of the evaluation).
    pub candidates_checked: u64,
    /// The largest single quantifier domain encountered.
    pub max_domain_seen: u64,
    /// Number of invention levels `Q|_n[d]` explored (0 under the limited
    /// interpretation, which never invents).
    pub invention_levels: u64,
    /// Compiled backend only: constructive-domain lookups answered from the
    /// per-execution memo (0 for the legacy tree walker, which re-enumerates
    /// every domain lazily).
    pub domain_cache_hits: u64,
    /// Compiled backend only: constructive-domain lookups that had to
    /// materialise a new domain (0 for the legacy tree walker).
    pub domain_cache_misses: u64,
    /// Compiled and planned-algebra backends: distinct values interned in the
    /// execution's value store (0 for the tree walker and the tuple-at-a-time
    /// algebra evaluator, which never intern).
    pub interned_values: u64,
    /// Planned-algebra backend only: hash/member index probes plus candidate
    /// pairs examined by join operators (0 for every other backend).
    /// Comparable with the |A|·|B| pairs a tuple-at-a-time product walks.
    pub join_probes: u64,
    /// Planned-algebra backend only: objects constructed by plan operators
    /// before deduplication (0 for every other backend).
    pub tuples_materialised: u64,
    /// Number of candidate-rank partitions the compiled calculus split its
    /// limited-interpretation candidate loop into.  `0` when the execution
    /// ran sequentially (one worker, an empty candidate domain, or any other
    /// backend or semantics).  Deterministic for a fixed engine
    /// configuration.
    pub partitions: u64,
    /// Number of times the execution polled its armed resource governor
    /// (deadline / cancellation / memory-ceiling checks).  0 whenever the
    /// governor is disarmed — the off path never counts polls.  Like
    /// `wall_micros` this depends on the governor configuration rather than
    /// on (query, database, semantics, backend) alone, so
    /// [`ExecStats::deterministic`] zeroes it.
    pub interrupt_polls: u64,
    /// Wall-clock time of the execute call, in microseconds.
    pub wall_micros: u64,
}

impl ExecStats {
    /// Every field as a `(name, value)` pair, in struct order — the one
    /// schema behind [`ExecStats::to_json`] and [`Span::push_counters`].
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("steps", self.steps),
            ("quantifier_values", self.quantifier_values),
            ("candidates_checked", self.candidates_checked),
            ("max_domain_seen", self.max_domain_seen),
            ("invention_levels", self.invention_levels),
            ("domain_cache_hits", self.domain_cache_hits),
            ("domain_cache_misses", self.domain_cache_misses),
            ("interned_values", self.interned_values),
            ("join_probes", self.join_probes),
            ("tuples_materialised", self.tuples_materialised),
            ("partitions", self.partitions),
            ("interrupt_polls", self.interrupt_polls),
            ("wall_micros", self.wall_micros),
        ]
    }

    /// Fold another evaluation's work into this one: the work counters are
    /// summed (saturating, so merging many partitions or levels can never
    /// wrap) and `max_domain_seen` takes the maximum.  Used by the invention
    /// semantics, which run one evaluation per invention level, and by the
    /// partitioned evaluator, which merges one block per partition.  The
    /// per-execution stamps — `invention_levels`, `partitions`,
    /// `interrupt_polls` and `wall_micros` — are set once by whoever drives
    /// the execution, so they are left as they are.
    ///
    /// ```
    /// use itq_trace::ExecStats;
    /// let mut total = ExecStats { steps: 10, max_domain_seen: 4, ..Default::default() };
    /// total.merge(&ExecStats { steps: 5, max_domain_seen: 9, ..Default::default() });
    /// assert_eq!(total.steps, 15);
    /// assert_eq!(total.max_domain_seen, 9);
    /// let mut near_max = ExecStats { steps: u64::MAX - 1, ..Default::default() };
    /// near_max.merge(&ExecStats { steps: 5, ..Default::default() });
    /// assert_eq!(near_max.steps, u64::MAX); // saturates instead of wrapping
    /// ```
    pub fn merge(&mut self, other: &ExecStats) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.steps, other.steps);
        add(&mut self.quantifier_values, other.quantifier_values);
        add(&mut self.candidates_checked, other.candidates_checked);
        self.max_domain_seen = self.max_domain_seen.max(other.max_domain_seen);
        add(&mut self.domain_cache_hits, other.domain_cache_hits);
        add(&mut self.domain_cache_misses, other.domain_cache_misses);
        add(&mut self.interned_values, other.interned_values);
        add(&mut self.join_probes, other.join_probes);
        add(&mut self.tuples_materialised, other.tuples_materialised);
    }

    /// The statistics with the wall-clock field zeroed.  Every remaining
    /// counter is a deterministic function of (query, database, semantics,
    /// backend), so two executions can be compared with `==` without tripping
    /// over timing noise — `ExecStats` derives `Eq` *including*
    /// `wall_micros`, which is almost never what a differential test wants.
    /// (`interrupt_polls` is zeroed too: it depends on the governor
    /// configuration, not on the query/database/semantics/backend tuple.)
    ///
    /// ```
    /// use itq_trace::ExecStats;
    /// let a = ExecStats { steps: 7, wall_micros: 12, ..Default::default() };
    /// let b = ExecStats { steps: 7, wall_micros: 99, interrupt_polls: 3, ..Default::default() };
    /// assert_ne!(a, b); // timing noise trips whole-struct equality...
    /// assert_eq!(a.deterministic(), b.deterministic()); // ...but not this.
    /// ```
    pub fn deterministic(&self) -> ExecStats {
        ExecStats {
            interrupt_polls: 0,
            wall_micros: 0,
            ..*self
        }
    }

    /// Serialize as a flat JSON object (no external dependencies), in the
    /// field order of the struct.
    ///
    /// ```
    /// use itq_trace::ExecStats;
    /// let json = ExecStats { steps: 2, ..Default::default() }.to_json();
    /// assert!(json.starts_with("{\"steps\":2,"));
    /// assert!(json.ends_with("}"));
    /// ```
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Escape a string for inclusion in a JSON string literal.  Span names and
/// field keys are engine-generated (operator labels, type renderings), so
/// only the structural characters and control bytes need care.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Where finished span trees go.
///
/// Sinks use interior mutability (`&self` receivers) so one sink can be
/// shared by concurrent executions — the same reason `Prepared::execute`
/// takes `&self`.
pub trait TraceSink: Send + Sync {
    /// Whether producers should build spans at all.  Traced entry points
    /// check this once up front and fall back to the untraced path when it
    /// is `false`, which is what makes tracing zero-cost when off.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Deliver one finished root span.
    fn record(&self, span: Span);
}

/// Shared sinks delegate: an `Arc<CollectingSink>` can be installed in a
/// session while the caller keeps a handle to drain it.
impl<T: TraceSink + ?Sized> TraceSink for std::sync::Arc<T> {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    fn record(&self, span: Span) {
        (**self).record(span)
    }
}

/// The disabled sink: reports `is_enabled() == false` and drops anything
/// recorded anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// A sink that buffers every recorded span tree in memory — the test and
/// `explain analyze` workhorse.
///
/// ```
/// use itq_trace::{CollectingSink, Span, TraceSink};
///
/// let sink = CollectingSink::new();
/// assert!(sink.is_enabled());
/// sink.record(Span::new("execute"));
/// let spans = sink.take();
/// assert_eq!(spans.len(), 1);
/// assert_eq!(spans[0].name, "execute");
/// assert!(sink.take().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<Span>>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Drain and return every span recorded so far, oldest first.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("collecting sink poisoned"))
    }
}

impl TraceSink for CollectingSink {
    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("collecting sink poisoned")
            .push(span);
    }
}

/// A sink that writes each recorded span tree as one line of JSON — the
/// format behind `itq --trace FILE` and `report --trace-json`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer; each [`TraceSink::record`] appends `span.to_json()`
    /// plus a newline.  Write errors are deliberately swallowed — tracing
    /// must never fail an execution.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().expect("json-lines sink poisoned")
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, span: Span) {
        let mut out = self.out.lock().expect("json-lines sink poisoned");
        let _ = writeln!(out, "{}", span.to_json());
    }
}

/// A session-wide registry of named monotonic counters.
///
/// Counters are created on first increment and only ever grow; `&self`
/// receivers make the registry shareable across executions the same way
/// trace sinks are.
///
/// ```
/// use itq_trace::MetricsRegistry;
///
/// let metrics = MetricsRegistry::new();
/// metrics.incr("executions", 1);
/// metrics.incr("rows_out", 7);
/// metrics.incr("executions", 1);
///
/// assert_eq!(metrics.get("executions"), 2);
/// assert_eq!(metrics.get("never_touched"), 0);
/// assert_eq!(
///     metrics.to_json(),
///     "{\"executions\":2,\"rows_out\":7}"
/// );
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name`, creating it at zero first if needed.
    pub fn incr(&self, name: &str, by: u64) {
        let mut counters = self.counters.lock().expect("metrics registry poisoned");
        *counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// The current value of counter `name` (zero if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A point-in-time copy of every counter, in name order.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .clone()
    }

    /// The counters as one JSON object in name order.
    pub fn to_json(&self) -> String {
        let counters = self.counters.lock().expect("metrics registry poisoned");
        let body: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", json_escape(name)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

impl fmt::Display for Span {
    /// Render the tree with the same box-drawing layout as the planner's
    /// `render_lines`, fields appended in parentheses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(span: &Span, own: &str, rest: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{own}{}", span.name)?;
            if !span.fields.is_empty() || span.wall_micros > 0 {
                let mut parts: Vec<String> = span
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect();
                parts.push(format!("{} µs", span.wall_micros));
                write!(f, "  ({})", parts.join(", "))?;
            }
            writeln!(f)?;
            let last = span.children.len().saturating_sub(1);
            for (i, child) in span.children.iter().enumerate() {
                let (own_next, rest_next) = if i == last {
                    (format!("{rest}└─ "), format!("{rest}   "))
                } else {
                    (format!("{rest}├─ "), format!("{rest}│  "))
                };
                go(child, &own_next, &rest_next, f)?;
            }
            Ok(())
        }
        go(self, "", "", f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Span {
        let mut leaf_a = Span::new("scan PAR");
        leaf_a.push_field("rows_out", 3);
        leaf_a.wall_micros = 5;
        let mut leaf_b = Span::new("scan PAR");
        leaf_b.push_field("rows_out", 3);
        let mut root = Span::new("hash-join");
        root.push_field("rows_out", 1);
        root.push_field("join_probes", 3);
        root.wall_micros = 20;
        root.push_child(leaf_a);
        root.push_child(leaf_b);
        root
    }

    #[test]
    fn fields_and_subtree_totals() {
        let root = tree();
        assert_eq!(root.field("join_probes"), Some(3));
        assert_eq!(root.field("missing"), None);
        assert_eq!(root.subtree_total("rows_out"), 7);
        assert_eq!(root.len(), 3);
        assert!(!root.is_empty());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let root = tree();
        let json = root.to_json();
        assert!(json.contains("\"join_probes\":3"));
        assert!(json.contains("\"children\":[{\"name\":\"scan PAR\""));
        let mut tricky = Span::new("label \"quoted\"\\slash");
        tricky.push_field("k", 1);
        let json = tricky.to_json();
        assert!(json.contains("label \\\"quoted\\\"\\\\slash"));
    }

    #[test]
    fn display_renders_a_plan_shaped_tree() {
        let rendered = tree().to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("hash-join  (rows_out 1, join_probes 3, 20 µs)"));
        assert!(lines[1].starts_with("├─ scan PAR"));
        assert!(lines[2].starts_with("└─ scan PAR"));
    }

    #[test]
    fn sinks_behave() {
        let noop = NoopSink;
        assert!(!noop.is_enabled());
        noop.record(Span::new("dropped"));

        let collecting = CollectingSink::new();
        collecting.record(tree());
        collecting.record(Span::new("second"));
        let spans = collecting.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "second");

        let json_lines = JsonLinesSink::new(Vec::new());
        json_lines.record(tree());
        json_lines.record(Span::new("second"));
        let written = String::from_utf8(json_lines.into_inner()).unwrap();
        assert_eq!(written.lines().count(), 2);
        assert!(written
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    /// `BENCH_execstats.json` and `.github/scripts/diff_bench.py` read this
    /// schema: exactly these 13 keys, in this order.
    #[test]
    fn exec_stats_schema_is_pinned() {
        let stats = ExecStats {
            steps: 1,
            quantifier_values: 2,
            candidates_checked: 3,
            max_domain_seen: 4,
            invention_levels: 5,
            domain_cache_hits: 6,
            domain_cache_misses: 7,
            interned_values: 8,
            join_probes: 9,
            tuples_materialised: 10,
            partitions: 11,
            interrupt_polls: 12,
            wall_micros: 13,
        };
        let keys = [
            "steps",
            "quantifier_values",
            "candidates_checked",
            "max_domain_seen",
            "invention_levels",
            "domain_cache_hits",
            "domain_cache_misses",
            "interned_values",
            "join_probes",
            "tuples_materialised",
            "partitions",
            "interrupt_polls",
            "wall_micros",
        ];
        let expected: Vec<String> = keys
            .iter()
            .zip(1..)
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        assert_eq!(stats.to_json(), format!("{{{}}}", expected.join(",")));
        assert_eq!(stats.fields().map(|(key, _)| key), keys);
    }

    #[test]
    fn metrics_accumulate_monotonically() {
        let metrics = MetricsRegistry::new();
        assert_eq!(metrics.get("x"), 0);
        metrics.incr("x", 2);
        metrics.incr("x", 3);
        assert_eq!(metrics.get("x"), 5);
        let snap = metrics.snapshot();
        assert_eq!(snap.get("x"), Some(&5));
        assert_eq!(metrics.to_json(), "{\"x\":5}");
    }
}

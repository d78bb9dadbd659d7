//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, counters read where the work happens, and
//! the per-layer metrics derived from both.
//!
//! A span has a name, a start, an end, its parent span and the id of
//! the request (operation) it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use vault_core::{check::check_function_with_limits, codegen::emit_c, elaborate, Limits};
use vault_syntax::{Attribution, DiagSink};

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    t0: Instant,
    /// Request ids are `lane << 32 | n`, so tracers of concurrent client
    /// threads can be merged without clashes.
    lane: u64,
    next_req: u64,
    req: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(t0: Instant, lane: u64) -> Tracer {
        Tracer {
            t0,
            lane,
            next_req: 0,
            req: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            peaks: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` as one request: a root `op` span with a fresh request id.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.next_req += 1;
        let saved = self.req;
        self.req = (self.lane << 32) | self.next_req;
        let r = self.span("op", f);
        self.req = saved;
        r
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_us = self.now_us();
        r
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Keep the largest value seen for a gauge.
    pub fn peak(&mut self, gauge: &'static str, v: f64) {
        let e = self.peaks.entry(gauge).or_insert(v);
        *e = e.max(v);
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.peaks.get(name).copied().unwrap_or(0.0)
    }

    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .sum()
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Fold another lane's spans and counters into this tracer.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.peaks {
            self.peak(k, v);
        }
    }

    /// Time inside request spans that no child span covers, µs.
    fn uncovered_us(&self) -> f64 {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_us();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == "op")
            .map(|(s, c)| (s.dur_us() - c).max(0.0))
            .sum()
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        out.flush()
    }

    /// Every per-layer metric, per operation where it is a time or a
    /// count. A layer the workload does not use reads 0.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.count("op").max(1) as f64;
        let per_op_ms = |us: f64| us / 1000.0 / ops;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let lex = self.counter("syntax.lex_us");
        let parse = self.counter("syntax.parse_us");
        // The CLI's wall time beyond the in-process check of the same units.
        let cli_overhead_ms = if self.count("cli") > 0 {
            per_op_ms(self.total_us("cli") - self.total_us("service.check_project"))
        } else {
            0.0
        };
        vec![
            ("syntax.lex_ms", per_op_ms(lex), "ms"),
            ("syntax.parse_ms", per_op_ms(parse), "ms"),
            (
                "syntax.mb_per_s",
                ratio(self.counter("syntax.bytes"), lex + parse),
                "MB/s",
            ),
            (
                "core.elaborate_ms",
                per_op_ms(self.counter("core.elaborate_us")),
                "ms",
            ),
            (
                "core.lower_ms",
                per_op_ms(self.counter("core.lower_us")),
                "ms",
            ),
            (
                "core.check_ms",
                per_op_ms(self.total_us("core.check")),
                "ms",
            ),
            ("core.joins", self.counter("core.joins") / ops, "count"),
            (
                "core.loop_iterations",
                self.counter("core.loop_iterations") / ops,
                "count",
            ),
            (
                "core.frames_copied",
                self.counter("core.frames_copied") / ops,
                "count",
            ),
            (
                "core.emit_c_ms",
                per_op_ms(self.total_us("core.emit_c")),
                "ms",
            ),
            (
                "project.plan_ms",
                per_op_ms(self.total_us("project.plan")),
                "ms",
            ),
            (
                "project.units_parsed",
                self.counter("project.units_parsed") / ops,
                "count",
            ),
            (
                "service.units_scheduled",
                self.counter("service.units_scheduled") / ops,
                "count",
            ),
            (
                "service.cutoff_hits",
                self.counter("service.cutoff_hits") / ops,
                "count",
            ),
            (
                "incremental.fn_hit_ratio",
                ratio(
                    self.counter("incremental.fn_hits"),
                    self.counter("incremental.fn_hits") + self.counter("incremental.fn_misses"),
                ),
                "ratio",
            ),
            (
                "cache.hit_ratio",
                ratio(
                    self.counter("cache.hits"),
                    self.counter("cache.hits") + self.counter("cache.misses"),
                ),
                "ratio",
            ),
            (
                "singleflight.joins_per_dup",
                ratio(
                    self.counter("singleflight.joins"),
                    self.counter("singleflight.dups"),
                ),
                "ratio",
            ),
            (
                "pool.busy_ratio",
                ratio(
                    self.counter("pool.check_us"),
                    self.counter("pool.capacity_us"),
                ),
                "ratio",
            ),
            ("pool.queue_peak", self.gauge("pool.queue_peak"), "count"),
            (
                "wire.decode_ms",
                per_op_ms(self.total_us("wire.decode")),
                "ms",
            ),
            (
                "wire.encode_ms",
                per_op_ms(self.total_us("wire.encode")),
                "ms",
            ),
            (
                "wire.request_kb",
                ratio(
                    self.counter("wire.request_bytes"),
                    self.counter("wire.requests"),
                ) / 1024.0,
                "KiB",
            ),
            (
                "wire.response_kb",
                ratio(
                    self.counter("wire.response_bytes"),
                    self.counter("wire.responses"),
                ) / 1024.0,
                "KiB",
            ),
            (
                "mux.status_rtt_ms",
                ratio(self.total_us("mux.status"), self.count("mux.status") as f64) / 1000.0,
                "ms",
            ),
            (
                "mux.overhead_ms",
                ratio(
                    self.counter("mux.overhead_us"),
                    self.counter("mux.overhead_n"),
                ) / 1000.0,
                "ms",
            ),
            (
                "persist.open_ms",
                ratio(
                    self.total_us("persist.open"),
                    self.count("persist.open") as f64,
                ) / 1000.0,
                "ms",
            ),
            (
                "persist.store_kb",
                self.gauge("persist.store_bytes") / 1024.0,
                "KiB",
            ),
            (
                "persist.live_frames",
                self.gauge("persist.live_frames"),
                "count",
            ),
            ("cli.overhead_ms", cli_overhead_ms, "ms"),
            ("trace.other_ms", per_op_ms(self.uncovered_us()), "ms"),
            ("trace.op_ms", per_op_ms(self.total_us("op")), "ms"),
        ]
    }
}

/// Replay one unit through the checker's layers in-process, a span per
/// layer call: the front end (lex + parse), elaboration (declaration
/// passes + lowering), the per-function flow checker and, when asked
/// and the unit is accepted, C emission. Returns whether it was accepted.
pub fn replay_unit(tr: &mut Tracer, name: &str, prelude: &str, source: &str, emit: bool) -> bool {
    let attr = Attribution::with_prelude(name, prelude, source);
    let text = attr.full_text();
    let mut diags = DiagSink::new();
    let (program, front) = tr.span("syntax.front", |_| {
        vault_syntax::parse_program_with_depth_timed(
            text,
            &mut diags,
            vault_syntax::DEFAULT_PARSER_DEPTH,
        )
    });
    tr.add("syntax.lex_us", front.lex_micros as f64);
    tr.add("syntax.parse_us", front.parse_micros as f64);
    tr.add("syntax.bytes", text.len() as f64);
    let elab = tr.span("core.elaborate", |_| elaborate(&program, &mut diags));
    tr.add("core.elaborate_us", elab.elaborate_micros as f64);
    tr.add("core.lower_us", elab.lower_micros as f64);
    let limits = Limits::default();
    tr.span("core.check", |tr| {
        for f in &elab.bodies {
            let st = check_function_with_limits(
                &elab.world,
                &elab.syms,
                &elab.aliases,
                &elab.qualifiers,
                &elab.base_keys,
                f,
                &mut diags,
                &limits,
            );
            tr.add("core.joins", st.joins as f64);
            tr.add("core.loop_iterations", st.loop_iterations as f64);
            tr.add("core.frames_copied", st.frames_copied as f64);
        }
    });
    let accepted = !diags.has_errors();
    if emit && accepted {
        let c = tr.span("core.emit_c", |_| emit_c(&program, &elab));
        std::hint::black_box(c);
    }
    accepted
}

/// Fold a status reply's counter deltas into the tracer.
pub fn status_counters(tr: &mut Tracer, before: &vault_server::Json, after: &vault_server::Json) {
    let d = |k: &str| {
        let g =
            |v: &vault_server::Json| v.get(k).and_then(vault_server::Json::as_f64).unwrap_or(0.0);
        g(after) - g(before)
    };
    tr.add("service.units_scheduled", d("units_scheduled"));
    tr.add("service.cutoff_hits", d("cutoff_hits"));
    tr.add("incremental.fn_hits", d("fn_cache_hits"));
    tr.add("incremental.fn_misses", d("fn_cache_misses"));
    tr.add("cache.hits", d("cache_hits"));
    tr.add("cache.misses", d("cache_misses"));
    tr.add("singleflight.joins", d("singleflight_joins"));
    if let Some(q) = after.get("queue_peak").and_then(vault_server::Json::as_f64) {
        tr.peak("pool.queue_peak", q);
    }
}

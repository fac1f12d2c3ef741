//! Timers and spans around the benchmark's calls into each layer.
//!
//! The closed loop is generic over [`Probe`]: [`Untraced`] compiles every
//! timer away (the end-to-end run), [`Trace`] times each call and keeps a
//! span per quantum and per layer batch (the traced run). Spans are
//! recorded here, at the layer boundaries the benchmark crosses, not inside
//! the program.

use std::io::Write;
use std::time::Instant;

use serde::ser::Value;
use serde::Serialize;

/// A layer call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `workloads`: phase generation (`Workload::quanta`, demand conversion).
    Phases,
    /// `workloads`: `HeartbeatedWorkload` construction.
    DriverBuild,
    /// `actuation` + `seec`: `SeecRuntimeBuilder::build`.
    RuntimeBuild,
    Register,
    Retire,
    SetBudget,
    /// `xeon-sim`: `XeonServer::evaluate`.
    Evaluate,
    /// `xeon-sim`: `MachineMeter::record`.
    Meter,
    /// `heartbeats`: beat ingestion through `Coordinator::advance`.
    Advance,
    Step,
}

/// Number of [`Layer`] variants.
const LAYERS: usize = 10;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    /// Whether every call's duration is kept for a median (the per-app
    /// layers run thousands of times a quantum and keep only totals).
    fn sampled(self) -> bool {
        !matches!(self, Layer::Evaluate | Layer::Advance | Layer::Meter)
    }
}

/// Span names: one per quantum and per layer batch inside it, plus set-up.
pub mod span {
    pub const SETUP: &str = "setup";
    pub const GENERATE: &str = "generate";
    pub const BUILD: &str = "build";
    pub const REGISTER: &str = "register";
    pub const QUANTUM: &str = "quantum";
    pub const LIFECYCLE: &str = "lifecycle";
    pub const EVALUATE: &str = "evaluate";
    pub const ADVANCE: &str = "advance";
    pub const STEP: &str = "step";
}

/// Where the closed loop reports its layer calls and batches.
pub trait Probe {
    /// A call's start, as the probe needs it (nothing when untraced).
    type Mark: Copy;
    fn mark(&self) -> Self::Mark;
    /// A call into `layer` that began at `since` has returned.
    fn record(&mut self, layer: Layer, since: Self::Mark);
    /// Opens a span; it nests under the innermost open span.
    fn open(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn close(&mut self);
}

/// Times `call` as one call into `layer`.
#[inline(always)]
pub fn timed<P: Probe, R>(probe: &mut P, layer: Layer, call: impl FnOnce() -> R) -> R {
    let since = probe.mark();
    let result = call();
    probe.record(layer, since);
    result
}

/// The probe of the end-to-end run: records nothing.
pub struct Untraced;

impl Probe for Untraced {
    type Mark = ();
    #[inline(always)]
    fn mark(&self) {}
    #[inline(always)]
    fn record(&mut self, _: Layer, _: ()) {}
    #[inline(always)]
    fn open(&mut self, _: &'static str) {}
    #[inline(always)]
    fn close(&mut self) {}
}

/// One closed span, relative to the trace's origin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span minus its child spans.
    pub self_ns: u64,
    /// Layer calls made directly inside this span, and their summed time.
    pub calls: u64,
    pub busy_ns: u64,
}

struct OpenSpan {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
    children_ns: u64,
    calls: u64,
    busy_ns: u64,
    /// Busy time of layer calls in this span and every span below it.
    nested_busy_ns: u64,
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
}

/// The probe of the traced run.
pub struct Trace {
    origin: Instant,
    /// Whether closed spans are kept (the first traced episode's are; later
    /// episodes only feed the totals, so memory stays bounded).
    pub keep_spans: bool,
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
    next_id: u32,
    in_quantum: bool,
    /// Totals over whole episodes (set-up and loop).
    pub episode: [LayerTotals; LAYERS],
    /// Totals over the quantum loop only.
    pub looped: [LayerTotals; LAYERS],
    samples: [Vec<u64>; LAYERS],
    /// Quantum spans closed, their summed length, and the part of it spent
    /// outside every layer call (the benchmark's own time).
    pub quanta: u64,
    pub quantum_ns: u64,
    pub bench_self_ns: u64,
    /// Spans whose children or calls overran them: broken accounting.
    pub accounting_errors: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            keep_spans: false,
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
            in_quantum: false,
            episode: [LayerTotals::default(); LAYERS],
            looped: [LayerTotals::default(); LAYERS],
            samples: Default::default(),
            quanta: 0,
            quantum_ns: 0,
            bench_self_ns: 0,
            accounting_errors: 0,
        }
    }
}

impl Trace {
    /// Median duration of one call into `layer`, in nanoseconds (0 when
    /// the layer was never called or is not sampled).
    pub fn median_ns(&self, layer: Layer) -> f64 {
        let mut samples: Vec<f64> = self.samples[layer.index()]
            .iter()
            .map(|&ns| ns as f64)
            .collect();
        crate::report::median(&mut samples)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as JSON lines, each tagged with `run_id`.
    pub fn write_spans(&self, path: &std::path::Path, run_id: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let run = ("run".to_string(), Value::String(format!("{run_id:016x}")));
        for span in &self.spans {
            let Value::Object(mut fields) = span.to_value() else {
                unreachable!("a span serialises as an object")
            };
            fields.insert(0, run.clone());
            let line = serde_json::to_string(&Value::Object(fields))
                .expect("serialising to a string cannot fail");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }
}

impl Probe for Trace {
    type Mark = Instant;

    #[inline(always)]
    fn mark(&self) -> Instant {
        Instant::now()
    }

    #[inline(always)]
    fn record(&mut self, layer: Layer, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let index = layer.index();
        self.episode[index].calls += 1;
        self.episode[index].busy_ns += ns;
        if self.in_quantum {
            self.looped[index].calls += 1;
            self.looped[index].busy_ns += ns;
        }
        if layer.sampled() {
            self.samples[index].push(ns);
        }
        if let Some(open) = self.open.last_mut() {
            open.calls += 1;
            open.busy_ns += ns;
        }
    }

    fn open(&mut self, name: &'static str) {
        if name == span::QUANTUM {
            self.in_quantum = true;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.open.push(OpenSpan {
            id,
            parent: self.open.last().map(|open| open.id),
            name,
            start: Instant::now(),
            children_ns: 0,
            calls: 0,
            busy_ns: 0,
            nested_busy_ns: 0,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let open = self.open.pop().expect("close matches an open span");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let nested_busy = open.busy_ns + open.nested_busy_ns;
        if open.children_ns > ns || nested_busy > ns {
            self.accounting_errors += 1;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += ns;
            parent.nested_busy_ns += nested_busy;
        }
        if open.name == span::QUANTUM {
            self.in_quantum = false;
            self.quanta += 1;
            self.quantum_ns += ns;
            self.bench_self_ns += ns.saturating_sub(nested_busy);
        }
        if self.keep_spans {
            let start_ns = self.since_origin(open.start);
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns,
                end_ns: start_ns + ns,
                self_ns: ns.saturating_sub(open.children_ns),
                calls: open.calls,
                busy_ns: open.busy_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_busy_plus_self_accounts_for_the_quantum() {
        let mut trace = Trace {
            keep_spans: true,
            ..Trace::default()
        };
        trace.open(span::QUANTUM);
        trace.open(span::EVALUATE);
        for _ in 0..3 {
            timed(&mut trace, Layer::Evaluate, || std::hint::black_box(1 + 1));
        }
        trace.close();
        trace.open(span::STEP);
        timed(&mut trace, Layer::Step, || std::hint::black_box(2));
        trace.close();
        trace.close();

        assert_eq!(trace.accounting_errors, 0);
        assert_eq!(trace.quanta, 1);
        let busy: u64 = trace.looped.iter().map(|t| t.busy_ns).sum();
        assert_eq!(busy + trace.bench_self_ns, trace.quantum_ns);
        assert_eq!(trace.looped[Layer::Evaluate.index()].calls, 3);
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        let quantum = spans
            .iter()
            .find(|s| s.name == span::QUANTUM)
            .expect("kept");
        assert!(spans
            .iter()
            .filter(|s| s.name != span::QUANTUM)
            .all(|s| s.parent == Some(quantum.id)
                && s.start_ns >= quantum.start_ns
                && s.end_ns <= quantum.end_ns));
    }
}

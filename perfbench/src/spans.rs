//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] wraps every call the benchmark makes into a layer's
//! public functions. Armed, it records a [`Span`] per call: layer and
//! call name, start and end (nanoseconds since the tracer was made), the
//! enclosing phase span, and the change of the counters the caller passes
//! in. [`Tracer::call`] reads them at both ends of the call, which fits a
//! layer whose counters move only inside its calls; the deltas of a
//! phase's spans then sum to the phase's change exactly when every call
//! that moves them ran inside a span. [`Tracer::tiled`] chains the
//! readings from one call to the next instead, for a layer whose threads
//! move the counters between calls too. [`Tracer::span`] times a call
//! that moves no counter. Unarmed, a span costs one branch around the
//! call.
//!
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call (or phase, which has no counters).
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer called: `netsim`, `core`, `udp` or `bench` for phases.
    pub layer: &'static str,
    /// The call or phase name.
    pub name: &'static str,
    /// Index of the enclosing phase span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Counter changes across the call, in the caller's counter order.
    pub deltas: Vec<u64>,
}

impl Span {
    /// Wall duration of the span in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when armed; passes calls straight through when not.
#[derive(Debug)]
pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans if `armed`.
    #[must_use]
    pub fn new(armed: bool) -> Self {
        Tracer { armed, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a phase span; calls traced until [`Tracer::end`] name it as
    /// their parent.
    pub fn begin(&mut self, name: &'static str) {
        if self.armed {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                layer: "bench",
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
                deltas: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open phase span.
    pub fn end(&mut self) {
        if self.armed {
            let end_ns = self.now_ns();
            let i = self.open.pop().expect("end() without a matching begin()");
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `call` inside a span of `layer`/`name` that reads no counters.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> R {
        if !self.armed {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        self.push(layer, name, start_ns, Vec::new());
        out
    }

    /// Runs `call` on `target` inside a span of `layer`/`name`, reading
    /// `counters(target)` at both ends when armed.
    pub fn call<T: ?Sized, R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        target: &mut T,
        counters: impl Fn(&T) -> Vec<u64>,
        call: impl FnOnce(&mut T) -> R,
    ) -> R {
        if !self.armed {
            return call(target);
        }
        let before = counters(target);
        let start_ns = self.now_ns();
        let out = call(target);
        let after = counters(target);
        self.push(layer, name, start_ns, deltas(&before, &after));
        out
    }

    /// Runs `call` inside a span of `layer`/`name` whose counters run
    /// from `last` to a reading of `counters()` taken after the call,
    /// which then becomes `last`. Successive tiled calls thus charge every
    /// counter change to exactly one span, a change made by another thread
    /// between two calls going to the later one. The reading is taken
    /// armed or not, since callers use it.
    pub fn tiled<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        last: &mut Vec<u64>,
        counters: impl Fn() -> Vec<u64>,
        call: impl FnOnce() -> R,
    ) -> R {
        let start_ns = if self.armed { self.now_ns() } else { 0 };
        let out = call();
        let after = counters();
        if self.armed {
            self.push(layer, name, start_ns, deltas(last, &after));
        }
        *last = after;
        out
    }

    fn push(&mut self, layer: &'static str, name: &'static str, start_ns: u64, deltas: Vec<u64>) {
        let end_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { layer, name, parent, start_ns, end_ns, deltas });
    }

    /// Spans of one call name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum of the counter deltas of the spans directly inside the phase
    /// named `phase`, per counter.
    #[must_use]
    pub fn delta_sums(&self, phase: &str, counters: usize) -> Vec<u64> {
        let mut sums = vec![0u64; counters];
        let inside = |s: &Span| s.parent.is_some_and(|p| self.spans[p].name == phase);
        for s in self.spans.iter().filter(|s| inside(s)) {
            for (sum, d) in sums.iter_mut().zip(&s.deltas) {
                *sum += d;
            }
        }
        sums
    }

    /// The first counter of `names` whose deltas inside phase `phase` do
    /// not sum to its change from `before` to `after`, as (name, sum,
    /// change); `None` when no call that moved a counter in the phase went
    /// unmeasured.
    #[must_use]
    pub fn unmeasured(
        &self,
        phase: &str,
        names: &[&'static str],
        before: &[u64],
        after: &[u64],
    ) -> Option<(&'static str, u64, u64)> {
        let sums = self.delta_sums(phase, names.len());
        names
            .iter()
            .zip(sums.iter().zip(after.iter().zip(before)))
            .map(|(&name, (&sum, (&a, &b)))| (name, sum, a - b))
            .find(|&(_, sum, change)| sum != change)
    }

    /// The spans as JSON lines, with the counters named by `names`.
    #[must_use]
    pub fn to_jsonl(&self, names: &[&str]) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                s.layer, s.name, s.start_ns, s.end_ns
            );
            let fields: Vec<String> = names
                .iter()
                .zip(&s.deltas)
                .filter(|(_, d)| **d != 0)
                .map(|(n, d)| format!("\"{n}\":{d}"))
                .collect();
            out.push_str(&fields.join(","));
            out.push_str("}}\n");
        }
        out
    }

    /// Writes the spans to `path` as JSON lines (see [`Tracer::to_jsonl`]),
    /// creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or file cannot be written.
    pub fn write_jsonl(&self, path: &std::path::Path, names: &[&str]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl(names))
    }
}

/// Per-counter change from `before` to `after`.
fn deltas(before: &[u64], after: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let mut x = 1u64;
        t.begin("phase");
        let y = t.call(
            "core",
            "double",
            &mut x,
            |x| vec![*x],
            |x| {
                *x *= 2;
                *x
            },
        );
        t.end();
        assert_eq!(y, 2);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn armed_tracer_records_deltas_and_parents() {
        let mut t = Tracer::new(true);
        let mut x = 1u64;
        t.begin("phase");
        t.call("core", "add", &mut x, |x| vec![*x], |x| *x += 5);
        t.call("core", "add", &mut x, |x| vec![*x], |x| *x += 2);
        t.span("core", "none", || ());
        t.end();
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.delta_sums("phase", 1), vec![7]);
        assert_eq!(t.unmeasured("phase", &["x"], &[1], &[8]), None);
        assert_eq!(t.unmeasured("phase", &["x"], &[1], &[9]), Some(("x", 7, 8)));
        assert_eq!(t.named("add").count(), 2);
        assert!(t.to_jsonl(&["x"]).contains("\"x\":5"));
    }

    #[test]
    fn tiled_spans_charge_changes_between_calls_to_the_next() {
        let x = std::cell::Cell::new(0u64);
        for armed in [false, true] {
            let mut t = Tracer::new(armed);
            x.set(0);
            let mut last = vec![x.get()];
            t.begin("phase");
            t.tiled("udp", "add", &mut last, || vec![x.get()], || x.set(x.get() + 3));
            x.set(x.get() + 4); // moved outside any call
            t.tiled("udp", "add", &mut last, || vec![x.get()], || x.set(x.get() + 1));
            t.end();
            assert_eq!(last, vec![8]);
            if armed {
                let d: Vec<u64> = t.named("add").map(|s| s.deltas[0]).collect();
                assert_eq!(d, vec![3, 5]);
                assert_eq!(t.unmeasured("phase", &["x"], &[0], &last), None);
            } else {
                assert!(t.spans().is_empty());
            }
        }
    }
}

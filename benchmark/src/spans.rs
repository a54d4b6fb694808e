//! Harness-side spans: one per call into a layer of the program,
//! recorded from outside (the harness times public functions; spans
//! inside the program are a later change). Kept in memory, written as a
//! Chrome-trace file when the traced run ends.

use crate::json::{obj, s, Json};
use std::cell::RefCell;
use std::time::Instant;

/// One closed interval on the harness thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hetero.par.atdca`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass number the span belongs to (0 outside passes).
    pub pass: u32,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

/// Span recorder. A disabled recorder runs the closure and records
/// nothing, so untraced runs pay one branch per layer call.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Spans {
    /// A recorder that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                    pass: 0,
                })
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the pass number stamped on spans opened from now on.
    pub fn set_pass(&self, pass: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().pass = pass;
        }
    }

    /// Runs `f` inside a span called `name`, nested in whichever span is
    /// open. The span closes even if `f` unwinds.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else {
            return f();
        };
        struct Close<'a>(&'a Spans, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = self.0.now_ns();
                if let Some(inner) = &self.0.inner {
                    let mut inner = inner.borrow_mut();
                    inner.spans[self.1].end_ns = end;
                    inner.open.pop();
                }
            }
        }
        let index = {
            let mut inner = inner.borrow_mut();
            let index = inner.spans.len();
            let span = Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: inner.open.last().copied(),
                pass: inner.pass,
            };
            inner.spans.push(span);
            inner.open.push(index);
            index
        };
        let _close = Close(self, index);
        inner.borrow_mut().spans[index].start_ns = self.now_ns();
        f()
    }

    /// Every closed span, in opening order.
    pub fn finished(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.borrow().spans.clone())
    }
}

/// Self time of each span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Chrome-trace (`chrome://tracing`, Perfetto) document of the spans.
/// Each event also carries the raw record — `start_ns`, `end_ns`,
/// `parent`, `self_ns`, `workload`, `pass` — under `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let own = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(own)
        .map(|(span, self_ns)| {
            obj([
                ("name", s(span.name.as_str())),
                ("ph", s("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("workload", s(workload)),
                        ("pass", Json::Num(f64::from(span.pass))),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", s("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let spans = Spans::new(true);
        let out = spans.scope("setup", || {
            spans.scope("hsi_cube.synth", || ());
            spans.set_pass(3);
            spans.scope("verify", || spans.scope("hetero.seq.atdca", || 7))
        });
        assert_eq!(out, 7);
        let done = spans.finished();
        let names: Vec<&str> = done.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup", "hsi_cube.synth", "verify", "hetero.seq.atdca"]
        );
        assert_eq!(
            done.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        assert_eq!(done[1].pass, 0);
        assert_eq!(done[3].pass, 3);
        for span in &done {
            assert!(span.end_ns >= span.start_ns);
        }
        assert!(done[0].start_ns <= done[1].start_ns && done[3].end_ns <= done[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_only_forwards() {
        let spans = Spans::new(false);
        assert_eq!(spans.scope("x", || 1 + 1), 2);
        assert!(spans.finished().is_empty());
    }

    #[test]
    fn a_span_closes_when_its_body_unwinds() {
        let spans = Spans::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spans.scope("outer", || spans.scope("inner", || panic!("boom")))
        }));
        assert!(caught.is_err());
        spans.scope("after", || ());
        let done = spans.finished();
        assert_eq!(done[2].parent, None, "the open stack was unwound");
        assert!(done[1].end_ns >= done[1].start_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            pass: 0,
        };
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [50, 30, 20]);
        let doc = chrome_trace(&spans, "w");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("self_ns").and_then(Json::as_f64), Some(30.0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("w"));
    }
}

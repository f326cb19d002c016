//! The harness's own span recorder: name, start, end, the span that caused
//! it and the request (op index) it belongs to, kept in memory and written
//! out once at exit. Spans wrap the adapter calls only — spans inside the
//! product are a later change.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded recorder; each traced caller thread owns one and the
/// runner [`Recorder::absorb`]s them afterwards.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `origin` is shared by every recorder of a run so merged spans keep
    /// one time axis.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close `id` (and, defensively, anything still open inside it) and
    /// return its duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, request);
        let out = std::hint::black_box(f());
        (out, self.exit(id))
    }

    /// Append another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one parent never overlap here — the
    /// recorder is single-threaded — so that part is their summed length).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per-name self times in milliseconds, one entry per span.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let own = self.self_times_ns();
        Value::Seq(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, own))| {
                    Value::Map(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("self_ns".into(), Value::U64(own)),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                        ("request".into(), Value::U64(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new(Instant::now());
        r.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 0,
            })
            .collect();
        r
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // push [0,100) ─ features [10,30) ─ walk [12,20)
        //              └ compress [40,90)
        let r = recorder_with(&[
            ("push", 0, 100, None),
            ("features", 10, 30, Some(0)),
            ("walk", 12, 20, Some(1)),
            ("compress", 40, 90, Some(0)),
        ]);
        assert_eq!(r.self_times_ns(), vec![30, 12, 8, 50]);
        let by_name = r.self_ms_by_name();
        assert_eq!(by_name["push"], vec![30.0 / 1e6]);
        // Self times of one tree always sum to the root's duration.
        assert_eq!(r.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn enter_exit_nest_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let outer = a.enter("op", 7);
        let ((), inner_ms) = a.span("layer", 7, || std::hint::black_box(()));
        let outer_ms = a.exit(outer);
        assert!(outer_ms >= inner_ms);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[1].request, 7);

        let mut b = Recorder::new(origin);
        let o = b.enter("op", 8);
        b.span("layer", 8, || ());
        b.exit(o);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        let Value::Seq(rows) = a.to_json() else { panic!("trace is a sequence") };
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut r = Recorder::new(Instant::now());
        let outer = r.enter("op", 0);
        let _leaked = r.enter("layer", 0);
        r.exit(outer);
        assert!(r.open.is_empty());
        assert_eq!(r.spans()[1].end_ns, r.spans()[0].end_ns);
    }
}

//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into
//! a layer of the program; nothing inside a crate is instrumented. They
//! stay in memory until the pass ends and are then dumped as JSON lines.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps (`client.ingest`, `testbed.run`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder. Switched off it records nothing and costs one branch
/// per call, so untraced and traced ops run the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start the next op: spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span, and with it any span opened inside it that an
    /// early return (a refused call) left open.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Sum of the durations of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// One JSON object per line: name, start, end, parent, op, self time.
    pub fn dump(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                kids[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in k {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child of root
            span(15, 25, Some(1)),  // 2: grandchild, must not count against root
            span(50, 70, Some(0)),  // 3: sibling of 1
            span(60, 80, Some(0)),  // 4: overlaps 3; the overlap counts once
            span(90, 120, Some(0)), // 5: runs past the parent, clipped at 100
        ];
        let selfs = self_times_ns(&spans);
        // root: 100 - (30 + 30 [50..80] + 10 [90..100]) = 30
        assert_eq!(selfs, vec![30, 20, 10, 20, 20, 30]);
    }

    #[test]
    fn tracer_links_parents_and_ops_and_is_silent_when_off() {
        let mut t = Tracer::new();
        let a = t.enter("ignored");
        t.exit(a);
        assert!(t.spans().is_empty());

        t.set_on(true);
        t.next_op();
        let op = t.enter("op");
        let c1 = t.enter("call");
        t.exit(c1);
        let c2 = t.enter("call");
        t.exit(c2);
        t.exit(op);
        t.next_op();
        let op2 = t.enter("op");
        let _abandoned = t.enter("call");
        t.exit(op2);

        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[0].op, s[2].op, s[3].op), (1, 1, 2));
        assert_eq!(s[3].parent, None);
        assert_eq!(
            s[4].end_ns, s[3].end_ns,
            "closing a span closes what was left open in it"
        );
        assert_eq!(t.durations_ms("call").len(), 3);
        assert!(s[0].end_ns >= s[2].end_ns);

        let mut buf = Vec::new();
        t.dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }
}

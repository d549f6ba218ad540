//! In-memory spans for the traced run, and their self-time arithmetic.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The request (or configuration) the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls the span covers (batched micro-timings cover many).
    pub calls: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Spans of this name.
    pub spans: u64,
    /// Calls they cover.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call, ns.
    pub fn ns_per_call(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64
    }
}

/// Collects spans in memory; nothing is written until [`Recorder::write`].
pub struct Recorder {
    origin: Instant,
    /// Every span recorded so far, in start order of recording.
    pub spans: Vec<Span>,
    /// When false, every method just runs the timed code.
    on: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }
}

impl Recorder {
    /// A recorder that records nothing: the untraced twin of a traced
    /// run goes through the same code.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::default()
        }
    }

    /// The recorder's clock, ns since its origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            id,
            parent,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `index` now.
    pub fn close(&mut self, index: usize) {
        if self.on {
            self.spans[index].end_ns = self.now();
        }
    }

    /// Times `f` as one span of `calls` calls.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let index = self.open(name, id, parent);
        let out = f();
        self.close(index);
        self.spans[index].calls = calls;
        out
    }

    /// Renames span `index` (its layer is known only once it returns).
    pub fn rename(&mut self, index: usize, name: &'static str) {
        if self.on {
            self.spans[index].name = name;
        }
    }

    /// Per-name totals of self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(span.name).or_default();
            t.spans += 1;
            t.calls += span.calls;
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"id":{},"parent":{parent},"calls":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.id, s.calls
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `children` (each clipped to the interval first).
pub fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id: 0,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut kids = vec![(20, 50), (10, 30), (90, 120)];
        assert_eq!(covered(0, 100, &mut kids), 40 + 10);
        assert_eq!(covered(0, 100, &mut []), 0);
        // A child fully inside another adds nothing.
        assert_eq!(covered(0, 100, &mut [(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("engine", 10, 90, Some(0)),
            span("store", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 60, 20]);
    }

    #[test]
    fn totals_group_by_name_and_divide_by_calls() {
        let mut recorder = Recorder {
            spans: vec![
                span("a", 0, 100, None),
                span("b", 0, 40, Some(0)),
                span("b", 40, 60, Some(0)),
            ],
            ..Recorder::default()
        };
        recorder.spans[2].calls = 3;
        let totals = recorder.totals();
        assert_eq!(
            totals["a"],
            Totals {
                spans: 1,
                calls: 1,
                self_ns: 40
            }
        );
        assert_eq!(totals["b"].calls, 4);
        assert_eq!(totals["b"].ns_per_call(), 15.0);
    }

    #[test]
    fn a_recorder_that_is_off_only_runs_the_code() {
        let mut recorder = Recorder::off();
        let root = recorder.open("root", 1, None);
        assert_eq!(recorder.time("child", 1, Some(root), 1, || 7), 7);
        recorder.rename(root, "other");
        recorder.close(root);
        assert!(recorder.spans.is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_write_out() {
        let mut recorder = Recorder::default();
        let root = recorder.open("root", 7, None);
        let v = recorder.time("child", 7, Some(root), 2, || 41 + 1);
        recorder.close(root);
        assert_eq!(v, 42);
        assert!(recorder.spans[1].start_ns >= recorder.spans[0].start_ns);
        assert!(recorder.spans[1].end_ns <= recorder.spans[0].end_ns);
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        recorder.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""name":"child""#) && text.contains(r#""parent":0"#));
        std::fs::remove_dir_all(dir).unwrap();
    }
}

//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their self times, and the dump written at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u64,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Adds a span measured elsewhere (ns since the epoch).
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: count, total ns, self ns (total minus the time its
    /// children cover; children of one parent never overlap here).
    pub fn table(&self) -> BTreeMap<&'static str, Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.end - s.start;
            row.child_ns += child;
        }
        rows
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Tab-separated dump: id, name, start ns, end ns, parent id (-1 for
    /// none), op id.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Row {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Row {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

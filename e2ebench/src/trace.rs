//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is written until the run ends.

use crate::report::Outcome;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` links a layer call to the op that caused it;
/// op spans have no parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (its index in the recorder).
    pub id: u32,
    /// The causing span, if any.
    pub parent: Option<u32>,
    /// Layer function (or `op.<kind>` for a client op).
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span store with one clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds on the recorder's clock.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `instant` on the recorder's clock.
    pub fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Runs `f` as a child span of `parent`.
    pub fn time<T>(&mut self, parent: Option<u32>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(parent, name, start, end);
        out
    }

    /// Id of the span recorded last.
    ///
    /// # Panics
    ///
    /// Panics when nothing was recorded yet.
    pub fn last_id(&self) -> u32 {
        self.spans.last().expect("a span was recorded").id
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), where a span's self time
    /// is its duration minus the durations of its children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let row = out.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.duration_ns();
            row.2 += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Writes every span as one tab-separated line
    /// (`id parent name start_ns end_ns`, parent `-` for ops).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Writes the spans to `out/<workload>-seed<seed>.tsv` in the
    /// benchmark's directory and notes each span name's count, total and
    /// self time in the run's output.
    ///
    /// # Errors
    ///
    /// The write failure.
    pub fn report(&self, out: &mut Outcome, workload: &str, seed: u64) -> Result<(), String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}-seed{seed}.tsv"));
        self.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!("spans written to {}", path.display()));
        for (name, (count, total, own)) in self.summary() {
            out.note(format!(
                "span {name:<28} count {count:>7} total {:>12.3} ms self {:>12.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.record(None, "op", 0, 100);
        t.record(Some(op), "layer", 10, 40);
        t.record(Some(op), "layer", 50, 60);
        let summary = t.summary();
        assert_eq!(summary["op"], (1, 100, 60));
        assert_eq!(summary["layer"], (2, 40, 40));
        assert_eq!(t.durations_ns("layer"), vec![30.0, 10.0]);
    }
}

//! Spans the traced run records around the benchmark's own calls into
//! each layer. They are kept in memory and written out when the run ends,
//! one JSON object per line.

use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Process-wide time origin for span start times.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One timed call. `id` names a span other spans can point at through
/// `parent` (0 = none); ids are unique within one phase.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start: Duration,
    pub dur: Duration,
}

impl Span {
    pub fn new(name: &'static str, id: u64, parent: u64, start: Instant, dur: Duration) -> Self {
        Self { name, id, parent, start: start.saturating_duration_since(epoch()), dur }
    }
}

/// Start the span clock (call once, before any span is recorded).
pub fn start_clock() {
    epoch();
}

/// Write `(phase, spans)` groups to `path` as JSON lines.
pub fn write(path: &str, groups: &[(&str, &[Span])]) -> std::io::Result<usize> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for (phase, spans) in groups {
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"phase\":\"{phase}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name,
                s.id,
                s.parent,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}

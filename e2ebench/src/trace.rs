//! Host-time recording for the traced run: spans timed around the public
//! calls into each layer, a passive wall-clock probe that splits an engine
//! call into time inside and outside the simulator's phase spans, and the
//! Chrome-trace writer the spans are flushed through when the run ends.

use simkit::probe::{Probe, ProbeEvent};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One interval of host time. `parent` is the span that caused it: the
/// pass around a call, or the engine call around a phase.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub detail: String,
    pub thread: u64,
    pub start: Duration,
    pub dur: Duration,
}

/// Collects the spans of one thread in memory. Ids carry the thread
/// number in their high bits, so recorders on different threads never
/// collide and their spans can be merged afterwards.
pub struct Recorder {
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Opens a span that encloses other spans; they name its `id` as
    /// their parent. [`Recorder::close`] records it.
    pub fn open(&mut self, name: &str, detail: impl Into<String>, parent: Option<u64>) -> Open {
        Open {
            id: self.id(),
            parent,
            name: name.to_string(),
            detail: detail.into(),
            start: Instant::now(),
        }
    }

    /// Records `open` as ending now and returns its host seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            detail: open.detail,
            thread: self.thread,
            start: open.start - self.epoch,
            dur,
        });
        dur.as_secs_f64()
    }

    /// Runs `f`, records its interval as span `name`, and returns its
    /// result with the span's id and host seconds.
    pub fn time<R>(
        &mut self,
        name: &str,
        detail: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u64, f64) {
        let open = self.open(name, detail, parent);
        let id = open.id;
        let out = f();
        let secs = self.close(open);
        (out, id, secs)
    }

    /// Moves the phase spans a [`WallProbe`] saw under `parent`.
    pub fn adopt(&mut self, probe: &mut WallProbe, parent: u64) {
        for (name, start, dur) in probe.spans.drain(..) {
            let id = self.id();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name,
                detail: String::new(),
                thread: self.thread,
                start: start - self.epoch,
                dur,
            });
        }
    }
}

/// A span opened by [`Recorder::open`] and not yet closed.
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: String,
    detail: String,
    start: Instant,
}

/// A passive probe that stamps the simulator's phase spans with host time.
/// Host time inside any open span is kernel-side work (`cluster::exec`
/// resolving and draining a phase through `simkit`); the rest of an engine
/// call is the data plane: relational and storage compute plus planning.
#[derive(Default)]
pub struct WallProbe {
    open: Vec<(u64, String, Instant)>,
    outermost: Option<Instant>,
    /// Host time during which at least one phase span was open.
    pub inside: Duration,
    /// Every probe event seen, of any kind.
    pub events: u64,
    /// Closed phase spans: name, host start, host duration.
    pub spans: Vec<(String, Instant, Duration)>,
}

impl Probe for WallProbe {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        self.events += 1;
        match *ev {
            ProbeEvent::SpanOpened { name, id, .. } => {
                let now = Instant::now();
                self.outermost.get_or_insert(now);
                self.open.push((id, name.to_string(), now));
            }
            ProbeEvent::SpanClosed { id, .. } => {
                let now = Instant::now();
                if let Some(i) = self.open.iter().position(|(open, ..)| *open == id) {
                    let (_, name, start) = self.open.remove(i);
                    self.spans.push((name, start, now - start));
                }
                if self.open.is_empty() {
                    if let Some(first) = self.outermost.take() {
                        self.inside += now - first;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Writes `spans` as a Chrome trace (`chrome://tracing`, Perfetto), with
/// the host's `machine` stanza alongside.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&bench::meta::machine_json("  "));
    out.push_str(",\n  \"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}, \"detail\": \"{}\"}}}}",
            if i == 0 { "" } else { "," },
            escape(&s.name),
            s.thread,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            escape(&s.detail),
        );
    }
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_probe_counts_host_time_inside_spans_once() {
        let mut p = WallProbe::default();
        let open = |id| ProbeEvent::SpanOpened {
            at: 0,
            name: "phase",
            node: None,
            id,
        };
        let close = |id| ProbeEvent::SpanClosed {
            at: 0,
            name: "phase",
            node: None,
            id,
        };
        p.on_event(&open(1));
        p.on_event(&open(2));
        std::thread::sleep(Duration::from_millis(5));
        p.on_event(&close(1));
        p.on_event(&close(2));
        let after_overlap = p.inside;
        assert!(after_overlap >= Duration::from_millis(5));
        assert!(after_overlap < Duration::from_millis(500));
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.events, 4);
        // Time outside every span is not counted.
        std::thread::sleep(Duration::from_millis(5));
        p.on_event(&open(3));
        p.on_event(&close(3));
        assert!(p.inside - after_overlap < Duration::from_millis(5));
    }
}

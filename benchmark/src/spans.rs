//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side, around each call into a
//! layer's public functions and around the serve client's `send` /
//! `wait_reply` / `decode`; spans inside the program are a later change.
//! Each thread buffers its spans in a [`Scope`] and hands them to the
//! shared [`Tracer`] when the scope drops; the tracer writes JSON lines
//! and the per-layer self-time table once the run has ended. With no
//! tracer (`Scope::off`) every call is a branch on `None`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which unit of work a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Set-up, ladder rungs: not tied to one request.
    None,
    /// `batch-*`: the stream index.
    Stream(u32),
    /// `serve-*`: `session:chunk`.
    Chunk { session: u32, chunk: u32 },
}

impl std::fmt::Display for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Request::None => f.write_str("-"),
            Request::Stream(s) => write!(f, "{s}"),
            Request::Chunk { session, chunk } => write!(f, "{session}:{chunk}"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: Request,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

/// An entered, not yet exited span.
#[derive(Debug)]
#[must_use = "pass it back to Scope::exit"]
pub struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    request: Request,
}

/// One thread's view of the tracer: a buffer plus the stack of open
/// spans that gives each new span its parent.
#[derive(Debug)]
pub struct Scope<'t> {
    tracer: Option<&'t Tracer>,
    /// Parent of this scope's outermost spans (a span open on the
    /// spawning thread).
    root: Option<u32>,
    stack: Vec<u32>,
    buf: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn scope(&self, root: Option<u32>) -> Scope<'_> {
        Scope {
            tracer: Some(self),
            root,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// All spans handed in so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.done.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl<'t> Scope<'t> {
    /// A scope that records nothing.
    pub fn off() -> Scope<'static> {
        Scope {
            tracer: None,
            root: None,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// A scope for a thread spawned while `self`'s innermost span is
    /// open: its spans become children of that span.
    pub fn fork(&self) -> Scope<'t> {
        Scope {
            tracer: self.tracer,
            root: self.stack.last().copied().or(self.root),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, request: Request) -> Open {
        let Some(tracer) = self.tracer else {
            return Open {
                id: 0,
                name,
                start_ns: 0,
                request,
            };
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.stack.push(id);
        Open {
            id,
            name,
            start_ns: tracer.epoch.elapsed().as_nanos() as u64,
            request,
        }
    }

    pub fn exit(&mut self, open: Open) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.id), "spans exit innermost first");
        self.buf.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: self.stack.last().copied().or(self.root),
            request: open.request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: Request, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            if let Ok(mut done) = tracer.done.lock() {
                done.append(&mut self.buf);
            }
        }
    }
}

/// Writes one JSON object per span:
/// `{"id", "name", "start_ns", "end_ns", "parent", "request"}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":\"{}\"}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.request
        )?;
    }
    Ok(())
}

/// Per span name: how many, their total duration, and their total self
/// time — duration minus the part of the interval child spans cover
/// (children on concurrent threads may overlap; covered time counts once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let total = s.end_ns - s.start_ns;
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total - covered;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: Request::None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, "rep", 0, 100, None),
            // Two concurrent sessions overlapping on 30..50.
            span(1, "session", 10, 50, Some(0)),
            span(2, "session", 30, 90, Some(0)),
            span(3, "send", 35, 40, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["rep"].self_ns, 100 - 80);
        assert_eq!(t["session"].count, 2);
        assert_eq!(t["session"].total_ns, 40 + 60);
        assert_eq!(t["session"].self_ns, 40 + 55);
        assert_eq!(t["send"].self_ns, 5);
    }

    #[test]
    fn nesting_and_forked_scopes_set_parents() {
        let tracer = Tracer::new();
        let mut main = tracer.scope(None);
        let rep = main.enter("rep", Request::None);
        let forked = std::thread::scope(|s| {
            let mut child = main.fork();
            s.spawn(move || {
                let outer = child.enter("session", Request::Stream(1));
                child.span(
                    "send",
                    Request::Chunk {
                        session: 1,
                        chunk: 0,
                    },
                    || (),
                );
                child.exit(outer);
            })
            .join()
        });
        forked.unwrap();
        main.exit(rep);
        drop(main);

        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (rep, session, send) = (by_name("rep"), by_name("session"), by_name("send"));
        assert_eq!(rep.parent, None);
        assert_eq!(session.parent, Some(rep.id));
        assert_eq!(send.parent, Some(session.id));
        assert!(rep.start_ns <= session.start_ns && session.end_ns <= rep.end_ns);

        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = sunder_telemetry::json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("request").is_some());
        }
        assert!(text.contains("\"request\":\"1:0\""));
    }

    #[test]
    fn an_off_scope_records_nothing() {
        let mut off = Scope::off();
        assert_eq!(off.span("x", Request::None, || 7), 7);
        assert!(off.buf.is_empty());
    }
}

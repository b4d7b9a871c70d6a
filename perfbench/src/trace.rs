//! The benchmark's own in-memory span recorder.
//!
//! In a traced round the benchmark wraps every call it makes into a
//! layer's public function in a span: name, start, end, parent span and
//! operation id. A span's layer is its name up to the first `.`. Self
//! time (duration minus the part covered by child spans) is summed per
//! layer as spans close; the first [`KEEP`] spans are also kept and
//! written out at exit. With tracing off a span costs one thread-local
//! flag read.

use crate::clock::now_ns;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans kept for the exported file; later spans still count.
pub const KEEP: usize = 200_000;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// The benchmark's operation id (0 for set-up work).
    pub op: u64,
    /// Id of the enclosing span.
    pub parent: Option<u64>,
    /// Host ns since the benchmark's clock epoch.
    pub start_ns: u64,
    /// Host ns since the benchmark's clock epoch.
    pub end_ns: u64,
}

struct Open {
    id: u64,
    start: u64,
    child_ns: u64,
    name: &'static str,
}

#[derive(Default)]
struct Recorder {
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Is span recording on?
pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Run `f` inside a span named `name` for operation `op`.
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(name, op);
    let r = f();
    close();
    r
}

/// Run `f` with recording off (replay timing passes), restoring the
/// previous state afterwards.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = enabled();
    set_enabled(false);
    let r = f();
    set_enabled(was);
    r
}

fn open(name: &'static str, op: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.stack.last().map(|o| o.id);
        let start = now_ns();
        if r.kept.len() < KEEP {
            r.kept.push(Span {
                name,
                op,
                parent,
                start_ns: start,
                end_ns: start,
            });
        }
        r.stack.push(Open {
            id,
            start,
            child_ns: 0,
            name,
        });
    });
}

fn close() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(o) = r.stack.pop() else { return };
        let end = now_ns();
        let dur = end.saturating_sub(o.start);
        *r.self_ns.entry(layer(o.name)).or_default() += dur.saturating_sub(o.child_ns);
        if let Some(p) = r.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(s) = r.kept.get_mut(o.id as usize) {
            s.end_ns = end;
        }
    });
}

/// The layer a span name belongs to.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Spans opened so far.
pub fn span_count() -> u64 {
    REC.with(|r| r.borrow().next_id)
}

/// Self time per layer so far, host ns.
pub fn self_ns() -> BTreeMap<&'static str, u64> {
    REC.with(|r| r.borrow().self_ns.clone())
}

/// The kept spans as JSON lines.
pub fn export() -> String {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::new();
        for (id, s) in r.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("orb.outer", 1, || {
            span("bench.inner", 1, || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        set_enabled(false);
        span("orb.ignored", 2, || ());
        let s = self_ns();
        assert!(s.contains_key("orb") && s.contains_key("bench"));
        assert_eq!(span_count(), 2);
        let lines = export();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("\"parent\":0")));
    }
}

//! Benchmark-side spans around calls into the program's layers.
//!
//! Nothing inside the program is instrumented: the traced run wraps each
//! public call it makes (`Cluster::try_schedule`, `UtilizationMonitor::sample`,
//! `Simulation::run_until`, ...) in a [`span`] guard. Spans nest on a
//! per-thread stack, so a span's *self* time is its duration minus the time
//! its direct children covered — `des.run_until` self time is the event
//! loop's own dispatch cost once every layer call made from inside an event
//! is subtracted.
//!
//! Spans are folded into per-(name, parent) aggregates as they close rather
//! than kept as raw records: a 14-day fig01 replay closes ~130k spans, and
//! only counts and sums are reported.

use std::cell::RefCell;
use std::time::Instant;

/// Totals for one span name under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_s: f64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Open>,
    /// `(name, parent name)` → totals. A handful of entries, so a linear
    /// scan beats hashing.
    aggs: Vec<(&'static str, &'static str, Agg)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Closes its span when dropped.
pub struct Guard(());

/// Open a span named `name` as a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Open {
            name,
            start: Instant::now(),
            child_s: 0.0,
        })
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let open = t.stack.pop().expect("span guards drop in stack order");
            let dur = end.duration_since(open.start).as_secs_f64();
            let parent = match t.stack.last_mut() {
                Some(p) => {
                    p.child_s += dur;
                    p.name
                }
                None => "",
            };
            let agg = match t
                .aggs
                .iter_mut()
                .find(|(n, p, _)| *n == open.name && *p == parent)
            {
                Some((_, _, agg)) => agg,
                None => {
                    t.aggs.push((open.name, parent, Agg::default()));
                    &mut t.aggs.last_mut().expect("just pushed").2
                }
            };
            agg.count += 1;
            agg.total_s += dur;
            agg.self_s += dur - open.child_s;
        });
    }
}

/// Take (and clear) this thread's aggregates as `(name, parent, totals)`.
pub fn drain() -> Vec<(&'static str, &'static str, Agg)> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().aggs))
}

/// Sum the aggregates of `name` over every parent.
pub fn total(aggs: &[(&'static str, &'static str, Agg)], name: &str) -> Agg {
    aggs.iter()
        .filter(|(n, _, _)| *n == name)
        .fold(Agg::default(), |acc, (_, _, a)| Agg {
            count: acc.count + a.count,
            total_s: acc.total_s + a.total_s,
            self_s: acc.self_s + a.self_s,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        drain();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let aggs = drain();
        let outer = total(&aggs, "outer");
        let inner = total(&aggs, "inner");
        assert_eq!((outer.count, inner.count), (1, 3));
        assert!(inner.total_s >= 0.006);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(aggs.iter().any(|(n, p, _)| *n == "inner" && *p == "outer"));
    }
}

//! The cheap producer-side handle.

use std::cell::RefCell;
use std::rc::Rc;

use eventsim::SimTime;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// A clone-able handle producers use to emit [`TraceEvent`]s.
///
/// Internally an `Option<Rc<RefCell<dyn TraceSink>>>` — the simulation is
/// single-threaded, so shared ownership needs no atomics. When tracing is
/// off (the `Default`), [`Tracer::emit`] is a single `Option` discriminant
/// check and the event-construction closure is never run, so instrumented
/// hot paths stay effectively free on figure-generating runs.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl Tracer {
    /// A disabled tracer; every [`Tracer::emit`] is a no-op.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// Wraps `sink` and returns the tracer plus a typed shared handle to the
    /// sink, so callers can inspect it after the run without downcasting.
    pub fn new<S: TraceSink + 'static>(sink: S) -> (Tracer, Rc<RefCell<S>>) {
        let shared = Rc::new(RefCell::new(sink));
        let tracer = Tracer {
            sink: Some(shared.clone()),
        };
        (tracer, shared)
    }

    /// Whether events are being recorded.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `make` at simulation time `t`.
    ///
    /// `make` runs only when tracing is enabled, so callers may allocate
    /// (e.g. format labels) inside the closure without hot-path cost.
    #[inline]
    pub fn emit(&self, t: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(t, &make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;
    use crate::DropWhy;

    #[test]
    fn off_tracer_never_builds_events() {
        let t = Tracer::off();
        assert!(!t.is_on());
        let mut built = false;
        t.emit(SimTime::ZERO, || {
            built = true;
            TraceEvent::FlowEnd { flow: 0 }
        });
        assert!(!built, "closure must not run when tracing is off");
    }

    #[test]
    fn clones_share_one_sink() {
        let (tracer, counts) = Tracer::new(CountingSink::default());
        let clone = tracer.clone();
        assert!(tracer.is_on() && clone.is_on());
        tracer.emit(SimTime::from_ns(1), || TraceEvent::Drop {
            node: 0,
            port: 0,
            flow: 1,
            seq: 0,
            why: DropWhy::Dynamic,
            green: false,
        });
        clone.emit(SimTime::from_ns(2), || TraceEvent::Drop {
            node: 0,
            port: 0,
            flow: 2,
            seq: 0,
            why: DropWhy::Dynamic,
            green: false,
        });
        assert_eq!(counts.borrow().totals.drops_dt, 2);
    }
}

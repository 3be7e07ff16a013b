//! The kernel side of the tracing wire: one emission macro.
//!
//! `trace_emit!` checks the tracer's `enabled` flag and stamps the
//! record with the engine's current time and dispatch count; the event
//! expression is evaluated only when tracing is on, so a disabled
//! tracer costs one predictable branch per hook.
//!
//! Emission never mutates simulation state: no RNG draws, no cost
//! charges, no scheduling, so sim metrics are byte-identical with
//! tracing enabled or disabled.

macro_rules! trace_emit {
    ($m:expr, $core:expr, $op:expr, $ev:expr) => {
        if $m.tracer.is_enabled() {
            let at = $m.engine.now();
            let dispatch = $m.engine.events_processed();
            $m.tracer.emit(at, dispatch, $core, $op, $ev);
        }
    };
}

pub(crate) use trace_emit;

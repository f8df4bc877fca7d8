//! Event sinks: where the engine's lifecycle events go.

use crate::Event;

/// A consumer of simulator lifecycle [`Event`]s.
///
/// The engine hands out `&Event` so a sink can filter without paying for
/// clones it does not keep. Implementations must not assume any particular
/// global ordering beyond what the engine guarantees: events for one thread
/// id arrive in lifecycle order (spawn before its squash/commit), and
/// commits arrive in sequential program order.
pub trait EventSink {
    /// Record one event. Called synchronously from the engine's hot path,
    /// so implementations should be cheap; anything expensive belongs in a
    /// post-run pass over an [`EventLog`].
    fn record(&mut self, event: &Event);
}

/// A sink that discards everything — the explicit "disabled" choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

/// A sink that records every event in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consume the log, yielding the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for EventLog {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Forwarding impl so `&mut S` works wherever a sink is expected.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_preserves_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        let a = Event::ThreadSpawned {
            thread: 0,
            unit: 0,
            cycle: 0,
            speculative: false,
        };
        let b = Event::ViolationDetected {
            thread: 0,
            unit: 0,
            cycle: 9,
        };
        log.record(&a);
        log.record(&b);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events(), [a.clone(), b.clone()]);
        assert_eq!(log.into_events(), vec![a, b]);
    }

    #[test]
    fn null_sink_ignores_everything() {
        let mut sink = NullSink;
        sink.record(&Event::ViolationDetected {
            thread: 1,
            unit: 0,
            cycle: 3,
        });
        assert_eq!(sink, NullSink);
    }
}

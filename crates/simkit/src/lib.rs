//! # simkit — a small deterministic discrete-event simulation kernel
//!
//! Everything in this reproduction that "takes time" — disk reads, network
//! transfers, CPU work, lock waits — is charged against a virtual clock
//! managed by [`Sim`]. The kernel provides:
//!
//! * a binary-heap event scheduler with deterministic FIFO tie-breaking
//!   and arena-recycled event storage (see [`sched`]),
//! * k-server FIFO [`resource`]s (disks, NICs, CPU pools, map slots, locks),
//! * [`latch`]es for barrier-style joins ("when all N tasks finish, ..."),
//! * online [`stats`] (mean/percentile latencies, resource utilization),
//! * the [`trace`] vocabulary every timing report bottoms out in: a
//!   [`trace::Span`] (named phase with sim-time start/end) carries
//!   [`trace::Contrib`]s splitting each resource's *service time* from its
//!   *FIFO queue wait*; [`trace::UtilSummary`] folds spans into per-kind
//!   busy/wait totals,
//! * a passive [`probe`] bus: attach a [`probe::Probe`] to a [`Sim`] and it
//!   receives every resource/span/task event in deterministic order without
//!   being able to perturb the run.
//!
//! The kernel is generic over a *world* type `W`: the mutable simulation
//! state owned by the caller. Event handlers receive `(&mut Sim<W>, &mut W)`
//! so they can both mutate world state and schedule further events, without
//! interior mutability.
//!
//! Time is measured in integer **nanoseconds** ([`SimTime`]); helpers convert
//! from floating-point seconds. Determinism: two events scheduled for the
//! same instant fire in scheduling order.
//!
//! ```
//! use simkit::{secs, Sim};
//!
//! let mut sim: Sim<Vec<&str>> = Sim::new();
//! let disk = sim.add_resource("disk", 1);
//! // Two 1-second reads on a single-server disk serialize.
//! sim.use_resource(disk, secs(1.0), |_, log: &mut Vec<_>| log.push("first"));
//! sim.use_resource(disk, secs(1.0), |_, log| log.push("second"));
//! let mut log = Vec::new();
//! let end = sim.run(&mut log);
//! assert_eq!(log, vec!["first", "second"]);
//! assert_eq!(end, secs(2.0));
//! ```

#![forbid(unsafe_code)]

pub mod latch;
pub mod probe;
pub mod resource;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod trace;

pub use latch::Latch;
pub use probe::{Probe, ProbeEvent};
pub use resource::ResourceId;
pub use sim::{Event, ReqTiming, Sim, SimTime, TimedEvent};
pub use trace::{Contrib, ResKind, Span, Trace, UtilSummary};

/// One microsecond in [`SimTime`] units.
pub const MICROSECOND: SimTime = 1_000;
/// One millisecond in [`SimTime`] units.
pub const MILLISECOND: SimTime = 1_000_000;
/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000_000;

/// Convert floating-point seconds to [`SimTime`] (saturating, never negative).
#[inline]
pub fn secs(s: f64) -> SimTime {
    debug_assert!(s.is_finite(), "non-finite duration");
    if s <= 0.0 {
        0
    } else {
        (s * 1e9).round() as SimTime
    }
}

/// Convert [`SimTime`] to floating-point seconds.
#[inline]
pub fn as_secs(t: SimTime) -> f64 {
    t as f64 / 1e9
}

/// Convert floating-point milliseconds to [`SimTime`].
#[inline]
pub fn millis(ms: f64) -> SimTime {
    secs(ms / 1e3)
}

/// Convert [`SimTime`] to floating-point milliseconds.
#[inline]
pub fn as_millis(t: SimTime) -> f64 {
    t as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(secs(1.0), SECOND);
        assert_eq!(secs(0.001), MILLISECOND);
        assert_eq!(secs(-5.0), 0);
        assert_eq!(secs(0.0), 0);
        assert!((as_secs(secs(123.456)) - 123.456).abs() < 1e-9);
        assert!((as_millis(millis(7.5)) - 7.5).abs() < 1e-9);
    }
}

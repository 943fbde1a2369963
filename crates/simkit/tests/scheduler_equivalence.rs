//! Scheduler-equivalence regression suite, kernel level: the calendar
//! queue and the binary-heap fallback must produce **bit-identical**
//! behaviour — same event firing order (including FIFO ties), same final
//! clock, same probe stream — on the same workload. The engine-level
//! half of this suite (TPC-H Q5 phase replay, YCSB mix) lives in
//! `crates/bench/tests/scheduler_equivalence.rs`.
//!
//! Workloads are generated from splitmix64 integer mixing seeded by an
//! explicit seed list, so every run of this test is identical too.

use simkit::probe::{Probe, ProbeEvent};
use simkit::{SchedulerKind, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// splitmix64 finalizer — deterministic pseudo-random integers.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Probe that renders every event to a line; streams compare with `==`.
#[derive(Default)]
struct RecordingProbe(Vec<String>);

impl Probe for RecordingProbe {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        self.0.push(format!("{ev:?}"));
    }
}

/// The per-kernel run: a mixed workload of one-shot timers (clustered so
/// FIFO ties happen), self-rescheduling timers, and two FIFO resources,
/// all driven by `seed`. Returns every observable the kernel produces.
fn run_mixed(kind: SchedulerKind, seed: u64) -> (Vec<(SimTime, u64)>, Vec<String>, SimTime, u64) {
    let mut sim: Sim<Vec<(SimTime, u64)>> = Sim::with_scheduler(kind);
    assert_eq!(sim.scheduler_kind(), kind);
    let probe = Rc::new(RefCell::new(RecordingProbe::default()));
    sim.set_probe(Some(probe.clone()));
    let mut w: Vec<(SimTime, u64)> = Vec::new();

    // One-shot timers, deliberately clustered on few distinct instants so
    // same-time FIFO ordering is exercised hard.
    for i in 0..500u64 {
        let at = mix(seed ^ i) % 64; // many ties
        sim.after(at, move |s, w: &mut Vec<_>| w.push((s.now(), i)));
    }
    // Self-rescheduling timers: events scheduled *from* events, far apart.
    for i in 0..50u64 {
        fn tick(sim: &mut Sim<Vec<(SimTime, u64)>>, seed: u64, i: u64, left: u32) {
            let d = mix(seed.wrapping_mul(31).wrapping_add(i)) % 10_000 + 1;
            sim.after(d, move |s, w: &mut Vec<_>| {
                w.push((s.now(), 1_000 + i));
                if left > 0 {
                    tick(s, seed.wrapping_add(left as u64), i, left - 1);
                }
            });
        }
        tick(&mut sim, seed, i, 8);
    }
    // Two FIFO resources fed with pseudo-random service demands.
    let disk = sim.add_resource("disk", 2);
    let cpu = sim.add_resource("cpu", 4);
    for i in 0..200u64 {
        let h = mix(seed.rotate_left(17) ^ i);
        let r = if h.is_multiple_of(2) { disk } else { cpu };
        let service = (h >> 8) % 5_000 + 1;
        sim.use_resource(r, service, move |s, w: &mut Vec<_>| {
            w.push((s.now(), 2_000 + i));
        });
    }

    let end = sim.run(&mut w);
    let lines = std::mem::take(&mut probe.borrow_mut().0);
    (w, lines, end, sim.events_executed())
}

#[test]
fn calendar_and_heap_agree_on_mixed_workloads() {
    for seed in [7, 1_234, 0xDEAD_BEEF, u64::MAX / 3] {
        let cal = run_mixed(SchedulerKind::Calendar, seed);
        let heap = run_mixed(SchedulerKind::Heap, seed);
        assert_eq!(cal.0, heap.0, "firing order diverged (seed {seed})");
        assert_eq!(cal.1, heap.1, "probe stream diverged (seed {seed})");
        assert_eq!(cal.2, heap.2, "final clock diverged (seed {seed})");
        assert_eq!(cal.3, heap.3, "event count diverged (seed {seed})");
    }
}

#[test]
fn thread_override_selects_the_backend_for_plain_new() {
    let guard = simkit::sched::override_thread_default(SchedulerKind::Heap);
    let sim: Sim<()> = Sim::new();
    assert_eq!(sim.scheduler_kind(), SchedulerKind::Heap);
    drop(guard);
    let sim: Sim<()> = Sim::new();
    assert_eq!(sim.scheduler_kind(), SchedulerKind::Calendar);
}

//! The host-speed probe: a fixed CPU workload that shares no code with the
//! program under test, timed beside it.
//!
//! On a shared host the speed of one vCPU drifts by up to 1.7× between
//! minutes and by a tenth within a second (a busy hyperthread sibling,
//! other tenants), and the drift moves thread CPU time as much as wall
//! time, so neither removes it. The probe is a small discrete-event loop
//! — a binary heap of timestamps, a 64-bit generator, logarithms and
//! exponentials, and reads and writes of a table — the kind of work the
//! engines and the server do. Its working set (an 8 KiB heap and a
//! 16 KiB table) stays in the first-level cache: a version with a
//! 512 KiB table followed other tenants' cache traffic more than the
//! engines did, and scaled the engines' rates less steadily. The
//! probe's rate, taken next to each measurement, gives the host's speed
//! at that moment; metrics that host speed sets are reported at
//! [`REFERENCE_STEPS_PER_S`]. The benchmark fixes this code, so a change
//! to the program never moves the probe.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Probe steps per second of the reference host. Reported metrics read as
/// they would on a host that runs the probe at this rate.
pub const REFERENCE_STEPS_PER_S: f64 = 9.5e6;

/// Steps of one probe unit (about 0.3 ms on the reference host).
const STEPS: u64 = 2_500;

/// Pending events in the heap.
const EVENTS: usize = 512;

/// Entries of the table (8 bytes each).
const TABLE: usize = 1 << 11;

/// The probe's state, kept across units so that they all do the same
/// work on warm data.
pub struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<f64>,
    rng: u64,
    sum: f64,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with its heap full and its table filled.
    pub fn new() -> Probe {
        let mut probe = Probe {
            heap: BinaryHeap::with_capacity(EVENTS + 1),
            table: (0..TABLE).map(|i| 1.0 + (i % 97) as f64 / 97.0).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
            sum: 0.0,
        };
        for id in 0..EVENTS as u32 {
            let at = probe.next_u64() % 1_000_000;
            probe.heap.push(Reverse((at, id)));
        }
        probe
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One unit of work; returns the steps it did.
    pub fn unit(&mut self) -> u64 {
        for _ in 0..STEPS {
            let Reverse((now, id)) = self.heap.pop().expect("the heap never empties");
            let r = self.next_u64();
            // An exponential gap, as a Poisson arrival process draws it.
            let u = ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let gap = -u.ln() * 1_000.0;
            let slot = (r as usize ^ id as usize) & (TABLE - 1);
            let x = self.table[slot];
            // A saturating loss curve, as a PER model evaluates it.
            let loss = 1.0 / (1.0 + (x * 4.0 - gap * 1e-3).exp());
            self.table[slot] = 1.0 + loss;
            self.sum += loss;
            let branch = if loss > 0.5 { 3 } else { 1 };
            self.heap.push(Reverse((now + gap as u64 + branch, id)));
        }
        std::hint::black_box(self.sum);
        STEPS
    }

    /// Probe steps per second over one `slice`.
    pub fn rate(&mut self, slice: Duration) -> f64 {
        let t0 = Instant::now();
        let mut done = 0;
        loop {
            done += self.unit();
            let elapsed = t0.elapsed();
            if elapsed >= slice {
                return done as f64 / elapsed.as_secs_f64();
            }
        }
    }
}

/// How much faster than the reference host the host ran, from a probe
/// rate.
pub fn speed(steps_per_s: f64) -> f64 {
    steps_per_s / REFERENCE_STEPS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_do_a_fixed_amount_of_work_on_a_full_heap() {
        let mut probe = Probe::new();
        assert_eq!(probe.unit(), STEPS);
        assert_eq!(probe.unit(), STEPS);
        assert_eq!(probe.heap.len(), EVENTS);
        assert!(probe.sum.is_finite() && probe.sum > 0.0);
        assert!(probe.rate(Duration::from_millis(5)) > 0.0);
    }

    #[test]
    fn the_reference_host_has_speed_one() {
        assert_eq!(speed(REFERENCE_STEPS_PER_S), 1.0);
        assert_eq!(speed(REFERENCE_STEPS_PER_S / 2.0), 0.5);
    }
}

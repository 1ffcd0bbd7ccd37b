//! The recorder's clock: one [`Stamp`] per phase boundary.
//!
//! Which clock a stamp reads depends on the CPU:
//!
//! - **x86-64 with an invariant TSC** (CPUID leaf `0x8000_0007`, EDX bit
//!   8: the counter ticks at one rate in every power state): one unfenced
//!   `rdtsc`. Ticks become nanoseconds through a mult/shift calibrated
//!   once per process against [`Instant`].
//! - **any other CPU:** an [`Instant`] read, kept as nanoseconds since the
//!   epoch below.
//!
//! The calibration runs in the process's first `Obs::new`, before any
//! stamp can exist. It reads an `Instant` and the TSC beside it, spins
//! for [`CALIBRATION_NS`], and reads the pair again. The first pair is the
//! epoch behind every `ts_ns` of either source, so no stamp precedes it.
//!
//! An unfenced `rdtsc` may execute a few instructions early or late; at
//! phase boundaries of hundreds of nanoseconds that is noise, and a fence
//! would cost more than the read. Durations are differences of
//! epoch-relative nanoseconds, so a span's end offset is exactly the
//! nanosecond its end stamp converts to, and spans nest as their stamps do.

use std::sync::OnceLock;
use std::time::Instant;

/// How long the calibration spins between its two paired reads.
const CALIBRATION_NS: u64 = 50_000;

/// Fixed-point shift of the tick → nanosecond multiplier.
const SHIFT: u32 = 32;

/// A phase boundary's reading, handed back to the [`Obs`](crate::Obs)
/// that read it: raw TSC ticks or nanoseconds since the epoch, depending
/// on the handle's source. The default stamp is what a disabled handle
/// returns — no reading at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp(pub(crate) Option<u64>);

/// The clock behind a handle's stamps. A handle takes the CPU's
/// ([`Obs::new`](crate::Obs::new)); tests pick one to hold both to the same
/// contract ([`Obs::with_stamp_source`](crate::Obs::with_stamp_source)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampSource {
    /// The calibrated time-stamp counter (x86-64 only).
    Tsc,
    /// [`Instant`], as nanoseconds since the epoch.
    Instant,
}

/// The TSC's conversion: ticks at the epoch, and nanoseconds per tick as
/// a `2^-SHIFT` fixed-point multiplier.
#[derive(Debug, Clone, Copy)]
struct TscScale {
    epoch: u64,
    mult: u64,
}

/// The process's calibration, made once.
#[derive(Debug)]
struct Calibration {
    epoch: Instant,
    /// The TSC's scale, on x86-64 when the counter advanced at a sane rate.
    tsc: Option<TscScale>,
    /// The CPU reports an invariant TSC.
    invariant: bool,
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(calibrate)
}

/// A handle's clock: the shared epoch and, when it reads the TSC, the scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    epoch: Instant,
    tsc: Option<TscScale>,
}

impl Clock {
    /// The CPU's clock: the TSC when it is invariant, `Instant` otherwise.
    pub(crate) fn detect() -> Clock {
        let cal = calibration();
        let source = if cal.invariant && cal.tsc.is_some() {
            StampSource::Tsc
        } else {
            StampSource::Instant
        };
        Clock::of(source).expect("the detected source exists")
    }

    /// The clock reading `source`, or `None` for a TSC this CPU lacks.
    pub(crate) fn of(source: StampSource) -> Option<Clock> {
        let cal = calibration();
        let tsc = match source {
            StampSource::Tsc => Some(cal.tsc?),
            StampSource::Instant => None,
        };
        Some(Clock {
            epoch: cal.epoch,
            tsc,
        })
    }

    pub(crate) fn source(&self) -> StampSource {
        match self.tsc {
            Some(_) => StampSource::Tsc,
            None => StampSource::Instant,
        }
    }

    /// One raw reading: TSC ticks, or nanoseconds since the epoch.
    #[inline]
    pub(crate) fn read(&self) -> u64 {
        match self.tsc {
            Some(_) => rdtsc(),
            None => nanos_since(self.epoch),
        }
    }

    /// A raw reading as nanoseconds since the epoch.
    #[inline]
    pub(crate) fn ns(&self, raw: u64) -> u64 {
        match self.tsc {
            Some(s) => {
                let ticks = u128::from(raw.saturating_sub(s.epoch));
                u64::try_from((ticks * u128::from(s.mult)) >> SHIFT).unwrap_or(u64::MAX)
            }
            None => raw,
        }
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn calibrate() -> Calibration {
    let Some((epoch, tsc0)) = paired_read() else {
        return Calibration {
            epoch: Instant::now(),
            tsc: None,
            invariant: false,
        };
    };
    let (elapsed, tsc1) = loop {
        let (now, tsc1) = paired_read().expect("the TSC read once");
        let elapsed = now.saturating_duration_since(epoch).as_nanos();
        if elapsed >= u128::from(CALIBRATION_NS) {
            break (elapsed, tsc1);
        }
    };
    // A counter that did not advance, or whose rate fits no multiplier,
    // has no scale.
    let mult = ((elapsed << SHIFT).checked_div(u128::from(tsc1.saturating_sub(tsc0))))
        .and_then(|m| u64::try_from(m).ok())
        .filter(|m| *m > 0);
    Calibration {
        epoch,
        tsc: mult.map(|mult| TscScale { epoch: tsc0, mult }),
        invariant: invariant_tsc(),
    }
}

/// An `Instant` and the TSC at the same moment (the midpoint of two TSC
/// reads around it), from the narrowest of a few tries, so an interrupt
/// inside one pair does not skew the scale. `None` off x86-64.
fn paired_read() -> Option<(Instant, u64)> {
    if !cfg!(target_arch = "x86_64") {
        return None;
    }
    let mut best: Option<(u64, Instant, u64)> = None;
    for _ in 0..5 {
        let a = rdtsc();
        let now = Instant::now();
        let b = rdtsc();
        let width = b.wrapping_sub(a);
        if best.is_none_or(|(w, _, _)| width < w) {
            best = Some((width, now, a.wrapping_add(width / 2)));
        }
    }
    best.map(|(_, now, tsc)| (now, tsc))
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC exists on every x86-64 CPU and only reads the counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn rdtsc() -> u64 {
    unreachable!("no TSC scale is calibrated off x86-64")
}

#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use core::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000's EAX is the highest extended leaf.
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clocks() -> Vec<Clock> {
        [StampSource::Tsc, StampSource::Instant]
            .into_iter()
            .filter_map(Clock::of)
            .collect()
    }

    #[test]
    fn stamps_never_decrease_within_a_thread() {
        for clock in clocks() {
            let mut last = clock.ns(clock.read());
            for _ in 0..100_000 {
                let now = clock.ns(clock.read());
                assert!(now >= last, "{:?}: {now} after {last}", clock.source());
                last = now;
            }
        }
    }

    #[test]
    fn the_epoch_precedes_every_stamp() {
        for clock in clocks() {
            let before = clock.ns(clock.read());
            let truth = nanos_since(clock.epoch);
            let after = clock.ns(clock.read());
            assert!(before > 0, "{:?}: a stamp at the epoch", clock.source());
            // Two clocks, one calibration: within 1 % + 1 µs of each other.
            let slack = truth / 100 + 1_000;
            assert!(before <= truth + slack && truth <= after + slack);
        }
    }

    #[test]
    fn the_detected_source_follows_the_cpu() {
        let cal = calibration();
        let expect = if cfg!(target_arch = "x86_64") && cal.invariant {
            StampSource::Tsc
        } else {
            StampSource::Instant
        };
        assert_eq!(Clock::detect().source(), expect);
        assert_eq!(
            Clock::of(StampSource::Tsc).is_some(),
            cfg!(target_arch = "x86_64")
        );
    }
}

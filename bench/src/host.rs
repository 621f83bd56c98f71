//! What the benchmark reads from the machine it runs on: CPU clocks, peak
//! memory, core count, and a calibration that tells a quiet host from a
//! busy one.

use std::time::{Duration, Instant};

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of a POSIX clock in nanoseconds; 0 where the clock is missing
/// (only Linux is a supported host for the benchmark).
fn cpu_clock_ns(clock: i32) -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec of the layout the
        // 64-bit Linux ABI defines, and std already links libc, which
        // provides `clock_gettime`.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc == 0 {
            return (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64;
        }
    }
    let _ = clock;
    0
}

/// User + system CPU time of the whole process, all threads, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in ns. It stands still while the thread
/// is blocked, which is what separates work from waiting in a span.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`) in MB, or 0 when
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak (`VmHWM`) at the current resident size, so that the
/// next reading is the peak since this call. Returns false where the
/// kernel has no such reset; the peak then stays the process's lifetime
/// peak.
pub fn reset_peak_rss() -> bool {
    // "5" is the `clear_refs` command that resets the peak resident size.
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed scalar multiply-add chain. Every iteration depends on the one
/// before, so its time measures the core's clock and how much of it this
/// process is getting — nothing about memory or the program under test.
fn fma_chain(iters: u64) -> f64 {
    let (a, b) = (std::hint::black_box(0.999_999_9_f64), 1e-7_f64);
    let mut x = 1.0_f64;
    for _ in 0..iters {
        x = x * a + b;
    }
    std::hint::black_box(x)
}

/// Iterations of [`fma_chain`] per calibration leg: about 25 ms on the
/// reference host, so one calibration (a one-thread leg, then a two-thread
/// leg) costs about 50 ms.
const CALIB_ITERS: u64 = 13_000_000;
/// Iterations per thread of one busy wait of the gate: about 0.2 s.
const WAIT_ITERS: u64 = 100_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Time of the chain on one thread, in ms.
    pub one_thread_ms: f64,
    /// Two-thread throughput over one-thread throughput: about 2.0 when
    /// two cores are free, about 1.0 when the threads share one.
    pub parallel_capacity: f64,
}

pub fn calibrate() -> Calibration {
    let t = Instant::now();
    fma_chain(CALIB_ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(|| fma_chain(CALIB_ITERS));
        fma_chain(CALIB_ITERS);
        other.join().expect("calibration thread panicked");
    });
    let two = t.elapsed().as_secs_f64();
    Calibration {
        one_thread_ms: one * 1e3,
        parallel_capacity: 2.0 * one / two,
    }
}

/// The host noise gate. It runs a calibration before each timed
/// repetition and holds the repetition back while the host looks busy or
/// half asleep. It only chooses *when* a repetition runs: the program's
/// work and checks are never altered, skipped or shortened.
///
/// Waiting means working. On the reference host (a two-vCPU guest) the
/// second core goes away after four to eight idle seconds and comes back
/// only after one to two seconds of two-thread load; a gate that slept
/// would keep it away. So between calibrations the gate keeps two threads
/// busy with the same chain.
pub struct NoiseGate {
    /// Does the workload need two free cores (two thread-ranks)?
    two_threads: bool,
    /// One-thread time of every calibration so far, retries included.
    seen_ms: Vec<f64>,
    budget: Duration,
    pub reps_retried: u64,
    /// Set when the budget ran out with the gate still shut: the numbers
    /// are reported all the same, marked noisy.
    pub noisy: bool,
    pub calib_ms: Vec<f64>,
    pub capacity: Vec<f64>,
}

/// A repetition waits when two threads get less than this much of two
/// cores' throughput …
const MIN_CAPACITY: f64 = 1.8;
/// … or when the chain runs this much slower than the median of the
/// calibrations seen in this process. (Not the fastest seen: the reference
/// host has turbo phases 15 % faster than its usual clock, and one of them
/// would shut the gate for the rest of the process.)
const MAX_SLOWDOWN: f64 = 1.07;

impl NoiseGate {
    /// `budget` caps the total extra time the gate may add to one process.
    pub fn new(two_threads: bool, budget: Duration) -> NoiseGate {
        NoiseGate {
            // On a one-core host the capacity test could never pass; the
            // result is stamped `oversubscribed` instead.
            two_threads: two_threads && nproc() >= 2,
            seen_ms: Vec::new(),
            budget,
            reps_retried: 0,
            noisy: false,
            calib_ms: Vec::new(),
            capacity: Vec::new(),
        }
    }

    /// Calibrate, and wait while the host is busy and budget remains.
    pub fn wait_until_quiet(&mut self) {
        let mut retried = false;
        loop {
            let t = Instant::now();
            let c = calibrate();
            self.seen_ms.push(c.one_thread_ms);
            let quiet = c.one_thread_ms <= crate::stats::median(&self.seen_ms) * MAX_SLOWDOWN
                && (!self.two_threads || c.parallel_capacity >= MIN_CAPACITY);
            if quiet || self.budget.is_zero() {
                self.noisy |= !quiet;
                self.reps_retried += u64::from(retried);
                self.calib_ms.push(c.one_thread_ms);
                self.capacity.push(c.parallel_capacity);
                return;
            }
            retried = true;
            std::thread::scope(|s| {
                let other = s.spawn(|| fma_chain(WAIT_ITERS));
                fma_chain(WAIT_ITERS);
                other.join().expect("gate thread panicked");
            });
            self.budget = self.budget.saturating_sub(t.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        fma_chain(2_000_000);
        assert!(process_cpu_ns() > p0);
        assert!(thread_cpu_ns() > t0);
    }

    #[test]
    fn peak_rss_is_reported_and_can_be_reset() {
        let block = vec![1u8; 64 << 20];
        let high = peak_rss_mb();
        assert!(high >= 64.0, "{high}");
        drop(std::hint::black_box(block));
        if reset_peak_rss() {
            assert!(peak_rss_mb() < high);
        }
    }

    #[test]
    fn gate_with_no_budget_never_waits() {
        let mut gate = NoiseGate::new(true, Duration::ZERO);
        gate.wait_until_quiet();
        assert_eq!(gate.calib_ms.len(), 1);
        assert_eq!(gate.reps_retried, 0);
    }
}

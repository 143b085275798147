//! The machine's speed over a run, from a fixed calibration kernel.
//!
//! The benchmark runs on a few cores of a shared host, whose speed changes
//! for seconds at a time: the engine's statements ran at 1.6–1.9× their
//! best time while the host was busy with other work.  So a run stops its
//! loop every [`SLICE`], with every request answered and nothing of the
//! benchmark's own running, and times [`kernel`], a fixed piece of work that
//! never calls the program.  Each latency measured in a slice is then
//! scaled by `REFERENCE_US / k`, where `k` is the kernel time around that
//! slice (the median of the readings within a second or so of it): the
//! latency the statement would have had at the speed at which the kernel
//! takes `REFERENCE_US`.  A change to the program moves the scaled numbers
//! exactly as it moves the raw ones; a change of host speed moves both the
//! program and the kernel and cancels out.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long the loop runs between two calibrations.
pub const SLICE: Duration = Duration::from_millis(250);

/// Kernel time (µs) that defines reference speed: about its median time on
/// the 2-vCPU Xeon VM where the bounds were set, when that host ran at its
/// fastest (at its slowest, the kernel took about 350 µs).
pub const REFERENCE_US: f64 = 205.0;

/// Kernel repetitions per calibration; their median is the reading.
const REPEATS: usize = 7;

/// Many small vectors allocated, filled and sorted, as the engine does with
/// tuples and answer sets.  Of the kernels tried on the host named at
/// `REFERENCE_US` (hash-map probes, B-tree inserts, nested-loop joins,
/// pointer chasing, pure arithmetic, boxed values, small vectors), this one
/// slowed down as the engine's own statements did: over one-second bins, its
/// slowdown matched theirs within 2–4%, where the pure arithmetic loop barely
/// slowed at all and hash-map probes slowed by half as much.
pub fn kernel() -> u64 {
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(3000);
    for i in 0..3000u32 {
        rows.push((0..i % 13).map(|x| x * i).collect());
    }
    rows.sort();
    rows.len() as u64 + rows[100].len() as u64
}

/// One reading: the median of a few timed kernel runs, in µs.
pub fn read() -> f64 {
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread and process it starts later,
/// to one vCPU: the highest it may run on.  The kernel is then timed on the
/// vCPU that runs the statements, whose speed need not be the other vCPU's,
/// and a serve-mix request hands over between client and server on one vCPU
/// instead of waking the other.  Returns the vCPU's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of a
    // `cpu_set_t`, which the call fills in.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("no vCPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes, which the call
    // only reads.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Readings on each side of a slice whose median sets its speed: one
/// reading is noisy, and the host's speed holds for seconds.
const WINDOW: usize = 4;

/// Calibration readings taken between the slices of a run.
#[derive(Debug, Default)]
pub struct Clock {
    readings: Vec<f64>,
}

impl Clock {
    /// A clock whose first reading is taken now.
    pub fn start() -> Clock {
        Clock {
            readings: vec![read()],
        }
    }

    /// Close the current slice with a reading; returns the slice's number.
    pub fn lap(&mut self) -> usize {
        self.readings.push(read());
        self.readings.len() - 2
    }

    /// Per slice, the factor that scales its times to reference speed: the
    /// median of the readings up to `WINDOW` on either side of it.
    pub fn factors(&self) -> Vec<f64> {
        let n = self.readings.len();
        (0..n.saturating_sub(1))
            .map(|i| {
                let lo = (i + 1).saturating_sub(WINDOW);
                let hi = (i + 1 + WINDOW).min(n);
                REFERENCE_US / crate::stats::median(&self.readings[lo..hi])
            })
            .collect()
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_the_median_of_nearby_readings() {
        // A single stray reading is outvoted by its neighbours.
        let clock = Clock {
            readings: vec![200.0, 200.0, 400.0, 200.0, 200.0],
        };
        assert_eq!(clock.factors(), vec![REFERENCE_US / 200.0; 4]);
        // A slow stretch scales the slices inside it, not those far before.
        let mut readings = vec![100.0; 10];
        readings.extend([300.0; 10]);
        let factors = Clock { readings }.factors();
        assert_eq!(factors.len(), 19);
        assert_eq!(factors[0], REFERENCE_US / 100.0);
        assert_eq!(factors[18], REFERENCE_US / 300.0);
    }
}

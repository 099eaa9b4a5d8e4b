//! Moving the client thread round the CPUs it may run on.
//!
//! On a guest whose vCPUs share their host with other guests, each vCPU
//! slows down on its own, for seconds to minutes at a time. A lone busy
//! thread stays on one vCPU, so a run would measure that vCPU's luck.
//! Holding the client on each allowed CPU in turn makes a run see their
//! average. In six interleaved pairs of 40-second `cpd_fabric_grid` runs
//! on a 2-vCPU guest, moving it before every query cut the spread of
//! `queries_per_s` from 0.134 to 0.056 of the median, and that of
//! `query_p50_ms` from 0.174 to 0.077. The client moves once a [`SLICE`]
//! instead, so that cold caches after a move cost nothing measurable.
//!
//! Only a client whose queries run on its own thread is moved. Held on
//! one CPU while its queries fanned out over the worker pool, the client
//! of `order_query_mix` ran at 0.65 of its throughput; such a query
//! already runs on every CPU. Moved and then allowed all its CPUs again,
//! the client did not cut the spread of `cpd_fabric_grid` in four
//! interleaved pairs of runs.

use std::time::Duration;

/// How long the client stays on one CPU: short next to a host's slow
/// spells, long next to a query.
pub const SLICE: Duration = Duration::from_secs(1);

/// Mask words: room for 1024 CPUs, the kernel's default `cpu_set_t`.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPUs, and the slice it is in. Dropping
/// it allows the thread all of them again.
pub struct Rotation {
    allowed: [u64; WORDS],
    cpus: Vec<usize>,
    slice: Option<u128>,
}

impl Rotation {
    /// Reads the calling thread's allowed CPUs. If they cannot be read,
    /// the rotation is empty and [`Rotation::at`] does nothing.
    pub fn new() -> Rotation {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a writable buffer of the size passed; pid 0
        // is the calling thread.
        let ok = unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } == 0;
        let cpus = if ok {
            (0..WORDS * 64)
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Rotation {
            allowed,
            cpus,
            slice: None,
        }
    }

    /// How many CPUs the client moves round.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Called between queries, `elapsed` into the stream: on entering a
    /// new slice, holds the calling thread on the next allowed CPU.
    pub fn at(&mut self, elapsed: Duration) {
        let slice = elapsed.as_nanos() / SLICE.as_nanos();
        if self.cpus.len() < 2 || self.slice == Some(slice) {
            return;
        }
        self.slice = Some(slice);
        let cpu = self.cpus[(slice % self.cpus.len() as u128) as usize];
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed. A failed
        // call leaves the thread where it was, which only costs steadiness.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    }
}

impl Drop for Rotation {
    /// Allows the thread all its CPUs again.
    fn drop(&mut self) {
        if self.slice.is_some() {
            // SAFETY: as in `at`; this restores the mask read in `new`.
            unsafe { sched_setaffinity(0, WORDS * 8, self.allowed.as_ptr()) };
        }
    }
}

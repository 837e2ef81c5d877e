//! Keeps every CPU out of its idle state while a run measures.
//!
//! On a virtual machine an idle vCPU halts, and waking it again takes the
//! hypervisor's time. On a shared host that time swings from microseconds
//! to milliseconds with the neighbours' load. Every served request and
//! every hand-off to a context's worker pool wakes a thread, so the swing
//! showed in latencies: in ten runs of one build the open loop's p90
//! ranged from 3.4 to 10.6 ms, while its closed-loop throughput spread
//! by 8%.
//! One spinner per CPU at `SCHED_IDLE` keeps each vCPU running. A thread
//! of any other policy that becomes runnable preempts a spinner at once,
//! so the program loses no CPU time to them and a latency measures the
//! program, not the hypervisor's wake-up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Spinners running at idle priority until dropped.
pub struct Awake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
    idle: usize,
}

impl Awake {
    /// Start one spinner per CPU. A spinner that cannot lower itself to
    /// idle priority exits at once rather than compete with the program.
    pub fn start() -> Awake {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let spinners = (0..cpus)
            .map(|_| {
                let (stop, tx) = (stop.clone(), tx.clone());
                std::thread::spawn(move || {
                    let idle = lower_to_idle_priority();
                    // The receiver waits for every spinner's answer.
                    let _ = tx.send(idle);
                    // The flag publishes no other data.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        // Each spinner keeps its sender while it spins, so count answers
        // rather than wait for the channel to close.
        let idle = rx.iter().take(cpus).filter(|&ok| ok).count();
        Awake {
            stop,
            spinners,
            idle,
        }
    }

    /// Spinners running at idle priority: one per CPU, or none where the
    /// policy is not available.
    pub fn spinners(&self) -> usize {
        self.idle
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            // A spinner cannot panic; there is nothing to report.
            let _ = s.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`. Returns whether it moved.
#[cfg(target_os = "linux")]
fn lower_to_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` is the C library's; pid 0 names the
    // calling thread, and `param` is a valid `struct sched_param` that
    // outlives the call, which only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_priority() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_idle_spinner_per_cpu_and_all_stop_when_dropped() {
        let a = Awake::start();
        #[cfg(target_os = "linux")]
        assert_eq!(
            a.spinners(),
            std::thread::available_parallelism().map_or(1, |p| p.get())
        );
        // Drop joins every spinner; a spinner that ignored the flag would
        // hang the test here.
        drop(a);
    }
}

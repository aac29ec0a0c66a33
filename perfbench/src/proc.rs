//! Child processes with their peak resident set size: `std::process`
//! does not expose `wait4`, so the reap goes through the C library
//! directly (Linux x86-64 / aarch64 `struct rusage` layout).
//!
//! A child's `ru_maxrss` is not its own peak: Linux carries the spawning
//! process's high-water mark over `exec`, so every child of a harness
//! that once held 290 MB reports at least 290 MB. The peak is therefore
//! sampled from the child's `VmHWM` (the high-water mark of its own,
//! post-`exec` address space) while it runs; `ru_maxrss` is only the
//! fallback for a child that exits before the first sample.

use std::io;
use std::process::Child;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
pub const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size in KiB (see the module notes).
    pub max_rss_kb: u64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Sends `sig` to the child.
pub fn signal(child: &Child, sig: i32) {
    // SAFETY: `kill` takes plain integers; the pid is our own unreaped
    // child, so it cannot name a recycled process.
    unsafe {
        kill(child.id() as i32, sig);
    }
}

/// Waits up to `timeout` until the child has a handler installed for
/// `sig` (the `SigCgt` mask of `/proc/<pid>/status`).
pub fn await_handler(child: &Child, sig: i32, timeout: Duration) -> bool {
    let path = format!("/proc/{}/status", child.id());
    let bit = 1u64 << (sig - 1);
    let deadline = Instant::now() + timeout;
    loop {
        let caught = std::fs::read_to_string(&path).ok().and_then(|status| {
            let mask = status.lines().find_map(|l| l.strip_prefix("SigCgt:"))?;
            u64::from_str_radix(mask.trim(), 16).ok()
        });
        if caught.is_some_and(|m| m & bit != 0) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// `VmHWM` of a live process in KiB; `None` once it has exited.
fn vm_hwm_kb(pid: i32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Polls between `VmHWM` samples: every 5 ms, so the sampling costs the
/// measured programs little CPU time and misses at most the last 5 ms.
const POLLS_PER_SAMPLE: u32 = 10;

/// Waits for `child` (polling every 500 µs) and returns its exit and
/// peak RSS. Past `timeout` the child is killed, reaped, and the call
/// fails. The child must not have been waited for through `std`.
pub fn wait_rusage(child: &Child, timeout: Duration) -> io::Result<Exit> {
    let deadline = Instant::now() + timeout;
    let pid = child.id() as i32;
    let mut peak_kb = None;
    let mut poll = 0u32;
    loop {
        if poll.is_multiple_of(POLLS_PER_SAMPLE) {
            if let Some(kb) = vm_hwm_kb(pid) {
                peak_kb = Some(peak_kb.map_or(kb, |p: u64| p.max(kb)));
            }
        }
        poll = poll.wrapping_add(1);
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: both out-pointers refer to live, writable locals of the
        // exact C layout `wait4` fills.
        let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if r == pid {
            let code = if status & 0x7f == 0 {
                Some((status >> 8) & 0xff)
            } else {
                None
            };
            return Ok(Exit {
                code,
                max_rss_kb: peak_kb.unwrap_or(usage.maxrss.max(0) as u64),
            });
        }
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        if Instant::now() >= deadline {
            signal(child, SIGKILL);
            let _ = wait_rusage(child, Duration::from_secs(3600));
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("child {pid} ran past {timeout:?} and was killed"),
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// A spawned child that is killed and reaped if dropped unreaped, so no
/// error path leaves a process behind.
pub struct Guarded {
    child: Option<Child>,
}

impl Guarded {
    pub fn new(child: Child) -> Guarded {
        Guarded { child: Some(child) }
    }

    pub fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("child is present until reaped")
    }

    /// Reaps the child (see [`wait_rusage`]).
    // Reaped by `wait4` inside `wait_rusage`, which clippy cannot see.
    #[allow(clippy::zombie_processes)]
    pub fn wait(mut self, timeout: Duration) -> io::Result<Exit> {
        let child = self.child.take().expect("child is present until reaped");
        wait_rusage(&child, timeout)
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(&child, SIGKILL);
            let _ = wait_rusage(&child, Duration::from_secs(60));
        }
    }
}

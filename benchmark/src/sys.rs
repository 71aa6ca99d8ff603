//! The Linux calls the standard library does not wrap: reaping a child
//! together with its resource usage, and pinning a thread to a CPU.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child resource usage the 64-bit Linux way");

use std::io;

/// `struct rusage` on 64-bit Linux: two `struct timeval`s (user and system
/// time), then 14 longs of which the first is the peak resident set in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

/// glibc's `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// The child's peak resident set, in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for the child `pid` to end and reaps it. The caller must not
/// wait for it through `std::process::Child` as well.
pub fn wait(pid: u32) -> io::Result<Exit> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and `struct rusage` on this target.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        // Zero exactly when the child exited normally with status 0.
        success: status == 0,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// The CPUs the calling thread may run on, in increasing order.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is live and writable for the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to `cpu`. Processes it starts afterwards
/// inherit the pin.
pub fn pin(cpu: usize) -> io::Result<()> {
    let mut mask: CpuSet = [0; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other("CPU number out of range"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is live and readable for the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn wait_reports_exit_status_and_peak_rss() {
        let spawn = |program: &str| Command::new(program).spawn().expect("spawn").id();
        let exit = wait(spawn("true")).expect("reap true");
        assert!(exit.success);
        assert!(exit.peak_rss_mb > 0.0);
        assert!(!wait(spawn("false")).expect("reap false").success);
    }

    #[test]
    fn pin_narrows_the_allowed_cpus() {
        // Test threads are the test harness's own, so the pin ends with
        // this one.
        let cpus = allowed_cpus().expect("read the affinity");
        let last = *cpus.last().expect("at least one CPU");
        pin(last).expect("pin to an allowed CPU");
        assert_eq!(allowed_cpus().expect("read the affinity"), vec![last]);
    }
}

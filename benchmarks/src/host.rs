//! Host-side measurements the harness owns: a calibration loop, peak
//! memory, CPU time and a scratch directory next to the executable.

use std::path::PathBuf;
use std::time::Instant;

/// Times a fixed piece of work the harness owns: four independent
/// multiply-rotate chains, each step of each fed by a load from a 2 MiB
/// table. The work never changes, so a different reading at the start and
/// the end of a run, or between two runs, is the host's doing and not the
/// benchmark's. It is built like the code under test — instruction-level
/// parallelism and cache traffic — because this host's slow stretches leave
/// a single dependent ALU chain untouched while they slow real code by half.
pub fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 18;
    let mut table = Vec::with_capacity(SLOTS);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..SLOTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.push(x);
    }
    let t = Instant::now();
    let mut lanes = [1u64, 2, 3, 4];
    for _ in 0..8_000_000u32 {
        for lane in &mut lanes {
            // The top 18 bits pick the slot.
            let loaded = table[(*lane >> 46) as usize];
            *lane = (*lane ^ loaded).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        }
    }
    std::hint::black_box(lanes);
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM: <n> kB` in
/// `/proc/self/status`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    let kb: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM kB");
    kb / 1024.0
}

/// User + system CPU time of this process so far, in seconds, at the
/// kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; the rest follows its `)`.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let field = |i: usize| rest.split(' ').nth(i).and_then(|v| v.parse::<f64>().ok());
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after the comm.
    (field(11).expect("utime") + field(12).expect("stime")) / 100.0
}

/// A per-process scratch directory beside the executable — inside the build
/// directory, so inside the checkout and ignored by git. Removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .expect("an executable has a directory")
            .join(format!("tapacs-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_seconds();
        assert!(calibrate() > 0.0);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn scratch_is_created_and_removed() {
        let path = {
            let s = Scratch::new().unwrap();
            assert!(s.0.is_dir());
            s.0.clone()
        };
        assert!(!path.exists());
    }
}

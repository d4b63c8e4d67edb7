//! Output checks on every report, and the `/proc` counters the benchmark
//! reads for memory and disk cost.

use clapton_service::Report;

/// The physics a report must satisfy, whatever the speed of the code that
/// produced it: `L0 ≥ E0`, `L = LN + L0`, and a finite device energy at the
/// Clapton initial point no lower than `E0`.
pub fn check_report(report: &Report) -> Result<(), String> {
    let Some(c) = &report.clapton else {
        return Err(format!("{}: no Clapton section", report.name));
    };
    let e0 = report.e0;
    if !e0.is_finite() {
        return Err(format!("{}: E0 = {e0}", report.name));
    }
    if c.loss_0 < e0 - 1e-9 {
        return Err(format!("{}: L0 {} below E0 {e0}", report.name, c.loss_0));
    }
    if (c.loss - (c.loss_n + c.loss_0)).abs() > 1e-9 {
        return Err(format!(
            "{}: loss {} != loss_n {} + loss_0 {}",
            report.name, c.loss, c.loss_n, c.loss_0
        ));
    }
    match report.clapton_initial_energy {
        Some(e) if e.is_finite() && e >= e0 - 1e-6 => Ok(()),
        other => Err(format!(
            "{}: clapton_initial_energy {other:?} vs E0 {e0}",
            report.name
        )),
    }
}

/// `(clapton_initial_energy − E0) / |E0|`: how far the Clapton initial
/// point sits above the ground energy under device noise.
pub fn init_gap(report: &Report) -> f64 {
    let init = report.clapton_initial_energy.unwrap_or(f64::NAN);
    (init - report.e0) / report.e0.abs()
}

/// A report's canonical bytes, for byte-identity checks.
pub fn report_bytes(report: &Report) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Flushes the dirty data of the filesystem holding `dir` and waits for it.
///
/// Every phase writes through `fsync`, and on a journaling filesystem an
/// `fsync` can wait for unrelated data still being written back from the
/// phase before. Settling between phases keeps each phase's timings its
/// own.
pub fn settle(dir: &std::path::Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    let handle = std::fs::File::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // SAFETY: syncfs(2) only reads the descriptor, which `handle` keeps
    // open for the duration of the call.
    if unsafe { syncfs(handle.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "syncfs {}: {}",
            dir.display(),
            std::io::Error::last_os_error()
        ))
    }
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one), in
/// bytes.
pub fn peak_rss_bytes(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    proc_field(&status, "VmHWM:").map(|kb| kb * 1024)
}

/// `wchar` (bytes passed to write calls) of process `pid`.
pub fn wchar_bytes(pid: &str) -> Result<u64, String> {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io"))
        .map_err(|e| format!("/proc/{pid}/io: {e}"))?;
    proc_field(&io, "wchar:")
}

fn proc_field(text: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no {key} field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_proc_fields() {
        let status = "Name:\tx\nVmHWM:\t  1234 kB\nVmRSS:\t 99 kB\n";
        assert_eq!(proc_field(status, "VmHWM:"), Ok(1234));
        assert!(proc_field(status, "VmPeak:").is_err());
        assert!(peak_rss_bytes("self").expect("own status") > 0);
        assert!(wchar_bytes("self").is_ok());
    }
}

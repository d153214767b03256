//! Resident-set figures of this process, from `/proc/self/status`.

/// Current resident set (`VmRSS`), bytes; 0 where unavailable.
pub fn current_bytes() -> i64 {
    status_kb("VmRSS:") * 1024
}

/// Peak resident set (`VmHWM`), bytes; 0 where unavailable.
pub fn peak_bytes() -> i64 {
    status_kb("VmHWM:") * 1024
}

fn status_kb(key: &str) -> i64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_is_at_least_current() {
        let cur = super::current_bytes();
        assert!(cur > 0, "VmRSS readable on Linux");
        assert!(super::peak_bytes() >= cur);
    }
}

//! The run environment: library defaults and what identifies a measurement.

/// Removes every `OPENQUDIT_*` variable from the process environment and returns the
/// cleared `NAME=value` pairs, sorted. Tier, verify level and optimize level all read
/// such variables, so clearing them measures each commit under its own defaults.
///
/// Call before any library call and before spawning threads.
pub fn clear_openqudit_vars() -> Vec<String> {
    let mut cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(name, value)| {
            let name = name.into_string().ok()?;
            name.starts_with("OPENQUDIT_").then(|| format!("{name}={}", value.to_string_lossy()))
        })
        .collect();
    cleared.sort();
    for entry in &cleared {
        let name = entry.split_once('=').map_or(entry.as_str(), |(n, _)| n);
        std::env::remove_var(name);
    }
    cleared
}

/// The commit checked out in the working directory, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

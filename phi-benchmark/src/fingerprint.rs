//! Where and with what a number was produced: printed with every run so
//! that two results are only ever compared knowingly.

/// The checked-out commit, read from `.git` in the working directory
/// alone (no walk up the tree, no subprocess). A checkout that is not a
/// git repository — the benchmark driver's — has no sha to report.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => match std::fs::read_to_string(format!(".git/{r}")) {
            Ok(s) => s.trim().to_string(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))?,
        },
    };
    (sha.len() >= 12 && sha.bytes().all(|b| b.is_ascii_hexdigit())).then(|| sha[..12].to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One JSON object: machine, toolchain, commit, and the run's own inputs.
pub fn fingerprint(seed: u64, seconds: f64, scale: f64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = env!("PHI_BENCH_RUSTC");
    let sha = git_sha().unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"scale\": {scale}}}",
        nproc(),
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        sha,
    )
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

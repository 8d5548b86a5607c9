//! What the numbers were measured on: host, code version, memory peak.

use std::path::Path;

/// Host facts printed with every run.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    /// `(level, type, size)` per cache the kernel reports for cpu0.
    pub caches: Vec<(String, String, String)>,
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let mut caches = Vec::new();
        for i in 0.. {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(Path::new(&dir).join(f))
                    .map(|s| s.trim().to_string())
                    .ok()
            };
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                break;
            };
            caches.push((level, kind, size));
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2: mp_sweep::simd::avx2_available(),
            caches,
        }
    }

    pub fn describe(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(l, t, s)| format!("L{l} {t} {s}"))
            .collect();
        format!(
            "host: nproc {}, cpu \"{}\", avx2 {}, caches [{}]",
            self.nproc,
            self.cpu_model,
            if self.avx2 { "yes" } else { "no" },
            caches.join(", ")
        )
    }

    /// The largest cache the kernel reports, in bytes.
    pub fn llc_bytes(&self) -> Option<u64> {
        self.caches
            .iter()
            .filter_map(|(_, _, s)| parse_size(s))
            .max()
    }
}

/// `"32K"`, `"300M"`, `"1024"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// The commit when run from a git checkout, else a fingerprint of the
/// sources that were built (FNV-1a over the path and bytes of every `.rs`
/// file under `crates/`, by sorted path), so a report from an exported
/// tree still names the code.
pub fn code_version() -> String {
    if let Some(commit) = git_head() {
        return format!("commit {commit}");
    }
    let mut files = Vec::new();
    collect_rs(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "commit unknown (no .git, no crates/ sources)".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = f.to_string_lossy().into_owned().into_bytes();
        let body = std::fs::read(f).unwrap_or_default();
        for b in bytes.iter().chain(body.iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "commit unknown (not a git checkout); source fingerprint fnv1a:{h:016x} over {} files",
        files.len()
    )
}

fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}

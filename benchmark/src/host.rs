//! The host fingerprint recorded with every results file, and process memory.

use std::fs;
use std::process::Command;

/// Where the numbers were measured. Results from hosts with different `host_cores`
/// are never compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub host_cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            host_cores: host_cores(),
            cpu_model,
            rustc,
            git_commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"host_cores\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{}}}",
            self.host_cores,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_commit)
        )
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory (the benchmark
/// runs from the root of a checkout, which need not be a repository).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|commit| commit.trim().to_string()),
    }
}

/// Peak resident set size of this process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

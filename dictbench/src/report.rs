//! Percentiles, provenance and the result record.

use std::fmt::Write as _;
use std::path::Path;

/// Percentiles a latency is reported at when the sample supports them.
const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Nearest-rank percentile of `v` (unsorted) at `p` in `[0, 1]`.
pub fn pct(v: &[u64], p: f64) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples beyond the percentile that each part of [`tenths_pct`] must
/// hold. A closed loop stalls its whole window at once, so one stall puts
/// up to 256 consecutive samples in the tail; a part needs room for a few.
const PART_BEYOND: f64 = 250.0;

/// Percentile `p` of each tenth of `v` (samples in completion order),
/// median over the tenths. A part holds at least enough samples to put
/// `PART_BEYOND` beyond its percentile, so there may be fewer than ten;
/// with fewer than three this is the plain percentile. A stall from a
/// neighbouring tenant that spans part of a run moves a few parts, not
/// the metric.
pub fn tenths_pct(v: &[u64], p: f64) -> u64 {
    let min = (PART_BEYOND / (1.0 - p)).ceil() as usize;
    let chunk = (v.len() / 10).max(min);
    let parts: Vec<u64> = v.chunks_exact(chunk).map(|c| pct(c, p)).collect();
    if parts.len() < 3 {
        return pct(v, p);
    }
    crate::median(&parts)
}

/// The highest of `PERCENTILES` with at least ten samples beyond it.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p) >= 10.0)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One latency sample set as provenance: its size, its p50, p90 and p99
/// (taken as the metrics are), and the highest percentile with at least
/// ten samples beyond it, with its value.
pub struct Sample {
    pub name: &'static str,
    pub ns: Vec<u64>,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed by name and unit like `metrics`, but left out of the JSON.
    pub recorded: Vec<Metric>,
    pub samples: Vec<Sample>,
    pub params: Vec<(&'static str, String)>,
}

/// Escapes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The commit of a git checkout in the working directory, when there is
/// one.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the path and bytes of every source and manifest file the
/// benchmark builds from, in sorted order: identifies the code under test
/// where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    for dir in ["src", "crates", "vendor", "dictbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x}:{}files", files.len())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Report {
    /// Prints the provenance line, one line per metric, and the result
    /// JSON as the last line.
    pub fn print(&self) {
        let mut prov = String::from("{");
        let _ = write!(
            prov,
            "\"commit\":{},\"source\":{},\"nproc\":{},\"cpu\":{}",
            commit().map_or("null".into(), |c| json_str(&c)),
            json_str(&source_digest()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(&cpu_model()),
        );
        for (k, v) in &self.params {
            let _ = write!(prov, ",{}:{}", json_str(k), json_str(v));
        }
        prov.push_str(",\"samples\":{");
        for (i, s) in self.samples.iter().enumerate() {
            let at = |p: f64| json_num(tenths_pct(&s.ns, p) as f64 / 1e3);
            let top = top_percentile(s.ns.len());
            let _ = write!(
                prov,
                "{}{}:{{\"n\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"top_percentile\":{},\"top_us\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(s.name),
                s.ns.len(),
                at(0.5),
                at(0.9),
                at(0.99),
                top.map_or("null".into(), |p| format!("{}", p * 100.0)),
                top.map_or("null".into(), |p| json_num(pct(&s.ns, p) as f64 / 1e3)),
            );
        }
        prov.push_str("}}");
        println!("provenance {prov}");
        for m in &self.metrics {
            println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.recorded {
            println!(
                "metric {:<40} {:>16.4} {} (recorded, not gated)",
                m.name, m.value, m.unit
            );
        }
        let mut json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                json,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

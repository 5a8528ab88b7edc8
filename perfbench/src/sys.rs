//! Process and machine facts read from the OS: CPU time, peak memory and
//! the stamp printed with every result.

use std::process::Command;

/// CPU time (user + system) of the whole process so far, all threads
/// included, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / clock_ticks_per_second()
}

/// `AT_CLKTCK` from the auxiliary vector (100 on every mainstream Linux).
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, value)| value as f64)
}

/// Peak resident set size of the process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The machine and run details a result is only meaningful with.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> =
        cpuinfo.lines().find_map(|l| l.strip_prefix("flags")).map_or(Vec::new(), |l| {
            l.trim_start_matches([' ', '\t', ':']).split_whitespace().collect()
        });
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    let flag_list = ["aes", "vaes", "pclmulqdq", "avx2"]
        .iter()
        .map(|f| format!("\"{f}\": {}", flags.contains(f)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"cpu\": \"{}\", \"cpu_flags\": {{{flag_list}}}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\"}}",
        escape(model),
        escape(&command_line("rustc", &["--version"])),
        escape(&git_revision()),
    )
}

/// The revision of the checkout the benchmark runs from; a checkout that
/// is not itself a git repository has none.
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable".to_owned()
    }
}

/// First line of a command's output, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".to_owned())
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

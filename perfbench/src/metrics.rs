//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`)
//! and the summaries that turn a phase's raw samples and spans into it.

use std::collections::BTreeMap;

use crate::replay::ReplayReport;
use crate::spans::{self_time_ns, Span};
use crate::stats::{median, percentile};

/// End-to-end metrics, printed by every untraced run. Each workload has
/// one kind of user-visible operation: a cold study-and-attack pass
/// (`study_cold`) or a pool cycle (`decrypt_stream`). Wall-clock
/// throughput and latency varied with the shared host's load by more
/// than any allowed regression bound, so they are printed as the
/// workloads' own `metric` lines and only process CPU per operation is
/// gated.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("cpu_ms_per_op", "ms")];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("ott.provision.busy_ms", "ms"),
    ("ott.provision.calls", "count"),
    ("ott.provision.refused", "count"),
    ("ott.license.p50_us", "us"),
    ("ott.license.calls", "count"),
    ("ott.cdn.busy_ms", "ms"),
    ("ott.cdn.calls", "count"),
    ("cdm.get_provision_request.p50_us", "us"),
    ("cdm.provide_provision_response.p50_us", "us"),
    ("cdm.get_key_request.p50_us", "us"),
    ("cdm.provide_key_response.p50_us", "us"),
    ("cdm.decrypt_sample.busy_ms", "ms"),
    ("cdm.decrypt_sample.calls", "count"),
    ("cdm.session.p50_us", "us"),
    ("app.play.self_ms", "ms"),
    ("monitor.study_app.busy_ms", "ms"),
    ("attack.attack_app.busy_ms", "ms"),
    ("monitor.cdm_calls", "count"),
    ("reactor.first_call.p99_ms", "ms"),
    ("binder.transport.residual_us_per_mib", "us/MiB"),
    ("binder.tcp.frames.sent", "count"),
    ("binder.tcp.bytes.sent", "bytes"),
    ("binder.tcp.reconnects", "count"),
    ("cenc.ctr.us_per_mib", "us/MiB"),
    ("cenc.cbcs.us_per_mib", "us/MiB"),
    ("crypto.crc32.us_per_mib", "us/MiB"),
    ("wire.encode.us_per_mib", "us/MiB"),
    ("wire.decode.us_per_mib", "us/MiB"),
    ("overhead.untraced.op_p50_ms", "ms"),
    ("overhead.traced.op_p50_ms", "ms"),
    ("overhead.untraced.op_p99_ms", "ms"),
    ("overhead.traced.op_p99_ms", "ms"),
    ("overhead.untraced.cpu_ms_per_op", "ms"),
    ("overhead.traced.cpu_ms_per_op", "ms"),
];

/// Per-layer values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The raw outcome of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Latency of every attempted operation, in ms.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Phase {
    pub fn p50_ms(&self) -> f64 {
        median(&self.op_ms)
    }

    pub fn p99_ms(&self) -> f64 {
        percentile(&self.op_ms, 99.0)
    }

    fn completed(&self) -> f64 {
        (self.attempted - self.failed).max(1) as f64
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.completed()
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<f64> {
        vec![setup_s, peak_rss_mb, self.cpu_ms_per_op()]
    }

    /// Tracing overhead: the same operations measured untraced and traced.
    pub fn overhead(untraced: &Phase, traced: &Phase, layers: &mut Layers) {
        layers.insert("overhead.untraced.op_p50_ms", untraced.p50_ms());
        layers.insert("overhead.traced.op_p50_ms", traced.p50_ms());
        layers.insert("overhead.untraced.op_p99_ms", untraced.p99_ms());
        layers.insert("overhead.traced.op_p99_ms", traced.p99_ms());
        layers.insert("overhead.untraced.cpu_ms_per_op", untraced.cpu_ms_per_op());
        layers.insert("overhead.traced.cpu_ms_per_op", traced.cpu_ms_per_op());
    }
}

fn durations_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// A sum that reads +0 when empty (`Iterator::sum` gives -0 for floats).
pub fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v)
}

/// Summarises the harness spans of a traced phase into layer metrics.
pub fn from_spans(spans: &[Span], layers: &mut Layers) {
    let of = |layer: &'static str, key: &'static str| {
        spans.iter().filter(move |s| s.layer == layer && s.key == key)
    };
    let busy_ms = |layer, key| sum(&durations_us(of(layer, key))) / 1e3;
    let calls = |layer, key| of(layer, key).count() as f64;

    layers.insert("ott.provision.busy_ms", busy_ms("endpoint", "provision"));
    layers.insert("ott.provision.calls", calls("endpoint", "provision"));
    layers.insert(
        "ott.provision.refused",
        of("endpoint", "provision").filter(|s| !s.ok).count() as f64,
    );
    layers.insert("ott.license.p50_us", median(&durations_us(of("endpoint", "license"))));
    layers.insert("ott.license.calls", calls("endpoint", "license"));
    layers.insert("ott.cdn.busy_ms", busy_ms("endpoint", "cdn"));
    layers.insert("ott.cdn.calls", calls("endpoint", "cdn"));
    for (name, kind) in [
        ("cdm.get_provision_request.p50_us", "get_provision_request"),
        ("cdm.provide_provision_response.p50_us", "provide_provision_response"),
        ("cdm.get_key_request.p50_us", "get_key_request"),
        ("cdm.provide_key_response.p50_us", "provide_key_response"),
    ] {
        layers.insert(name, median(&durations_us(of("transact", kind))));
    }
    layers.insert("cdm.decrypt_sample.busy_ms", busy_ms("transact", "decrypt_sample"));
    layers.insert("cdm.decrypt_sample.calls", calls("transact", "decrypt_sample"));
    layers.insert(
        "cdm.session.p50_us",
        median(&durations_us(
            of("transact", "open_session").chain(of("transact", "close_session")),
        )),
    );
    let play_self_ns: u64 = of("app", "play")
        .map(|play| {
            let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(play.id)).collect();
            self_time_ns(play, &children)
        })
        .sum();
    layers.insert("app.play.self_ms", play_self_ns as f64 / 1e6);
    layers.insert("monitor.study_app.busy_ms", busy_ms("monitor", "study_app"));
    layers.insert("attack.attack_app.busy_ms", busy_ms("attack", "attack_app"));
    let first_calls = durations_us(spans.iter().filter(|s| s.layer == "transact" && s.first));
    layers.insert("reactor.first_call.p99_ms", percentile(&first_calls, 99.0) / 1e3);
}

pub fn from_replay(replay: &ReplayReport, layers: &mut Layers) {
    layers.insert("binder.transport.residual_us_per_mib", replay.residual_us_per_mib);
    layers.insert("cenc.ctr.us_per_mib", replay.ctr_us_per_mib);
    layers.insert("cenc.cbcs.us_per_mib", replay.cbcs_us_per_mib);
    layers.insert("crypto.crc32.us_per_mib", replay.crc32_us_per_mib);
    layers.insert("wire.encode.us_per_mib", replay.encode_us_per_mib);
    layers.insert("wire.decode.us_per_mib", replay.decode_us_per_mib);
}

/// The program's own transport counters, exactly as they read.
pub fn from_program_counters(layers: &mut Layers) {
    let snapshot = wideleak::telemetry::snapshot();
    for name in ["binder.tcp.frames.sent", "binder.tcp.bytes.sent", "binder.tcp.reconnects"] {
        let value = snapshot.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        layers.insert(name, value as f64);
    }
}

/// Turns on the program's telemetry for a traced phase (its counters
/// only count while it is on) and clears what an earlier phase recorded.
pub fn start_program_counters() {
    wideleak::telemetry::enable();
    wideleak::telemetry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    }
}

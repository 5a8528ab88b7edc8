//! The transport differential battery: the binder transport is an
//! implementation detail, so the paper's headline artifacts must be
//! byte-identical whether DRM transactions run in-process, through the
//! threaded worker pool, or over real TCP sockets with the framed wire
//! codec.

use wideleak::android_drm::binder::TransportKind;
use wideleak::monitor::report::render_table_1;
use wideleak::monitor::resilience::{render_q5, run_resilience_study_on, scenarios};
use wideleak::monitor::study::run_study;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};

fn table_1_on(transport: TransportKind) -> String {
    let eco = Ecosystem::new(EcosystemConfig { transport, ..EcosystemConfig::fast_for_tests() });
    let report = run_study(&eco).unwrap_or_else(|e| panic!("{transport} study runs: {e}"));
    render_table_1(&report)
}

/// Table I — the full ten-app Q1–Q4 study — replayed over all three
/// transports. The reports must agree to the byte.
#[test]
fn table_1_is_byte_identical_across_all_transports() {
    let baseline = table_1_on(TransportKind::InProcess);
    assert!(baseline.contains("Netflix"), "the study produced a real table");
    for &transport in &TransportKind::ALL[1..] {
        assert_eq!(
            table_1_on(transport),
            baseline,
            "Table I must not depend on the {transport} transport"
        );
    }
}

/// One Q5 resilience scenario (the binder drop storm — the one that
/// stresses the transport itself) swept over all three transports from
/// one seed: identical cells, identical rendered report.
#[test]
fn q5_binder_storm_is_byte_identical_across_all_transports() {
    assert!(
        scenarios().iter().any(|s| s.name == "binder-drop-storm"),
        "the scenario the differential battery replays still exists"
    );
    let reports: Vec<_> =
        TransportKind::ALL.iter().map(|&t| run_resilience_study_on(11, true, t)).collect();
    let baseline = &reports[0];
    assert!(
        baseline.cells.iter().any(|c| c.scenario == "binder-drop-storm" && c.faults_injected > 0),
        "the storm scenario injected real faults"
    );
    for (report, &transport) in reports.iter().zip(TransportKind::ALL.iter()).skip(1) {
        assert_eq!(report, baseline, "Q5 cells must not depend on the {transport} transport");
        assert_eq!(
            render_q5(report),
            render_q5(baseline),
            "the rendered Q5 report must not depend on the {transport} transport"
        );
    }
}

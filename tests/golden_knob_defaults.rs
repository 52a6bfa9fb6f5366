//! Regression guard for the fixed protocol, MAC and fault parameters: MAODV's timers and
//! packet sizes, the CSMA and SS-TDMA policies' backoff and slot frame, and the fault
//! plan's spared source must serialize byte-for-byte identically to the golden file.
//! The runs use `golden_single_group`'s scenario.

use ssmcast::core::MetricKind;
use ssmcast::manet::{FaultPlanSpec, MacConfig};
use ssmcast::scenario::{run_protocol, ProtocolKind, Scenario};

const CASES: [&str; 4] = ["MAODV", "Flooding/CSMA", "Flooding/SS-TDMA", "SS-SPST-E/stress"];

fn golden_scenario() -> Scenario {
    let mut s = Scenario::quick_test();
    s.duration_s = 40.0;
    s.n_nodes = 16;
    s.group_size = 6;
    s
}

fn rendered() -> String {
    let base = golden_scenario();
    let runs = [
        (base, ProtocolKind::Maodv),
        (base.with_mac(MacConfig::csma()), ProtocolKind::Flooding),
        (base.with_mac(MacConfig::ss_tdma()), ProtocolKind::Flooding),
        (
            base.with_faults(FaultPlanSpec::stress(10.0, 30.0)),
            ProtocolKind::SsSpst(MetricKind::EnergyAware),
        ),
    ];
    let mut out = String::new();
    for (s, kind) in runs {
        let report = run_protocol(&s, kind.to_protocol().as_ref());
        out.push_str(&serde_json::to_string(&report).expect("reports serialize"));
        out.push('\n');
    }
    out
}

#[test]
fn fixed_parameter_reports_match_the_golden_bytes() {
    let golden = include_str!("golden/knob_default_reports.jsonl");
    let now = rendered();
    for (i, (g, n)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(g, n, "{}: report diverged from the golden bytes", CASES[i]);
    }
    assert_eq!(golden, now);
}

/// Regenerate the golden file (run manually: `GOLDEN_WRITE=1 cargo test --test
/// golden_knob_defaults -- --ignored golden_write`).
#[test]
#[ignore]
fn golden_write() {
    if std::env::var("GOLDEN_WRITE").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/knob_default_reports.jsonl"),
            rendered(),
        )
        .unwrap();
    }
}

//! Regression guard for the radio medium's grid-indexed path. At a non-zero position
//! epoch `RadioMedium::receivers_within` answers from the spatial grid index, so these
//! runs — Flooding at three epochs, two tree/mesh protocols and every mobility model —
//! must serialize byte for byte to the golden file. (At the default zero epoch the
//! medium scans every node; the other goldens pin that path.)

use ssmcast::core::MetricKind;
use ssmcast::dessim::SimDuration;
use ssmcast::manet::MediumConfig;
use ssmcast::scenario::{run_protocol, MobilityKind, ProtocolKind, Scenario};

/// One golden line: a label for failure messages, the scenario and the protocol.
fn cases() -> Vec<(String, Scenario, ProtocolKind)> {
    let epoch = |ms: u64| MediumConfig::default().with_epoch(SimDuration::from_millis(ms));
    let mut cases = Vec::new();

    let mut fast = Scenario::quick_test();
    fast.duration_s = 40.0;
    fast.max_speed_mps = 10.0;
    for ms in [50, 250, 1_000] {
        cases.push((
            format!("Flooding @ {ms} ms"),
            fast.with_medium(epoch(ms)),
            ProtocolKind::Flooding,
        ));
    }

    let mut base = Scenario::quick_test();
    base.duration_s = 40.0;
    for kind in [ProtocolKind::SsSpst(MetricKind::EnergyAware), ProtocolKind::Odmrp] {
        cases.push((format!("{} @ 250 ms", kind.name()), base.with_medium(epoch(250)), kind));
    }

    let mut small = Scenario::quick_test();
    small.duration_s = 30.0;
    small.n_nodes = 20;
    small.group_size = 8;
    for mobility in MobilityKind::ALL {
        let s = small.with_mobility(mobility).with_medium(epoch(250));
        cases.push((format!("Flooding/{} @ 250 ms", mobility.name()), s, ProtocolKind::Flooding));
    }
    cases
}

fn rendered() -> String {
    let mut out = String::new();
    for (_, s, kind) in cases() {
        let report = run_protocol(&s, kind.to_protocol().as_ref());
        assert!(report.generated > 100, "CBR must generate traffic");
        out.push_str(&serde_json::to_string(&report).expect("reports serialize"));
        out.push('\n');
    }
    out
}

#[test]
fn epoch_reports_match_the_golden_bytes() {
    let golden = include_str!("golden/medium_epoch_reports.jsonl");
    let now = rendered();
    for ((label, _, _), (g, n)) in cases().iter().zip(golden.lines().zip(now.lines())) {
        assert_eq!(g, n, "{label}: report diverged from the golden bytes");
    }
    assert_eq!(golden, now);
}

/// Regenerate the golden file (run manually: `GOLDEN_WRITE=1 cargo test --test
/// medium_determinism -- --ignored golden_write`).
#[test]
#[ignore]
fn golden_write() {
    if std::env::var("GOLDEN_WRITE").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/medium_epoch_reports.jsonl"),
            rendered(),
        )
        .unwrap();
    }
}

//! Regression guard for the radio medium's grid-indexed path. At a non-zero position
//! epoch `RadioMedium::receivers_within` answers from the spatial grid index, so these
//! runs — Flooding at three epochs, two tree/mesh protocols and every mobility model —
//! must serialize byte for byte to the golden file. (At the default zero epoch the
//! medium scans every node; the other goldens pin that path.) A still fleet has an exact
//! oracle besides: its epoch reports must equal its zero-epoch reports.

use ssmcast::core::MetricKind;
use ssmcast::dessim::SimDuration;
use ssmcast::manet::{FaultPlanSpec, HarvestConfig, MediumConfig};
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

/// An epoch cannot change a still fleet's physics, so on a static grid every epoch must
/// reproduce the zero-epoch (scan) report byte for byte. The medium keeps a still
/// fleet's index across epochs and answers each sender from a candidate list, so this
/// pins the list path against the scan: under crashes and active blackouts, harvest
/// deaths and wakes, and SS-SPST-E's power-controlled ranges below the maximum.
#[test]
fn still_fleet_epoch_reports_equal_the_zero_epoch_reports() {
    let mut base = Scenario::quick_test().with_mobility(MobilityKind::StaticGrid);
    base.duration_s = 40.0;
    base.battery_capacity_j = 0.05;
    base.lifecycle = base.lifecycle.with_idle_power(2e-3, 0.0);
    base.harvest = HarvestConfig::on(0.004, 0.01, 0.2);
    base.faults = FaultPlanSpec {
        crashes: 2,
        crash_downtime_s: 6.0,
        blackouts: 3,
        blackout_duration_s: 5.0,
        window_start_s: 8.0,
        window_end_s: 30.0,
        ..FaultPlanSpec::none()
    };
    let cases = [
        (ProtocolKind::Flooding, false),
        (ProtocolKind::SsSpst(MetricKind::EnergyAware), true),
        (ProtocolKind::Odmrp, false),
        (ProtocolKind::Maodv, false),
    ];
    for (kind, power_control) in cases {
        let s = base.with_tx_power_control(power_control);
        let scan = run_protocol(&s, kind.to_protocol().as_ref());
        assert!(scan.generated > 100, "{}: CBR must generate traffic", kind.name());
        let lifetime = scan.lifetime.as_ref().expect("finite batteries attach a lifetime block");
        assert!(lifetime.deaths > 0 || lifetime.first_death_s.is_some(), "nodes must deplete");
        let want = serde_json::to_string(&scan).expect("reports serialize");
        for ms in [250, 500] {
            let epoch = MediumConfig::default().with_epoch(SimDuration::from_millis(ms));
            let report = run_protocol(&s.with_medium(epoch), kind.to_protocol().as_ref());
            let got = serde_json::to_string(&report).expect("reports serialize");
            assert_eq!(got, want, "{} @ {ms} ms diverged from the zero-epoch report", kind.name());
        }
    }
}

//! Regression guard for the self-stabilizing tree agents: SS-MST and the four SS-SPST
//! variants must serialize byte-for-byte identically to the golden file on a mobile
//! power-controlled run, a suppressed and corrupted static run, and a churning
//! two-group run. Protocols are looked up by their figure-legend names, so the guard
//! does not depend on how the agents are constructed.

use ssmcast::manet::{FaultPlanSpec, SilenceConfig};
use ssmcast::scenario::{run_protocol, MobilityKind, ProtocolRegistry, Scenario};

const PROTOCOLS: [&str; 5] = ["SS-MST", "SS-SPST", "SS-SPST-T", "SS-SPST-F", "SS-SPST-E"];

fn scenarios() -> [Scenario; 3] {
    let mut base = Scenario::quick_test();
    base.duration_s = 40.0;
    base.n_nodes = 16;
    base.group_size = 6;

    let mut mobile = base;
    mobile.lifecycle = mobile.lifecycle.with_tx_power_control(true);

    let mut corrupted = base.with_mobility(MobilityKind::StaticGrid);
    corrupted.duration_s = 60.0;
    corrupted.faults = FaultPlanSpec::corruption(2, 0.5, 20.0, 40.0);
    corrupted.faults.probe_epoch_s = 0.5;
    let corrupted = corrupted.with_silence(SilenceConfig::on());

    let mut churning = base;
    churning.n_groups = 2;
    churning.member_churn_rate = 0.05;
    [mobile, corrupted, churning]
}

fn rendered() -> String {
    let registry = ProtocolRegistry::with_builtins();
    let mut out = String::new();
    for s in scenarios() {
        for name in PROTOCOLS {
            let protocol = registry.get(name).expect("builtin tree protocol");
            let report = run_protocol(&s, protocol.as_ref());
            out.push_str(&serde_json::to_string(&report).expect("reports serialize"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn tree_agent_reports_match_the_golden_bytes() {
    let golden = include_str!("golden/tree_agent_reports.jsonl");
    let now = rendered();
    for (i, (g, n)) in golden.lines().zip(now.lines()).enumerate() {
        let (scenario, protocol) = (i / PROTOCOLS.len(), PROTOCOLS[i % PROTOCOLS.len()]);
        assert_eq!(g, n, "scenario {scenario}, {protocol}: report diverged from the golden bytes");
    }
    assert_eq!(golden, now);
}

/// Regenerate the golden file (run manually: `GOLDEN_WRITE=1 cargo test --test
/// golden_tree_agents -- --ignored golden_write`).
#[test]
#[ignore]
fn golden_write() {
    if std::env::var("GOLDEN_WRITE").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tree_agent_reports.jsonl"),
            rendered(),
        )
        .unwrap();
    }
}

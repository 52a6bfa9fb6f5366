//! `perfbench`: one measured sample of an ssmcast workload per process.
//!
//! ```text
//! perfbench sample --workload <name> [--scenario-seed <n>] [--traced]
//! perfbench pin
//! ```
//!
//! `sample` runs one workload run and prints one JSON line: host seconds split into
//! set-up and simulation, per-cell seconds, events, the report digest, correctness
//! violations, this process's peak RSS and, with `--traced`, the per-layer split.
//! Running one sample per process makes the peak RSS (VmHWM, a process-wide high-water
//! mark) belong to that run alone. `pin` selects each workload's inputs and prints their
//! scenario seeds with reference digests and event counts, computed through the
//! scenario crate's own entry points; `run.py` maps the benchmark seed to one of these
//! inputs and checks every sample against its reference (`pinned.json`).

mod trace;
mod workload;

use std::fmt::Write as _;
use workload::{Layers, Sample, Workload, EVENT_BAND, SEED_VARIANTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sample") => run_sample(&args[1..]),
        Some("pin") => {
            pin();
            Ok(())
        }
        _ => {
            Err("usage: perfbench sample --workload <name> [--scenario-seed <n>] [--traced] | pin"
                .into())
        }
    };
    if let Err(message) = result {
        eprintln!("perfbench: {message}");
        std::process::exit(2);
    }
}

fn run_sample(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = workload::pinned_seed();
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--scenario-seed" => {
                let value = it.next().ok_or("--scenario-seed needs a value")?;
                seed = value.parse().map_err(|e| format!("--scenario-seed {value:?}: {e}"))?;
            }
            "--traced" => traced = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let overhead_ns = if traced { trace::timer_overhead_ns() } else { 0.0 };
    let sample = workload::sample(workload, seed, traced);
    let rss_kib = peak_rss_kib().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!("{}", sample_json(workload, seed, traced, &sample, rss_kib, overhead_ns));
    Ok(())
}

/// This process's peak resident set size, KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A JSON number, or `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the inputs here are plain ASCII messages).
fn string(s: &str) -> String {
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

/// `part / whole`, 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced sample, by the names `BENCHMARK.json` lists.
fn layer_metrics(s: &Sample, overhead_ns: f64) -> Vec<(&'static str, f64)> {
    let l: &Layers = &s.layers;
    let events = s.events as f64;
    let agent_s = l.agent.timing.estimated_s(overhead_ns);
    let mobility_s = l.mobility.estimated_s(overhead_ns);
    let probe_s = l.probe.estimated_s(overhead_ns);
    let runtime_s = s.simulate_s - agent_s - mobility_s - probe_s;
    let agent_calls = l.agent.timing.calls as f64;
    vec![
        ("scenario.build_setup_s", l.build_setup_s),
        ("scenario.build_mobility_s", l.build_mobility_s),
        ("scenario.agents_s", l.agents_s),
        ("manet.sim_new_s", l.sim_new_s),
        ("runtime.self_s", runtime_s),
        ("runtime.ns_per_event", ratio(runtime_s * 1e9, events)),
        ("dessim.events", events),
        ("dessim.peak_queue_depth", l.peak_queue_depth as f64),
        ("mobility.position_at_calls", l.mobility.calls as f64),
        ("mobility.calls_per_event", ratio(l.mobility.calls as f64, events)),
        ("mobility.self_s", mobility_s),
        ("agent.on_packet_calls", l.agent.on_packet as f64),
        ("agent.on_timer_calls", l.agent.on_timer as f64),
        ("agent.on_app_data_calls", l.agent.on_app_data as f64),
        ("agent.self_s", agent_s),
        ("agent.ns_per_call", ratio(agent_s * 1e9, agent_calls)),
        ("agent.actions_per_call", ratio(l.agent.actions as f64, agent_calls)),
        ("agent.consumed_frac", ratio(l.agent.consumed as f64, l.agent.on_packet as f64)),
        ("probe.calls", l.probe.calls as f64),
        ("probe.self_s", probe_s),
        ("probe.ns_per_call", ratio(probe_s * 1e9, l.probe.calls as f64)),
        ("engine.sync_rounds", l.sync_rounds as f64),
        ("engine.events_per_round", ratio(events, l.sync_rounds as f64)),
        ("engine.imbalance", l.imbalance),
        ("report.finish_s", l.report_finish_s),
        ("report.streaming_bytes", l.streaming_bytes as f64),
        ("channel.collisions", l.collisions as f64),
        ("report.control_packets", l.control_packets as f64),
    ]
}

fn sample_json(
    workload: Workload,
    seed: u64,
    traced: bool,
    s: &Sample,
    rss_kib: u64,
    overhead_ns: f64,
) -> String {
    let errors: Vec<String> = s.errors.iter().map(|e| string(e)).collect();
    let cells: Vec<String> = s.cells_s.iter().map(|&c| num(c)).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"scenario_seed\":{},\"traced\":{},\"errors\":[{}],\
         \"digest\":\"{:016x}\",\"events\":{},\"wall_s\":{},\"setup_s\":{},\"simulate_s\":{},\
         \"cells_s\":[{}],\"peak_rss_kib\":{}",
        string(workload.name()),
        seed,
        traced,
        errors.join(","),
        s.digest,
        s.events,
        num(s.wall_s),
        num(s.setup_s),
        num(s.simulate_s),
        cells.join(","),
        rss_kib,
    );
    if traced {
        let layers: Vec<String> = layer_metrics(s, overhead_ns)
            .into_iter()
            .map(|(name, value)| format!("{}:{}", string(name), num(value)))
            .collect();
        let _ = write!(out, ",\"layers\":{{{}}}", layers.join(","));
    }
    out.push('}');
    out
}

/// One pinned input: scenario seed, report digest, events.
type Input = (u64, u64, u64);

/// Print `pinned.json`: per workload, `SEED_VARIANTS` inputs as
/// `[scenario seed, digest, events]`. Input 0 is the scenario's pinned seed; the others
/// are the next seeds upward whose event count lies within `EVENT_BAND` of input 0's.
fn pin() {
    let mut out = format!("{{\n  \"seed_variants\": {SEED_VARIANTS},\n  \"workloads\": {{\n");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let entries: Vec<String> = select_inputs(w)
            .iter()
            .map(|(seed, digest, events)| format!("[{seed}, \"{digest:016x}\", {events}]"))
            .collect();
        let comma = if wi + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": [\n      {}\n    ]{comma}",
            w.name(),
            entries.join(",\n      ")
        );
    }
    out.push_str("  }\n}");
    println!("{out}");
}

/// Scan scenario seeds upward from the pinned one for `SEED_VARIANTS` inputs of about
/// the same size.
fn select_inputs(w: Workload) -> Vec<Input> {
    let first = workload::pinned_seed();
    let (digest, target) = workload::reference(w, first);
    let mut inputs = vec![(first, digest, target)];
    let mut seed = first;
    while inputs.len() < SEED_VARIANTS {
        seed += 1;
        let (digest, events) = workload::reference(w, seed);
        let accepted = (events as f64 - target as f64).abs() <= EVENT_BAND * target as f64;
        eprintln!("{} seed {seed}: {events} events, accepted {accepted}", w.name());
        if accepted {
            inputs.push((seed, digest, events));
        }
    }
    inputs
}

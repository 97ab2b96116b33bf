//! slotbench: one workload, one seed, one fresh process.
//!
//! ```text
//! slotbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats set-up → run → check on the named workload until `--seconds`
//! have passed (at least a few reps), then prints a human-readable report
//! on stderr and, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (plane timing and allocation counting
//! off); with `--trace 1` they are the per-layer ones, and the spans of
//! the traced reps go to stderr as one JSON line. See `NOTES.md`.

mod alloc;
mod refwork;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{rep, setup_only, Mode, Rep, Workload, STREAM_SHARDS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: slotbench --workload <paper_protocol|scale_stream|esn_fig13|fault_audit> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// Fewest measured reps of each kind, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    sirius_bench::experiments::scale_series::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}

/// Whether a number is host time or cost, or simulated behaviour.
#[derive(Clone, Copy)]
enum Kind {
    Host,
    Sim,
}
use Kind::{Host, Sim};

/// Metrics in print order: name, value, unit, kind.
struct Metrics(Vec<(&'static str, f64, &'static str, Kind)>);

impl Metrics {
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Outcome of one invocation.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
}

/// Mark every rep whose simulated output differs from the first one's.
/// Audit-off reps are compared without the audit's own counters.
fn check_repeats(reps: &mut [Rep]) {
    let (reference, ref_mode) = (reps[0].sim.clone(), reps[0].mode);
    for r in reps.iter_mut().skip(1) {
        let mut sim = r.sim.clone();
        if r.mode.audit != ref_mode.audit {
            sim.audit_epochs = reference.audit_epochs;
            sim.audit_violations = reference.audit_violations;
        }
        let name = if sim.digest != reference.digest {
            if r.mode.traced {
                "traced_digest_matches_untraced"
            } else if r.mode.audit != ref_mode.audit {
                "audit_off_digest_matches"
            } else {
                "digest_repeats"
            }
        } else if sim != reference {
            "simulated_metrics_repeat"
        } else {
            continue;
        };
        r.failed.push(name.to_string());
    }
}

/// The end-to-end run: plane timing and allocation counting off.
fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let mode = Mode {
        traced: false,
        audit: w.audited(),
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    // Per rep: the host's pace, the nominal reference time over the
    // reference time just before and just after the rep. Host times are
    // multiplied by it, so they read as on the nominal host.
    let mut paces = Vec::new();
    // One sample per rep: the fastest of its set-ups. Like the median
    // over reps below, it keeps other tenants' bursts out of the figure.
    let mut setups = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let mut fastest = f64::INFINITY;
        for _ in 0..w.extra_setups() {
            fastest = fastest.min(setup_only(w, args.seed));
        }
        let before = refwork::time();
        let r = rep(w, args.seed, mode);
        let pace = refwork::NOMINAL_S * 2.0 / (before + refwork::time());
        setups.push(fastest.min(r.setup_s) * pace);
        paces.push(pace);
        reps.push(r);
    }
    check_repeats(&mut reps);

    let sim = &reps[0].sim;
    // Throughput over the median paced run time.
    let paced_s = median(reps.iter().zip(&paces).map(|(r, p)| r.run_s * p).collect());
    let per_run_s = |count: u64| count as f64 / paced_s;
    let m = Metrics(vec![
        ("setup_s", median(setups.clone()), "s", Host),
        ("cells_per_sec", per_run_s(sim.cells), "1/s", Host),
        ("flows_per_sec", per_run_s(sim.completed), "1/s", Host),
        ("peak_rss_mb", peak_rss_mb(), "MB", Host),
        ("goodput", sim.goodput, "ratio", Sim),
        ("fct_short_p50_us", sim.fct_short_p50_us, "us", Sim),
        ("fct_short_p99_us", sim.fct_short_p99_us, "us", Sim),
        (
            "flows_completed_frac",
            sim.completed as f64 / sim.flows as f64,
            "ratio",
            Sim,
        ),
    ]);

    eprintln!(
        "slotbench {} seed {}: {} reps, {} set-ups, run_s median {:.4} s, paced {:.4} s \
         (pace median {:.3}), digest {:016x}, {} short-flow FCT samples, nproc {}",
        w.name(),
        args.seed,
        reps.len(),
        reps.len() * (w.extra_setups() + 1),
        median(reps.iter().map(|r| r.run_s).collect()),
        paced_s,
        median(paces.clone()),
        sim.digest,
        sim.fct_short_samples,
        nproc(),
    );
    let runs: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.run_s)).collect();
    eprintln!("  run_s per rep: {}", runs.join(" "));
    let paces: Vec<String> = paces.iter().map(|p| format!("{p:.3}")).collect();
    eprintln!("  pace per rep:  {}", paces.join(" "));
    setups.sort_by(f64::total_cmp);
    let q = |f: f64| setups[((setups.len() - 1) as f64 * f) as usize];
    eprintln!(
        "  setup_s (fastest per rep, paced) min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    finish(m, &reps)
}

/// Print the failed checks and count failed reps.
fn finish(metrics: Metrics, reps: &[Rep]) -> Outcome {
    for (i, r) in reps.iter().enumerate() {
        for name in &r.failed {
            eprintln!("FAILED check {name} (rep {i})");
        }
    }
    for (name, value, unit, kind) in &metrics.0 {
        let kind = match kind {
            Host => "host",
            Sim => "sim",
        };
        eprintln!("  {name:<28} {value:>16.6} {unit:<8} [{kind}]");
    }
    Outcome {
        attempted: reps.len(),
        failed: reps.iter().filter(|r| !r.failed.is_empty()).count(),
        metrics,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The traced run: untraced, traced and (on `fault_audit`) audit-off reps
/// in rotation, so every comparison sees the same host conditions.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut kinds = vec![
        Mode {
            traced: false,
            audit: w.audited(),
        },
        Mode {
            traced: true,
            audit: w.audited(),
        },
    ];
    if w.audited() {
        kinds.push(Mode {
            traced: false,
            audit: false,
        });
    }
    let origin = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut trace = trace::Trace::new(
        format!("{}-{}-{}", w.name(), args.seed, std::process::id()),
        origin,
    );
    let mut reps: Vec<Rep> = Vec::new();
    // The first rep is untraced, so one-time lazy set-up in the process is
    // never counted as a layer's allocation.
    while reps.len() < MIN_REPS * kinds.len() || origin.elapsed() < budget {
        let mode = kinds[reps.len() % kinds.len()];
        alloc::set_counting(mode.traced);
        let r = rep(w, args.seed, mode);
        alloc::set_counting(false);
        if mode.traced {
            trace.add_rep(&r);
        }
        reps.push(r);
    }
    check_repeats(&mut reps);
    mark_traced_failures(w, &mut reps);

    let of = |mode: Mode| reps.iter().filter(move |r| r.mode == mode);
    let med = |f: &dyn Fn(&Rep) -> f64| median(of(kinds[1]).map(f).collect());
    let first = of(kinds[1]).next().expect("at least one traced rep");
    let allocs_repeat = of(kinds[1]).all(|r| r.allocs() == first.allocs());
    let esn = w == Workload::EsnFig13;
    let sirius = |v: f64| if esn { 0.0 } else { v };
    let only_esn = |v: f64| if esn { v } else { 0.0 };
    let planes = |r: &Rep| r.tx_s + r.deliver_s + r.merge_s;
    let layer_s = |name: &'static str| {
        med(&move |r: &Rep| {
            r.stamps
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .sum()
        })
    };
    let run_s = med(&|r| r.run_s);
    let untraced_run_s = median(of(kinds[0]).map(|r| r.run_s).collect());
    let audit_overhead = match kinds.get(2) {
        Some(&off) => untraced_run_s - median(of(off).map(|r| r.run_s).collect()),
        None => 0.0,
    };
    let sim = &first.sim;
    let (cells, flows) = (sim.cells as f64, sim.flows as f64);
    let (gen, new, run) = first.allocs();
    let (cc, f) = (&sim.cc, &sim.faults);
    let grants_used = (cc.grants_received - cc.grants_unused) as f64;
    let m = Metrics(vec![
        (
            "workload.generate_s",
            layer_s("workload.generate"),
            "s",
            Host,
        ),
        ("workload.flows", flows, "count", Sim),
        ("workload.allocs", gen.calls as f64, "count", Host),
        ("workload.alloc_bytes", gen.bytes as f64, "B", Host),
        (
            "engine.new_s",
            layer_s("engine.new") + layer_s("engine.set_faults"),
            "s",
            Host,
        ),
        ("engine.new_allocs", new.calls as f64, "count", Host),
        ("engine.new_alloc_bytes", new.bytes as f64, "B", Host),
        ("engine.run_s", sirius(run_s), "s", Host),
        ("engine.wall_s", sirius(med(&|r| r.wall_s)), "s", Host),
        (
            "engine.teardown_s",
            sirius(med(&|r| r.run_s - r.wall_s)),
            "s",
            Host,
        ),
        ("engine.cells", sirius(cells), "count", Sim),
        ("engine.epochs", sim.epochs as f64, "count", Sim),
        (
            "engine.ns_per_cell",
            sirius(ratio(run_s * 1e9, cells)),
            "ns",
            Host,
        ),
        ("engine.run_allocs", sirius(run.calls as f64), "count", Host),
        (
            "engine.allocs_per_cell",
            sirius(ratio(run.calls as f64, cells)),
            "count",
            Host,
        ),
        ("engine.tx_s", med(&|r| r.tx_s), "s", Host),
        ("engine.deliver_s", med(&|r| r.deliver_s), "s", Host),
        ("engine.merge_s", med(&|r| r.merge_s), "s", Host),
        (
            "engine.epoch_other_s",
            sirius(med(&|r| r.wall_s - planes(r))),
            "s",
            Host,
        ),
        (
            "engine.epoch_other_share",
            sirius(med(&|r| ratio(r.wall_s - planes(r), r.wall_s))),
            "ratio",
            Host,
        ),
        (
            "engine.teardown_share",
            sirius(med(&|r| ratio(r.run_s - r.wall_s, r.run_s))),
            "ratio",
            Host,
        ),
        ("cc.requests_sent", cc.requests_sent as f64, "count", Sim),
        ("cc.grants_issued", cc.grants_issued as f64, "count", Sim),
        ("cc.grants_unused", cc.grants_unused as f64, "count", Sim),
        (
            "cc.grants_declined",
            cc.grants_declined as f64,
            "count",
            Sim,
        ),
        (
            "cc.requests_denied",
            cc.requests_denied as f64,
            "count",
            Sim,
        ),
        (
            "cc.grants_used_frac",
            ratio(grants_used, cc.grants_issued as f64),
            "ratio",
            Sim,
        ),
        (
            "queue.peak_fabric_cells",
            sim.peak_fabric_cells as f64,
            "cells",
            Sim,
        ),
        (
            "queue.peak_local_cells",
            sim.peak_local_cells as f64,
            "cells",
            Sim,
        ),
        (
            "reorder.peak_flow_bytes",
            sim.peak_reorder_bytes as f64,
            "B",
            Sim,
        ),
        ("flows.resident_max", sim.resident_max as f64, "count", Sim),
        (
            "fct.short_samples",
            sim.fct_short_samples as f64,
            "count",
            Sim,
        ),
        ("faults.suspicions", f.suspicions as f64, "count", Sim),
        ("faults.exclusions", f.exclusions as f64, "count", Sim),
        (
            "faults.column_omissions",
            f.column_omissions as f64,
            "count",
            Sim,
        ),
        ("faults.cells_lost", f.cells_lost as f64, "cells", Sim),
        (
            "faults.cells_rerouted",
            f.cells_rerouted as f64,
            "cells",
            Sim,
        ),
        (
            "faults.max_detection_epochs",
            f.max_detection_epochs as f64,
            "epochs",
            Sim,
        ),
        (
            "faults.grey_localized_frac",
            f.grey_localized_frac,
            "ratio",
            Sim,
        ),
        (
            "audit.epochs_checked",
            sim.audit_epochs as f64,
            "count",
            Sim,
        ),
        (
            "audit.violations",
            sim.audit_violations as f64,
            "count",
            Sim,
        ),
        ("audit.overhead_s", audit_overhead, "s", Host),
        ("esn.run_s", only_esn(run_s), "s", Host),
        (
            "esn.us_per_flow",
            only_esn(ratio(run_s * 1e6, flows)),
            "us",
            Host,
        ),
        ("esn.allocs", only_esn(run.calls as f64), "count", Host),
        (
            "esn.allocs_per_flow",
            only_esn(ratio(run.calls as f64, flows)),
            "count",
            Host,
        ),
        ("esn.alloc_bytes", only_esn(run.bytes as f64), "B", Host),
        (
            "bench.trace_overhead_share",
            run_s / untraced_run_s - 1.0,
            "ratio",
            Host,
        ),
        (
            "bench.allocs_repeat",
            f64::from(u8::from(allocs_repeat)),
            "bool",
            Host,
        ),
    ]);

    eprintln!(
        "slotbench {} seed {} traced: {} reps ({} traced), digest {:016x}, nproc {}, \
         allocation counts repeat across traced reps: {}",
        w.name(),
        args.seed,
        reps.len(),
        of(kinds[1]).count(),
        sim.digest,
        nproc(),
        if allocs_repeat { "yes" } else { "no" },
    );
    if !esn {
        let share = |f: &dyn Fn(&Rep) -> f64| med(&|r| ratio(f(r), r.run_s));
        eprintln!("  attribution of engine.run_s (median share over traced reps):");
        eprintln!("    tx           {:.4}", share(&|r| r.tx_s));
        eprintln!("    deliver      {:.4}", share(&|r| r.deliver_s));
        eprintln!("    merge        {:.4}", share(&|r| r.merge_s));
        eprintln!("    epoch_other  {:.4}", share(&|r| r.wall_s - planes(r)));
        eprintln!("    teardown     {:.4}", share(&|r| r.run_s - r.wall_s));
        eprintln!(
            "    engine.run self time from spans, mean per traced rep: {:.6} s",
            trace.self_secs("engine.run") / of(kinds[1]).count() as f64
        );
    }
    eprintln!("{}", trace.to_json());
    finish(m, &reps)
}

/// Run-level checks of the traced reps: allocation counts repeat (serial
/// workloads only; the sharded leg just reports it), and the planes,
/// `epoch_other` and teardown each cover a non-negative share of the run.
fn mark_traced_failures(w: Workload, reps: &mut [Rep]) {
    const RESOLUTION_S: f64 = 1e-6;
    let serial = w != Workload::ScaleStream || STREAM_SHARDS == 1;
    let first = reps.iter().find(|r| r.mode.traced).map(|r| r.allocs());
    for r in reps.iter_mut().filter(|r| r.mode.traced) {
        if serial && Some(r.allocs()) != first {
            r.failed.push("allocs_repeat".to_string());
        }
        let planes = r.tx_s + r.deliver_s + r.merge_s;
        if w != Workload::EsnFig13
            && (planes > r.wall_s + RESOLUTION_S || r.wall_s > r.run_s + RESOLUTION_S)
        {
            r.failed.push("run_time_attribution".to_string());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slotbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    ExitCode::SUCCESS
}

//! The four benchmark workloads: how each builds its inputs from the seed,
//! sets up its engine, runs it, and checks what comes out.
//!
//! Every layer call is timed here, from outside the program, through the
//! public entry points: `WorkloadSpec::generate` / `stream`,
//! `SiriusSim::new` / `set_faults` / `run` / `run_streaming`, and
//! `EsnSim::new` / `run`.

use crate::alloc::{counted, Allocs};
use sirius_bench::experiments::fault_tolerance::fabric_limited_net;
use sirius_bench::experiments::fig9::SHORT_FLOW_BYTES;
use sirius_bench::experiments::scale_series::{
    point_network, point_workload, resident_bound, ScaleGeom,
};
use sirius_bench::Scale;
use sirius_core::fault::FaultConfig;
use sirius_core::topology::NodeId;
use sirius_core::units::{Duration, Rate, Time};
use sirius_optics::ber::Modulation;
use sirius_sim::{
    CcMode, EsnSim, FaultEvent, FaultInjector, FctHistogram, RunMetrics, SiriusSim, SiriusSimConfig,
};
use sirius_workload::{Flow, Pareto, Pattern, WorkloadSpec};
use std::time::Instant;

/// Flows per `paper_protocol` run.
const PAPER_FLOWS: u64 = 20_000;
/// Flows streamed per `scale_stream` run.
const STREAM_FLOWS: u64 = 32_000;
/// The `scale_stream` geometry: 1024 racks on 32-port gratings.
const STREAM_NODES: usize = 1024;
const STREAM_GRATING: usize = 32;
/// Slot-engine shards on `scale_stream` (the only sharded workload).
pub const STREAM_SHARDS: usize = 2;
/// Flows per `esn_fig13` run.
const ESN_FLOWS: u64 = 4_000;
/// `fault_audit`: racks crashed (the last ones), flows per surviving
/// server, and the dead grey column (node, uplink, receive power).
const FAULT_VICTIMS: u32 = 4;
const FAULT_FLOWS_PER_SERVER: u64 = 30;
const GREY_NODE: u32 = 7;
const GREY_UPLINK: u16 = 2;
const GREY_RX_DBM: f64 = -12.0;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperProtocol,
    ScaleStream,
    EsnFig13,
    FaultAudit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperProtocol,
        Workload::ScaleStream,
        Workload::EsnFig13,
        Workload::FaultAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperProtocol => "paper_protocol",
            Workload::ScaleStream => "scale_stream",
            Workload::EsnFig13 => "esn_fig13",
            Workload::FaultAudit => "fault_audit",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-up-only iterations per measured rep. `setup_s` takes the
    /// fastest set-up of each rep, so these keep that sample steady.
    pub fn extra_setups(self) -> usize {
        match self {
            Workload::ScaleStream => 3,
            _ => 20,
        }
    }

    /// Whether this workload's engine is the fault-scripted, audited one
    /// (and so has an audit-off twin for `audit.overhead_s`).
    pub fn audited(self) -> bool {
        self == Workload::FaultAudit
    }
}

/// What one rep switches on beyond the end-to-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Plane timing in the engine and allocation counting here.
    pub traced: bool,
    /// The invariant audit (only `fault_audit` runs it; its audit-off
    /// twin measures what the audit costs).
    pub audit: bool,
}

/// A timed layer call.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Stamp {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn stamp<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Stamp) {
    let start = Instant::now();
    let out = f();
    (
        out,
        Stamp {
            name,
            start,
            end: Instant::now(),
        },
    )
}

// One engine exists per rep; boxing the large variant would add a heap
// allocation to the timed set-up.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sirius(SiriusSim),
    Esn(EsnSim),
}

enum Input {
    Flows(Vec<Flow>),
    Stream(WorkloadSpec),
}

/// An engine set up and ready to run, with the set-up's timing.
struct Armed {
    engine: Engine,
    input: Input,
    /// `workload.generate`, `engine.new` and (with faults)
    /// `engine.set_faults`, in call order.
    stamps: Vec<Stamp>,
    gen_allocs: Allocs,
    new_allocs: Allocs,
    /// Servers the workload draws from and their line rate: the goodput
    /// normaliser.
    servers: u64,
    rate: Rate,
    /// Scripted crashes (fault_audit only).
    crashes: usize,
}

impl Armed {
    fn setup_s(&self) -> f64 {
        let first = self.stamps.first().expect("set-up records a stamp");
        let last = self.stamps.last().expect("set-up records a stamp");
        last.end.duration_since(first.start).as_secs_f64()
    }
}

fn paper_spec(seed: u64) -> WorkloadSpec {
    let mut spec = Scale::Paper.workload(0.5, seed);
    spec.flows = PAPER_FLOWS;
    spec
}

fn esn_spec(seed: u64) -> WorkloadSpec {
    let mut spec = Scale::Paper.workload(0.5, seed);
    spec.sizes = Pareto::with_mean(1.05, 512.0).truncated(1e7);
    spec.flows = ESN_FLOWS;
    spec
}

fn stream_geom() -> ScaleGeom {
    ScaleGeom {
        nodes: STREAM_NODES,
        grating: STREAM_GRATING,
        flows: STREAM_FLOWS,
    }
}

/// The `fault_audit` script: staggered crashes of the last racks (as in
/// `fault_tolerance::detection_points`) plus one dead grey TX column (as
/// in `fault_tolerance::grey_points` at its dark end).
fn fault_script(seed: u64, nodes: u32, cell_bytes: u32) -> FaultInjector {
    let mut inj = FaultInjector::new(seed);
    for k in 0..FAULT_VICTIMS {
        inj.push(FaultEvent::Crash {
            node: NodeId(nodes - 1 - k),
            epoch: 5 + 10 * k as u64,
        });
    }
    inj.grey_link_from_ber(
        NodeId(GREY_NODE),
        GREY_UPLINK,
        GREY_RX_DBM,
        Modulation::Pam4_50,
        cell_bytes,
        4,
        300,
    )
}

fn arm(w: Workload, seed: u64, mode: Mode) -> Armed {
    let t = mode.traced;
    match w {
        Workload::PaperProtocol => {
            let ((wl, gen_allocs), g) = stamp("workload.generate", || {
                counted(|| paper_spec(seed).generate())
            });
            let net = Scale::Paper.network();
            let ((sim, new_allocs), n) = stamp("engine.new", || {
                counted(|| {
                    let cfg = Scale::Paper
                        .sim_config(net.clone(), &wl, seed)
                        .with_mode(CcMode::Protocol)
                        .with_shards(1)
                        .with_audit(false)
                        .with_plane_timing(t);
                    SiriusSim::new(cfg)
                })
            });
            Armed {
                engine: Engine::Sirius(sim),
                input: Input::Flows(wl),
                stamps: vec![g, n],
                gen_allocs,
                new_allocs,
                servers: net.total_servers() as u64,
                rate: Scale::Paper.server_share(),
                crashes: 0,
            }
        }
        Workload::ScaleStream => {
            let geom = stream_geom();
            let net = point_network(geom);
            let ((spec, gen_allocs), g) = stamp("workload.generate", || {
                counted(|| {
                    let spec = point_workload(geom, &net, seed);
                    // Construct the lazy stream once here so its set-up is
                    // timed; the run builds its own from the same spec.
                    drop(spec.stream());
                    spec
                })
            });
            let ((sim, new_allocs), n) = stamp("engine.new", || {
                counted(|| {
                    let span = spec.mean_interarrival() * spec.flows;
                    let mut cfg = SiriusSimConfig::new(net.clone())
                        .with_seed(seed)
                        .with_shards(STREAM_SHARDS)
                        .with_audit(false)
                        .with_plane_timing(t);
                    cfg.drain_timeout = Duration::from_us(200).max(span / 2);
                    SiriusSim::new(cfg)
                })
            });
            Armed {
                engine: Engine::Sirius(sim),
                input: Input::Stream(spec),
                stamps: vec![g, n],
                gen_allocs,
                new_allocs,
                servers: net.total_servers() as u64,
                rate: net.server_rate,
                crashes: 0,
            }
        }
        Workload::EsnFig13 => {
            let ((wl, gen_allocs), g) = stamp("workload.generate", || {
                counted(|| esn_spec(seed).generate())
            });
            let ((sim, new_allocs), n) = stamp("engine.new", || {
                counted(|| EsnSim::new(Scale::Paper.esn(1.0)))
            });
            Armed {
                engine: Engine::Esn(sim),
                input: Input::Flows(wl),
                stamps: vec![g, n],
                gen_allocs,
                new_allocs,
                servers: Scale::Paper.network().total_servers() as u64,
                rate: Scale::Paper.server_share(),
                crashes: 0,
            }
        }
        Workload::FaultAudit => {
            let net = fabric_limited_net(Scale::Paper);
            let nodes = net.nodes as u32;
            let servers = (nodes - FAULT_VICTIMS) * net.servers_per_node as u32;
            // A saturating survivor workload (`fault_tolerance`'s
            // `survivor_workload` with no start offset): only surviving
            // racks send or receive.
            let ((wl, gen_allocs), g) = stamp("workload.generate", || {
                counted(|| {
                    WorkloadSpec {
                        servers,
                        server_rate: net.server_rate,
                        load: 1.0,
                        sizes: Pareto::paper_default().truncated(1e5),
                        flows: servers as u64 * FAULT_FLOWS_PER_SERVER,
                        pattern: Pattern::Uniform,
                        seed,
                    }
                    .generate()
                })
            });
            let ((sim, mut new_allocs), n) = stamp("engine.new", || {
                counted(|| {
                    let mut cfg = SiriusSimConfig::new(net.clone())
                        .with_seed(seed)
                        .with_shards(1)
                        .with_audit(mode.audit)
                        .with_plane_timing(t);
                    cfg.drain_timeout = Duration::from_us(300);
                    SiriusSim::new(cfg)
                })
            });
            let mut sim = sim;
            let (faults_allocs, f) = stamp("engine.set_faults", || {
                counted(|| sim.set_faults(fault_script(seed, nodes, net.cell_bytes))).1
            });
            new_allocs.calls += faults_allocs.calls;
            new_allocs.bytes += faults_allocs.bytes;
            Armed {
                engine: Engine::Sirius(sim),
                input: Input::Flows(wl),
                stamps: vec![g, n, f],
                gen_allocs,
                new_allocs,
                servers: servers as u64,
                rate: net.server_rate,
                crashes: FAULT_VICTIMS as usize,
            }
        }
    }
}

/// Time one set-up of the workload and throw it away.
pub fn setup_only(w: Workload, seed: u64) -> f64 {
    arm(
        w,
        seed,
        Mode {
            traced: false,
            audit: w.audited(),
        },
    )
    .setup_s()
}

/// What the run simulated: identical on every rep of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOut {
    pub digest: u64,
    pub flows: u64,
    pub completed: u64,
    pub goodput: f64,
    pub fct_short_p50_us: f64,
    pub fct_short_p99_us: f64,
    /// Completed short flows the two percentiles are taken over.
    pub fct_short_samples: u64,
    /// Cells delivered to their final destination. On ESN, which has no
    /// cells, the Sirius cells its completed flows would occupy.
    pub cells: u64,
    pub epochs: u64,
    pub cc: sirius_core::congestion::CcStats,
    pub peak_fabric_cells: u64,
    pub peak_local_cells: u64,
    pub peak_reorder_bytes: u64,
    pub resident_max: u64,
    pub faults: FaultOut,
    pub audit_epochs: u64,
    pub audit_violations: u64,
}

/// Fault-plane counters (all zero without a fault script).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOut {
    pub suspicions: u64,
    pub exclusions: u64,
    pub column_omissions: u64,
    pub cells_lost: u64,
    pub cells_rerouted: u64,
    pub max_detection_epochs: u64,
    pub grey_localized_frac: f64,
}

/// One measured rep.
pub struct Rep {
    pub mode: Mode,
    /// The layer calls in order: set-up, the run, then the checks.
    pub stamps: Vec<Stamp>,
    pub setup_s: f64,
    pub run_s: f64,
    /// The program's own `wall_secs` and plane fields (planes are zero
    /// unless traced).
    pub wall_s: f64,
    pub tx_s: f64,
    pub deliver_s: f64,
    pub merge_s: f64,
    pub gen_allocs: Allocs,
    pub new_allocs: Allocs,
    pub run_allocs: Allocs,
    pub sim: SimOut,
    /// Names of the checks this rep failed.
    pub failed: Vec<String>,
}

impl Rep {
    /// Allocations of the three layer calls: generate, new, run.
    pub fn allocs(&self) -> (Allocs, Allocs, Allocs) {
        (self.gen_allocs, self.new_allocs, self.run_allocs)
    }
}

/// Set up, run and check one rep.
pub fn rep(w: Workload, seed: u64, mode: Mode) -> Rep {
    let armed = arm(w, seed, mode);
    let setup_s = armed.setup_s();
    let Armed {
        engine,
        input,
        mut stamps,
        gen_allocs,
        new_allocs,
        servers,
        rate,
        crashes,
    } = armed;
    let ((m, run_allocs), run) = match (engine, &input) {
        (Engine::Sirius(sim), Input::Flows(wl)) => stamp("engine.run", || counted(|| sim.run(wl))),
        (Engine::Sirius(sim), Input::Stream(spec)) => stamp("engine.run", || {
            counted(|| sim.run_streaming(spec.stream()))
        }),
        (Engine::Esn(sim), Input::Flows(wl)) => stamp("esn.run", || counted(|| sim.run(wl))),
        (Engine::Esn(_), Input::Stream(_)) => unreachable!("ESN runs materialised flows"),
    };
    stamps.push(run);
    let ((sim, failed), check) = stamp("check", || check(w, &m, &input, servers, rate, crashes));
    stamps.push(check);
    Rep {
        mode,
        stamps,
        setup_s,
        run_s: run.secs(),
        wall_s: m.wall_secs,
        tx_s: m.tx_secs,
        deliver_s: m.deliver_secs,
        merge_s: m.merge_secs,
        gen_allocs,
        new_allocs,
        run_allocs,
        sim,
        failed,
    }
}

/// Derive the simulated outputs and run every output check that applies.
fn check(
    w: Workload,
    m: &RunMetrics,
    input: &Input,
    servers: u64,
    rate: Rate,
    crashes: usize,
) -> (SimOut, Vec<String>) {
    let mut failed = Vec::new();
    let mut expect = |ok: bool, name: &str| {
        if !ok {
            failed.push(name.to_string());
        }
    };

    let (flows, completed, p50, p99, samples) = match input {
        Input::Flows(wl) => {
            expect(conserves_bytes(m, wl), "byte_conservation");
            let fct_us = |p| {
                m.fct_percentile(p, SHORT_FLOW_BYTES)
                    .map_or(0.0, |d| d.as_ps() as f64 / 1e6)
            };
            let samples = m
                .flows
                .iter()
                .filter(|f| f.bytes < SHORT_FLOW_BYTES && f.completion.is_some())
                .count();
            (
                wl.len() as u64,
                m.completed_flows(),
                fct_us(50.0),
                fct_us(99.0),
                samples as u64,
            )
        }
        Input::Stream(spec) => {
            expect(
                m.resident_flows_max <= resident_bound(spec.flows),
                "resident_bound",
            );
            let completed = spec.flows - m.incomplete_flows;
            let hist = m.fct_hist.clone().unwrap_or_default();
            expect(hist.count() == completed, "stream_fct_accounting");
            (
                spec.flows,
                completed,
                hist_percentile_us(&hist, 50.0),
                hist_percentile_us(&hist, 99.0),
                hist.count(),
            )
        }
    };

    // ESN runs every flow to completion, so a span-based goodput is set by
    // its single largest Pareto(1.05) flow. It reports fig 13's formula,
    // payload delivered by the last arrival, instead; at this population
    // that window is shorter than the base latency (see NOTES.md). Having
    // no cells, it counts the Sirius cells its completed short flows would
    // fill. Those are all but a few of its flows on every seed, whereas
    // the cells of all flows swing with the seed's largest Pareto draws.
    let (goodput, cells) = match (w, input) {
        (Workload::EsnFig13, Input::Flows(wl)) => {
            let horizon = wl.last().map_or(Time::ZERO, |f| f.arrival);
            let payload = u64::from(Scale::Paper.network().payload_bytes);
            let cells = m
                .flows
                .iter()
                .filter(|f| f.bytes < SHORT_FLOW_BYTES && f.completion.is_some())
                .map(|f| f.bytes.div_ceil(payload))
                .sum();
            (m.goodput_within(horizon, servers, rate), cells)
        }
        _ => (m.normalized_goodput(servers, rate), m.cells_delivered),
    };

    let faults = match &m.fault {
        Some(fr) => {
            let bound = FaultConfig::default().silence_threshold + 1;
            expect(
                fr.failures.len() == crashes
                    && fr
                        .failures
                        .iter()
                        .all(|rec| rec.detection_epochs().is_some_and(|d| d <= bound)),
                "crash_detected_within_bound",
            );
            FaultOut {
                suspicions: fr.suspicion_events,
                exclusions: fr.exclusions,
                column_omissions: fr.column_omissions,
                cells_lost: fr.cells_lost_crash + fr.cells_lost_grey + fr.cells_lost_mistune,
                cells_rerouted: fr.cells_rerouted,
                max_detection_epochs: fr.max_detection_epochs().unwrap_or(0),
                grey_localized_frac: if fr.grey_links_declared > 0 {
                    fr.grey_links_localized as f64 / fr.grey_links_declared as f64
                } else {
                    0.0
                },
            }
        }
        None => {
            expect(crashes == 0, "fault_report_present");
            FaultOut::default()
        }
    };
    let (audit_epochs, audit_violations) = match &m.audit {
        Some(a) => {
            expect(a.total_violations == 0, "audit_clean");
            (a.epochs_checked, a.total_violations)
        }
        None => (0, 0),
    };
    expect(samples > 0, "short_flows_completed");

    let sim = SimOut {
        digest: m.digest,
        flows,
        completed,
        goodput,
        fct_short_p50_us: p50,
        fct_short_p99_us: p99,
        fct_short_samples: samples,
        cells,
        epochs: m.epochs_simulated,
        cc: m.cc,
        peak_fabric_cells: m.peak_node_fabric_cells,
        peak_local_cells: m.peak_node_local_cells,
        peak_reorder_bytes: m.peak_reorder_flow_bytes,
        resident_max: m.resident_flows_max,
        faults,
        audit_epochs,
        audit_violations,
    };
    (sim, failed)
}

/// p-th percentile of a streaming run's FCT histogram in µs (0 when
/// empty). This is the benchmark's estimate, not the program's figure:
/// `FctHistogram::percentile_ps` answers with the log2 bucket's midpoint,
/// which reads the same for every seed, so the rank is placed inside its
/// bucket assuming FCTs spread log-uniformly across it.
fn hist_percentile_us(h: &FctHistogram, p: f64) -> f64 {
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let total = h.count();
    let at = |rank: u64| {
        h.percentile_ps(100.0 * (rank as f64 - 0.5) / total as f64)
            .expect("histogram is not empty")
    };
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let v = at(rank);
    // The ranks answering `v` are the bucket's.
    let first = (1..=rank).find(|&r| at(r) == v).expect("rank answers v");
    let n = (first..=total).take_while(|&r| at(r) == v).count() as f64;
    let bucket = v.log2().floor();
    let lower = bucket.exp2().max(min.as_ps() as f64);
    let upper = (bucket + 1.0).exp2().min(max.as_ps() as f64);
    let frac = ((rank - first) as f64 + 0.5) / n;
    lower * (upper / lower).powf(frac) / 1e6
}

/// No flow delivers more than its bytes, completed flows deliver exactly
/// their bytes, and the per-flow sum equals `delivered_bytes`.
fn conserves_bytes(m: &RunMetrics, wl: &[Flow]) -> bool {
    m.flows.len() == wl.len()
        && m.flows.iter().zip(wl).all(|(r, f)| {
            r.bytes == f.bytes
                && r.delivered <= r.bytes
                && (r.completion.is_none() || r.delivered == r.bytes)
                && r.completion
                    .is_none_or(|c| c >= r.arrival && r.arrival == f.arrival)
        })
        && m.flows.iter().map(|r| r.delivered).sum::<u64>() == m.delivered_bytes
}

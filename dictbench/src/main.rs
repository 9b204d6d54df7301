//! `dictbench`: the end-to-end and per-layer benchmark of `dict-server`.
//!
//! ```text
//! dictbench --workload read95|ingest|scan-flush --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns `dict_server::Server` in-process with the shipped `dict-server`
//! defaults (HI-PMA, seed 7, 4 shards, default `ServerConfig`, fsync'd
//! persistence as `--persist` builds it) and drives it over loopback on
//! one HELLO-bound connection. Every answer is checked against an oracle.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run and its in-process replay. The last
//! line of standard output is one JSON object; everything the run writes
//! goes under `.bench_out/` in the working directory. See `README.md`.

mod gen;
mod replay;
mod report;
mod trace;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use anti_persistence::dict::{Backend, Dict, DictConfig, PersistentDict};
use dict_server::{Server, ServerOptions};
use hi_common::traits::Dictionary;
use io_sim::{IoConfig, Tracer};

use gen::{Gen, Phase, FLUSH_EVERY, PRELOAD};
use report::{Metric, Report};
use trace::Spans;
use wire::{ClosedLoop, Conn, FlushProbe, Oracle, PhaseOut, Tally};

/// The shipped `dict-server` seed.
pub const SEED: u64 = 7;
/// Outstanding requests in the preload, `read95` and `ingest` loops.
const WIDE_WINDOW: usize = 256;
/// Outstanding requests in `scan-flush` and in the tail phase.
pub const TAIL_WINDOW: usize = 64;
/// The open-loop light phase: rate and length.
const LIGHT_RATE: u64 = 5_000;
const LIGHT_OPS: u64 = 10_000;
/// Set-ups per run; `setup_s` is their median, and the last one serves the
/// rest of the run, so traced and untraced runs measure a process in the
/// same state.
const SETUPS: usize = 3;
/// Main-phase ops per `--seconds`: each workload issues a fixed number of
/// ops, sized to last about that long on a 2-vCPU host, so everything it
/// leaves on disk is a pure function of the seed.
const READ95_OPS_PER_SECOND: u64 = 100_000;
const INGEST_OPS_PER_SECOND: u64 = 60_000;
/// `scan-flush` runs about twice as long: its `ops_s` is a median over
/// FLUSH cycles, whose rates swing with the host's fsync, and its
/// `write_amp` and `space_amp` sum over FLUSHes, so it takes more of them.
const SCAN_CYCLES_PER_SECOND: u64 = 5;
/// Main-phase ops the traced run replays in-process (`scan-flush`: whole
/// cycles, so the replay ends on a FLUSH).
const REPLAY_OPS: u64 = 262_144;
const REPLAY_SCAN_CYCLES: u64 = 8;
/// Block size of the served store (the `build_persistent` default).
const BLOCK: u64 = 4096;
/// Bytes of one user record: a `u64` key and a `u64` value.
const RECORD: u64 = 16;

/// The dictionary configuration `dict-server` ships with.
pub fn served_config() -> DictConfig {
    DictConfig {
        backend: Backend::HiPma,
        seed: SEED,
        shards: 4,
        ..DictConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Read95,
    Ingest,
    ScanFlush,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "read95" => Some(Self::Read95),
            "ingest" => Some(Self::Ingest),
            "scan-flush" => Some(Self::ScanFlush),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Read95 => "read95",
            Self::Ingest => "ingest",
            Self::ScanFlush => "scan-flush",
        }
    }

    fn phase(self) -> Phase {
        match self {
            Self::Read95 => Phase::Read95,
            Self::Ingest => Phase::Ingest,
            Self::ScanFlush => Phase::ScanFlush,
        }
    }

    fn window(self) -> usize {
        match self {
            Self::ScanFlush => TAIL_WINDOW,
            _ => WIDE_WINDOW,
        }
    }

    /// `read95` and `ingest` issue no SUCC/PRED/FLUSH in their main phase;
    /// a short tail phase gives them the navigation, flush and on-disk
    /// metrics every workload reports.
    fn has_tail(self) -> bool {
        self != Self::ScanFlush
    }

    fn main_ops(self, seconds: u64) -> u64 {
        match self {
            Self::Read95 => seconds * READ95_OPS_PER_SECOND,
            Self::Ingest => seconds * INGEST_OPS_PER_SECOND,
            Self::ScanFlush => seconds * SCAN_CYCLES_PER_SECOND * (FLUSH_EVERY + 1),
        }
    }

    /// Ops per lap of the main phase, over which `ops_s` takes its rates:
    /// a tenth of the phase, or in `scan-flush` one FLUSH cycle, so each
    /// lap carries exactly one FLUSH stall.
    fn lap(self, seconds: u64) -> u64 {
        match self {
            Self::ScanFlush => FLUSH_EVERY + 1,
            _ => self.main_ops(seconds) / 10,
        }
    }

    fn replay_ops(self) -> u64 {
        match self {
            Self::ScanFlush => REPLAY_SCAN_CYCLES * (FLUSH_EVERY + 1),
            _ => REPLAY_OPS,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (read95, ingest, scan-flush)")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

pub fn median(v: &[u64]) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// A served instance after its set-up: the server, its connection, the
/// oracle of what it holds and the probe on its store.
struct Served {
    server: Server,
    conn: Conn,
    oracle: Oracle,
    probe: FlushProbe,
}

fn remove_store(path: &Path) {
    let mut journal = path.as_os_str().to_os_string();
    journal.push(".journal");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(journal);
}

/// Server spawn (with its persistent store), HELLO and the preload of
/// `PRELOAD` keys through the wire. Returns the instance and how long it
/// took.
fn set_up(
    gen: &Gen,
    path: &Path,
    tally: &mut Tally,
    epoch: Instant,
) -> io::Result<(Served, Duration)> {
    let start = Instant::now();
    let mut persist = Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent(path)?;
    // Counts the blocks the store writes, so on-disk bytes per FLUSH can
    // be read at each FLUSH ack.
    let tracer = Tracer::enabled(IoConfig::new(BLOCK as usize, 1));
    persist.store_mut().set_tracer(tracer.clone());
    let server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: served_config(),
            persist: Some(persist),
        },
    )?;
    let mut conn = Conn::connect(server.addr(), 1)?;
    let mut oracle = Oracle::default();
    let probe = FlushProbe {
        tracer,
        data_path: path.to_path_buf(),
    };
    ClosedLoop {
        gen,
        phase: Phase::Preload,
        window: WIDE_WINDOW,
        ops: PRELOAD,
        lap: None,
        isolate_flush: false,
        trace: false,
        epoch,
        probe: &probe,
    }
    .run(&mut conn, &mut oracle, tally)?;
    let served = Served {
        server,
        conn,
        oracle,
        probe,
    };
    Ok((served, start.elapsed()))
}

/// Reopens the served file and checks it holds what the oracle holds
/// (durability), then flushes the oracle's contents with the same seed
/// into a fresh store and checks both files are byte-identical (history
/// independence).
fn check_store(path: &Path, oracle: &Oracle, tmp: &Path) -> io::Result<(bool, bool)> {
    let want: Vec<(u64, u64)> = oracle.map.iter().map(|(&k, &v)| (k, v)).collect();
    let reopened = Dict::builder()
        .backend(Backend::HiPma)
        .build_persistent(path)?;
    let got: Vec<(u64, u64)> = reopened.dict().iter().map(|(&k, &v)| (k, v)).collect();
    let durable = got == want;
    if !durable {
        println!(
            "check durability FAILED: reopened store holds {} records, oracle {}",
            got.len(),
            want.len()
        );
    }
    let fresh_path = tmp.join("fresh.bin");
    let mut fresh: PersistentDict = Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent(&fresh_path)?;
    fresh.bulk_load(want, SEED);
    fresh.flush().map_err(io::Error::other)?;
    let identical = reopened.store().raw_bytes().map_err(io::Error::other)?
        == fresh.store().raw_bytes().map_err(io::Error::other)?;
    if !identical {
        println!("check history-independence FAILED: served and fresh images differ");
    }
    drop(fresh);
    remove_store(&fresh_path);
    Ok((durable, identical))
}

/// Everything one run measured.
struct Run {
    setup_ns: Vec<u64>,
    light: wire::LightOut,
    main: PhaseOut,
    tail: Option<PhaseOut>,
    tally: Tally,
    store: block_store::StoreStats,
    durable: bool,
    identical: bool,
}

impl Run {
    /// The phase that issues the run's SUCC/PRED/FLUSH.
    fn flushing(&self) -> &PhaseOut {
        self.tail.as_ref().unwrap_or(&self.main)
    }

    /// The phase a latency class comes from: the main phase when it
    /// issues that class, the tail otherwise.
    fn lat(&self, pick: impl Fn(&wire::Lat) -> &Vec<u64>) -> &Vec<u64> {
        match &self.tail {
            Some(t) if pick(&self.main.lat).is_empty() => pick(&t.lat),
            _ => pick(&self.main.lat),
        }
    }

    fn marks(&self) -> Vec<wire::FlushMark> {
        let mut all = self.main.marks.clone();
        if let Some(t) = &self.tail {
            all.extend_from_slice(&t.marks);
        }
        all
    }
}

fn measure(args: &Args, tmp: &Path, epoch: Instant) -> io::Result<Run> {
    let gen = Gen::new(args.seed);
    let w = args.workload;
    let mut tally = Tally::default();
    let mut setup_ns = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let path = tmp.join(format!("served-{k}.bin"));
        let (served, took) = set_up(&gen, &path, &mut tally, epoch)?;
        setup_ns.push(took.as_nanos() as u64);
        if k + 1 < SETUPS {
            drop(served.conn);
            drop(served.server.into_persist());
            remove_store(&path);
        } else {
            kept = Some((served, path));
        }
    }
    let (served, path) = kept.expect("at least one set-up");
    let Served {
        server,
        mut conn,
        mut oracle,
        probe,
    } = served;
    let light = wire::open_loop(
        &mut conn,
        &mut oracle,
        &mut tally,
        &gen,
        Phase::Light,
        LIGHT_RATE,
        LIGHT_OPS,
    )?;
    let main = ClosedLoop {
        gen: &gen,
        phase: w.phase(),
        window: w.window(),
        ops: w.main_ops(args.seconds),
        lap: Some(w.lap(args.seconds)),
        isolate_flush: false,
        trace: args.trace,
        epoch,
        probe: &probe,
    }
    .run(&mut conn, &mut oracle, &mut tally)?;
    let tail = if w.has_tail() {
        Some(
            ClosedLoop {
                gen: &gen,
                phase: Phase::Tail,
                window: TAIL_WINDOW,
                ops: gen::tail_len(),
                lap: None,
                isolate_flush: true,
                trace: false,
                epoch,
                probe: &probe,
            }
            .run(&mut conn, &mut oracle, &mut tally)?,
        )
    } else {
        None
    };
    drop(conn);
    let persist = server
        .into_persist()
        .ok_or_else(|| io::Error::other("the server gave back no store"))?;
    let store = persist.store().stats();
    drop(persist);
    let (durable, identical) = check_store(&path, &oracle, tmp)?;
    Ok(Run {
        setup_ns,
        light,
        main,
        tail,
        tally,
        store,
        durable,
        identical,
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Main-phase throughput: completed ops ÷ wall time of each lap of the
/// phase (FLUSH stalls included), median over the laps.
fn ops_s(main: &PhaseOut) -> f64 {
    let mut rates: Vec<f64> = std::iter::once(&Duration::ZERO)
        .chain(&main.laps)
        .zip(&main.laps)
        .map(|(a, b)| ratio(main.lap as f64, (*b - *a).as_secs_f64()))
        .collect();
    rates.sort_by(f64::total_cmp);
    rates
        .get(rates.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// The gated end-to-end metrics (those `BENCHMARK.json` bounds), and the
/// ones recorded beside them: the tails, whose spread on a shared 2-vCPU
/// host exceeds any bound a metric may have, and `failed_frac`, which
/// reads 0 when nothing fails.
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    use report::tenths_pct as pct;
    let m = |name, value, unit| Metric { name, value, unit };
    let marks = &run.flushing().marks;
    let write_amp = match (marks.first(), marks.last()) {
        (Some(a), Some(b)) => ratio(
            ((b.blocks_written - a.blocks_written) * BLOCK) as f64,
            ((b.acked_writes - a.acked_writes) * RECORD) as f64,
        ),
        _ => 0.0,
    };
    // Summed over every FLUSH: the HI-PMA draws its capacity from its
    // coins, so one image's size jumps between two levels as the record
    // count crosses a drawn threshold; the sum over all FLUSHes is steady.
    let space_amp = ratio(
        marks.iter().map(|m| m.data_len).sum::<u64>() as f64,
        (marks.iter().map(|m| m.live).sum::<u64>() * RECORD) as f64,
    );
    let get = run.lat(|l| &l.get);
    let put = run.lat(|l| &l.write);
    let nav = run.lat(|l| &l.nav);
    let flush = run.lat(|l| &l.flush);
    let failed_frac = ratio(run.tally.failed() as f64, run.tally.attempted as f64);
    let gated = vec![
        m("setup_s", median(&run.setup_ns) as f64 / 1e9, "s"),
        m("ops_s", ops_s(&run.main), "ops/s"),
        m("light_p50_us", us(pct(&run.light.lat, 0.5)), "us"),
        m("get_p50_us", us(pct(get, 0.5)), "us"),
        m("put_p50_us", us(pct(put, 0.5)), "us"),
        m("nav_p50_us", us(pct(nav, 0.5)), "us"),
        m("flush_p50_ms", report::pct(flush, 0.5) as f64 / 1e6, "ms"),
        m("ok_frac", 1.0 - failed_frac, "ratio"),
        m("write_amp", write_amp, "ratio"),
        m("space_amp", space_amp, "ratio"),
    ];
    let recorded = vec![
        m("light_p90_us", us(pct(&run.light.lat, 0.9)), "us"),
        m("get_p99_us", us(pct(get, 0.99)), "us"),
        m("put_p99_us", us(pct(put, 0.99)), "us"),
        m("nav_p99_us", us(pct(nav, 0.99)), "us"),
        m("failed_frac", failed_frac, "ratio"),
    ];
    (gated, recorded)
}

fn samples(run: &Run) -> Vec<report::Sample> {
    let s = |name, ns: &Vec<u64>| report::Sample {
        name,
        ns: ns.clone(),
    };
    vec![
        s("setup", &run.setup_ns),
        s("light", &run.light.lat),
        s("get", run.lat(|l| &l.get)),
        s("put", run.lat(|l| &l.write)),
        s("nav", run.lat(|l| &l.nav)),
        s("flush", run.lat(|l| &l.flush)),
        s("late", &run.light.late),
    ]
}

/// Replays the run's stream in-process, adds the wire spans, and derives
/// every per-layer metric. Also prints the self-time table, the coverage
/// check and the tracing overhead, and writes the span dump.
fn per_layer(
    args: &Args,
    run: &mut Run,
    tmp: &Path,
    out_dir: &Path,
    epoch: Instant,
) -> io::Result<Vec<Metric>> {
    use report::pct;
    let w = args.workload;
    let mut spans = Spans::new(epoch);
    let mut server_self = Vec::new();
    let (mut self_ns, mut request_ns) = (0u64, 0u64);
    for s in &run.main.spans {
        let [t0, t1, t2, t3] = s.t;
        let req = spans.push("server.request", t0, t3, trace::ROOT, s.op);
        spans.push("protocol.encode", t0, t1, req, s.op);
        spans.push("protocol.decode", t2, t3, req, s.op);
        server_self.push(t2.saturating_sub(t1));
        self_ns += t2.saturating_sub(t1);
        request_ns += t3 - t0;
    }
    let gen = Gen::new(args.seed);
    let r = replay::run(
        &gen,
        w.phase(),
        w.replay_ops(),
        w.window() as u64,
        w.has_tail(),
        tmp,
        &mut spans,
        &mut run.tally,
    )?;
    let table = spans.table();
    let total = |name: &str| table.get(name).map_or(0, |row| row.total_ns) as f64;
    let shard_ns = total("shard.multi_get") + total("shard.multi_apply");
    let pma_ns = total("pma.get_many") + total("pma.apply_batch");
    let c = r.counters;
    let marks = run.marks();
    let flushes = marks.len() as f64;
    let image_blocks: u64 = marks.iter().map(|m| m.data_len / BLOCK).sum();
    let st = run.store;

    // Report: self-time table, replay coverage, tracing overhead.
    let mut text = format!(
        "layer self times, workload {} seed {} (span: count, total ms, self ms)\n",
        w.name(),
        args.seed
    );
    let mut by_layer: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, row) in &table {
        text += &format!(
            "  {name:<22} {:>9} {:>12.3} {:>12.3}\n",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns() as f64 / 1e6
        );
        *by_layer.entry(trace::layer(name)).or_default() += row.self_ns();
    }
    text += "layer totals (self ms)\n";
    for (layer, ns) in &by_layer {
        text += &format!("  {layer:<22} {:>12.3}\n", *ns as f64 / 1e6);
    }
    for parent in ["replay.segment", "replay.flush", "replay.pma_segment"] {
        if let Some(row) = table.get(parent) {
            let cover = ratio(row.child_ns as f64, row.total_ns as f64);
            text += &format!(
                "check {parent}: children cover {:.2}% of the parent spans: {}\n",
                cover * 100.0,
                if cover >= 0.95 { "PASS" } else { "FAIL" }
            );
        }
    }
    let full = run.main.slices.len().saturating_sub(1);
    let rate = |parity: usize| {
        let v: Vec<u64> = run.main.slices[..full]
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &n)| n)
            .collect();
        ratio(
            v.iter().sum::<u64>() as f64,
            v.len() as f64 * wire::SLICE.as_secs_f64(),
        )
    };
    let (traced, untraced) = (rate(0), rate(1));
    text += &format!(
        "tracing overhead: traced slices {traced:.0} ops/s, untraced slices {untraced:.0} ops/s, overhead {:.2}%; traced run ops_s {:.0} (set it against the untraced run's ops_s)\n",
        (ratio(untraced, traced) - 1.0) * 100.0,
        ops_s(&run.main)
    );
    print!("{text}");
    let stem = out_dir.join(format!("{}-seed{}", w.name(), args.seed));
    std::fs::write(stem.with_extension("layers.txt"), &text)?;
    std::fs::write(stem.with_extension("spans.tsv"), spans.dump())?;

    let m = |name, value, unit| Metric { name, value, unit };
    let ops = run.main.ops as f64;
    Ok(vec![
        m("loadgen.late_p99_us", us(pct(&run.light.late, 0.99)), "us"),
        m("loadgen.late_max_us", us(pct(&run.light.late, 1.0)), "us"),
        m("protocol.encode_ns_per_op", r.encode_ns, "ns"),
        m("protocol.decode_ns_per_op", r.decode_ns, "ns"),
        m(
            "protocol.bytes_out_per_op",
            ratio(run.main.bytes_out as f64, ops),
            "B",
        ),
        m(
            "protocol.bytes_in_per_op",
            ratio(run.main.bytes_in as f64, ops),
            "B",
        ),
        m(
            "protocol.socket_flushes_per_op",
            ratio(run.main.socket_flushes as f64, ops),
            "count",
        ),
        m("server.self_p50_us", us(pct(&server_self, 0.5)), "us"),
        m("server.self_p99_us", us(pct(&server_self, 0.99)), "us"),
        m(
            "server.self_share",
            ratio(self_ns as f64, request_ns as f64),
            "ratio",
        ),
        m("server.overloaded", run.tally.overloaded as f64, "count"),
        m("server.degraded", run.tally.degraded as f64, "count"),
        m("server.unavailable", run.tally.unavailable as f64, "count"),
        m(
            "shard.multi_get_ns_per_key",
            ratio(total("shard.multi_get"), r.keys_got as f64),
            "ns",
        ),
        m(
            "shard.multi_apply_ns_per_op",
            ratio(total("shard.multi_apply"), r.ops_applied as f64),
            "ns",
        ),
        m(
            "shard.nav_ns_per_op",
            ratio(total("shard.nav"), r.navs as f64),
            "ns",
        ),
        m("shard.sorted_vec_ms", r.sorted_vec_ms, "ms"),
        m(
            "shard.keys_per_multi_get",
            ratio(r.keys_got as f64, r.multi_gets as f64),
            "count",
        ),
        m(
            "shard.ops_per_multi_apply",
            ratio(r.ops_applied as f64, r.multi_applies as f64),
            "count",
        ),
        m(
            "shard.self_ns_per_op",
            ratio(shard_ns - pma_ns, (r.keys_got + r.ops_applied) as f64),
            "ns",
        ),
        m(
            "pma.get_many_ns_per_key",
            ratio(total("pma.get_many"), r.keys_got as f64),
            "ns",
        ),
        m(
            "pma.apply_batch_ns_per_op",
            ratio(total("pma.apply_batch"), r.ops_applied as f64),
            "ns",
        ),
        m(
            "pma.element_moves_per_update",
            ratio(c.element_moves as f64, c.updates() as f64),
            "count",
        ),
        m(
            "pma.rebuild_slots_per_update",
            ratio(c.rebuild_slots as f64, c.updates() as f64),
            "count",
        ),
        m(
            "pma.rebuilds_per_update",
            ratio(c.rebuilds as f64, c.updates() as f64),
            "count",
        ),
        m("pma.resizes", c.resizes as f64, "count"),
        m(
            "pma.comparisons_per_op",
            ratio(c.comparisons as f64, r.data_ops as f64),
            "count",
        ),
        m(
            "pma.batch_gathers_per_batch",
            ratio(c.batch_gathers as f64, r.batches as f64),
            "count",
        ),
        m("dict.bulk_load_ms", r.bulk_load_ms, "ms"),
        m("dict.flush_ms", r.flush_ms, "ms"),
        m("dict.self_ms", r.dict_self_ms, "ms"),
        m("block-store.commit_ms", r.commit_ms, "ms"),
        m(
            "block-store.data_blocks_per_flush",
            ratio(st.data.blocks_written as f64, flushes),
            "count",
        ),
        m(
            "block-store.journal_blocks_per_flush",
            ratio(st.journal.blocks_written as f64, flushes),
            "count",
        ),
        m(
            "block-store.syncs_per_flush",
            ratio((st.data.syncs + st.journal.syncs) as f64, flushes),
            "count",
        ),
        m(
            "block-store.dirty_ratio",
            ratio(st.data.blocks_written as f64, image_blocks as f64),
            "ratio",
        ),
    ])
}

fn params(args: &Args) -> Vec<(&'static str, String)> {
    let w = args.workload;
    vec![
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("preload_keys", PRELOAD.to_string()),
        ("light", format!("open loop {LIGHT_RATE} ops/s x {LIGHT_OPS} ops, 95/5 GET/PUT")),
        (
            "main",
            match w {
                Workload::Read95 => format!("closed loop window {WIDE_WINDOW}, 95/5 GET/PUT uniform"),
                Workload::Ingest => format!("closed loop window {WIDE_WINDOW}, fresh-key PUTs"),
                Workload::ScanFlush => format!(
                    "closed loop window {TAIL_WINDOW}, 40/30/10/15/5 GET/SUCC/PRED/PUT/DEL, zipf {} writes, FLUSH after every {FLUSH_EVERY}",
                    gen::ZIPF_S
                ),
            } + &format!(", {} ops", w.main_ops(args.seconds)),
        ),
        (
            "tail",
            if w.has_tail() {
                format!(
                    "closed loop window {TAIL_WINDOW}: {} ops of the scan-flush mix with DEL as PUT, then {} isolated FLUSHes {} zipf PUTs apart",
                    gen::TAIL_NAV_OPS,
                    gen::TAIL_FLUSHES,
                    gen::TAIL_CYCLE
                )
            } else {
                "none".into()
            },
        ),
        ("setups", SETUPS.to_string()),
        ("server_config", format!("{:?}", served_config())),
        ("persist", format!("build_persistent, block {BLOCK} B, fsync on")),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("dictbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let out_dir = PathBuf::from(".bench_out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    let result = std::fs::create_dir_all(&tmp).and_then(|()| {
        let mut run = measure(&args, &tmp, epoch)?;
        let (metrics, recorded) = if args.trace {
            (
                per_layer(&args, &mut run, &tmp, &out_dir, epoch)?,
                Vec::new(),
            )
        } else {
            end_to_end(&run)
        };
        Ok((run, metrics, recorded))
    });
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok((run, metrics, recorded)) => {
            let failed = run.tally.failed();
            Report {
                correct: failed == 0 && run.durable && run.identical,
                attempted: run.tally.attempted,
                failed,
                metrics,
                recorded,
                samples: samples(&run),
                params: params(&args),
            }
            .print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dictbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The traced run's in-process replay: the same generated op stream,
//! cut into segments of the workload's window and split at each barrier
//! the way the server's epoch engine splits it, re-driven against
//! `ShardedDict` (the shard layer) and against bare per-shard engines
//! (the HI-PMA layer), with every FLUSH mirrored into a `PersistentDict`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use anti_persistence::dict::{Backend, Dict, DictBuilder, DynDict};
use dict_server::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Frame,
};
use dict_server::server::ServedDict;
use dict_server::{Request, Response};
use hi_common::batch::BatchOp;
use hi_common::counters::OpCounters;
use hi_common::traits::Dictionary;
use shard::derive_seed;

use crate::gen::{Gen, Phase, PRELOAD};
use crate::trace::{Spans, ROOT};
use crate::wire::Tally;
use crate::{median, served_config, SEED};

enum Call {
    /// One `multi_get` of the reads that missed the segment's overlay,
    /// with the answers the oracle expects.
    Get {
        keys: Vec<u64>,
        want: Vec<Option<u64>>,
    },
    Apply(Vec<BatchOp<u64, u64>>),
    Succ {
        key: u64,
        want: Option<(u64, u64)>,
    },
    Pred {
        key: u64,
        want: Option<(u64, u64)>,
    },
    Flush,
}

/// A planned `Get` or `Apply`, partitioned by shard for the HI-PMA pass
/// (per shard: the keys with the answers they are owed, or the ops).
enum Part {
    Get(Vec<(Vec<u64>, Vec<Option<u64>>)>),
    Apply(Vec<Vec<BatchOp<u64, u64>>>),
}

struct Seg {
    op: u64,
    calls: Vec<Call>,
}

/// Builds the call plan of a stream, mirroring the server's `Segment`:
/// reads of keys written earlier in the segment answer from the overlay,
/// the rest go to one `multi_get` against the pre-batch state, writes
/// batch into one `multi_apply`, and SUCC/PRED/FLUSH commit the pending
/// segment before they run.
struct Planner {
    oracle: BTreeMap<u64, u64>,
    generation: u64,
    segs: Vec<Seg>,
    overlay: BTreeSet<u64>,
    keys: Vec<u64>,
    want: Vec<Option<u64>>,
    batch: Vec<BatchOp<u64, u64>>,
    /// Every request and the answer it is owed, for the protocol timing.
    reqs: Vec<Request>,
    resps: Vec<Response>,
    next_op: u64,
}

impl Planner {
    fn commit(&mut self) {
        let seg = self.segs.last_mut().expect("a segment is open");
        if !self.keys.is_empty() {
            seg.calls.push(Call::Get {
                keys: std::mem::take(&mut self.keys),
                want: std::mem::take(&mut self.want),
            });
        }
        if !self.batch.is_empty() {
            seg.calls.push(Call::Apply(std::mem::take(&mut self.batch)));
        }
        self.overlay.clear();
    }

    fn push(&mut self, gen: &Gen, phase: Phase, count: u64, window: u64) {
        for i in 0..count {
            if i % window == 0 {
                if !self.segs.is_empty() {
                    self.commit();
                }
                self.segs.push(Seg {
                    op: self.next_op,
                    calls: Vec::new(),
                });
            }
            let req = gen.op(phase, i);
            let resp = match req {
                Request::Get { key } => {
                    let v = self.oracle.get(&key).copied();
                    if !self.overlay.contains(&key) {
                        self.keys.push(key);
                        self.want.push(v);
                    }
                    v.map_or(Response::NotFound, Response::Value)
                }
                Request::Put { key, value } => {
                    self.overlay.insert(key);
                    self.batch.push(BatchOp::Put(key, value));
                    self.oracle.insert(key, value);
                    Response::Done
                }
                Request::Del { key } => {
                    self.overlay.insert(key);
                    self.batch.push(BatchOp::Remove(key));
                    self.oracle.remove(&key);
                    Response::Done
                }
                Request::Succ { key } | Request::Pred { key } => {
                    self.commit();
                    let succ = matches!(req, Request::Succ { .. });
                    let want = if succ {
                        self.oracle.range(key..).next()
                    } else {
                        self.oracle.range(..=key).next_back()
                    }
                    .map(|(&k, &v)| (k, v));
                    let seg = self.segs.last_mut().expect("a segment is open");
                    seg.calls.push(if succ {
                        Call::Succ { key, want }
                    } else {
                        Call::Pred { key, want }
                    });
                    want.map_or(Response::NotFound, |(k, v)| Response::Entry(k, v))
                }
                _ => {
                    self.commit();
                    self.segs
                        .last_mut()
                        .expect("a segment is open")
                        .calls
                        .push(Call::Flush);
                    self.generation += 1;
                    Response::Generation(self.generation)
                }
            };
            self.reqs.push(req);
            self.resps.push(resp);
            self.next_op += 1;
        }
        self.commit();
    }
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub keys_got: u64,
    pub multi_gets: u64,
    pub ops_applied: u64,
    pub multi_applies: u64,
    pub navs: u64,
    pub data_ops: u64,
    /// Non-empty per-shard `apply_batch` calls.
    pub batches: u64,
    pub counters: OpCounters,
    pub sorted_vec_ms: f64,
    pub bulk_load_ms: f64,
    pub flush_ms: f64,
    pub dict_self_ms: f64,
    pub commit_ms: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Replays the preload, the first `main_ops` ops of `main` and, when
/// `tail` is set, the tail phase.
#[allow(clippy::too_many_arguments)]
pub fn run(
    gen: &Gen,
    main: Phase,
    main_ops: u64,
    window: u64,
    tail: bool,
    tmp: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> io::Result<ReplayOut> {
    let preload: Vec<(u64, u64)> = (0..PRELOAD)
        .map(|i| match gen.op(Phase::Preload, i) {
            Request::Put { key, value } => (key, value),
            other => unreachable!("preload op {other:?}"),
        })
        .collect();
    let mut planner = Planner {
        oracle: preload.iter().copied().collect(),
        generation: 0,
        segs: Vec::new(),
        overlay: BTreeSet::new(),
        keys: Vec::new(),
        want: Vec::new(),
        batch: Vec::new(),
        reqs: Vec::new(),
        resps: Vec::new(),
        next_op: 0,
    };
    planner.push(gen, main, main_ops, window);
    if tail {
        planner.push(
            gen,
            Phase::Tail,
            crate::gen::tail_len(),
            crate::TAIL_WINDOW as u64,
        );
    }
    let mut out = ReplayOut {
        data_ops: planner
            .reqs
            .iter()
            .filter(|r| !matches!(r, Request::Flush))
            .count() as u64,
        ..ReplayOut::default()
    };
    let invalid = |e: anti_persistence::dict::DictConfigError| {
        io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
    };

    // Shard layer: the service object the server drives.
    let mut sd: ServedDict = DictBuilder::from_config(served_config())
        .try_build_sharded()
        .map_err(invalid)?;
    sd.bulk_load_parallel(preload.iter().copied(), SEED);
    let before = sd.op_counters();
    let mirror_path = tmp.join("mirror.bin");
    let mut mirror = Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent(&mirror_path)?;
    // HI-PMA layer: bare per-shard engines with the shards' seeds, fed the
    // same segments partitioned by the service's router. Each segment runs
    // through both layers back to back, so a noisy moment on the host hits
    // both and `shard.self_ns_per_op` stays a fair difference.
    let router = *sd.router();
    let shards = sd.shard_count();
    let mut engines: Vec<DynDict<u64, u64>> = (0..shards)
        .map(|i| {
            let mut cfg = served_config();
            cfg.seed = derive_seed(SEED, i);
            DictBuilder::from_config(cfg).try_build().map_err(invalid)
        })
        .collect::<io::Result<_>>()?;
    let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
    for &(k, v) in &preload {
        parts[router.route(&k)].push((k, v));
    }
    for (i, (engine, part)) in engines.iter_mut().zip(parts).enumerate() {
        engine.bulk_load(part, derive_seed(SEED, i));
    }
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    for seg in &planner.segs {
        let root = spans.open("replay.segment", ROOT, seg.op);
        for call in &seg.calls {
            match call {
                Call::Get { keys, want } => {
                    let got = spans.time("shard.multi_get", root, seg.op, || sd.multi_get(keys));
                    out.keys_got += keys.len() as u64;
                    out.multi_gets += 1;
                    check_gets(tally, "replay-shard", seg.op, keys, want, &got);
                }
                Call::Apply(ops) => {
                    let ops = ops.clone();
                    out.ops_applied += ops.len() as u64;
                    out.multi_applies += 1;
                    spans.time("shard.multi_apply", root, seg.op, || sd.multi_apply(ops));
                }
                Call::Succ { key, want } | Call::Pred { key, want } => {
                    let succ = matches!(call, Call::Succ { .. });
                    let got = spans.time("shard.nav", root, seg.op, || {
                        if succ {
                            sd.try_successor(key)
                        } else {
                            sd.try_predecessor(key)
                        }
                    });
                    out.navs += 1;
                    if got != Ok(*want) {
                        let req = if succ {
                            Request::Succ { key: *key }
                        } else {
                            Request::Pred { key: *key }
                        };
                        tally.mismatch(
                            "replay-shard",
                            seg.op,
                            &req,
                            &format!("{want:?}"),
                            &format!("{got:?}"),
                        );
                    }
                }
                Call::Flush => {
                    let fl = spans.open("replay.flush", root, seg.op);
                    let contents =
                        spans.time("shard.sorted_vec", fl, seg.op, || sd.to_sorted_vec());
                    spans.time("dict.bulk_load", fl, seg.op, || {
                        mirror.bulk_load(contents, SEED)
                    });
                    // `PersistentDict::flush`, step by step through public
                    // calls, so that its block-store commit is a child span.
                    let df = spans.open("dict.flush", fl, seg.op);
                    scratch.clear();
                    scratch.extend(mirror.dict().iter().map(|(k, v)| (*k, *v)));
                    mirror.dict_mut().bulk_load(scratch.iter().copied(), SEED);
                    let words = mirror
                        .dict()
                        .occupancy_words()
                        .expect("HI-PMA exposes its occupancy bitmap")
                        .to_vec();
                    let slots = mirror.dict().slot_count().expect("HI-PMA has slots") as u64;
                    let len = mirror.dict().len() as u64;
                    spans
                        .time("block-store.commit", df, seg.op, || {
                            mirror.store_mut().commit(
                                &words,
                                slots,
                                len,
                                scratch.iter().copied(),
                                SEED,
                            )
                        })
                        .map_err(io::Error::other)?;
                    spans.close(df);
                    spans.close(fl);
                }
            }
        }
        spans.close(root);
        // Partition outside the span: the router is the shard layer's work.
        let parts: Vec<Part> = seg
            .calls
            .iter()
            .filter_map(|call| match call {
                Call::Get { keys, want } => {
                    let mut ps = vec![(Vec::new(), Vec::new()); shards];
                    for (k, w) in keys.iter().zip(want) {
                        let p = &mut ps[router.route(k)];
                        p.0.push(*k);
                        p.1.push(*w);
                    }
                    Some(Part::Get(ps))
                }
                Call::Apply(ops) => {
                    let mut ps = vec![Vec::new(); shards];
                    for op in ops {
                        ps[router.route(op.key())].push(op.clone());
                    }
                    Some(Part::Apply(ps))
                }
                _ => None,
            })
            .collect();
        let mut answers = Vec::new();
        let root = spans.open("replay.pma_segment", ROOT, seg.op);
        for part in parts {
            match part {
                Part::Get(ps) => {
                    for (s, (keys, want)) in ps.into_iter().enumerate() {
                        if !keys.is_empty() {
                            let got = spans
                                .time("pma.get_many", root, seg.op, || engines[s].get_many(&keys));
                            answers.push((keys, want, got));
                        }
                    }
                }
                Part::Apply(ps) => {
                    for (s, ops) in ps.into_iter().enumerate() {
                        if !ops.is_empty() {
                            out.batches += 1;
                            spans.time("pma.apply_batch", root, seg.op, || {
                                engines[s].apply_batch(ops)
                            });
                        }
                    }
                }
            }
        }
        spans.close(root);
        for (keys, want, got) in answers {
            check_gets(tally, "replay-pma", seg.op, &keys, &want, &got);
        }
    }
    out.counters = sd.op_counters().since(&before);
    drop(mirror);

    out.sorted_vec_ms = ms(median(&spans.durations("shard.sorted_vec")));
    out.bulk_load_ms = ms(median(&spans.durations("dict.bulk_load")));
    let flushes = spans.durations("dict.flush");
    let commits = spans.durations("block-store.commit");
    out.flush_ms = ms(median(&flushes));
    out.commit_ms = ms(median(&commits));
    let selfs: Vec<u64> = flushes
        .iter()
        .zip(&commits)
        .map(|(f, c)| f.saturating_sub(*c))
        .collect();
    out.dict_self_ms = ms(median(&selfs));
    (out.encode_ns, out.decode_ns) = protocol_ns(&planner.reqs, &planner.resps);
    Ok(out)
}

fn check_gets(
    tally: &mut Tally,
    what: &str,
    op: u64,
    keys: &[u64],
    want: &[Option<u64>],
    got: &[Option<u64>],
) {
    for ((k, w), g) in keys.iter().zip(want).zip(got) {
        if w != g {
            tally.mismatch(
                what,
                op,
                &Request::Get { key: *k },
                &format!("{w:?}"),
                &format!("{g:?}"),
            );
        }
    }
}

/// Median over five passes of the ns per op that `encode_request` +
/// `write_frame` and `read_frame` + `decode_response` take on the stream.
fn protocol_ns(reqs: &[Request], resps: &[Response]) -> (f64, f64) {
    let n = reqs.len().max(1) as f64;
    let mut buf = Vec::with_capacity(reqs.len() * 34);
    let mut frames = Vec::with_capacity(resps.len() * 34);
    for (i, r) in resps.iter().enumerate() {
        write_frame(&mut frames, &encode_response(i as u64 + 1, r)).expect("writing to a Vec");
    }
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        buf.clear();
        let t = Instant::now();
        for (i, r) in reqs.iter().enumerate() {
            write_frame(&mut buf, &encode_request(i as u64 + 1, r)).expect("writing to a Vec");
        }
        black_box(&buf);
        enc.push(t.elapsed().as_nanos() as u64);
        let mut rd: &[u8] = &frames;
        let t = Instant::now();
        while let Ok(Frame::Body(body)) = read_frame(&mut rd) {
            black_box(decode_response(&body).is_ok());
        }
        dec.push(t.elapsed().as_nanos() as u64);
    }
    (median(&enc) as f64 / n, median(&dec) as f64 / n)
}

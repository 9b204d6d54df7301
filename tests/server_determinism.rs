//! Determinism and crash batteries for the `dict-server` front-end.
//!
//! The network pipeline adds scheduling, epoch timing, client interleaving
//! and backpressure between the wire and the dictionary — none of which may
//! reach the at-rest bytes. Two batteries pin that:
//!
//! * **flush determinism** — after a concurrent multi-client run, the
//!   flushed on-disk image is *byte-identical* to a fresh single-threaded
//!   dictionary holding the same final contents, flushed at the same seed
//!   and block size. Epoch boundaries only partition the arrival-ordered
//!   stream into batches, the exact degree of freedom the batch engine's
//!   layout is invariant under, so the image is `f(contents, seed)` no
//!   matter how many clients raced.
//! * **kill-the-server-mid-flush** — a `WriteFuse` armed on the persistent
//!   store trips partway through a client-initiated `FLUSH`. The client
//!   sees a typed `UNAVAILABLE` (never a fake generation), and reopening
//!   the file recovers *whole-old or whole-new* contents — the journaled
//!   commit's atomicity holds when the flush is driven over the network.
//! * **flush ordering** — a `FLUSH` persists every write sent before it:
//!   pipelined on its own connection without waiting for acks, or acked on
//!   another connection first. The flushed file, reopened, holds them all.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use anti_persistence::dict::{Backend, Dict, DictConfig};
use anti_persistence::prelude::*;
use block_store::temp_path;
use dict_server::{Client, Request, Response, Server, ServerOptions};

const SEED: u64 = 0x5E4E4;
const CLIENTS: u64 = 4;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn config() -> DictConfig {
    DictConfig {
        backend: Backend::HiPma,
        seed: SEED,
        shards: 4,
        ..DictConfig::default()
    }
}

fn open(path: &std::path::Path) -> PersistentDict {
    // 512-byte blocks keep flush write counts small (fast fuse sweeps);
    // no_sync because the process survives the injected crash.
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(SEED)
        .build_persistent_with(path, StoreOptions::new(512).no_sync())
        .unwrap()
}

fn drop_paths(data: &std::path::Path, journal: &std::path::Path) {
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

/// Client `c`'s deterministic op script over its private residue class
/// (keys ≡ c mod CLIENTS, so concurrent scripts commute and the final
/// contents are known in advance).
fn script(c: u64) -> Vec<Request> {
    let mut state = (c + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut ops = Vec::new();
    for i in 0..600u64 {
        let k = c + CLIENTS * (lcg(&mut state) % 500);
        match lcg(&mut state) % 10 {
            0..=5 => ops.push(Request::Put {
                key: k,
                value: i * CLIENTS + c,
            }),
            6..=7 => ops.push(Request::Del { key: k }),
            // Reads exercise the overlay/batch split concurrently with the
            // writes; their answers don't affect the final image.
            _ => ops.push(Request::Get { key: k }),
        }
    }
    ops
}

/// The final contents all four scripts leave behind, computed sequentially.
fn oracle() -> BTreeMap<u64, u64> {
    let mut map = BTreeMap::new();
    for c in 0..CLIENTS {
        for op in script(c) {
            match op {
                Request::Put { key, value } => {
                    map.insert(key, value);
                }
                Request::Del { key } => {
                    map.remove(&key);
                }
                _ => {}
            }
        }
    }
    map
}

fn run_script(addr: SocketAddr, c: u64) {
    let mut client = Client::connect(addr).expect("connect");
    let ops = script(c);
    let mut pending = 0usize;
    for op in &ops {
        client.send(op).expect("send");
        pending += 1;
        if pending == 64 {
            client.flush().expect("flush");
            for _ in 0..pending {
                match client.recv().expect("recv") {
                    Response::Done | Response::Value(_) | Response::NotFound => {}
                    other => panic!("client {c}: unexpected {other:?}"),
                }
            }
            pending = 0;
        }
    }
    client.flush().expect("flush");
    for _ in 0..pending {
        client.recv().expect("recv");
    }
}

#[test]
fn concurrent_multi_client_run_flushes_the_single_threaded_image() {
    // Concurrent run: four pipelined clients race their scripts, then one
    // of them asks the server to flush.
    let served_path = temp_path("server-det-served");
    let served = open(&served_path);
    let (served_data, served_journal) = (
        served.store().path().to_path_buf(),
        served.store().journal_path().to_path_buf(),
    );
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: config(),
            persist: Some(served),
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| std::thread::spawn(move || run_script(addr, c)))
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let mut c = Client::connect(addr).expect("connect");
    let generation = c.flush_store().expect("server flush");
    assert!(generation > 0);
    server.shutdown();
    drop(server);

    // Single-threaded equivalent: a fresh dictionary fed the same final
    // contents (in plain key order — arrival history must not matter),
    // flushed once at the same seed and block size.
    let expected = oracle();
    assert!(expected.len() > 100, "scripts left too little behind");
    let reference_path = temp_path("server-det-reference");
    let mut reference = open(&reference_path);
    for (&k, &v) in &expected {
        reference.insert(k, v);
    }
    reference.flush().expect("reference flush");
    let (ref_data, ref_journal) = (
        reference.store().path().to_path_buf(),
        reference.store().journal_path().to_path_buf(),
    );
    drop(reference);

    let served_bytes = std::fs::read(&served_data).expect("read served image");
    let reference_bytes = std::fs::read(&ref_data).expect("read reference image");
    assert_eq!(
        served_bytes, reference_bytes,
        "the concurrent run's flushed image differs from the \
         single-threaded rebuild: the pipeline leaked history into layout"
    );

    // And the recovered contents are exactly the oracle.
    let reopened = open(&served_path);
    let recovered: Vec<(u64, u64)> = reopened.iter().map(|(k, v)| (*k, *v)).collect();
    let want: Vec<(u64, u64)> = expected.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(recovered, want);
    drop(reopened);

    drop_paths(&served_data, &served_journal);
    drop_paths(&ref_data, &ref_journal);
}

/// Spawns a server flushing into a fresh store at `path`, with an epoch
/// cut as finely as the knobs allow.
fn spawn_flushing(path: &std::path::Path) -> Server {
    let mut cfg = config();
    cfg.server.epoch_micros = 1;
    cfg.server.epoch_ops = 1;
    Server::spawn(
        "127.0.0.1:0",
        ServerOptions {
            config: cfg,
            persist: Some(open(path)),
        },
    )
    .expect("bind loopback")
}

/// Stops `server`, takes its store back, and reopens the flushed file:
/// what a `FLUSH` committed, read from disk.
fn flushed_contents(server: Server, path: &std::path::Path) -> BTreeMap<u64, u64> {
    let persist = server
        .into_persist()
        .expect("server was spawned with a store");
    let (data, journal) = (
        persist.store().path().to_path_buf(),
        persist.store().journal_path().to_path_buf(),
    );
    drop(persist);
    let reopened = open(path);
    let contents = reopened.iter().map(|(k, v)| (*k, *v)).collect();
    drop(reopened);
    drop_paths(&data, &journal);
    contents
}

/// `FLUSH` is a barrier in arrival order: pipelined behind `N` `PUT`s on
/// the same connection, without waiting for a single ack, it must persist
/// every one of them — whatever epoch boundaries fell between them.
#[test]
fn pipelined_flush_includes_every_earlier_put_from_its_connection() {
    const ROUNDS: u64 = 16;
    const N: u64 = 256;
    for round in 0..ROUNDS {
        let path = temp_path(&format!("server-pipelined-flush-{round}"));
        let server = spawn_flushing(&path);
        let mut c = Client::connect(server.addr()).expect("connect");
        for k in 0..N {
            c.send(&Request::Put {
                key: k * 13 + round,
                value: k,
            })
            .expect("send");
        }
        c.send(&Request::Flush).expect("send");
        c.flush().expect("flush");
        for k in 0..N {
            assert_eq!(c.recv().expect("recv"), Response::Done, "PUT #{k}");
        }
        match c.recv().expect("recv") {
            Response::Generation(g) => assert!(g > 0),
            other => panic!("round {round}: FLUSH answered {other:?}"),
        }
        drop(c);
        let flushed = flushed_contents(server, &path);
        let missing: Vec<u64> = (0..N)
            .filter(|k| flushed.get(&(k * 13 + round)) != Some(k))
            .collect();
        assert!(
            missing.is_empty(),
            "round {round}: the FLUSH left out {} of the {N} PUTs sent \
             before it (first #{:?})",
            missing.len(),
            missing.first()
        );
        assert_eq!(flushed.len() as u64, N, "round {round}");
    }
}

/// Across connections: once connection A's `PUT`s are acked, a `FLUSH`
/// that connection B sends afterwards must persist all of them.
#[test]
fn flush_on_another_connection_includes_puts_acked_before_it() {
    const N: u64 = 512;
    let path = temp_path("server-cross-conn-flush");
    let server = spawn_flushing(&path);
    let mut a = Client::connect(server.addr()).expect("connect A");
    let mut b = Client::connect(server.addr()).expect("connect B");
    for k in 0..N {
        a.send(&Request::Put {
            key: k * 7,
            value: k + 1,
        })
        .expect("send");
    }
    a.flush().expect("flush");
    for k in 0..N {
        assert_eq!(a.recv().expect("recv"), Response::Done, "PUT #{k}");
    }
    let generation = b.flush_store().expect("FLUSH on connection B");
    assert!(generation > 0);
    drop((a, b));
    let flushed = flushed_contents(server, &path);
    let want: BTreeMap<u64, u64> = (0..N).map(|k| (k * 7, k + 1)).collect();
    assert_eq!(flushed, want, "B's FLUSH missed writes A saw acked");
}

#[test]
fn kill_mid_flush_over_the_network_recovers_whole_old_or_whole_new() {
    let mut rollbacks = 0usize;
    let mut replays = 0usize;

    // Sweep fuse budgets; each trial is a fresh store, server, and client.
    for fuse in 1..=24u64 {
        let path = temp_path(&format!("server-crash-{fuse}"));
        let mut dict = open(&path);

        // Base image, flushed cleanly before the server starts.
        let mut base = BTreeMap::new();
        for k in 0..200u64 {
            dict.insert(k * 3, k);
            base.insert(k * 3, k);
        }
        dict.flush().expect("base flush");

        // Arm the fuse, then hand the dictionary to the server.
        dict.store_mut().set_fuse(WriteFuse::after(fuse));
        let (data, journal) = (
            dict.store().path().to_path_buf(),
            dict.store().journal_path().to_path_buf(),
        );
        let mut server = Server::spawn(
            "127.0.0.1:0",
            ServerOptions {
                config: config(),
                persist: Some(dict),
            },
        )
        .expect("bind loopback");

        // The server starts empty (persist is a flush target, not a boot
        // image), so the delta the client writes *is* the new contents.
        let mut delta = BTreeMap::new();
        let mut c = Client::connect(server.addr()).expect("connect");
        for k in 0..150u64 {
            c.put(k * 5, k + 1_000).expect("put");
            delta.insert(k * 5, k + 1_000);
        }

        let crashed = match c.request(&Request::Flush).expect("flush request") {
            Response::Generation(_) => false, // fuse budget outlasted the flush
            Response::Unavailable(msg) => {
                assert!(
                    msg.contains("poison") || msg.contains("crash") || !msg.is_empty(),
                    "{msg}"
                );
                true
            }
            other => panic!("fuse {fuse}: flush answered {other:?}"),
        };
        if crashed {
            // A tripped fuse poisons the store: retrying must refuse typed,
            // not touch the file again.
            assert!(matches!(
                c.request(&Request::Flush).expect("retry"),
                Response::Unavailable(_)
            ));
        }
        server.shutdown();
        drop(server); // the simulated process death drops the store handle

        // Whole-old or whole-new, never a torn mixture.
        let reopened = open(&path);
        assert_eq!(reopened.seed(), SEED, "fuse {fuse}");
        let recovered: BTreeMap<u64, u64> = reopened.iter().map(|(k, v)| (*k, *v)).collect();
        if crashed {
            if recovered == base {
                rollbacks += 1;
            } else if recovered == delta {
                replays += 1;
            } else {
                panic!(
                    "fuse {fuse}: recovered a torn image ({} records; \
                     expected whole-old {} or whole-new {})",
                    recovered.len(),
                    base.len(),
                    delta.len()
                );
            }
        } else {
            assert_eq!(recovered, delta, "fuse {fuse}: completed flush lost data");
        }
        drop(reopened);
        drop_paths(&data, &journal);
    }

    assert!(rollbacks > 0, "no fuse budget exercised rollback");
    assert!(
        rollbacks + replays > 0,
        "no fuse budget tripped mid-flush at all"
    );
}

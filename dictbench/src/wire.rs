//! The load generator: one HELLO-bound connection driven through
//! `dict_server::protocol`'s public framing functions, with every answer
//! checked against a `BTreeMap` oracle replayed in send order (the server
//! linearises one connection in arrival order).

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dict_server::protocol::{decode_response, encode_request, read_frame, write_frame, Frame};
use dict_server::{Request, Response};
use io_sim::Tracer;

use crate::gen::{Gen, Phase};

/// Wire spans are recorded for one request in this many (traced slices).
pub const SPAN_SAMPLE: u64 = 16;
/// The traced run alternates traced and untraced slices of this length,
/// so the tracing overhead is measured inside one run.
pub const SLICE: Duration = Duration::from_secs(1);
/// Mismatches printed in full; the rest are only counted.
const PRINT_MISMATCHES: u64 = 20;

/// Failure counts of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub overloaded: u64,
    pub degraded: u64,
    pub unavailable: u64,
    pub bad_request: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.degraded + self.unavailable + self.bad_request + self.mismatches
    }

    pub fn mismatch(&mut self, what: &str, op: u64, req: &Request, want: &str, got: &str) {
        self.mismatches += 1;
        if self.mismatches <= PRINT_MISMATCHES {
            println!("mismatch {what} op={op} request={req:?} expected={want} actual={got}");
        }
    }
}

/// The reference: the dictionary contents every acked op implies, in send
/// order.
#[derive(Debug, Default)]
pub struct Oracle {
    pub map: BTreeMap<u64, u64>,
    generation: u64,
    /// Contents changed since the last acked FLUSH.
    dirty: bool,
    /// Acked PUT/DEL count.
    pub acked_writes: u64,
}

/// The latency class an op's sample goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Get,
    Write,
    Nav,
    Flush,
    Other,
}

pub fn class(req: &Request) -> Class {
    match req {
        Request::Get { .. } => Class::Get,
        Request::Put { .. } | Request::Del { .. } => Class::Write,
        Request::Succ { .. } | Request::Pred { .. } => Class::Nav,
        Request::Flush => Class::Flush,
        _ => Class::Other,
    }
}

impl Oracle {
    /// The answer the server owes `req` now (FLUSH: the next generation
    /// when contents changed since the last one).
    pub fn expect(&self, req: &Request) -> Response {
        match *req {
            Request::Get { key } => self
                .map
                .get(&key)
                .map_or(Response::NotFound, |&v| Response::Value(v)),
            Request::Succ { key } => self
                .map
                .range(key..)
                .next()
                .map_or(Response::NotFound, |(&k, &v)| Response::Entry(k, v)),
            Request::Pred { key } => self
                .map
                .range(..=key)
                .next_back()
                .map_or(Response::NotFound, |(&k, &v)| Response::Entry(k, v)),
            Request::Flush if self.dirty || self.generation == 0 => {
                Response::Generation(self.generation + 1)
            }
            Request::Flush => Response::Generation(self.generation),
            _ => Response::Done,
        }
    }

    /// Checks `got` against the expected answer and applies the op when
    /// the server acked it. Refusals are tallied and not applied.
    pub fn answer(&mut self, tally: &mut Tally, op: u64, req: &Request, got: &Response) -> bool {
        match got {
            Response::Overloaded => tally.overloaded += 1,
            Response::Degraded { .. } => tally.degraded += 1,
            Response::Unavailable(_) => tally.unavailable += 1,
            Response::BadRequest(_) => tally.bad_request += 1,
            _ => {
                let want = self.expect(req);
                if *got != want {
                    tally.mismatch("wire", op, req, &format!("{want:?}"), &format!("{got:?}"));
                    return false;
                }
                match *req {
                    Request::Put { key, value } => {
                        self.dirty |= self.map.insert(key, value) != Some(value);
                        self.acked_writes += 1;
                    }
                    Request::Del { key } => {
                        self.dirty |= self.map.remove(&key).is_some();
                        self.acked_writes += 1;
                    }
                    Request::Flush => {
                        if let Response::Generation(g) = want {
                            self.generation = g;
                        }
                        self.dirty = false;
                    }
                    _ => {}
                }
                return true;
            }
        }
        false
    }
}

/// One HELLO-bound connection with byte and flush counters.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    next_token: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub socket_flushes: u64,
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr, client: u64) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut conn = Conn {
            r: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            w: BufWriter::with_capacity(64 * 1024, stream),
            next_token: 1,
            bytes_out: 0,
            bytes_in: 0,
            socket_flushes: 0,
        };
        let hello = Request::Hello { client };
        let token = conn.send(&hello)?;
        conn.flush()?;
        match conn.recv()? {
            (t, Response::Done) if t == token => Ok(conn),
            other => Err(bad_data(format!("HELLO answered {other:?}"))),
        }
    }

    fn send(&mut self, req: &Request) -> io::Result<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let framed = encode_request(token, req);
        self.write(&framed)?;
        Ok(token)
    }

    fn write(&mut self, framed: &[u8]) -> io::Result<()> {
        write_frame(&mut self.w, framed)?;
        self.bytes_out += 4 + framed.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.socket_flushes += 1;
        self.w.flush()
    }

    fn read_raw(&mut self) -> io::Result<Vec<u8>> {
        match read_frame(&mut self.r)? {
            Frame::Body(body) => {
                self.bytes_in += 4 + body.len() as u64;
                Ok(body)
            }
            other => Err(bad_data(format!("server sent {other:?}"))),
        }
    }

    fn recv(&mut self) -> io::Result<(u64, Response)> {
        let raw = self.read_raw()?;
        decode_response(&raw).map_err(|e| bad_data(e.0))
    }

    /// `true` when a whole frame is already buffered, so the next read
    /// cannot block.
    fn frame_buffered(&self) -> bool {
        let buf = self.r.buffer();
        buf.len() >= 4
            && buf.len() - 4 >= u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
    }
}

/// Latency samples in nanoseconds, per class.
#[derive(Debug, Default)]
pub struct Lat {
    pub get: Vec<u64>,
    pub write: Vec<u64>,
    pub nav: Vec<u64>,
    pub flush: Vec<u64>,
}

impl Lat {
    fn push(&mut self, c: Class, ns: u64) {
        match c {
            Class::Get => self.get.push(ns),
            Class::Write => self.write.push(ns),
            Class::Nav => self.nav.push(ns),
            Class::Flush => self.flush.push(ns),
            Class::Other => {}
        }
    }
}

/// The served store's state at one FLUSH ack.
#[derive(Debug, Clone, Copy)]
pub struct FlushMark {
    /// Blocks written to the data and journal files so far.
    pub blocks_written: u64,
    pub data_len: u64,
    pub acked_writes: u64,
    pub live: u64,
}

/// Reads the served store's write ledger and file size at each FLUSH ack.
pub struct FlushProbe {
    pub tracer: Tracer,
    pub data_path: PathBuf,
}

/// One sampled request: issue, encode done, frame read, decode done (ns
/// since the run's epoch).
#[derive(Debug, Clone, Copy)]
pub struct WireSpan {
    pub op: u64,
    pub t: [u64; 4],
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub lat: Lat,
    pub ops: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub socket_flushes: u64,
    pub marks: Vec<FlushMark>,
    /// Completions per `SLICE` since the phase began.
    pub slices: Vec<u64>,
    /// Ops per lap, and the time since the phase began at which each lap
    /// of its ops had completed.
    pub lap: u64,
    pub laps: Vec<Duration>,
    pub spans: Vec<WireSpan>,
}

struct Inflight {
    op: u64,
    token: u64,
    req: Request,
    issued: Instant,
    encoded: Option<Instant>,
}

/// Everything a closed loop needs besides the connection and oracle.
pub struct ClosedLoop<'a> {
    pub gen: &'a Gen,
    pub phase: Phase,
    pub window: usize,
    /// Ops to issue.
    pub ops: u64,
    /// Ops per lap of `PhaseOut::laps`; `None` records no laps.
    pub lap: Option<u64>,
    /// Send each FLUSH into an empty pipeline and nothing behind it until
    /// it is acked, so no other op waits behind it.
    pub isolate_flush: bool,
    /// Record sampled wire spans in even slices (the traced run).
    pub trace: bool,
    pub epoch: Instant,
    pub probe: &'a FlushProbe,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

impl ClosedLoop<'_> {
    /// Keeps `window` requests outstanding on `conn` until `ops` are
    /// issued, then drains. Requests are written in bursts and the socket
    /// is flushed once per burst; every response is checked in order.
    pub fn run(
        &self,
        conn: &mut Conn,
        oracle: &mut Oracle,
        tally: &mut Tally,
    ) -> io::Result<PhaseOut> {
        let mut out = PhaseOut {
            lap: self.lap.unwrap_or(0),
            ..PhaseOut::default()
        };
        let (b_out, b_in, s_fl) = (conn.bytes_out, conn.bytes_in, conn.socket_flushes);
        let start = Instant::now();
        let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(self.window);
        let mut next = 0u64;
        loop {
            while next < self.ops && inflight.len() < self.window {
                let req = self.gen.op(self.phase, next);
                if self.isolate_flush
                    && (req == Request::Flush && !inflight.is_empty()
                        || inflight.back().is_some_and(|f| f.req == Request::Flush))
                {
                    break;
                }
                let issued = Instant::now();
                let sampled = self.trace
                    && next.is_multiple_of(SPAN_SAMPLE)
                    && ((issued - start).as_secs() / SLICE.as_secs()).is_multiple_of(2);
                let token = conn.next_token;
                conn.next_token += 1;
                let framed = encode_request(token, &req);
                let encoded = sampled.then(Instant::now);
                conn.write(&framed)?;
                inflight.push_back(Inflight {
                    op: next,
                    token,
                    req,
                    issued,
                    encoded,
                });
                next += 1;
                tally.attempted += 1;
            }
            if inflight.is_empty() {
                break;
            }
            conn.flush()?;
            loop {
                let raw = conn.read_raw()?;
                let read = Instant::now();
                let decoded = decode_response(&raw);
                let done = Instant::now();
                let f = inflight
                    .pop_front()
                    .ok_or_else(|| bad_data("response with nothing in flight"))?;
                let (token, resp) = decoded.map_err(|e| bad_data(e.0))?;
                if token != f.token {
                    return Err(bad_data(format!(
                        "op {} expected token {} got {token}",
                        f.op, f.token
                    )));
                }
                if oracle.answer(tally, f.op, &f.req, &resp) {
                    let c = class(&f.req);
                    out.lat.push(c, ns(f.issued, done));
                    if c == Class::Flush {
                        out.marks.push(FlushMark {
                            blocks_written: self.probe.tracer.stats().writes,
                            data_len: std::fs::metadata(&self.probe.data_path)?.len(),
                            acked_writes: oracle.acked_writes,
                            live: oracle.map.len() as u64,
                        });
                    }
                }
                if let Some(encoded) = f.encoded {
                    out.spans.push(WireSpan {
                        op: f.op,
                        t: [
                            ns(self.epoch, f.issued),
                            ns(self.epoch, encoded),
                            ns(self.epoch, read),
                            ns(self.epoch, done),
                        ],
                    });
                }
                let slice = ((done - start).as_secs() / SLICE.as_secs()) as usize;
                if out.slices.len() <= slice {
                    out.slices.resize(slice + 1, 0);
                }
                out.slices[slice] += 1;
                out.ops += 1;
                if self.lap.is_some_and(|lap| out.ops.is_multiple_of(lap)) {
                    out.laps.push(done - start);
                }
                if !conn.frame_buffered() {
                    break;
                }
            }
        }
        out.bytes_out = conn.bytes_out - b_out;
        out.bytes_in = conn.bytes_in - b_in;
        out.socket_flushes = conn.socket_flushes - s_fl;
        Ok(out)
    }
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct LightOut {
    /// Latency from each request's due time, ns.
    pub lat: Vec<u64>,
    /// How late the sender wrote each request, ns.
    pub late: Vec<u64>,
}

/// Sends `n` ops of `phase` at a fixed `rate` (ops/s) from a sender
/// thread while this thread receives and checks; latency is timed from
/// each request's due time, so a stall also charges the requests queued
/// behind it.
pub fn open_loop(
    conn: &mut Conn,
    oracle: &mut Oracle,
    tally: &mut Tally,
    gen: &Gen,
    phase: Phase,
    rate: u64,
    n: u64,
) -> io::Result<LightOut> {
    let period = Duration::from_nanos(1_000_000_000 / rate);
    let base = conn.next_token;
    conn.next_token += n;
    tally.attempted += n;
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| t0 + period * i as u32;
    let Conn {
        r,
        w,
        bytes_out,
        bytes_in,
        socket_flushes,
        ..
    } = conn;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<Vec<u64>> {
            let mut late = Vec::with_capacity(n as usize);
            for i in 0..n {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                }
                late.push(ns(due(i), Instant::now()));
                let framed = encode_request(base + i, &gen.op(phase, i));
                write_frame(w, &framed)?;
                w.flush()?;
                *bytes_out += 4 + framed.len() as u64;
                *socket_flushes += 1;
            }
            Ok(late)
        });
        let mut out = LightOut {
            lat: Vec::with_capacity(n as usize),
            late: Vec::new(),
        };
        let received = (|| -> io::Result<()> {
            for i in 0..n {
                let raw = match read_frame(r)? {
                    Frame::Body(body) => body,
                    other => return Err(bad_data(format!("server sent {other:?}"))),
                };
                let done = Instant::now();
                *bytes_in += 4 + raw.len() as u64;
                let (token, resp) = decode_response(&raw).map_err(|e| bad_data(e.0))?;
                if token != base + i {
                    return Err(bad_data(format!(
                        "op {i} expected token {} got {token}",
                        base + i
                    )));
                }
                if oracle.answer(tally, i, &gen.op(phase, i), &resp) {
                    out.lat.push(ns(due(i), done));
                }
            }
            Ok(())
        })();
        let sent = sender
            .join()
            .map_err(|_| io::Error::other("open-loop sender panicked"))?;
        out.late = sent?;
        received?;
        Ok(out)
    })
}

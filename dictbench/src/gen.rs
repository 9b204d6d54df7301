//! Seeded, stateless op streams: op `i` of a phase is a pure function of
//! `(seed, phase, i)`, so the open-loop sender and receiver, the closed
//! loop and the in-process replay all see the same stream without sharing
//! state.

use dict_server::Request;

/// Keys every workload preloads through the wire before measuring.
pub const PRELOAD: u64 = 262_144;
/// Acked data ops between two FLUSHes in `scan-flush`.
pub const FLUSH_EVERY: u64 = 16_384;
/// Ops in the tail's navigation part.
pub const TAIL_NAV_OPS: u64 = 131_072;
/// PUTs between the FLUSHes of the tail's flush part.
pub const TAIL_CYCLE: u64 = 1_024;
/// FLUSHes in the tail's flush part (the first one opens it). A FLUSH
/// time varies by some 15% from one to the next with the host's fsync, so
/// `flush_p50_ms` takes the median of several.
pub const TAIL_FLUSHES: u64 = 9;
/// Zipf exponent of `scan-flush` write keys.
pub const ZIPF_S: f64 = 0.99;

/// The SplitMix64 finalizer: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which stream an op index belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `PRELOAD` PUTs of key indices `0..PRELOAD`.
    Preload,
    /// 95/5 GET/PUT on uniform preloaded keys: the open-loop light phase
    /// and the `read95` closed loop (two independent streams of one mix).
    Light,
    Read95,
    /// PUTs of fresh keys `PRELOAD + i`.
    Ingest,
    /// 40/30/10/15/5 GET/SUCC/PRED/PUT/DEL with a FLUSH closing every cycle.
    ScanFlush,
    /// A navigation part, the scan-flush mix with every DEL turned into a
    /// PUT, then a flush part, Zipf PUTs in cycles between FLUSHes that
    /// opens and closes with a FLUSH. It runs after `read95` and `ingest`,
    /// whose main phases never delete, so every PUT updates a present key.
    Tail,
}

/// The mix behind one stream.
pub struct Gen {
    seed: u64,
    key_salt: u64,
    /// Cumulative Zipf weights over preloaded key ranks.
    zipf_cdf: Vec<f64>,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (0..PRELOAD)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for w in &mut zipf_cdf {
            *w /= acc;
        }
        Self {
            seed,
            key_salt: mix64(seed ^ 0x6b65_7973),
            zipf_cdf,
        }
    }

    /// The key with index `i`; distinct indices give distinct keys.
    fn key(&self, i: u64) -> u64 {
        mix64(i ^ self.key_salt)
    }

    fn rand(&self, phase: Phase, i: u64, lane: u64) -> u64 {
        let stream = mix64(self.seed ^ ((phase as u64 + 1) << 48));
        mix64(stream ^ mix64(i.wrapping_mul(8).wrapping_add(lane)))
    }

    fn below(&self, phase: Phase, i: u64, lane: u64, n: u64) -> u64 {
        ((u128::from(self.rand(phase, i, lane)) * u128::from(n)) >> 64) as u64
    }

    fn zipf_key(&self, phase: Phase, i: u64) -> u64 {
        let u = (self.rand(phase, i, 3) >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.zipf_cdf.partition_point(|&c| c < u) as u64;
        self.key(rank.min(PRELOAD - 1))
    }

    fn value(&self, phase: Phase, i: u64) -> u64 {
        self.rand(phase, i, 4)
    }

    /// Op `i` of `phase`.
    pub fn op(&self, phase: Phase, i: u64) -> Request {
        match phase {
            Phase::Preload => Request::Put {
                key: self.key(i),
                value: self.value(phase, i),
            },
            Phase::Light | Phase::Read95 => {
                let key = self.key(self.below(phase, i, 1, PRELOAD));
                if self.below(phase, i, 0, 100) < 95 {
                    Request::Get { key }
                } else {
                    Request::Put {
                        key,
                        value: self.value(phase, i),
                    }
                }
            }
            Phase::Ingest => Request::Put {
                key: self.key(PRELOAD + i),
                value: self.value(phase, i),
            },
            Phase::ScanFlush => {
                if i % (FLUSH_EVERY + 1) == FLUSH_EVERY {
                    Request::Flush
                } else {
                    self.scan_mix(phase, i)
                }
            }
            Phase::Tail if i < TAIL_NAV_OPS => match self.scan_mix(phase, i) {
                // Updates only: the record count, and with it the size of
                // the image the HI-PMA draws, stays put.
                Request::Del { key } => Request::Put {
                    key,
                    value: self.value(phase, i),
                },
                op => op,
            },
            Phase::Tail => {
                if (i - TAIL_NAV_OPS).is_multiple_of(TAIL_CYCLE + 1) {
                    Request::Flush
                } else {
                    Request::Put {
                        key: self.zipf_key(phase, i),
                        value: self.value(phase, i),
                    }
                }
            }
        }
    }

    fn scan_mix(&self, phase: Phase, i: u64) -> Request {
        match self.below(phase, i, 0, 100) {
            0..=39 => Request::Get {
                key: self.key(self.below(phase, i, 1, PRELOAD)),
            },
            40..=69 => Request::Succ {
                key: self.rand(phase, i, 2),
            },
            70..=79 => Request::Pred {
                key: self.rand(phase, i, 2),
            },
            80..=94 => Request::Put {
                key: self.zipf_key(phase, i),
                value: self.value(phase, i),
            },
            _ => Request::Del {
                key: self.zipf_key(phase, i),
            },
        }
    }
}

/// Ops in a tail phase: the navigation part, then `TAIL_FLUSHES` FLUSHes
/// with a cycle of PUTs between each.
pub fn tail_len() -> u64 {
    TAIL_NAV_OPS + (TAIL_FLUSHES - 1) * (TAIL_CYCLE + 1) + 1
}

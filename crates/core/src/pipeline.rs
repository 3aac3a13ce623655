//! Chunk sizing for the pooled engines.
//!
//! §6.2 of the paper: *"We assume that we have P processors that we can
//! utilize in parallel."* The serial engines in [`crate::intersection`]
//! and friends encrypt a whole round before sending a single byte; the
//! pooled engines in [`crate::shard`] overlap the two. Each list crosses
//! the wire under the chunked envelope of [`crate::wire`], and every
//! chunk's exponentiations run as a job on a persistent
//! [`minshare_crypto::EncryptPool`]: a party submits work for each chunk
//! of the peer's list as it lands, and answers chunk for chunk as the
//! jobs drain. [`PipelineConfig`] sets the chunk size.
//!
//! The message *order* and op counts are identical to the serial engines,
//! and a list that fits in one chunk is byte-identical to the serial
//! protocol's frame — so the §6.1 cost-model assertions carry over
//! unchanged. "Pipelined" is the pooled engine at one bucket (`B = 1`).

use minshare_bignum::UBig;
use minshare_crypto::{EncryptPool, QrGroup};
use rand::SeedableRng;

use crate::wire::DEFAULT_CHUNK_SIZE;

/// Chunking knobs for the pooled engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Codewords per wire chunk. Lists that fit in one chunk go out as a
    /// plain (serial-compatible) frame.
    pub chunk_size: usize,
    /// Lists shorter than this go out as a single chunk — the serial
    /// fallback. Chunking exists to overlap encryption with the wire;
    /// below the break-even point the envelope and per-chunk job
    /// overhead are pure loss (measurably so on a 1-core host, where
    /// the pool has no workers to overlap with). `0` always pipelines;
    /// `usize::MAX` always falls back. A single-chunk stream is
    /// byte-identical to the serial protocol.
    pub serial_below: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_size: DEFAULT_CHUNK_SIZE,
            serial_below: 0,
        }
    }
}

impl PipelineConfig {
    /// A config with an explicit chunk size and no serial fallback.
    pub fn chunked(chunk_size: usize) -> Self {
        PipelineConfig {
            chunk_size,
            serial_below: 0,
        }
    }

    /// Calibrates the knobs against a live pool, preferring the pool's
    /// own live measurements: its dispatch estimate (construction-probe
    /// median refined by observed submit→first-claim latencies) and its
    /// per-item cost EWMA (fed by inline runs and pooled claims alike).
    /// Only when the pool has not yet processed a batch does a quick
    /// inline probe seed the per-item figure. A chunk is sized to
    /// amortize one hand-off to ~10% overhead, and lists that cannot
    /// fill at least two chunks (nothing to overlap) fall back to the
    /// serial single-chunk path. On a pool with no workers (1-core host)
    /// every list falls back — that configuration can only lose to
    /// serial.
    pub fn calibrated(group: &QrGroup, pool: &EncryptPool) -> Self {
        if pool.threads() == 0 {
            return PipelineConfig {
                chunk_size: DEFAULT_CHUNK_SIZE,
                serial_below: usize::MAX,
            };
        }
        let mut item_ns = pool.item_cost_ns();
        if item_ns == 0 {
            // Cold pool: measure a short inline batch to seed the figure
            // (the same kernel path the pool's EWMA tracks).
            const PROBE_ITEMS: usize = 8;
            let probe: Vec<UBig> = (0..PROBE_ITEMS)
                .map(|i| group.hash_to_group(&[b'c', b'a', b'l', i as u8]))
                .collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x9e37_79b9);
            let key = group.gen_key(&mut rng);
            let started = std::time::Instant::now();
            let _ = group.encrypt_many(&key, &probe);
            item_ns = (started.elapsed().as_nanos() / PROBE_ITEMS as u128).max(1) as u64;
        }
        let dispatch_ns = pool.dispatch_overhead_ns().max(1);
        // 10 dispatches' worth of work per chunk ≈ 10% hand-off overhead.
        let chunk_size = usize::try_from(10 * dispatch_ns / item_ns.max(1))
            .unwrap_or(usize::MAX)
            .clamp(DEFAULT_CHUNK_SIZE, 4096);
        PipelineConfig {
            chunk_size,
            serial_below: chunk_size.saturating_mul(2),
        }
    }

    fn chunk(&self) -> usize {
        self.chunk_size.max(1)
    }

    /// Chunk size to use for a list of `n` items: the configured size,
    /// or effectively-unbounded (single serial-compatible frame) for
    /// lists under the fallback threshold.
    pub(crate) fn effective_chunk(&self, n: usize) -> usize {
        if n < self.serial_below {
            usize::MAX
        } else {
            self.chunk()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProtocolError;
    use crate::runner::run_two_party;
    use crate::shard::{self, ShardConfig};
    use crate::wire::send_codewords_chunked;
    use crate::{equijoin, intersection};
    use minshare_crypto::kcipher::HybridCipher;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    fn values(n: usize, offset: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("value-{:04}", i + offset).into_bytes())
            .collect()
    }

    fn entry_list(n: usize, offset: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("value-{:04}", i + offset).into_bytes(),
                    format!("ext-{:04}", i + offset).into_bytes(),
                )
            })
            .collect()
    }

    fn cfg(chunk: usize) -> PipelineConfig {
        PipelineConfig::chunked(chunk)
    }

    /// Pipelined sender+receiver must produce the exact outputs of the
    /// serial path, across chunk-boundary shapes and pool widths.
    #[test]
    fn intersection_pipelined_matches_serial() {
        let g = group();
        let (vs, vr) = (values(13, 0), values(9, 7));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        for (threads, chunk) in [(0usize, 4usize), (2, 1), (2, 4), (4, 13), (2, 64)] {
            let pool = EncryptPool::new(threads);
            let run = run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(500);
                    shard::run_intersection_sender(
                        t,
                        &g,
                        &vs,
                        &mut rng,
                        &pool,
                        cfg(chunk),
                        &ShardConfig::default(),
                    )
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(600);
                    shard::run_intersection_receiver(
                        t,
                        &g,
                        &vr,
                        &mut rng,
                        &pool,
                        cfg(chunk),
                        &ShardConfig::default(),
                    )
                },
            )
            .unwrap();
            assert_eq!(run.receiver, serial.receiver, "t={threads} c={chunk}");
            assert_eq!(run.sender, serial.sender, "t={threads} c={chunk}");
        }
    }

    #[test]
    fn equijoin_pipelined_matches_serial() {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 64);
        let (vs, vr) = (entry_list(11, 0), values(8, 6));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                equijoin::run_sender(t, &g, &cipher, &vs, &mut rng)
            },
            |t| {
                let cipher = HybridCipher::new(g.clone(), 64);
                let mut rng = StdRng::seed_from_u64(600);
                equijoin::run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        for (threads, chunk) in [(0usize, 3usize), (2, 1), (2, 4), (4, 64)] {
            let pool = EncryptPool::new(threads);
            let run = run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(500);
                    shard::run_equijoin_sender(
                        t,
                        &g,
                        &cipher,
                        &vs,
                        &mut rng,
                        &pool,
                        cfg(chunk),
                        &ShardConfig::default(),
                    )
                },
                |t| {
                    let cipher = HybridCipher::new(g.clone(), 64);
                    let mut rng = StdRng::seed_from_u64(600);
                    shard::run_equijoin_receiver(
                        t,
                        &g,
                        &cipher,
                        &vr,
                        &mut rng,
                        &pool,
                        cfg(chunk),
                        &ShardConfig::default(),
                    )
                },
            )
            .unwrap();
            assert_eq!(run.receiver, serial.receiver, "t={threads} c={chunk}");
            assert_eq!(run.sender, serial.sender, "t={threads} c={chunk}");
        }
    }

    /// A pipelined party with chunks larger than every list interoperates
    /// with the *serial* engine on the other side, byte for byte.
    #[test]
    fn single_chunk_pipelined_interops_with_serial_peer() {
        let g = group();
        let (vs, vr) = (values(6, 0), values(5, 3));
        let pool = EncryptPool::new(2);
        let big = cfg(1024);
        let a = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                shard::run_intersection_sender(
                    t,
                    &g,
                    &vs,
                    &mut rng,
                    &pool,
                    big,
                    &ShardConfig::default(),
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let b = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                shard::run_intersection_receiver(
                    t,
                    &g,
                    &vr,
                    &mut rng,
                    &pool,
                    big,
                    &ShardConfig::default(),
                )
            },
        )
        .unwrap();
        assert_eq!(a.receiver.intersection, b.receiver.intersection);
        assert_eq!(a.sender_traffic.bytes_sent(), b.sender_traffic.bytes_sent());
        assert_eq!(
            a.receiver_traffic.bytes_sent(),
            b.receiver_traffic.bytes_sent()
        );
    }

    /// With single-chunk streams the pipelined path costs exactly the
    /// serial §6.1 wire bytes; with c chunks per list it adds only the
    /// 10-byte envelope header plus 5 bytes per extra chunk frame.
    #[test]
    fn traffic_overhead_is_exactly_enveloping() {
        let g = group();
        let (vs, vr) = (values(12, 0), values(12, 6));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                intersection::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                intersection::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let pool = EncryptPool::new(2);
        let chunk = 5usize; // 12 items -> 3 chunks per list
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(500);
                shard::run_intersection_sender(
                    t,
                    &g,
                    &vs,
                    &mut rng,
                    &pool,
                    cfg(chunk),
                    &ShardConfig::default(),
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(600);
                shard::run_intersection_receiver(
                    t,
                    &g,
                    &vr,
                    &mut rng,
                    &pool,
                    cfg(chunk),
                    &ShardConfig::default(),
                )
            },
        )
        .unwrap();
        let chunks_per_list = 12usize.div_ceil(chunk) as u64; // 3
        let envelope = 10 + (chunks_per_list - 1) * 5;
        // Sender ships two lists (Y_S and f_eS(Y_R)), receiver one (Y_R).
        assert_eq!(
            run.sender_traffic.bytes_sent(),
            serial.sender_traffic.bytes_sent() + 2 * envelope
        );
        assert_eq!(
            run.receiver_traffic.bytes_sent(),
            serial.receiver_traffic.bytes_sent() + envelope
        );
    }

    #[test]
    fn empty_sets_pipeline_cleanly() {
        let g = group();
        let pool = EncryptPool::new(1);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                shard::run_intersection_sender(
                    t,
                    &g,
                    &[],
                    &mut rng,
                    &pool,
                    cfg(4),
                    &ShardConfig::default(),
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(2);
                shard::run_intersection_receiver(
                    t,
                    &g,
                    &values(3, 0),
                    &mut rng,
                    &pool,
                    cfg(4),
                    &ShardConfig::default(),
                )
            },
        )
        .unwrap();
        assert!(run.receiver.intersection.is_empty());
        assert_eq!(run.receiver.peer_set_size, 0);
    }

    #[test]
    fn unsorted_chunk_stream_is_rejected() {
        let g = group();
        let pool = EncryptPool::new(1);
        // A malicious receiver sends Y_R unsorted across a chunk boundary.
        let err = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                shard::run_intersection_sender(
                    t,
                    &g,
                    &values(2, 0),
                    &mut rng,
                    &pool,
                    cfg(2),
                    &ShardConfig::default(),
                )
            },
            |t| -> Result<(), ProtocolError> {
                let mut rng = StdRng::seed_from_u64(2);
                let mut els: Vec<UBig> = (0..4).map(|_| g.sample_element(&mut rng)).collect();
                els.sort();
                els.reverse(); // descending: first boundary check must trip
                send_codewords_chunked(t, &g, &els, 2)?;
                // Drain whatever the sender manages to say, then stop.
                let _ = t.recv();
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::NotSorted { what: "Y_R" });
    }
}

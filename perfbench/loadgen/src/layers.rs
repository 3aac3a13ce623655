//! Standalone layer timings, each run on the workload's own values and
//! group through the layer's public functions, plus the host
//! calibration taken before every run.

use std::path::Path;
use std::time::Instant;

use minshare::prelude::{ExtCipher, ExtSorter, HybridCipher};
use minshare_crypto::{EncryptPool, QrGroup};
use minshare_net::MuxFrame;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{now_ns, Spans};

/// Repeats `f` (which does `items` units of work per call) until at least
/// `min_ms` have passed and returns nanoseconds per unit, the median of
/// the calls.
fn per_item_ns(items: usize, min_ms: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_millis() < u128::from(min_ms) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    crate::stats::median(samples).unwrap_or(0.0)
}

/// Microseconds per `Ce` on the inline pool for a `bits`-bit group, on
/// fixed bases (so the figure tracks the host, not the workload).
pub fn host_ce_us(bits: u64) -> f64 {
    let group = QrGroup::well_known(bits).expect("CLI group sizes are well known");
    let mut rng = StdRng::seed_from_u64(bits);
    let key = group.gen_key(&mut rng);
    let bases: Vec<_> = (0u32..24)
        .map(|i| group.hash_to_group(&i.to_be_bytes()))
        .collect();
    let pool = EncryptPool::new(0);
    per_item_ns(bases.len(), 60, || {
        std::hint::black_box(pool.encrypt_batch(&group, &key, std::hint::black_box(&bases)));
    }) / 1e3
}

/// Inputs of the standalone timings.
pub struct LayerInput<'a> {
    pub group: &'a QrGroup,
    /// A sample of the workload's values (client and daemon).
    pub values: &'a [Vec<u8>],
    /// The daemon's payloads.
    pub payloads: &'a [Vec<u8>],
    /// Records the largest client set pushes through its sorter.
    pub spill_records: usize,
    pub spill_budget: usize,
    pub spill_dir: &'a Path,
    /// Payload sizes of one traced session's frames.
    pub frame_sizes: &'a [usize],
}

/// Per-layer results of [`time_layers`].
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub hash_us: f64,
    pub ce_us: f64,
    pub daemon_ce_us: f64,
    pub record_us: f64,
    pub spill_records: u64,
    pub spill_runs: u64,
    pub spill_bytes: u64,
    pub spill_ns_per_record: f64,
    pub codec_ns_per_frame: f64,
}

/// Runs every standalone timing, each under its own span below a
/// `layers` root.
pub fn time_layers(input: &LayerInput<'_>, spans: &mut Spans) -> Result<LayerTimes, String> {
    let root = spans.push("layers", 0, None, now_ns(), 0);
    let mut out = LayerTimes::default();
    let group = input.group;
    let timed = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut()| {
        let start = now_ns();
        f();
        spans.push(name, 0, Some(root), start, now_ns());
    };

    timed("crypto.group.hash", spans, &mut || {
        out.hash_us = per_item_ns(input.values.len(), 40, || {
            for v in input.values {
                std::hint::black_box(group.hash_to_group(std::hint::black_box(v)));
            }
        }) / 1e3;
    });
    let hashed: Vec<_> = input
        .values
        .iter()
        .map(|v| group.hash_to_group(v))
        .collect();
    let key = group.gen_key(&mut StdRng::seed_from_u64(0x1a7e5));

    timed("crypto.pool.ce", spans, &mut || {
        let pool = EncryptPool::new(0);
        out.ce_us = per_item_ns(hashed.len(), 100, || {
            std::hint::black_box(pool.encrypt_batch(group, &key, &hashed));
        }) / 1e3;
    });
    timed("crypto.pool.daemon_ce", spans, &mut || {
        // Sized exactly as `minshare serve` sizes its pool.
        let pool = EncryptPool::new(2);
        out.daemon_ce_us = per_item_ns(hashed.len(), 100, || {
            std::hint::black_box(pool.encrypt_batch(group, &key, &hashed));
        }) / 1e3;
    });

    let cipher = HybridCipher::new(group.clone(), crate::workload::RECORD_LEN);
    let mut record_err = None;
    timed("crypto.kcipher.record", spans, &mut || {
        let n = input.payloads.len().min(hashed.len()).max(1);
        out.record_us = per_item_ns(n, 30, || {
            for (i, kappa) in hashed.iter().take(n).enumerate() {
                let p = input.payloads.get(i).map_or(&[][..], Vec::as_slice);
                match cipher.encrypt(kappa, p) {
                    Ok(c) => {
                        std::hint::black_box(c);
                    }
                    Err(e) => record_err = Some(e.to_string()),
                }
            }
        }) / 1e3;
    });
    if let Some(e) = record_err {
        return Err(format!("payload cipher failed: {e}"));
    }

    // Spill records as the sharded engines lay them out: bucket id,
    // encrypted codeword, local index. The codewords are the sample's
    // own encryptions, repeated up to the session's set size.
    let codewords: Vec<Vec<u8>> = EncryptPool::new(0)
        .encrypt_batch(group, &key, &hashed)
        .iter()
        .map(|c| group.encode_element(c))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("encode codeword: {e}"))?;
    let record_len = 4 + group.codeword_bytes() + 4;
    let mut spill_err = None;
    timed("core.spill", spans, &mut || {
        out.spill_ns_per_record = per_item_ns(input.spill_records, 30, || {
            match sort_records(&codewords, input, record_len) {
                Ok((records, runs, bytes)) => {
                    out.spill_records = records;
                    out.spill_runs = runs;
                    out.spill_bytes = bytes;
                }
                Err(e) => spill_err = Some(e),
            }
        });
    });
    if let Some(e) = spill_err {
        return Err(e);
    }

    let mut codec_err = None;
    timed("net.mux.codec", spans, &mut || {
        let sizes = if input.frame_sizes.is_empty() {
            &[0][..]
        } else {
            input.frame_sizes
        };
        let payloads: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0xa5; n]).collect();
        out.codec_ns_per_frame = per_item_ns(payloads.len(), 20, || {
            for (seq, p) in payloads.iter().enumerate() {
                let raw = MuxFrame::data(1, seq as u32, p.clone()).encode();
                if MuxFrame::decode(&raw).is_err() {
                    codec_err = Some("mux frame failed to decode".to_string());
                }
            }
        });
    });
    if let Some(e) = codec_err {
        return Err(e);
    }
    spans.list[root].end_ns = now_ns();
    Ok(out)
}

/// Pushes `input.spill_records` records through a fresh sorter under the
/// workload's budget and drains it; returns (records, runs, bytes).
fn sort_records(
    codewords: &[Vec<u8>],
    input: &LayerInput<'_>,
    record_len: usize,
) -> Result<(u64, u64, u64), String> {
    let mut sorter = ExtSorter::new(record_len, input.spill_budget, input.spill_dir)
        .map_err(|e| format!("sorter: {e}"))?;
    let mut record = Vec::with_capacity(record_len);
    for i in 0..input.spill_records {
        let cw = &codewords[i % codewords.len()];
        record.clear();
        record.extend_from_slice(&(cw[0] as u32 % 8).to_be_bytes());
        record.extend_from_slice(cw);
        record.extend_from_slice(&(i as u32).to_be_bytes());
        sorter
            .push_record(&record)
            .map_err(|e| format!("sorter push: {e}"))?;
    }
    let (mut stream, stats) = sorter.finish().map_err(|e| format!("sorter finish: {e}"))?;
    let mut drained = 0u64;
    while stream
        .next_record()
        .map_err(|e| format!("sorter merge: {e}"))?
        .is_some()
    {
        drained += 1;
    }
    if drained != stats.records {
        return Err(format!(
            "sorter returned {drained} of {} records",
            stats.records
        ));
    }
    Ok((stats.records, stats.runs_spilled, stats.bytes_spilled))
}

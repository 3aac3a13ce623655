//! The pooled protocol engines: one receiver and one sender per protocol.
//!
//! The serial engines ([`crate::intersection`], [`crate::equijoin`],
//! [`crate::intersection_size`], [`crate::equijoin_size`]) are the
//! paper-level reference, generic over any commutative scheme. The
//! engines here run the same round structure for production — the CLI
//! and the daemon — and each is written once, as its protocol's rounds
//! over a stream of buckets:
//!
//! * **Buckets.** Both parties bucket their values on a prefix of
//!   `h(v)`'s fixed-width codeword into `B` shards (the assignment is a
//!   pure function of the public scheme, so it is common knowledge), then
//!   run the protocol's message sequence once per bucket, back to back
//!   over one transport.
//! * **Chunks on a pool.** Every list crosses the wire under the chunked
//!   envelope of [`crate::wire`], and every chunk's exponentiations run
//!   as a job on the shared [`minshare_crypto::EncryptPool`], inside
//!   whatever fair-queuing session scope the caller established — so a
//!   party works on the chunks it has while later ones are in flight
//!   (§6.2's `P` processors), and one giant join cannot starve concurrent
//!   daemon sessions.
//! * **Memory stays O(bucket).** A party's own encrypted list goes
//!   through the spill-to-disk [`crate::spill::ExtSorter`], keyed by
//!   `bucket ‖ codeword`, under [`ShardConfig::mem_budget`], and the wire
//!   phase walks the merged stream one bucket at a time. Spill files hold
//!   only post-`h`-post-`enc` bytes — the analyzer's WIRE01 pass treats
//!   `push_record` as a wire sink and proves it.
//!
//! `B = 1` is the pipelined engine: one bucket, no hello.
//!
//! ## Wire format
//!
//! With `B > 1` the receiver opens with the 6-byte hello
//! `[TAG_SHARDED, 1, B:u32be]`; then for each bucket `b = 0..B` the
//! parties exchange exactly the serial message sequence restricted to
//! bucket `b`. With `B = 1` no hello is sent and the run is the serial
//! message sequence itself; a list that fits in one chunk goes out as
//! the serial engine's plain frame, so such a run is byte-identical to
//! the serial protocol. A sender adopts the receiver's choice by peeking
//! the first frame: a hello announces `B`, anything else is the first
//! list of a one-bucket run.
//!
//! ## Leakage delta
//!
//! Sharding discloses, per party, the *per-bucket set sizes* — `B`
//! values summing to `|V|` — where the unsharded protocols disclose only
//! the total. For the -size variants it additionally localizes each
//! match to its bucket. [`crate::leakage`] quantifies both deltas
//! exactly, the same way the §5.2 duplicate-class leak is handled; §6.1
//! cost totals are unchanged because every formula is linear in
//! `|V_S|`/`|V_R|` (see `minshare-costmodel`'s `reconcile_sharded`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

use minshare_bignum::UBig;
use minshare_crypto::kcipher::ExtCipher;
use minshare_crypto::{CommutativeKey, CommutativeScheme, EncryptPool, PendingBatch, QrGroup};
use minshare_net::{FrameBatch, NetError, Transport};
use rand::Rng;

use crate::equijoin::{EquijoinReceiverOutput, EquijoinSenderOutput};
use crate::equijoin_size::{EquijoinSizeReceiverOutput, EquijoinSizeSenderOutput};
use crate::error::ProtocolError;
use crate::intersection::{IntersectionReceiverOutput, IntersectionSenderOutput};
use crate::intersection_size::{IntersectionSizeReceiverOutput, IntersectionSizeSenderOutput};
use crate::pipeline::PipelineConfig;
use crate::prepare::{prepare_multiset, prepare_set};
use crate::spill::{ExtSorter, SortedStream, SpillStats};
use crate::stats::OpCounters;
use crate::wire::{
    decode_shard_hello, encode_shard_hello, send_codewords_chunked, send_payload_pairs_chunked,
    ChunkedReader, ChunkedWriter, Message, MAX_SHARDS, TAG_CODEWORDS, TAG_CODEWORD_PAIRS,
    TAG_PAYLOAD_PAIRS,
};

/// Knobs for the pooled engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Bucket count `B` chosen by the receiver. `1` (the default) sends
    /// no hello and runs the protocol as one bucket.
    pub shards: u32,
    /// In-memory byte budget of each spill sorter; codeword records
    /// beyond it go to sorted run files on disk.
    pub mem_budget: usize,
    /// Directory for spill run files (`None` = the OS temp dir). Runs
    /// are unlinked at creation, so nothing lingers after the process.
    pub spill_dir: Option<PathBuf>,
    /// How many spill batches of a party's own list may be encrypting at
    /// once; bounds the codewords in flight to `window` batches.
    pub window: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            mem_budget: 64 << 20,
            spill_dir: None,
            window: 4,
        }
    }
}

impl ShardConfig {
    /// A config for `shards` buckets with default memory knobs.
    pub fn with_shards(shards: u32) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }

    fn dir(&self) -> PathBuf {
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }

    /// Shard count clamped to the wire-format bounds.
    pub fn effective_shards(&self) -> u32 {
        self.shards.clamp(1, MAX_SHARDS)
    }
}

/// The bucket a fixed-width codeword prefix maps to: the first (up to)
/// eight bytes read big-endian, mod `shards`. Applied to `h(v)`'s
/// encoding by both parties, so the assignment needs no coordination.
pub fn bucket_of(codeword: &[u8], shards: u32) -> u32 {
    let mut prefix = [0u8; 8];
    for (d, s) in prefix.iter_mut().zip(codeword.iter()) {
        *d = *s;
    }
    (u64::from_be_bytes(prefix) % u64::from(shards.max(1))) as u32
}

/// The bucket a clear value lands in under `scheme`: `bucket_of` applied
/// to the fixed-width encoding of `h(value)`. This is the assignment
/// function the leakage calculator and tests feed to
/// [`crate::leakage::bucket_size_disclosure`].
pub fn value_bucket<S: CommutativeScheme>(
    scheme: &S,
    value: &[u8],
    shards: u32,
) -> Result<u32, ProtocolError> {
    let h = scheme.hash_value(value);
    Ok(bucket_of(&scheme.encode_elem(&h)?, shards))
}

fn shard_err(detail: impl std::fmt::Display) -> ProtocolError {
    ProtocolError::Spill {
        detail: detail.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Session opening
// ---------------------------------------------------------------------------

/// Opens a receiver's session: `B > 1` is announced with a hello, a
/// one-bucket run sends none. Returns `B`.
fn send_hello<T: Transport + ?Sized>(
    transport: &mut T,
    cfg: &ShardConfig,
) -> Result<u32, ProtocolError> {
    let shards = cfg.effective_shards();
    if shards > 1 {
        transport.send(&encode_shard_hello(shards))?;
    }
    Ok(shards)
}

/// A sender's transport after its first frame was peeked: a frame that
/// was not a hello is delivered again before the link is read.
struct PushbackTransport<'a, T: Transport + ?Sized> {
    first: Option<Vec<u8>>,
    inner: &'a mut T,
}

impl<T: Transport + ?Sized> Transport for PushbackTransport<'_, T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn send_batch(&mut self, batch: FrameBatch) -> Result<(), NetError> {
        self.inner.send_batch(batch)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        match self.first.take() {
            Some(frame) => Ok(frame),
            None => self.inner.recv(),
        }
    }
}

/// Receives a sender's first frame. A shard hello announces `B`; any
/// other frame is the first list of a one-bucket run (`B = 1`) and is
/// pushed back for the engine to read.
fn recv_hello_or_pushback<T: Transport + ?Sized>(
    transport: &mut T,
) -> Result<(u32, PushbackTransport<'_, T>), ProtocolError> {
    let frame = transport.recv()?;
    let (shards, first) = match decode_shard_hello(&frame)? {
        Some(shards) => (shards, None),
        None => (1, Some(frame)),
    };
    Ok((
        shards,
        PushbackTransport {
            first,
            inner: transport,
        },
    ))
}

// ---------------------------------------------------------------------------
// A party's own list: encrypt, spill, stream back bucket by bucket
// ---------------------------------------------------------------------------

/// Hashes per spill batch: one pool job per key.
const SPILL_BATCH: usize = 1024;

/// A party's own list, from encryption to per-bucket wire order.
/// [`OwnList::start`] puts the first `window` batches on the pool at
/// once; [`OwnList::merge`] drains every batch into the spill sorter and
/// opens the merged stream — at the first [`OwnList::take_bucket`], or
/// as soon as a sharded sender has its hello. Until then the pool works
/// on the list while the engine handles the peer — a sender starts
/// before it has even seen the receiver's first frame.
///
/// Record layout: `bucket ‖ f_k0(h) [‖ idx] [‖ f_k1(h)]` — the codeword
/// under the first key, the entry's index into the prepared list when
/// `with_idx`, and the codeword under the second key when there is one
/// (the equijoin sender's κ seed). Sorting the records orders each
/// bucket by its first codeword, which is the order every list goes out
/// in.
struct OwnList<'a> {
    group: &'a QrGroup,
    pool: &'a EncryptPool,
    keys: Vec<&'a CommutativeKey>,
    hashes: Vec<UBig>,
    with_idx: bool,
    window: usize,
    next: usize,
    in_flight: VecDeque<(usize, Vec<PendingBatch>)>,
    /// The sorter while the list is being spilled; `None` once merged.
    sorter: Option<ExtSorter>,
    merged: Option<SortedStream>,
    lookahead: Option<Vec<u8>>,
}

/// One bucket of a party's own list, decoded from its spill records in
/// codeword order.
struct Bucket {
    /// Codewords under the first key: the list this bucket sends.
    codewords: Vec<UBig>,
    /// Each codeword's index into the prepared list (empty unless the
    /// spill recorded indices).
    idx: Vec<u32>,
    /// Codewords under the second key, aligned with `codewords` (the
    /// equijoin sender's κ seeds; empty for single-key lists).
    kappas: Vec<UBig>,
}

impl<'a> OwnList<'a> {
    fn start(
        group: &'a QrGroup,
        pool: &'a EncryptPool,
        keys: Vec<&'a CommutativeKey>,
        hashes: Vec<UBig>,
        with_idx: bool,
        cfg: &ShardConfig,
    ) -> Result<Self, ProtocolError> {
        let width = group.codeword_len();
        let record_len = 4 + keys.len() * width + if with_idx { 4 } else { 0 };
        let mut own = OwnList {
            group,
            pool,
            keys,
            hashes,
            with_idx,
            window: cfg.window.max(1),
            next: 0,
            in_flight: VecDeque::new(),
            sorter: Some(ExtSorter::new(record_len, cfg.mem_budget, &cfg.dir())?),
            merged: None,
            lookahead: None,
        };
        own.refill();
        Ok(own)
    }

    /// Submits batches until `window` are in flight or none are left.
    fn refill(&mut self) {
        while self.in_flight.len() < self.window && self.next < self.hashes.len() {
            let end = (self.next + SPILL_BATCH).min(self.hashes.len());
            let batch = self.hashes.get(self.next..end).unwrap_or_default();
            let jobs = self
                .keys
                .iter()
                .map(|key| self.pool.submit_encrypt(self.group, key, batch))
                .collect();
            self.in_flight.push_back((self.next, jobs));
            self.next = end;
        }
    }

    /// Drains every batch into the sorter as records of `shards` buckets
    /// and opens the merged stream; a no-op once merged.
    fn merge(&mut self, shards: u32) -> Result<(), ProtocolError> {
        let Some(mut sorter) = self.sorter.take() else {
            return Ok(());
        };
        while let Some((start, jobs)) = self.in_flight.pop_front() {
            let columns: Vec<Vec<UBig>> = jobs.into_iter().map(|job| job.wait()).collect();
            let first = columns.first().map(Vec::as_slice).unwrap_or_default();
            for (k, y) in first.iter().enumerate() {
                let idx = start + k;
                let h = self
                    .hashes
                    .get(idx)
                    .ok_or_else(|| shard_err("spill batch longer than the list"))?;
                let mut rec = Vec::with_capacity(sorter.record_len());
                rec.extend_from_slice(
                    &bucket_of(&self.group.encode_elem(h)?, shards).to_be_bytes(),
                );
                rec.extend_from_slice(&self.group.encode_elem(y)?);
                if self.with_idx {
                    let idx = u32::try_from(idx).map_err(|_| shard_err("set too large"))?;
                    rec.extend_from_slice(&idx.to_be_bytes());
                }
                for column in columns.iter().skip(1) {
                    let z = column
                        .get(k)
                        .ok_or_else(|| shard_err("spill batch columns disagree"))?;
                    rec.extend_from_slice(&self.group.encode_elem(z)?);
                }
                sorter.push_record(&rec)?;
            }
            self.refill();
        }
        // Every hash is encrypted: free them before the bucket phase, so
        // memory stays O(bucket) from here on.
        self.hashes = Vec::new();
        let (stream, stats) = sorter.finish()?;
        emit_spill_done(&stats);
        self.merged = Some(stream);
        Ok(())
    }

    /// A sender's next step once it has peeked the receiver's first
    /// frame. A hello comes before the receiver encrypts its own list, so
    /// a sharded sender merges its own list while it waits; without one
    /// the receiver's list is already arriving, and the merge waits for
    /// the first `take_bucket`.
    fn after_hello(&mut self, shards: u32) -> Result<(), ProtocolError> {
        if shards > 1 {
            self.merge(shards)?;
        }
        Ok(())
    }

    /// Every record of bucket `b` out of `shards`, decoded. Must be
    /// called with strictly increasing `b` and the same `shards`; the
    /// first call waits for the whole list to be encrypted and sorted.
    fn take_bucket(&mut self, b: u32, shards: u32) -> Result<Bucket, ProtocolError> {
        self.merge(shards)?;
        let Some(stream) = self.merged.as_mut() else {
            return Err(shard_err("own list not merged"));
        };
        let width = self.group.codeword_len();
        let mut out = Bucket {
            codewords: Vec::new(),
            idx: Vec::new(),
            kappas: Vec::new(),
        };
        loop {
            let rec = match self.lookahead.take() {
                Some(rec) => rec,
                None => match stream.next_record()? {
                    Some(rec) => rec,
                    None => return Ok(out),
                },
            };
            let bucket = rec_u32(&rec, 0)?;
            if bucket > b {
                self.lookahead = Some(rec);
                return Ok(out);
            }
            if bucket < b {
                return Err(shard_err("spill stream went backwards across buckets"));
            }
            let mut at = 4;
            out.codewords.push(rec_codeword(&rec, at, width)?);
            at += width;
            if self.with_idx {
                out.idx.push(rec_u32(&rec, at)?);
                at += 4;
            }
            if self.keys.len() > 1 {
                out.kappas.push(rec_codeword(&rec, at, width)?);
            }
        }
    }
}

fn rec_u32(rec: &[u8], at: usize) -> Result<u32, ProtocolError> {
    let bytes = rec
        .get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or_else(|| shard_err("truncated spill record"))?;
    Ok(u32::from_be_bytes(bytes))
}

/// Decodes a codeword field of a spill record. The bytes are our own
/// prior `encode_elem` output, so plain big-endian reconstruction
/// suffices (no domain re-validation).
fn rec_codeword(rec: &[u8], at: usize, width: usize) -> Result<UBig, ProtocolError> {
    let bytes = rec
        .get(at..at + width)
        .ok_or_else(|| shard_err("truncated spill record"))?;
    Ok(UBig::from_be_bytes(bytes))
}

// ---------------------------------------------------------------------------
// The peer's lists
// ---------------------------------------------------------------------------

/// The order a received codeword list must arrive in.
#[derive(Clone, Copy)]
enum Order {
    /// Aligned item for item with a list we sent: any order.
    Aligned,
    /// Non-decreasing (a multiset).
    Sorted(&'static str),
    /// Strictly increasing (a set).
    Strict(&'static str),
}

impl Order {
    /// Checks one chunk, continuing from the last item of the previous
    /// chunk.
    fn check(self, last: &mut Option<UBig>, chunk: &[UBig]) -> Result<(), ProtocolError> {
        let (what, strict) = match self {
            Order::Aligned => return Ok(()),
            Order::Sorted(what) => (what, false),
            Order::Strict(what) => (what, true),
        };
        let in_order = |a: &UBig, b: &UBig| if strict { a < b } else { a <= b };
        let boundary_ok = match (last.as_ref(), chunk.first()) {
            (Some(prev), Some(first)) => in_order(prev, first),
            _ => true,
        };
        if !boundary_ok
            || chunk
                .windows(2)
                .any(|w| matches!(w, [a, b] if !in_order(a, b)))
        {
            return Err(ProtocolError::NotSorted { what });
        }
        if let Some(x) = chunk.last() {
            *last = Some(x.clone());
        }
        Ok(())
    }
}

fn unexpected(expected: &'static str, got: &Message) -> ProtocolError {
    ProtocolError::UnexpectedMessage {
        expected,
        got: got.kind(),
    }
}

/// Reads one chunked codeword list, checking `order` across chunk
/// boundaries, and hands each chunk to `on_chunk` as it lands — usually
/// a pool submission, so the exponentiations overlap the remaining
/// receives. Returns the per-chunk results and the list's length.
fn read_chunks<T: Transport + ?Sized, J>(
    transport: &mut T,
    group: &QrGroup,
    order: Order,
    mut on_chunk: impl FnMut(Vec<UBig>) -> J,
) -> Result<(Vec<J>, usize), ProtocolError> {
    let mut reader = ChunkedReader::begin(transport, group, TAG_CODEWORDS, "codewords")?;
    let (mut out, mut items, mut last) = (Vec::new(), 0usize, None);
    while let Some(msg) = reader.next(transport, group)? {
        let chunk = match msg {
            Message::Codewords(list) => list,
            other => return Err(unexpected("codewords", &other)),
        };
        order.check(&mut last, &chunk)?;
        items += chunk.len();
        out.push(on_chunk(chunk));
    }
    Ok((out, items))
}

/// Reads a whole codeword list that answers one of ours item for item,
/// so it must be `expected` long.
fn read_list<T: Transport + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    order: Order,
    expected: usize,
) -> Result<Vec<UBig>, ProtocolError> {
    let (chunks, got) = read_chunks(transport, group, order, |chunk| chunk)?;
    if got != expected {
        return Err(ProtocolError::LengthMismatch { expected, got });
    }
    Ok(chunks.into_iter().flatten().collect())
}

/// Counts each codeword's occurrences into `counts`.
fn count_into(counts: &mut BTreeMap<UBig, u64>, items: &[UBig]) {
    for item in items {
        *counts.entry(item.clone()).or_insert(0) += 1;
    }
}

/// Adds a bucket's duplicate classes to a distribution. Equal codewords
/// come from equal hashes, which share a bucket, so summing per-bucket
/// class counts reproduces the global distribution exactly.
fn merge_distribution(counts: &BTreeMap<UBig, u64>, dist: &mut BTreeMap<u64, u64>) {
    for d in counts.values() {
        *dist.entry(*d).or_insert(0) += 1;
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// A run's telemetry: one deterministic `shard/*_bucket_done` event per
/// bucket and the closing `*_done` op summary, with the peer's list
/// size summed over buckets.
struct Tally {
    protocol: &'static str,
    bucket_event: &'static str,
    done_event: &'static str,
    peer_items: usize,
}

impl Tally {
    fn receiver(protocol: &'static str) -> Self {
        Tally {
            protocol,
            bucket_event: "receiver_bucket_done",
            done_event: "receiver_done",
            peer_items: 0,
        }
    }

    fn sender(protocol: &'static str) -> Self {
        Tally {
            protocol,
            bucket_event: "sender_bucket_done",
            done_event: "sender_done",
            peer_items: 0,
        }
    }

    /// One bucket done. `ce` is the bucket's exact §6.1 `Ce` expenditure
    /// on this party; `minshare-costmodel`'s `reconcile_sharded` checks
    /// these per-bucket figures still sum to the paper's formulas.
    fn bucket(&mut self, bucket: u32, own_items: usize, peer_items: usize, ce: usize) {
        self.peer_items += peer_items;
        let protocol = self.protocol;
        minshare_trace::emit("shard", self.bucket_event, true, move || {
            vec![
                minshare_trace::count("bucket", u64::from(bucket)),
                minshare_trace::count("own_items", own_items as u64),
                minshare_trace::count("peer_items", peer_items as u64),
                minshare_trace::count("ce", ce as u64),
                minshare_trace::count(protocol, 1),
            ]
        });
    }

    /// The run's op summary; returns the peer's whole list size.
    fn done(&self, ops: &OpCounters, own_items: usize) -> usize {
        crate::stats::emit_ops(
            self.protocol,
            self.done_event,
            ops,
            own_items,
            self.peer_items,
        );
        self.peer_items
    }
}

/// Deterministic spill summary for one engine's sort phase: run/byte/
/// record counters only (sizes, never content). `runs_spilled == 0`
/// means the whole list fit in the memory budget.
fn emit_spill_done(stats: &SpillStats) {
    let (runs, bytes, records) = (stats.runs_spilled, stats.bytes_spilled, stats.records);
    minshare_trace::emit("shard", "spill_done", true, move || {
        vec![
            minshare_trace::count("runs_spilled", runs),
            minshare_trace::count("bytes_spilled", bytes),
            minshare_trace::count("records", records),
        ]
    });
}

// ---------------------------------------------------------------------------
// Intersection (§3.2)
// ---------------------------------------------------------------------------

/// Intersection receiver (`R` side of §3.2): sends `Y_R`, turns `Y_S`
/// into `Z_S = f_eR(Y_S)`, and matches `f_eS(Y_R)` against it, bucket by
/// bucket.
pub fn run_intersection_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<IntersectionReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let shards = send_hello(transport, cfg)?;
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let (own_values, hashes): (Vec<Vec<u8>>, Vec<UBig>) = prepared.entries.into_iter().unzip();
    ops.encryptions += hashes.len() as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, true, cfg)?;

    let mut tally = Tally::receiver("intersection");
    let mut intersection: Vec<Vec<u8>> = Vec::new();
    for b in 0..shards {
        let bucket = own.take_bucket(b, shards)?;
        let yr = &bucket.codewords;
        send_codewords_chunked(transport, group, yr, pipe.effective_chunk(yr.len()))?;
        // Y_S^b, overlapping Z_S^b = f_eR(Y_S^b) with the receive.
        let (zs_jobs, peer_b) = read_chunks(transport, group, Order::Strict("Y_S"), |chunk| {
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        // f_eS(Y_R^b), aligned with Y_R^b.
        let reencrypted = read_list(transport, group, Order::Aligned, yr.len())?;
        let zs: BTreeSet<UBig> = zs_jobs.into_iter().flat_map(|job| job.wait()).collect();
        for (i, fes_y) in bucket.idx.iter().zip(&reencrypted) {
            if zs.contains(fes_y) {
                let v = own_values
                    .get(*i as usize)
                    .ok_or_else(|| shard_err("matched index out of range"))?;
                intersection.push(v.clone());
            }
        }
        tally.bucket(b, yr.len(), peer_b, yr.len() + peer_b);
    }
    intersection.sort();

    let peer_set_size = tally.done(&ops, own_values.len());
    Ok(IntersectionReceiverOutput {
        intersection,
        peer_set_size,
        ops,
    })
}

/// Intersection sender (`S` side of §3.2): answers `Y_R` with `Y_S` and
/// `f_eS(Y_R)`, bucket by bucket, adopting the receiver's bucket count.
pub fn run_intersection_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<IntersectionSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let hashes: Vec<UBig> = prepared.entries.into_iter().map(|(_, h)| h).collect();
    let own_set_size = hashes.len();
    ops.encryptions += own_set_size as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, false, cfg)?;
    let (shards, mut t) = recv_hello_or_pushback(transport)?;
    own.after_hello(shards)?;

    let mut tally = Tally::sender("intersection");
    for b in 0..shards {
        // Y_R^b in, re-encryption jobs per chunk.
        let (pending, peer_b) = read_chunks(&mut t, group, Order::Strict("Y_R"), |chunk| {
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        // Y_S^b out, already sorted by the merge.
        let ys = own.take_bucket(b, shards)?.codewords;
        send_codewords_chunked(&mut t, group, &ys, pipe.effective_chunk(ys.len()))?;
        // f_eS(Y_R^b), answered chunk for chunk as the jobs drain.
        let mut writer =
            ChunkedWriter::begin_with_chunks(&mut t, TAG_CODEWORDS, peer_b, pending.len())?;
        for job in pending {
            writer.send(&mut t, group, &Message::Codewords(job.wait()))?;
        }
        writer.finish()?;
        tally.bucket(b, ys.len(), peer_b, ys.len() + peer_b);
    }

    let peer_set_size = tally.done(&ops, own_set_size);
    Ok(IntersectionSenderOutput { peer_set_size, ops })
}

// ---------------------------------------------------------------------------
// Equijoin (§4.3)
// ---------------------------------------------------------------------------

/// Equijoin receiver (`R` side of §4.3): sends `Y_R`, strips its layer
/// from the `(f_eS(y), f_e'S(y))` answers, and decrypts the payloads of
/// matching tags, bucket by bucket.
#[allow(clippy::too_many_arguments)]
pub fn run_equijoin_receiver<T: Transport + ?Sized, C: ExtCipher + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    cipher: &C,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<EquijoinReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let shards = send_hello(transport, cfg)?;
    let prepared = prepare_set(group, values, &mut ops)?;
    let e_r = group.gen_key(rng);
    let (own_values, hashes): (Vec<Vec<u8>>, Vec<UBig>) = prepared.entries.into_iter().unzip();
    ops.encryptions += hashes.len() as u64;
    let mut own = OwnList::start(group, pool, vec![&e_r], hashes, true, cfg)?;

    let mut tally = Tally::receiver("equijoin");
    let mut matches: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for b in 0..shards {
        let bucket = own.take_bucket(b, shards)?;
        let yr = &bucket.codewords;
        send_codewords_chunked(transport, group, yr, pipe.effective_chunk(yr.len()))?;

        // (f_eS(y), f_e'S(y)) aligned with Y_R^b; strip our layer per
        // chunk on the pool.
        let mut reader =
            ChunkedReader::begin(transport, group, TAG_CODEWORD_PAIRS, "codeword-pairs")?;
        let mut strip_jobs: Vec<(PendingBatch, PendingBatch)> = Vec::new();
        let mut pair_count = 0usize;
        while let Some(msg) = reader.next(transport, group)? {
            let pairs = match msg {
                Message::CodewordPairs(pairs) => pairs,
                other => return Err(unexpected("codeword-pairs", &other)),
            };
            pair_count += pairs.len();
            let (fes, fesp): (Vec<UBig>, Vec<UBig>) = pairs.into_iter().unzip();
            strip_jobs.push((
                pool.submit_decrypt(group, &e_r, &fes),
                pool.submit_decrypt(group, &e_r, &fesp),
            ));
        }
        if pair_count != yr.len() {
            return Err(ProtocolError::LengthMismatch {
                expected: yr.len(),
                got: pair_count,
            });
        }
        ops.decryptions += 2 * pair_count as u64;

        // The bucket's payload table, strictly sorted by tag.
        let mut reader =
            ChunkedReader::begin(transport, group, TAG_PAYLOAD_PAIRS, "payload-pairs")?;
        let (mut last, mut table) = (None, BTreeMap::new());
        let mut peer_b = 0usize;
        while let Some(msg) = reader.next(transport, group)? {
            let pairs = match msg {
                Message::PayloadPairs(pairs) => pairs,
                other => return Err(unexpected("payload-pairs", &other)),
            };
            peer_b += pairs.len();
            for (tag, ct) in pairs {
                Order::Strict("payload table").check(&mut last, std::slice::from_ref(&tag))?;
                table.insert(tag, ct);
            }
        }

        // Equal tags imply equal hashes, which share a bucket — so the
        // per-bucket duplicate check covers the whole run.
        let mut seen_tags = BTreeSet::new();
        let stripped = strip_jobs
            .into_iter()
            .flat_map(|(tags, kappas)| tags.wait().into_iter().zip(kappas.wait()));
        for (i, (tag, kappa)) in bucket.idx.iter().zip(stripped) {
            if !seen_tags.insert(tag.clone()) {
                return Err(ProtocolError::HashCollision);
            }
            if let Some(ct) = table.get(&tag) {
                ops.payload_decryptions += 1;
                let v = own_values
                    .get(*i as usize)
                    .cloned()
                    .ok_or_else(|| shard_err("matched index out of range"))?;
                matches.push((v, cipher.decrypt(&kappa, ct)?));
            }
        }
        tally.bucket(b, yr.len(), peer_b, 3 * yr.len());
    }
    matches.sort();

    let peer_set_size = tally.done(&ops, own_values.len());
    Ok(EquijoinReceiverOutput {
        matches,
        peer_set_size,
        ops,
    })
}

/// Equijoin sender (`S` side of §4.3): answers each `y ∈ Y_R` with
/// `(f_eS(y), f_e'S(y))` and sends the payload table
/// `(f_eS(h(v)), K(κ(v), ext(v)))`, bucket by bucket. A value listed
/// more than once keeps its last payload.
#[allow(clippy::too_many_arguments)]
pub fn run_equijoin_sender<T, C, R>(
    transport: &mut T,
    group: &QrGroup,
    cipher: &C,
    entries: &[(Vec<u8>, Vec<u8>)],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<EquijoinSenderOutput, ProtocolError>
where
    T: Transport + ?Sized,
    C: ExtCipher + ?Sized,
    R: Rng + ?Sized,
{
    let mut ops = OpCounters::default();
    let values: Vec<Vec<u8>> = entries.iter().map(|(v, _)| v.clone()).collect();
    let payloads: BTreeMap<&Vec<u8>, &Vec<u8>> = entries.iter().map(|(v, p)| (v, p)).collect();
    let prepared = prepare_set(group, &values, &mut ops)?;
    let e_s = group.gen_key(rng);
    let e_s_prime = group.gen_key(rng);
    let (own_values, hashes): (Vec<Vec<u8>>, Vec<UBig>) = prepared.entries.into_iter().unzip();
    ops.encryptions += 2 * hashes.len() as u64;
    // Tags f_eS(h(v)) with their κ seeds f_e'S(h(v)): tag-sorted within
    // the bucket, which is exactly the payload-table order.
    let mut own = OwnList::start(group, pool, vec![&e_s, &e_s_prime], hashes, true, cfg)?;
    let (shards, mut t) = recv_hello_or_pushback(transport)?;
    own.after_hello(shards)?;

    let mut tally = Tally::sender("equijoin");
    for b in 0..shards {
        // Y_R^b in, both re-encryptions per chunk.
        let (pair_jobs, peer_b) = read_chunks(&mut t, group, Order::Strict("Y_R"), |chunk| {
            (
                pool.submit_encrypt(group, &e_s, &chunk),
                pool.submit_encrypt(group, &e_s_prime, &chunk),
            )
        })?;
        ops.encryptions += 2 * peer_b as u64;
        // (f_eS(y), f_e'S(y)), answered chunk for chunk.
        let mut writer =
            ChunkedWriter::begin_with_chunks(&mut t, TAG_CODEWORD_PAIRS, peer_b, pair_jobs.len())?;
        for (tags, kappas) in pair_jobs {
            let pairs: Vec<(UBig, UBig)> = tags.wait().into_iter().zip(kappas.wait()).collect();
            writer.send(&mut t, group, &Message::CodewordPairs(pairs))?;
        }
        writer.finish()?;

        // The bucket's payload table: each member's ext record under its κ.
        let bucket = own.take_bucket(b, shards)?;
        let own_b = bucket.codewords.len();
        let mut payload_pairs: Vec<(UBig, Vec<u8>)> = Vec::with_capacity(own_b);
        for ((tag, kappa), i) in bucket
            .codewords
            .into_iter()
            .zip(bucket.kappas)
            .zip(bucket.idx)
        {
            let v = own_values
                .get(i as usize)
                .ok_or_else(|| shard_err("spill record index out of range"))?;
            ops.payload_encryptions += 1;
            let ext = payloads.get(v).copied().cloned().unwrap_or_default();
            payload_pairs.push((tag, cipher.encrypt(&kappa, &ext)?));
        }
        let chunk = pipe.effective_chunk(payload_pairs.len());
        send_payload_pairs_chunked(&mut t, group, &payload_pairs, chunk)?;
        tally.bucket(b, own_b, peer_b, 2 * (own_b + peer_b));
    }

    let peer_set_size = tally.done(&ops, own_values.len());
    Ok(EquijoinSenderOutput { peer_set_size, ops })
}

// ---------------------------------------------------------------------------
// Intersection size (§5.1)
// ---------------------------------------------------------------------------

/// Intersection-size receiver (`R` side of §5.1): counts
/// `|Z_S ∩ Z_R|` bucket by bucket. With `B > 1` it also learns which
/// bucket each counted match fell in — the per-bucket leak documented in
/// [`crate::leakage`].
pub fn run_intersection_size_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<IntersectionSizeReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let shards = send_hello(transport, cfg)?;
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let hashes: Vec<UBig> = prepared.entries.into_iter().map(|(_, h)| h).collect();
    let own_size = hashes.len();
    ops.encryptions += own_size as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, false, cfg)?;

    let mut tally = Tally::receiver("intersection_size");
    let mut intersection_size = 0usize;
    for b in 0..shards {
        let yr = own.take_bucket(b, shards)?.codewords;
        send_codewords_chunked(transport, group, &yr, pipe.effective_chunk(yr.len()))?;
        // Y_S^b, with Z_S^b jobs per chunk.
        let (zs_jobs, peer_b) = read_chunks(transport, group, Order::Strict("Y_S"), |chunk| {
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        // Z_R^b: sorted within the bucket, pairing destroyed per bucket.
        let zr = read_list(transport, group, Order::Strict("Z_R"), yr.len())?;
        let zs: BTreeSet<UBig> = zs_jobs.into_iter().flat_map(|job| job.wait()).collect();
        intersection_size += zr.iter().filter(|z| zs.contains(z)).count();
        tally.bucket(b, yr.len(), peer_b, yr.len() + peer_b);
    }

    let peer_set_size = tally.done(&ops, own_size);
    Ok(IntersectionSizeReceiverOutput {
        intersection_size,
        peer_set_size,
        ops,
    })
}

/// Intersection-size sender (`S` side of §5.1): answers `Y_R` with `Y_S`
/// and `Z_R = f_eS(Y_R)` reordered lexicographically within each bucket —
/// the §5.1 unlinking step, applied per bucket.
pub fn run_intersection_size_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<IntersectionSizeSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let prepared = prepare_set(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let hashes: Vec<UBig> = prepared.entries.into_iter().map(|(_, h)| h).collect();
    let own_size = hashes.len();
    ops.encryptions += own_size as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, false, cfg)?;
    let (shards, mut t) = recv_hello_or_pushback(transport)?;
    own.after_hello(shards)?;

    let mut tally = Tally::sender("intersection_size");
    for b in 0..shards {
        // Y_R^b in, re-encryption jobs per chunk.
        let (pending, peer_b) = read_chunks(&mut t, group, Order::Strict("Y_R"), |chunk| {
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        // Y_S^b out.
        let ys = own.take_bucket(b, shards)?.codewords;
        send_codewords_chunked(&mut t, group, &ys, pipe.effective_chunk(ys.len()))?;
        // Z_R^b, sorted.
        let mut zr: Vec<UBig> = pending.into_iter().flat_map(|job| job.wait()).collect();
        zr.sort();
        send_codewords_chunked(&mut t, group, &zr, pipe.effective_chunk(zr.len()))?;
        tally.bucket(b, ys.len(), peer_b, ys.len() + peer_b);
    }

    let peer_set_size = tally.done(&ops, own_size);
    Ok(IntersectionSizeSenderOutput { peer_set_size, ops })
}

// ---------------------------------------------------------------------------
// Equijoin size (§5.2, multisets)
// ---------------------------------------------------------------------------

/// Equijoin-size receiver (`R` side of §5.2): the intersection-size
/// rounds on multisets, with the join size and the duplicate-class leak
/// matrix summed over buckets (common codewords share a bucket, so the
/// sums are exact).
pub fn run_equijoin_size_receiver<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<EquijoinSizeReceiverOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let shards = send_hello(transport, cfg)?;
    let prepared = prepare_multiset(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let hashes: Vec<UBig> = prepared.into_iter().map(|(_, h)| h).collect();
    let own_size = hashes.len();
    ops.encryptions += own_size as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, false, cfg)?;

    let mut tally = Tally::receiver("equijoin_size");
    let mut peer_duplicate_distribution: BTreeMap<u64, u64> = BTreeMap::new();
    let mut join_size = 0u64;
    let mut class_intersections: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for b in 0..shards {
        let yr = own.take_bucket(b, shards)?.codewords;
        send_codewords_chunked(transport, group, &yr, pipe.effective_chunk(yr.len()))?;
        // Y_S^b (a multiset), with Z_S^b jobs per chunk.
        let mut ys_counts = BTreeMap::new();
        let (zs_jobs, peer_b) = read_chunks(transport, group, Order::Sorted("Y_S"), |chunk| {
            count_into(&mut ys_counts, &chunk);
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        merge_distribution(&ys_counts, &mut peer_duplicate_distribution);
        // Z_R^b (a multiset, sorted within the bucket).
        let zr = read_list(transport, group, Order::Sorted("Z_R"), yr.len())?;
        let (mut zs_counts, mut zr_counts) = (BTreeMap::new(), BTreeMap::new());
        for job in zs_jobs {
            count_into(&mut zs_counts, &job.wait());
        }
        count_into(&mut zr_counts, &zr);
        for (z, d_r) in &zr_counts {
            if let Some(d_s) = zs_counts.get(z) {
                join_size += d_r * d_s;
                *class_intersections.entry((*d_r, *d_s)).or_insert(0) += 1;
            }
        }
        tally.bucket(b, yr.len(), peer_b, yr.len() + peer_b);
    }

    let peer_multiset_size = tally.done(&ops, own_size);
    Ok(EquijoinSizeReceiverOutput {
        join_size,
        peer_multiset_size,
        peer_duplicate_distribution,
        class_intersections,
        ops,
    })
}

/// Equijoin-size sender (`S` side of §5.2): the intersection-size
/// sender on multisets, learning the receiver's duplicate distribution.
pub fn run_equijoin_size_sender<T: Transport + ?Sized, R: Rng + ?Sized>(
    transport: &mut T,
    group: &QrGroup,
    values: &[Vec<u8>],
    rng: &mut R,
    pool: &EncryptPool,
    pipe: PipelineConfig,
    cfg: &ShardConfig,
) -> Result<EquijoinSizeSenderOutput, ProtocolError> {
    let mut ops = OpCounters::default();
    let prepared = prepare_multiset(group, values, &mut ops)?;
    let key = group.gen_key(rng);
    let hashes: Vec<UBig> = prepared.into_iter().map(|(_, h)| h).collect();
    let own_size = hashes.len();
    ops.encryptions += own_size as u64;
    let mut own = OwnList::start(group, pool, vec![&key], hashes, false, cfg)?;
    let (shards, mut t) = recv_hello_or_pushback(transport)?;
    own.after_hello(shards)?;

    let mut tally = Tally::sender("equijoin_size");
    let mut peer_duplicate_distribution: BTreeMap<u64, u64> = BTreeMap::new();
    for b in 0..shards {
        // Y_R^b (a multiset) in, re-encryption jobs per chunk.
        let mut yr_counts = BTreeMap::new();
        let (pending, peer_b) = read_chunks(&mut t, group, Order::Sorted("Y_R"), |chunk| {
            count_into(&mut yr_counts, &chunk);
            pool.submit_encrypt(group, &key, &chunk)
        })?;
        ops.encryptions += peer_b as u64;
        merge_distribution(&yr_counts, &mut peer_duplicate_distribution);
        // Y_S^b out, duplicates preserved by the merge.
        let ys = own.take_bucket(b, shards)?.codewords;
        send_codewords_chunked(&mut t, group, &ys, pipe.effective_chunk(ys.len()))?;
        // Z_R^b, sorted within the bucket.
        let mut zr: Vec<UBig> = pending.into_iter().flat_map(|job| job.wait()).collect();
        zr.sort();
        send_codewords_chunked(&mut t, group, &zr, pipe.effective_chunk(zr.len()))?;
        tally.bucket(b, ys.len(), peer_b, ys.len() + peer_b);
    }

    let peer_multiset_size = tally.done(&ops, own_size);
    Ok(EquijoinSizeSenderOutput {
        peer_multiset_size,
        peer_duplicate_distribution,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_two_party;
    use crate::{equijoin, equijoin_size, intersection, intersection_size};
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

    /// A tiny budget so even small test sets exercise the spill path.
    fn tiny_cfg(shards: u32) -> ShardConfig {
        ShardConfig {
            shards,
            mem_budget: 64,
            window: 2,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn sharded_intersection_matches_serial_across_shard_counts() {
        let g = group();
        let (vs, vr) = (values(23, 0), values(17, 11));
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
        for shards in [2u32, 3, 8] {
            let pool = EncryptPool::new(2);
            let cfg = tiny_cfg(shards);
            let run = run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(500);
                    run_intersection_sender(
                        t,
                        &g,
                        &vs,
                        &mut rng,
                        &pool,
                        PipelineConfig::chunked(4),
                        &cfg,
                    )
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(600);
                    run_intersection_receiver(
                        t,
                        &g,
                        &vr,
                        &mut rng,
                        &pool,
                        PipelineConfig::chunked(4),
                        &cfg,
                    )
                },
            )
            .unwrap();
            assert_eq!(run.receiver.intersection, serial.receiver.intersection);
            assert_eq!(run.receiver.peer_set_size, serial.receiver.peer_set_size);
            assert_eq!(run.receiver.ops, serial.receiver.ops, "B={shards}");
            assert_eq!(run.sender.peer_set_size, serial.sender.peer_set_size);
            assert_eq!(run.sender.ops, serial.sender.ops, "B={shards}");
        }
    }

    #[test]
    fn sharded_equijoin_matches_serial() {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 64);
        let (vs, vr) = (entry_list(19, 0), values(13, 9));
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
        for shards in [2u32, 5] {
            let pool = EncryptPool::new(2);
            let cfg = tiny_cfg(shards);
            let run = run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(500);
                    run_equijoin_sender(
                        t,
                        &g,
                        &cipher,
                        &vs,
                        &mut rng,
                        &pool,
                        PipelineConfig::chunked(4),
                        &cfg,
                    )
                },
                |t| {
                    let cipher = HybridCipher::new(g.clone(), 64);
                    let mut rng = StdRng::seed_from_u64(600);
                    run_equijoin_receiver(
                        t,
                        &g,
                        &cipher,
                        &vr,
                        &mut rng,
                        &pool,
                        PipelineConfig::chunked(4),
                        &cfg,
                    )
                },
            )
            .unwrap();
            assert_eq!(run.receiver.matches, serial.receiver.matches, "B={shards}");
            assert_eq!(run.receiver.ops, serial.receiver.ops);
            assert_eq!(run.sender.ops, serial.sender.ops);
        }
    }

    #[test]
    fn sharded_intersection_size_matches_serial() {
        let g = group();
        let (vs, vr) = (values(15, 0), values(12, 8));
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(300);
                intersection_size::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(400);
                intersection_size::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let pool = EncryptPool::new(2);
        let cfg = tiny_cfg(4);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(300);
                run_intersection_size_sender(
                    t,
                    &g,
                    &vs,
                    &mut rng,
                    &pool,
                    PipelineConfig::chunked(4),
                    &cfg,
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(400);
                run_intersection_size_receiver(
                    t,
                    &g,
                    &vr,
                    &mut rng,
                    &pool,
                    PipelineConfig::chunked(4),
                    &cfg,
                )
            },
        )
        .unwrap();
        assert_eq!(
            run.receiver.intersection_size,
            serial.receiver.intersection_size
        );
        assert_eq!(run.receiver.ops, serial.receiver.ops);
        assert_eq!(run.sender.ops, serial.sender.ops);
    }

    #[test]
    fn sharded_equijoin_size_matches_serial_with_duplicates() {
        let g = group();
        let mut vs = values(11, 0);
        vs.extend(values(5, 0)); // duplicates
        let mut vr = values(9, 4);
        vr.extend(values(9, 4)); // every value twice
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(700);
                equijoin_size::run_sender(t, &g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(800);
                equijoin_size::run_receiver(t, &g, &vr, &mut rng)
            },
        )
        .unwrap();
        let pool = EncryptPool::new(0);
        let cfg = tiny_cfg(3);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(700);
                run_equijoin_size_sender(
                    t,
                    &g,
                    &vs,
                    &mut rng,
                    &pool,
                    PipelineConfig::chunked(4),
                    &cfg,
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(800);
                run_equijoin_size_receiver(
                    t,
                    &g,
                    &vr,
                    &mut rng,
                    &pool,
                    PipelineConfig::chunked(4),
                    &cfg,
                )
            },
        )
        .unwrap();
        assert_eq!(run.receiver.join_size, serial.receiver.join_size);
        assert_eq!(
            run.receiver.peer_duplicate_distribution,
            serial.receiver.peer_duplicate_distribution
        );
        assert_eq!(
            run.receiver.class_intersections,
            serial.receiver.class_intersections
        );
        assert_eq!(
            run.sender.peer_duplicate_distribution,
            serial.sender.peer_duplicate_distribution
        );
        assert_eq!(run.receiver.ops, serial.receiver.ops);
        assert_eq!(run.sender.ops, serial.sender.ops);
    }

    #[test]
    fn empty_and_disjoint_sets_shard_cleanly() {
        let g = group();
        let pool = EncryptPool::new(1);
        let cfg = tiny_cfg(4);
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                run_intersection_sender(
                    t,
                    &g,
                    &[],
                    &mut rng,
                    &pool,
                    PipelineConfig::default(),
                    &cfg,
                )
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(2);
                run_intersection_receiver(
                    t,
                    &g,
                    &values(5, 0),
                    &mut rng,
                    &pool,
                    PipelineConfig::default(),
                    &cfg,
                )
            },
        )
        .unwrap();
        assert!(run.receiver.intersection.is_empty());
        assert_eq!(run.receiver.peer_set_size, 0);
        assert_eq!(run.sender.peer_set_size, 5);
    }

    #[test]
    fn bucket_assignment_is_stable_and_in_range() {
        let g = group();
        for (i, v) in values(50, 0).iter().enumerate() {
            let b = value_bucket(&g, v, 7).unwrap();
            assert!(b < 7, "value {i} bucket {b}");
            assert_eq!(b, value_bucket(&g, v, 7).unwrap());
        }
        assert_eq!(bucket_of(&[], 5), 0);
        assert_eq!(bucket_of(&[0, 0, 0, 0, 0, 0, 0, 9], 1), 0);
    }

    #[test]
    fn pushback_transport_replays_the_first_frame() {
        let (mut a, mut b) = minshare_net::duplex_pair();
        a.send(b"first").unwrap();
        a.send(b"second").unwrap();
        let (shards, mut pb) = recv_hello_or_pushback(&mut b).unwrap();
        assert_eq!(shards, 1);
        assert_eq!(pb.recv().unwrap(), b"first");
        assert_eq!(pb.recv().unwrap(), b"second");
        // A hello is consumed, not replayed.
        a.send(&encode_shard_hello(3)).unwrap();
        a.send(b"list").unwrap();
        let (shards, mut pb) = recv_hello_or_pushback(&mut b).unwrap();
        assert_eq!(shards, 3);
        assert_eq!(pb.recv().unwrap(), b"list");
    }

    /// A value listed twice in the sender's table keeps its *last*
    /// payload, in the serial reference and the pooled engine alike.
    #[test]
    fn duplicate_value_keeps_its_last_payload() {
        let g = group();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"fig".to_vec(), b"first".to_vec()),
            (b"oak".to_vec(), b"only".to_vec()),
            (b"fig".to_vec(), b"last".to_vec()),
        ];
        let vr = vec![b"fig".to_vec(), b"oak".to_vec()];
        let want = vec![
            (b"fig".to_vec(), b"last".to_vec()),
            (b"oak".to_vec(), b"only".to_vec()),
        ];
        let cipher = HybridCipher::new(g.clone(), 16);
        let serial = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(1);
                equijoin::run_sender(t, &g, &cipher, &entries, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(2);
                equijoin::run_receiver(t, &g, &cipher, &vr, &mut rng)
            },
        )
        .unwrap();
        assert_eq!(serial.receiver.matches, want);
        let pool = EncryptPool::new(1);
        for shards in [1u32, 3] {
            let cfg = ShardConfig::with_shards(shards);
            let pipe = PipelineConfig::default();
            let pooled = run_two_party(
                |t| {
                    let mut rng = StdRng::seed_from_u64(1);
                    run_equijoin_sender(t, &g, &cipher, &entries, &mut rng, &pool, pipe, &cfg)
                },
                |t| {
                    let mut rng = StdRng::seed_from_u64(2);
                    run_equijoin_receiver(t, &g, &cipher, &vr, &mut rng, &pool, pipe, &cfg)
                },
            )
            .unwrap();
            assert_eq!(pooled.receiver.matches, want, "B={shards}");
        }
    }
}

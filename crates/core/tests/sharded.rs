//! Sharded-engine conformance: what the sharding layer promises beyond
//! "same answer". (Wire identity at `--shards 1` — no hello, the serial
//! message sequence — is pinned by the golden transcripts in
//! `transcripts.rs`.)
//!
//! * **Typed rejection of malformed hellos** — a sender offered a
//!   corrupt, zero-bucket, oversized or truncated shard hello fails with
//!   a [`ProtocolError`], never a panic.
//! * **Leakage model ⇔ engine agreement** — the per-bucket
//!   `*_bucket_done` trace events of a real sharded run report exactly
//!   the per-bucket set sizes [`minshare::leakage`] predicts from the
//!   inputs, and the assembled [`BucketTrace`]s reconcile with the §6.1
//!   cost formulas bucket by bucket ([`reconcile_sharded`]).
//! * **Composition laws** (proptests) — per-bucket size disclosures
//!   partition the totals the unsharded protocols already reveal, and
//!   per-bucket §5.2 leak matrices sum cell-for-cell to the global
//!   matrix, for arbitrary multisets under the engine's real bucket
//!   assignment.

use std::sync::{Arc, OnceLock};

use minshare::leakage::{
    bucket_multiset_disclosure, bucket_size_disclosure, bucketed_class_intersections,
    expected_class_intersections, merge_class_intersections,
};
use minshare::prelude::*;
use minshare::shard::{value_bucket, ShardConfig};
use minshare_costmodel::reconcile::{reconcile_sharded, BucketTrace};
use minshare_costmodel::section6::Protocol;
use minshare_net::{NetError, Transport};
use minshare_trace::sink::RingSink;
use minshare_trace::{TraceSink, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5a4d);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

fn pool() -> &'static EncryptPool {
    static POOL: OnceLock<EncryptPool> = OnceLock::new();
    POOL.get_or_init(|| EncryptPool::new(2))
}

fn values(n: usize, offset: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("value-{:04}", i + offset).into_bytes())
        .collect()
}

fn pipe() -> PipelineConfig {
    PipelineConfig {
        chunk_size: 3,
        serial_below: 4,
    }
}

fn single_shard() -> ShardConfig {
    ShardConfig {
        shards: 1,
        ..ShardConfig::default()
    }
}

// ---------------------------------------------------------------------
// Malformed hello rejection
// ---------------------------------------------------------------------

/// Feeds a canned first frame to a sender engine; discards its sends.
struct ScriptedTransport {
    frames: Vec<Vec<u8>>,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, _frame: &[u8]) -> Result<(), NetError> {
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        if self.frames.is_empty() {
            Err(NetError::Closed)
        } else {
            Ok(self.frames.remove(0))
        }
    }
}

#[test]
fn malformed_shard_hellos_are_typed_errors() {
    const TAG_SHARDED: u8 = 5;
    let g = group();
    let vs = values(4, 0);
    let cases: [&[u8]; 4] = [
        &[TAG_SHARDED, 9, 0, 0, 0, 2],       // unsupported version
        &[TAG_SHARDED, 1, 0, 0, 0, 0],       // zero buckets
        &[TAG_SHARDED, 1, 0, 1, 0, 1],       // 65537 > MAX_SHARDS
        &[TAG_SHARDED, 1, 0],                // truncated
    ];
    for (i, hello) in cases.iter().enumerate() {
        let mut t = ScriptedTransport {
            frames: vec![hello.to_vec()],
        };
        let mut rng = StdRng::seed_from_u64(11);
        let result = shard::run_intersection_sender(
            &mut t,
            g,
            &vs,
            &mut rng,
            pool(),
            pipe(),
            &single_shard(),
        );
        assert!(result.is_err(), "case {i}: malformed hello was accepted");
    }
}

// ---------------------------------------------------------------------
// Leakage model ⇔ engine agreement, and §6.1 reconciliation
// ---------------------------------------------------------------------

fn field(event: &minshare_trace::Event, name: &str) -> u64 {
    event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn bucket_events_match_leakage_model_and_reconcile() {
    let g = group();
    let shards = 5u32;
    let (vs, vr) = (values(21, 0), values(17, 9));
    let cfg = ShardConfig {
        shards,
        mem_budget: 1 << 12, // force some spill runs at 64-bit codewords
        ..ShardConfig::default()
    };
    let s_ring = Arc::new(RingSink::new(256));
    let r_ring = Arc::new(RingSink::new(256));
    let run = run_two_party(
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&s_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(12);
            shard::run_intersection_sender(t, g, &vs, &mut rng, pool(), pipe(), &cfg)
        },
        |t| {
            let _trace =
                minshare_trace::install(Tracer::to_sink(Arc::clone(&r_ring) as Arc<dyn TraceSink>));
            let mut rng = StdRng::seed_from_u64(13);
            shard::run_intersection_receiver(t, g, &vr, &mut rng, pool(), pipe(), &cfg)
        },
    )
    .expect("sharded run");

    // Assemble per-bucket traces from both parties' event streams.
    let mut traces = vec![BucketTrace { vs: 0, vr: 0, ce: 0 }; shards as usize];
    for event in s_ring.snapshot().iter().chain(r_ring.snapshot().iter()) {
        if event.scope != "shard" {
            continue;
        }
        let b = field(event, "bucket") as usize;
        match event.name {
            "sender_bucket_done" => {
                traces[b].vs += field(event, "own_items");
                traces[b].ce += field(event, "ce");
            }
            "receiver_bucket_done" => {
                traces[b].vr += field(event, "own_items");
                traces[b].ce += field(event, "ce");
            }
            _ => {}
        }
    }

    // The engine's per-bucket set sizes are exactly what the leakage
    // model predicts from the inputs under the real bucket assignment.
    let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
    let predicted_vs = bucket_size_disclosure(&vs, shards, &assign);
    let predicted_vr = bucket_size_disclosure(&vr, shards, &assign);
    for (b, trace) in traces.iter().enumerate() {
        assert_eq!(trace.vs, predicted_vs[b], "sender bucket {b} size");
        assert_eq!(trace.vr, predicted_vr[b], "receiver bucket {b} size");
    }

    // And the assembled traces reconcile with §6.1 bucket by bucket,
    // including the counted wire traffic (hello + per-bucket frames all
    // fit in the same framing envelope).
    let k_bits = 8 * g.codeword_bytes() as u64;
    let reconciliation = reconcile_sharded(
        Protocol::Intersection,
        k_bits,
        0,
        &traces,
        run.sender_traffic.bytes_sent() + run.receiver_traffic.bytes_sent(),
        run.sender_traffic.frames_sent() + run.receiver_traffic.frames_sent(),
    );
    assert!(
        reconciliation.ok(),
        "sharded reconciliation failed: {}",
        reconciliation.to_json()
    );
}

// ---------------------------------------------------------------------
// Composition laws (proptests)
// ---------------------------------------------------------------------

/// Small multisets over a tiny alphabet, so duplicates and bucket
/// collisions actually happen.
fn multiset() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(0u8..24, 0..40)
        .prop_map(|ids| ids.into_iter().map(|i| format!("v-{i}").into_bytes()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Per-bucket disclosures partition the totals the unsharded
    // protocols already reveal: set sizes sum to the distinct count,
    // multiset sizes to the occurrence count — under the engine's real
    // bucket assignment.
    #[test]
    fn bucket_disclosures_partition_known_totals(vals in multiset(), shards in 1u32..9) {
        let g = group();
        let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
        let set_sizes = bucket_size_disclosure(&vals, shards, &assign);
        prop_assert_eq!(set_sizes.len(), shards as usize);
        let distinct: std::collections::BTreeSet<&Vec<u8>> = vals.iter().collect();
        prop_assert_eq!(set_sizes.iter().sum::<u64>(), distinct.len() as u64);
        let multi_sizes = bucket_multiset_disclosure(&vals, shards, &assign);
        prop_assert_eq!(multi_sizes.iter().sum::<u64>(), vals.len() as u64);
    }

    // The per-bucket §5.2 leak matrices of a sharded equijoin-size run
    // sum cell-for-cell to the global matrix: sharding refines the
    // paper's leak by bucket, it never invents or destroys cells.
    #[test]
    fn bucketed_leak_matrices_sum_to_global(
        vr in multiset(),
        vs in multiset(),
        shards in 1u32..6,
    ) {
        let g = group();
        let assign = |v: &[u8]| value_bucket(g, v, shards).expect("bucket");
        let per_bucket = bucketed_class_intersections(&vr, &vs, shards, &assign);
        prop_assert_eq!(per_bucket.len(), shards as usize);
        prop_assert_eq!(
            merge_class_intersections(&per_bucket),
            expected_class_intersections(&vr, &vs)
        );
    }
}

//! Golden wire transcripts of daemon sessions.
//!
//! Each case runs [`Service::handle`] against the matching
//! `run_client_*_sharded` helper over an in-memory duplex link on the
//! 64-bit test group, records every frame each side sends, and compares
//! one SHA-256 per side to a committed constant. The constants pin the
//! wire format of all four protocols across bucket counts and chunk
//! sizes: any change to frame order, framing, chunking, codeword order or
//! payload encryption moves a digest.
//!
//! The matrix:
//! * intersection and equijoin × `B ∈ {1, 3}` × {default, `chunked(3)`};
//! * both -size variants × `B = 3` × the same two configs;
//! * both -size variants × `B = 1` × default, where every list fits in
//!   one chunk.
//!
//! The daemon's list holds duplicate values with differing payloads, so
//! the equijoin cases also pin which payload a duplicate keeps.

use std::sync::{Arc, Mutex, OnceLock};

use minshare::prelude::*;
use minshare_hash::Sha256;
use minshare_net::{duplex_pair, FrameBatch, NetError, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RECORD_LEN: usize = 24;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x7a5c);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

/// The daemon's table: 22 distinct values, six of them listed twice with
/// a different payload each time (28 entries, under one default chunk).
fn daemon_entries() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..22)
        .map(|i| {
            (
                format!("item-{i:03}").into_bytes(),
                format!("row:{i}:a").into_bytes(),
            )
        })
        .collect();
    for i in (0..22).step_by(4) {
        entries.push((
            format!("item-{i:03}").into_bytes(),
            format!("row:{i}:b").into_bytes(),
        ));
    }
    entries
}

/// The client's list: 19 values, 11 of them shared with the daemon, with
/// two duplicates for the multiset protocol.
fn client_values() -> Vec<Vec<u8>> {
    let mut values: Vec<Vec<u8>> = (11..28)
        .map(|i| format!("item-{i:03}").into_bytes())
        .collect();
    values.push(b"item-012".to_vec());
    values.push(b"item-013".to_vec());
    values
}

/// Forwards to `inner` and hashes every frame it sends, length-prefixed.
struct Recording<T> {
    inner: T,
    digest: Arc<Mutex<Sha256>>,
}

fn recording<T: Transport>(inner: T) -> (Recording<T>, Arc<Mutex<Sha256>>) {
    let digest = Arc::new(Mutex::new(Sha256::new()));
    (
        Recording {
            inner,
            digest: digest.clone(),
        },
        digest,
    )
}

impl<T: Transport> Transport for Recording<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        {
            let mut d = self.digest.lock().unwrap();
            d.update(&(frame.len() as u32).to_be_bytes());
            d.update(frame);
        }
        self.inner.send(frame)
    }

    fn send_batch(&mut self, batch: FrameBatch) -> Result<(), NetError> {
        for frame in batch.frames() {
            self.send(frame)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
}

fn hex_digest(digest: &Mutex<Sha256>) -> String {
    let bytes = digest.lock().unwrap().clone().finalize();
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs one daemon session and returns `(daemon digest, client digest)`.
fn transcript(protocol: ProtocolKind, shards: u32, config: PipelineConfig) -> (String, String) {
    let g = group();
    let service = Service::new(
        g.clone(),
        daemon_entries(),
        EncryptPool::new(1),
        config,
        RECORD_LEN,
        0x601d,
    );
    let (server_end, client_end) = duplex_pair();
    let (server_t, server_digest) = recording(server_end);
    let (client_t, client_digest) = recording(client_end);
    let request = SessionRequest::new(protocol).encode();
    let cfg = ShardConfig::with_shards(shards);
    let client_pool = EncryptPool::new(1);
    let values = client_values();
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(0xc1);
            let (g, pool, vals) = (g, &client_pool, &values);
            let rng = &mut rng;
            match protocol {
                ProtocolKind::Intersection => {
                    run_client_intersection_sharded(client_t, g, vals, rng, pool, config, &cfg)
                        .map(drop)
                }
                ProtocolKind::Equijoin => run_client_equijoin_sharded(
                    client_t, g, vals, rng, pool, config, RECORD_LEN, &cfg,
                )
                .map(drop),
                ProtocolKind::IntersectionSize => {
                    run_client_intersection_size_sharded(client_t, g, vals, rng, pool, config, &cfg)
                        .map(drop)
                }
                ProtocolKind::EquijoinSize => {
                    run_client_equijoin_size_sharded(client_t, g, vals, rng, pool, config, &cfg)
                        .map(drop)
                }
            }
        });
        service.handle(1, &request, server_t).expect("daemon side");
        client.join().unwrap().expect("client side");
    });
    (hex_digest(&server_digest), hex_digest(&client_digest))
}

fn check(protocol: ProtocolKind, shards: u32, config: PipelineConfig, golden: (&str, &str)) {
    let (daemon, client) = transcript(protocol, shards, config);
    assert_eq!(
        (daemon.as_str(), client.as_str()),
        golden,
        "{} B={shards} chunk={} transcript moved",
        protocol.name(),
        config.chunk_size
    );
}

#[test]
fn intersection_transcripts() {
    let p = ProtocolKind::Intersection;
    check(
        p,
        1,
        PipelineConfig::default(),
        (
            "d79f60cda97d2f232e0ed98e10c164726d24bde0707314b4734ef157ff49774e",
            "fd538ce52d1b59df87f81265a6dfc64a0ee3f204a72fe0791954518259e498cb",
        ),
    );
    check(
        p,
        1,
        PipelineConfig::chunked(3),
        (
            "29f63680b52e391b0116e27cb54927184eb2dfb41d3756a3db0f38542f492919",
            "feaf5d6abe54efceaa4fcb1a46d5e55042b6aa7e91a9345883424dcaee1fd752",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::default(),
        (
            "5410915a493d7dcf51013b0661526f7367d935372c17042399ebdaa4aed17c98",
            "39f0ce8e4a85b3fae94cf7b352a9addf880801f7d6bfd87e612ee0b6e8bdb7c1",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::chunked(3),
        (
            "a59e634a99eb3005e3069c595df384092413f0155662ac096f8dee8496f11213",
            "0853b09561cf0a4d52cf873236fd6ab686b6ca12c96c642aa923a8d48cfd2541",
        ),
    );
}

#[test]
fn equijoin_transcripts() {
    let p = ProtocolKind::Equijoin;
    check(
        p,
        1,
        PipelineConfig::default(),
        (
            "6d55779e476b24faa844d1504e7de2cb827599daa3b43b7864f5ac535d37b1cf",
            "fd538ce52d1b59df87f81265a6dfc64a0ee3f204a72fe0791954518259e498cb",
        ),
    );
    check(
        p,
        1,
        PipelineConfig::chunked(3),
        (
            "bc34b1920438fd0b53d1bf9292f9f2450edbf09196a15b7aee61716fd4068d0a",
            "feaf5d6abe54efceaa4fcb1a46d5e55042b6aa7e91a9345883424dcaee1fd752",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::default(),
        (
            "872c7aa269ed1edbba3128c0506ed530d585fce029ea841acfc373d9ca0449f7",
            "39f0ce8e4a85b3fae94cf7b352a9addf880801f7d6bfd87e612ee0b6e8bdb7c1",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::chunked(3),
        (
            "6726903c890bf5488997798b35650aceb10f7868c6da9e732973f01eff0e49a5",
            "0853b09561cf0a4d52cf873236fd6ab686b6ca12c96c642aa923a8d48cfd2541",
        ),
    );
}

#[test]
fn intersection_size_transcripts() {
    let p = ProtocolKind::IntersectionSize;
    check(
        p,
        1,
        PipelineConfig::default(),
        (
            "4e4b840d05cf17240b2688cac1abc970c645c2804ef0059d9a718f5deb3f51df",
            "fd538ce52d1b59df87f81265a6dfc64a0ee3f204a72fe0791954518259e498cb",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::default(),
        (
            "e35c41fb56f7383f0244e8742f17221a7b3ed9ae494633dcf048ec9b6d52ef87",
            "39f0ce8e4a85b3fae94cf7b352a9addf880801f7d6bfd87e612ee0b6e8bdb7c1",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::chunked(3),
        (
            "2d1d3d8ff827953f9fc2cd8c0e7683e7e7e21de08661f45f18e3331719da6b67",
            "0853b09561cf0a4d52cf873236fd6ab686b6ca12c96c642aa923a8d48cfd2541",
        ),
    );
}

#[test]
fn equijoin_size_transcripts() {
    let p = ProtocolKind::EquijoinSize;
    check(
        p,
        1,
        PipelineConfig::default(),
        (
            "2765981da4ab31a17ac392d054c93681481588e65479d9ca781e488d21c78ad7",
            "f380bd542bd0c441d87c278fcefd6600092f3a0bd1f7776f7d332fff529aaf2e",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::default(),
        (
            "d29ce53e40b2bb9d8ac504dfa16665b6ef106e1071cf82c4db858dc5c574f99c",
            "bab4d7a3e37484ed8755f389eee9c4693887ccee4e49e1b7aadf8cc9501870d1",
        ),
    );
    check(
        p,
        3,
        PipelineConfig::chunked(3),
        (
            "878f813240e62196a6feb5b5bcd177735f56554071fcc2b1ae1d3df75a810fe4",
            "35bcb81d6a9b87c6595718b7d5438bc9516e3d1880c7a156d9b403b6529bd38d",
        ),
    );
}

//! The ladder: direct, timed calls into single public functions of each
//! layer, so a per-layer cost has a number that does not depend on the
//! cluster around it. Each rung runs for a fixed share of a small time
//! budget and reports nanoseconds per call.

use crate::cluster::{client_salt, AppSpec};
use neobft::aom::{AomBatch, Envelope};
use neobft::app::{App, KvApp, KvOp};
use neobft::core::{BatchRequest, NeoMsg, Reply, SignedBatch};
use neobft::crypto::mac::hmac_vector;
use neobft::crypto::{
    sha256, CostModel, Digest, HmacKey, NodeCrypto, Principal, SequencerKeyPair, SignKeyPair, SystemKeys,
};
use neobft::sim::Store;
use neobft::store::FileStore;
use neobft::wire::{ClientId, ReplicaId, RequestId, SlotNum, ViewId};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time `f` repeatedly for about `budget` and return ns per call.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    // One call to size the batches, so a slow rung is not run thousands
    // of times past its budget.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let batch = (budget.as_nanos() / 20 / once.as_nanos()).clamp(1, 100_000) as u32;
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..batch {
            f();
        }
        calls += u64::from(batch);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Per-call costs of the layers' building blocks.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub hmac_tag_ns: f64,
    pub hmac_vector4_ns: f64,
    pub hmac_vector100_ns: f64,
    pub ed25519_sign_ns: f64,
    pub ed25519_verify_ns: f64,
    pub verify_batch16_ns_per_sig: f64,
    pub k256_sign_ns: f64,
    pub k256_verify_ns: f64,
    pub sha256_64b_ns: f64,
    pub file_append_flush_us: f64,
    pub kv_read_ns: f64,
    pub kv_update_ns: f64,
}

/// Run every rung. `app` fixes the operation size of the codec rungs and
/// `batch` the operations per envelope; `scratch` hosts the store rung.
pub fn run(seed: u64, app: &AppSpec, batch: usize, scratch: &Path, budget: Duration) -> Ladder {
    let rung = budget / 14;
    let mut out = Ladder::default();

    // wire: the request envelope a client multicasts and the reply a
    // replica returns, at this workload's operation size.
    let ops = app.workload(client_salt(seed, 0)).next_ops(batch.max(1));
    let replicas = 4;
    let request = SignedBatch {
        batch: BatchRequest {
            ops: AomBatch { ops: ops.clone() },
            first_request_id: RequestId(1),
            client: ClientId(0),
        },
        auth: vec![[7u8; 8]; replicas],
    };
    let reply = NeoMsg::Reply(
        Reply {
            view: ViewId::INITIAL,
            replica: ReplicaId(0),
            slot: SlotNum(1),
            log_hash: Digest::ZERO,
            request_id: RequestId(1),
            results: ops.clone(),
        },
        [9u8; 8],
    );
    let request_bytes = request.to_bytes();
    let reply_payload = reply.to_payload();
    out.wire_encode_ns = time_ns(rung, || {
        black_box(black_box(&request).to_bytes());
        black_box(black_box(&reply).to_payload());
    });
    out.wire_decode_ns = time_ns(rung, || {
        black_box(SignedBatch::from_bytes(black_box(&request_bytes)));
        if let Ok(Envelope::App(bytes)) = Envelope::from_bytes(black_box(&reply_payload)) {
            black_box(NeoMsg::from_app_bytes(&bytes));
        }
    });

    // crypto.
    let msg = [0x5au8; 64];
    let keys: Vec<HmacKey> = (0..100u8).map(|i| HmacKey([i; 16])).collect();
    out.hmac_tag_ns = time_ns(rung, || {
        black_box(keys[0].tag(black_box(&msg)));
    });
    out.hmac_vector4_ns = time_ns(rung, || {
        black_box(hmac_vector(&keys[..4], black_box(&msg)));
    });
    out.hmac_vector100_ns = time_ns(rung, || {
        black_box(hmac_vector(&keys, black_box(&msg)));
    });
    let mut key_seed = [0u8; 32];
    key_seed[..8].copy_from_slice(&seed.to_le_bytes());
    let signer = SignKeyPair::from_seed(key_seed);
    let verifier = signer.verify_key();
    let signature = signer.sign(&msg);
    out.ed25519_sign_ns = time_ns(rung, || {
        black_box(signer.sign(black_box(&msg)));
    });
    out.ed25519_verify_ns = time_ns(rung, || {
        black_box(verifier.verify(black_box(&msg), &signature)).ok();
    });
    let system = SystemKeys::new(seed, 4, 1);
    let replica1 = NodeCrypto::new(Principal::Replica(ReplicaId(1)), &system, CostModel::FREE);
    let replica0 = NodeCrypto::new(Principal::Replica(ReplicaId(0)), &system, CostModel::FREE);
    let confirm = replica1.sign(&msg);
    let items: Vec<_> = (0..16)
        .map(|_| (Principal::Replica(ReplicaId(1)), &msg[..], &confirm))
        .collect();
    out.verify_batch16_ns_per_sig = time_ns(rung, || {
        black_box(replica0.verify_batch(black_box(&items)));
    }) / 16.0;
    let sequencer = SequencerKeyPair::from_seed(key_seed);
    let sequencer_vk = sequencer.verify_key();
    let stamp = sequencer.sign(&msg);
    out.k256_sign_ns = time_ns(rung, || {
        black_box(sequencer.sign(black_box(&msg)));
    });
    out.k256_verify_ns = time_ns(rung, || {
        black_box(sequencer_vk.verify(black_box(&msg), &stamp)).ok();
    });
    out.sha256_64b_ns = time_ns(rung, || {
        black_box(sha256(black_box(&msg)));
    });

    // store: one 256 B record appended and flushed, where the workload's
    // stores live.
    let dir = scratch.join(format!("ladder-store-{}", std::process::id()));
    let mut store = FileStore::open(&dir);
    let record = [0xa5u8; 256];
    out.file_append_flush_us = time_ns(rung, || {
        store.append(&record);
        black_box(store.flush());
    }) / 1e3;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // app: one read and one update of the loaded key-value store.
    let mut kv = KvApp::loaded(10_000, 128);
    let read = KvOp::Get {
        key: "user4242".to_string(),
    }
    .to_bytes();
    let update = KvOp::Put {
        key: "user4242".to_string(),
        value: vec![0x11; 128],
    }
    .to_bytes();
    out.kv_read_ns = time_ns(rung, || {
        black_box(kv.execute(black_box(&read)));
    });
    out.kv_update_ns = time_ns(rung, || {
        black_box(kv.execute(black_box(&update)));
        // Keep the undo log from growing with the rung's length.
        kv.compact(0);
    });
    out
}

/// `fdatasync` of a 256 B append on the device behind `dir`, µs: what one
/// WAL flush costs below the store's own code.
pub fn fsync_dev_us(dir: &Path, budget: Duration) -> f64 {
    use std::io::Write;
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let Ok(mut file) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let us = time_ns(budget, || {
        let _ = file.write_all(&[0u8; 256]);
        let _ = file.sync_data();
    }) / 1e3;
    drop(file);
    let _ = std::fs::remove_file(&path);
    us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_reports_a_positive_cost() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch");
        std::fs::create_dir_all(&scratch).unwrap();
        let l = run(3, &AppSpec::Echo { size: 64 }, 1, &scratch, Duration::from_millis(140));
        for (name, v) in [
            ("wire_encode", l.wire_encode_ns),
            ("wire_decode", l.wire_decode_ns),
            ("hmac_tag", l.hmac_tag_ns),
            ("hmac_vector4", l.hmac_vector4_ns),
            ("hmac_vector100", l.hmac_vector100_ns),
            ("ed25519_sign", l.ed25519_sign_ns),
            ("ed25519_verify", l.ed25519_verify_ns),
            ("verify_batch16", l.verify_batch16_ns_per_sig),
            ("k256_sign", l.k256_sign_ns),
            ("k256_verify", l.k256_verify_ns),
            ("sha256", l.sha256_64b_ns),
            ("file_append_flush", l.file_append_flush_us),
            ("kv_read", l.kv_read_ns),
            ("kv_update", l.kv_update_ns),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name}: {v}");
        }
        // A vector of 100 tags costs more than one of 4, which costs more
        // than one tag.
        assert!(l.hmac_vector100_ns > l.hmac_vector4_ns && l.hmac_vector4_ns > l.hmac_tag_ns);
        assert!(fsync_dev_us(&scratch, Duration::from_millis(20)) > 0.0);
    }
}

//! The simulator's durability backend.
//!
//! A [`MemDisk`] is the "device": shared, it survives the node that
//! writes to it. A [`MemStore`] is one node's handle — buffered appends
//! live in the handle, durable state lives on the disk, so dropping the
//! handle (a simulated crash) loses exactly the writes that were never
//! flushed. The chaos runner keeps a registry of disks and hands the
//! same disk to a restarted replica.

use neo_sim::store::Store;
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Default)]
struct DiskInner {
    wal: Vec<Vec<u8>>,
    checkpoint: Option<Vec<u8>>,
}

/// The durable half: survives crashes (handle drops).
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<DiskInner>>,
}

impl MemDisk {
    /// A fresh, empty disk.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One node's handle on a [`MemDisk`], with a volatile append buffer.
pub struct MemStore {
    disk: MemDisk,
    buffer: Vec<Vec<u8>>,
    fsync_model_ns: u64,
}

impl MemStore {
    /// Open `disk` with a modeled per-flush fsync cost for the simulator.
    pub fn open(disk: MemDisk, fsync_model_ns: u64) -> Self {
        MemStore {
            disk,
            buffer: Vec::new(),
            fsync_model_ns,
        }
    }
}

impl Store for MemStore {
    fn append(&mut self, record: &[u8]) {
        self.buffer.push(record.to_vec());
    }

    fn dirty(&self) -> bool {
        !self.buffer.is_empty()
    }

    fn flush(&mut self) -> u64 {
        let bytes = self.buffer.iter().map(|r| r.len() as u64).sum();
        if bytes > 0 {
            self.disk.inner.lock().wal.append(&mut self.buffer);
        }
        bytes
    }

    fn put_checkpoint(&mut self, blob: &[u8]) {
        self.disk.inner.lock().checkpoint = Some(blob.to_vec());
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.disk.inner.lock().checkpoint.clone()
    }

    fn log_records(&self) -> Vec<Vec<u8>> {
        self.disk.inner.lock().wal.clone()
    }

    fn reset_log(&mut self, records: &[Vec<u8>]) {
        self.disk.inner.lock().wal = records.to_vec();
    }

    fn fsync_model_ns(&self) -> u64 {
        self.fsync_model_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflushed_appends_die_with_the_handle() {
        let disk = MemDisk::new();
        let mut store = MemStore::open(disk.clone(), 0);
        store.append(b"durable");
        assert!(store.dirty());
        assert_eq!(store.flush(), 7);
        assert!(!store.dirty());
        store.append(b"volatile");
        drop(store); // crash: the buffered record is gone
        let reopened = MemStore::open(disk, 0);
        assert_eq!(reopened.log_records(), vec![b"durable".to_vec()]);
    }

    #[test]
    fn checkpoint_and_compaction_survive_reopen() {
        let disk = MemDisk::new();
        let mut store = MemStore::open(disk.clone(), 0);
        for r in [&b"a"[..], b"b", b"c"] {
            store.append(r);
        }
        store.flush();
        store.put_checkpoint(b"snapshot@2");
        store.reset_log(&[b"c".to_vec()]);
        drop(store);
        let reopened = MemStore::open(disk, 0);
        assert_eq!(reopened.checkpoint(), Some(b"snapshot@2".to_vec()));
        assert_eq!(reopened.log_records(), vec![b"c".to_vec()]);
    }

    #[test]
    fn model_cost_is_reported_to_the_executor() {
        let store = MemStore::open(MemDisk::new(), 50_000);
        assert_eq!(store.fsync_model_ns(), 50_000);
        assert_eq!(MemStore::open(MemDisk::new(), 0).fsync_model_ns(), 0);
    }
}

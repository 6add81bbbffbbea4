// The other half of the `split_owner` fixture: the state and the
// helpers `handlers.rs` calls. Expected: exactly 1 R8 finding here, at
// the `.unwrap()` in `Replica::decode_strict` (reached from `on_raw`).
// `Sequencer` has helpers of the same names: a `self.` call binds to
// the caller's own `impl`, so they stay out of it. Lint input, never
// compiled.
use std::collections::BTreeMap;

struct Exec {
    client_table: BTreeMap<ClientId, u64>,
}

impl Replica {
    fn apply_reply(&mut self, m: Reply) {
        self.exec.client_table.insert(m.client, 0);
    }

    fn decode_strict(&self, bytes: &[u8]) -> Msg {
        decode(bytes).unwrap()
    }
}

impl Sequencer {
    fn apply_reply(&mut self, m: Reply) {
        self.client_table.insert(m.client, 0);
    }

    fn decode_strict(&self, bytes: &[u8]) -> Msg {
        decode(bytes).expect("sequencer input is local")
    }
}

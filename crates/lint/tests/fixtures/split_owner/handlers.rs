// Fixture for the helper walk across the files of one split `impl`
// (with `state.rs`, which declares the state and the helpers). Expected:
// exactly 1 R6 finding here — `on_reply` calls `apply_reply`, which
// writes `client_table` over there, and nobody verifies — and 1 R8
// finding in `state.rs`. This file declares no map, so its own
// replicated universe is empty: the write is caught only because the
// helper is checked against the universe of the file it lives in. This
// file is lint input, never compiled.

struct Replica {
    exec: Exec,
}

impl Replica {
    // BAD (R6): the helper mutates one call deep, in another file.
    fn on_reply(&mut self, m: Reply) {
        self.apply_reply(m);
    }

    // GOOD: same helper, but the handler authenticates before the call.
    fn on_reply_checked(&mut self, m: Reply) {
        if !self.verify_sig(&m) {
            return;
        }
        self.apply_reply(m);
    }

    // BAD (R8): the helper unwraps, in another file.
    fn on_raw(&mut self, bytes: &[u8]) {
        let _ = self.decode_strict(bytes);
    }
}

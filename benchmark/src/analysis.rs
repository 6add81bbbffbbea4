//! After a traced run: link each received message to the handler that sent
//! it, measure the hops between them, and fold the spans of each request
//! into a waterfall — the chain of handlers, flushes and hops that ends in
//! the client's commit, with every nanosecond between the request's send
//! and its commit attributed to exactly one phase.

use crate::stats;
use crate::trace::Span;
use neobft::wire::Addr;
use std::collections::{BTreeMap, HashMap};

/// How far back to look for the handler that sent a message.
const SENDER_SCAN: usize = 64;
/// Longest causal chain followed from a commit back to its send.
const MAX_CHAIN: usize = 48;

fn kind(addr: Addr) -> &'static str {
    match addr {
        Addr::Replica(_) => "replica",
        Addr::Client(_) => "client",
        Addr::Sequencer(_) | Addr::Multicast(_) => "sequencer",
        Addr::Config => "config",
    }
}

/// Does a send to `dest` arrive at `node`? A multicast goes to the group's
/// sequencer.
fn delivers_to(dest: Addr, node: Addr) -> bool {
    match (dest, node) {
        (Addr::Multicast(g), Addr::Sequencer(s)) => g == s,
        _ => dest == node,
    }
}

fn is_handler(span: &Span) -> bool {
    span.name.starts_with("node.")
}

fn has_event(span: &Span, kind: &str) -> Option<u64> {
    span.events.iter().find(|(k, _)| *k == kind).map(|(_, at)| *at)
}

/// All spans of a run, indexed.
pub struct Trace {
    pub spans: Vec<Span>,
    by_id: HashMap<u64, usize>,
    /// Handler spans per node, ordered by end time.
    handlers: HashMap<Addr, Vec<usize>>,
    /// `store.flush` spans per node, ordered by start time.
    flushes: HashMap<Addr, Vec<usize>>,
    /// Leaf spans (app and store calls) by the handler that made them.
    children: HashMap<u64, Vec<usize>>,
}

impl Trace {
    pub fn new(mut spans: Vec<Span>) -> Trace {
        spans.sort_by_key(|s| (s.start, s.id));
        let mut t = Trace {
            by_id: HashMap::new(),
            handlers: HashMap::new(),
            flushes: HashMap::new(),
            children: HashMap::new(),
            spans,
        };
        for (i, s) in t.spans.iter().enumerate() {
            t.by_id.insert(s.id, i);
            if is_handler(s) {
                t.handlers.entry(s.node).or_default().push(i);
            } else if s.name == "store.flush" {
                t.flushes.entry(s.node).or_default().push(i);
            } else if s.cause != 0 {
                t.children.entry(s.cause).or_default().push(i);
            }
        }
        let spans = &t.spans;
        for list in t.handlers.values_mut() {
            list.sort_by_key(|&i| spans[i].end);
        }
        t.link_causes();
        t
    }

    fn get(&self, id: u64) -> Option<&Span> {
        self.by_id.get(&id).map(|&i| &self.spans[i])
    }

    /// Give every `on_message` span its cause: the latest handler on the
    /// sending node that finished before the message arrived and sent
    /// these very bytes (by digest) to the receiver.
    fn link_causes(&mut self) {
        let mut links = Vec::new();
        for (i, r) in self.spans.iter().enumerate() {
            let Some((from, digest)) = r.from else {
                continue;
            };
            let Some(candidates) = self.handlers.get(&from) else {
                continue;
            };
            let upto = candidates.partition_point(|&c| self.spans[c].end <= r.start);
            let sender = candidates[..upto].iter().rev().take(SENDER_SCAN).find(|&&c| {
                self.spans[c]
                    .sends
                    .iter()
                    .any(|(dest, _, sent)| *sent == digest && delivers_to(*dest, r.node))
            });
            if let Some(&c) = sender {
                links.push((i, self.spans[c].id));
            }
        }
        for (i, cause) in links {
            self.spans[i].cause = cause;
        }
    }

    /// When the messages of handler `s` could leave its node: after the
    /// store flush the executor runs between the handler and its sends,
    /// if there was one before `before`.
    fn departure(&self, s: &Span, before: u64) -> (u64, Option<&Span>) {
        let flush = self.flushes.get(&s.node).and_then(|list| {
            let at = list.partition_point(|&f| self.spans[f].start < s.end);
            list.get(at).map(|&f| &self.spans[f]).filter(|f| f.end <= before)
        });
        match flush {
            Some(f) => (f.end, Some(f)),
            None => (s.end, None),
        }
    }

    /// Durations of every sender-to-receiver hop, ns.
    pub fn hops(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|r| r.from.is_some() && r.cause != 0)
            .filter_map(|r| {
                let s = self.get(r.cause)?;
                Some(r.start.saturating_sub(self.departure(s, r.start).0))
            })
            .collect()
    }

    /// Split a handler's duration into its own time and its children's.
    fn handler_phases(&self, s: &Span, out: &mut Vec<(String, u64)>) {
        let mut covered = 0;
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for &c in self.children.get(&s.id).map_or(&[][..], Vec::as_slice) {
            let child = &self.spans[c];
            let d = child.end - child.start;
            covered += d;
            *by_name.entry(child.name).or_default() += d;
        }
        // `out` runs backwards in time: children first, the handler's own
        // time last, so the reversed list reads handler, then children.
        for (name, d) in by_name.into_iter().rev() {
            out.push((format!("{} {name}", kind(s.node)), d));
        }
        out.push((
            format!("{} handler", kind(s.node)),
            (s.end - s.start).saturating_sub(covered),
        ));
    }

    /// The phases of the request whose commit `commit` observed, newest
    /// first, or `None` if the chain back to its send is incomplete.
    fn request_phases(&self, commit: &Span, committed_at: u64) -> Option<(u64, Vec<(String, u64)>)> {
        let mut phases = vec![("client quorum".to_string(), committed_at.saturating_sub(commit.start))];
        let mut cur = commit;
        for _ in 0..MAX_CHAIN {
            let cause = self.get(cur.cause)?;
            if cur.from.is_some() {
                let (left_at, flush) = self.departure(cause, cur.start);
                phases.push((
                    format!("hop {}>{}", kind(cause.node), kind(cur.node)),
                    cur.start.saturating_sub(left_at),
                ));
                if let Some(f) = flush {
                    phases.push((format!("{} store.flush", kind(cause.node)), f.end - f.start));
                    phases.push((
                        format!("{} runtime", kind(cause.node)),
                        f.start.saturating_sub(cause.end),
                    ));
                }
            } else {
                phases.push((
                    format!("{} timer wait", kind(cur.node)),
                    cur.start.saturating_sub(cause.end),
                ));
            }
            if let (Addr::Client(_), Some(sent_at)) = (cause.node, has_event(cause, "client_send")) {
                // The request entered the system here: only what the
                // handler did after the send event belongs to it.
                phases.push(("client send".to_string(), cause.end.saturating_sub(sent_at)));
                return Some((sent_at, phases));
            }
            self.handler_phases(cause, &mut phases);
            cur = cause;
        }
        None
    }

    /// Fold the captured requests into a waterfall.
    pub fn waterfall(&self) -> Waterfall {
        let mut requests: Vec<(u64, Vec<(String, u64)>)> = Vec::new();
        let mut commits = 0;
        for s in &self.spans {
            let Some(committed_at) = has_event(s, "client_commit") else {
                continue;
            };
            commits += 1;
            if let Some((sent_at, phases)) = self.request_phases(s, committed_at) {
                requests.push((committed_at.saturating_sub(sent_at), phases));
            }
        }
        let mut latencies: Vec<u64> = requests.iter().map(|(l, _)| *l).collect();
        latencies.sort_unstable();
        if latencies.is_empty() {
            return Waterfall {
                commits_seen: commits,
                ..Waterfall::default()
            };
        }
        // The requests around the median: their phase means add up to
        // their mean latency, which is the median to within the band.
        let lo = stats::percentile(&latencies, 0.45);
        let hi = stats::percentile(&latencies, 0.55);
        let band: Vec<&(u64, Vec<(String, u64)>)> = requests.iter().filter(|(l, _)| *l >= lo && *l <= hi).collect();
        let mut order: Vec<String> = Vec::new();
        let mut totals: HashMap<String, u64> = HashMap::new();
        for (_, phases) in &band {
            // Phases were collected from the commit backwards.
            for (name, d) in phases.iter().rev() {
                if !totals.contains_key(name) {
                    order.push(name.clone());
                }
                *totals.entry(name.clone()).or_default() += d;
            }
        }
        let n = band.len() as f64;
        let rows: Vec<(String, f64)> = order
            .into_iter()
            .map(|name| {
                let us = totals[&name] as f64 / n / 1e3;
                (name, us)
            })
            .collect();
        Waterfall {
            commits_seen: commits,
            requests_resolved: requests.len(),
            band_requests: band.len(),
            p50_us: stats::percentile(&latencies, 0.5) as f64 / 1e3,
            sum_us: rows.iter().map(|(_, us)| us).sum(),
            rows,
        }
    }
}

/// Mean time per phase over the requests nearest the median latency.
#[derive(Clone, Debug, Default)]
pub struct Waterfall {
    pub commits_seen: usize,
    pub requests_resolved: usize,
    pub band_requests: usize,
    /// Median send-to-commit time of the resolved requests.
    pub p50_us: f64,
    pub sum_us: f64,
    /// Phase and mean microseconds, in path order from the client's send.
    pub rows: Vec<(String, f64)>,
}

impl Waterfall {
    pub fn render(&self) -> String {
        let mut out = format!(
            "one-request waterfall ({} of {} captured commits resolved; mean over the {} nearest the median)\n",
            self.requests_resolved, self.commits_seen, self.band_requests
        );
        for (name, us) in &self.rows {
            out.push_str(&format!("  {name:<28} {us:>10.2} us\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>10.2} us   (median send-to-commit {:.2} us)\n",
            "sum", self.sum_us, self.p50_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neobft::wire::{ClientId, GroupId, ReplicaId};

    const CLIENT: Addr = Addr::Client(ClientId(0));
    const SEQ: Addr = Addr::Sequencer(GroupId(0));
    const R0: Addr = Addr::Replica(ReplicaId(0));

    fn span(id: u64, node: Addr, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            cause: 0,
            node,
            name,
            start,
            end,
            from: None,
            sends: Vec::new(),
            events: Vec::new(),
        }
    }

    /// One request through client → sequencer → replica (app + WAL + flush)
    /// → client, on a made-up timeline.
    fn one_request() -> Vec<Span> {
        let mut send = span(1, CLIENT, "node.on_timer", 0, 100);
        send.sends.push((Addr::Multicast(GroupId(0)), 90, 0xa));
        send.events.push(("client_send", 40));
        let mut stamp = span(2, SEQ, "node.on_message", 150, 170);
        stamp.from = Some((CLIENT, 0xa));
        stamp.sends.push((R0, 120, 0xb));
        let mut exec = span(3, R0, "node.on_message", 200, 300);
        exec.from = Some((SEQ, 0xb));
        exec.sends.push((CLIENT, 60, 0xc));
        let mut app = span(4, R0, "app.execute", 210, 240);
        app.cause = 3;
        let mut wal = span(5, R0, "store.append", 250, 260);
        wal.cause = 3;
        let mut flush = span(6, R0, "store.flush", 310, 360);
        flush.cause = 3;
        let mut commit = span(7, CLIENT, "node.on_message", 400, 450);
        commit.from = Some((R0, 0xc));
        commit.events.push(("client_commit", 430));
        vec![commit, flush, wal, app, exec, stamp, send]
    }

    #[test]
    fn causes_follow_the_messages_and_hops_start_after_the_flush() {
        let t = Trace::new(one_request());
        let cause_of = |id: u64| t.get(id).unwrap().cause;
        assert_eq!((cause_of(2), cause_of(3), cause_of(7)), (1, 2, 3));
        let mut hops = t.hops();
        hops.sort_unstable();
        // client→seq 150−100, seq→replica 200−170, replica→client 400−360.
        assert_eq!(hops, [30, 40, 50]);
    }

    #[test]
    fn waterfall_phases_sum_to_the_send_to_commit_time() {
        let w = Trace::new(one_request()).waterfall();
        assert_eq!((w.commits_seen, w.requests_resolved, w.band_requests), (1, 1, 1));
        let rows: Vec<(&str, f64)> = w.rows.iter().map(|(n, us)| (n.as_str(), *us * 1e3)).collect();
        assert_eq!(
            rows,
            [
                ("client send", 60.0),
                ("hop client>sequencer", 50.0),
                ("sequencer handler", 20.0),
                ("hop sequencer>replica", 30.0),
                ("replica handler", 60.0),
                ("replica app.execute", 30.0),
                ("replica store.append", 10.0),
                ("replica runtime", 10.0),
                ("replica store.flush", 50.0),
                ("hop replica>client", 40.0),
                ("client quorum", 30.0),
            ]
        );
        // 430 − 40: every nanosecond is in exactly one phase.
        assert!((w.sum_us * 1e3 - 390.0).abs() < 1e-6);
        assert!((w.p50_us * 1e3 - 390.0).abs() < 1e-6);
        assert!(w.render().contains("hop replica>client"));
    }

    #[test]
    fn digests_keep_two_interleaved_clients_apart() {
        // Client 1's request is stamped *after* client 0's, and the replica
        // handles client 0's packet only once both stamps are done: the
        // latest sequencer span before the replica's handler is the wrong
        // one, and only the digest finds the right one.
        let other = Addr::Client(ClientId(1));
        let mut spans = one_request();
        let mut send1 = span(11, other, "node.on_timer", 0, 120);
        send1.sends.push((Addr::Multicast(GroupId(0)), 90, 0x1a));
        send1.events.push(("client_send", 100));
        let mut stamp1 = span(12, SEQ, "node.on_message", 175, 195);
        stamp1.from = Some((other, 0x1a));
        stamp1.sends.push((R0, 120, 0x1b));
        spans.extend([send1, stamp1]);
        let t = Trace::new(spans);
        assert_eq!(t.get(3).unwrap().cause, 2);
        let w = t.waterfall();
        assert_eq!(w.requests_resolved, 1);
        assert!((w.sum_us * 1e3 - 390.0).abs() < 1e-6);
    }

    #[test]
    fn a_commit_without_a_traceable_send_is_counted_but_not_resolved() {
        let mut spans = one_request();
        spans.retain(|s| s.id != 2);
        let w = Trace::new(spans).waterfall();
        assert_eq!((w.commits_seen, w.requests_resolved), (1, 0));
        assert!(w.rows.is_empty());
    }
}

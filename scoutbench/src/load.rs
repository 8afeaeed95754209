//! The load generator: `clients` threads, one keep-alive connection
//! each, pulling positions of one shared seeded stream.
//!
//! Closed-loop mixes send a client's next request when its previous one
//! completes. The open-loop mix follows the stream's arrival schedule:
//! whichever connection is free takes the next due alert, waits until it
//! is due and sends it, so one slow fan-out delays neither the schedule
//! nor the clock — latency counts from the instant the alert was due.

use crate::harness::{percentile_or_highest, sorted};
use crate::render;
use crate::setup::Counters;
use crate::traffic::{Firing, Mix, Traffic};
use serve::Client;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply slower than this is a failure, whatever it says.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What came back for one stream position.
#[derive(Debug, Clone)]
pub struct Reply {
    pub index: u64,
    /// When the request was sent (closed loop) or due (open loop), in
    /// nanoseconds after the generator started.
    pub start_ns: u64,
    /// From `start_ns` to the last body byte.
    pub latency_ns: u64,
    /// Open loop: how long after its due time the request was sent.
    pub lag_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub suppressed: bool,
    /// Digest of the canonical body.
    pub digest: u64,
    /// The body itself, for the positions the oracle reads.
    pub body: Option<String>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) && self.latency_ns <= REPLY_TIMEOUT.as_nanos() as u64
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.latency_ns
    }
}

/// One warm-up plus measured window.
pub struct Drive {
    /// Every reply received, warm-up included, in stream order.
    pub replies: Vec<Reply>,
    /// The measured window, in nanoseconds after the generator started.
    pub window_ns: (u64, u64),
    pub before: Counters,
    pub after: Counters,
    /// First stream position never handed to a client.
    pub next_index: u64,
}

impl Drive {
    /// Replies that count toward the end-to-end metrics: started in the
    /// window and — in a closed loop, where the window's end cuts the
    /// last requests short — finished in it.
    pub fn measured(&self, open_loop: bool) -> impl Iterator<Item = &Reply> {
        let (t0, t1) = self.window_ns;
        self.replies
            .iter()
            .filter(move |r| r.start_ns >= t0 && r.start_ns < t1 && (open_loop || r.end_ns() <= t1))
    }
}

impl Drive {
    /// How late the open-loop generator sent its measured requests, at
    /// the 99th percentile, in milliseconds (0 for a closed loop, which
    /// has no schedule to be late for).
    pub fn lag_p99_ms(&self, open_loop: bool) -> f64 {
        if !open_loop {
            return 0.0;
        }
        let lags = sorted(self.measured(true).map(|r| r.lag_ns as f64 / 1e6).collect());
        percentile_or_highest(&lags, 99.0)
    }
}

fn wait_until(epoch: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    // Sleep most of the way, spin the last stretch: `sleep` overshoots by
    // a scheduler quantum, which would show up as generator lag.
    if let Some(left) = due.checked_sub(epoch.elapsed() + Duration::from_micros(300)) {
        std::thread::sleep(left);
    }
    while epoch.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// One stream position ready to go out.
struct Outgoing {
    index: u64,
    firing: Firing,
    body: String,
    /// Open loop: when it is due, in nanoseconds after `epoch`.
    due_ns: Option<u64>,
}

impl Outgoing {
    fn at(traffic: &Traffic<'_>, index: u64) -> Outgoing {
        let firing = traffic.firing(index);
        Outgoing {
            index,
            body: firing.body(),
            firing,
            due_ns: traffic.due_ns(index),
        }
    }
}

/// Which reply bodies survive for the oracle: `(position, firing,
/// suppressed)`.
pub type Keep<'a> = &'a (dyn Fn(u64, &Firing, bool) -> bool + Sync);

/// Send `out` on `client` and describe what came back.
fn exchange(
    client: &mut Client,
    mix: Mix,
    out: &Outgoing,
    epoch: Instant,
    keep: Keep<'_>,
) -> Reply {
    let sent_ns = epoch.elapsed().as_nanos() as u64;
    let start_ns = out.due_ns.unwrap_or(sent_ns);
    let result = client.post_json(mix.path(), &out.body);
    let latency_ns = epoch.elapsed().as_nanos() as u64 - start_ns;
    let mut reply = Reply {
        index: out.index,
        start_ns,
        latency_ns,
        lag_ns: sent_ns - start_ns,
        status: 0,
        suppressed: false,
        digest: 0,
        body: None,
    };
    if let Ok(resp) = result {
        let text = resp.body_text();
        reply.status = resp.status;
        reply.suppressed = render::is_suppressed(&text);
        reply.digest = render::digest(&render::canonical(mix, &text));
        if keep(out.index, &out.firing, reply.suppressed) {
            reply.body = Some(text);
        }
    }
    reply
}

/// Run `warmup` then `window` of load against `addr`. `snapshot` is
/// called at the window's two edges; `keep` decides which reply bodies
/// survive for the oracle.
pub fn drive(
    addr: &str,
    traffic: &Traffic<'_>,
    clients: usize,
    warmup: Duration,
    window: Duration,
    snapshot: &(dyn Fn() -> Counters + Sync),
    keep: Keep<'_>,
) -> Drive {
    let next = AtomicU64::new(0);
    // Lowest position a client took but found due after the end.
    let unsent = AtomicU64::new(u64::MAX);
    let end = warmup + window;
    let end_ns = end.as_nanos() as u64;
    // Connect before the clock starts: the handshake is set-up.
    let connections: Vec<Client> = (0..clients)
        .map(|_| Client::connect(addr).expect("connect to the server under test"))
        .collect();
    let epoch = Instant::now();
    let (mut replies, before, after) = std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .into_iter()
            .map(|mut client| {
                let (next, unsent) = (&next, &unsent);
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    loop {
                        if epoch.elapsed() >= end {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if traffic.due_ns(index).is_some_and(|due| due >= end_ns) {
                            unsent.fetch_min(index, Ordering::Relaxed);
                            break;
                        }
                        let out = Outgoing::at(traffic, index);
                        if let Some(due) = out.due_ns {
                            wait_until(epoch, due);
                        }
                        let reply = exchange(&mut client, traffic.mix(), &out, epoch, keep);
                        let transport_error = reply.status == 0;
                        replies.push(reply);
                        if transport_error {
                            // The connection is in an unknown state; a
                            // server that refuses a new one ends this
                            // client, and the failures stand.
                            match Client::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    replies
                })
            })
            .collect();
        std::thread::sleep(warmup.saturating_sub(epoch.elapsed()));
        let before = snapshot();
        std::thread::sleep(end.saturating_sub(epoch.elapsed()));
        let after = snapshot();
        let replies: Vec<Reply> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("a load-generator thread panicked"))
            .collect();
        (replies, before, after)
    });
    replies.sort_by_key(|r| r.index);
    Drive {
        replies,
        window_ns: (warmup.as_nanos() as u64, end_ns),
        before,
        after,
        next_index: next.into_inner().min(unsent.into_inner()),
    }
}

/// Send positions `range` one after another on a single connection and
/// return their replies — the single-caller baseline the latency ledger
/// is compared with.
pub fn single_caller(addr: &str, traffic: &Traffic<'_>, range: std::ops::Range<u64>) -> Vec<Reply> {
    let mut client = Client::connect(addr).expect("connect to the server under test");
    let epoch = Instant::now();
    range
        .map(|index| {
            // Sent back to back, whatever the mix's schedule says.
            let out = Outgoing {
                due_ns: None,
                ..Outgoing::at(traffic, index)
            };
            exchange(&mut client, traffic.mix(), &out, epoch, &|_, _, _| true)
        })
        .collect()
}

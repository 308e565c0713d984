//! The load phases: two connections, each on its own thread, recording
//! one raw sample per request.

use crate::http::Conn;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One `/expand` exchange as the client saw it.
pub struct Record {
    /// Position in the phase's draw sequence.
    pub seq: usize,
    /// Pool index of the query sent.
    pub query: usize,
    /// Seconds from the scheduled send time (open loop) or the actual
    /// send time (closed loop) to the last byte of the reply.
    pub latency_s: f64,
    /// Seconds the send started after its scheduled time (open loop).
    pub late_s: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Phase {
    pub name: &'static str,
    /// The timed round the window belongs to (0 for the warm-up).
    pub round: usize,
    pub records: Vec<Record>,
    pub elapsed_s: f64,
    pub connects: u64,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.records.len()
    }

    pub fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.status == 200).count()
    }

    pub fn failed(&self) -> usize {
        self.attempted() - self.ok()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.status == 200)
            .map(|r| r.latency_s * 1e3)
            .collect()
    }
}

const CONNECTIONS: usize = 2;

/// Run `worker` on `CONNECTIONS` connections: one on a spawned thread,
/// one on the calling thread.
fn two_connections<F>(addr: &str, worker: F) -> (Vec<Record>, u64)
where
    F: Fn(&mut Conn, &mut Vec<Record>) + Sync,
{
    let run = |out: &mut Vec<Record>| {
        let mut conn = Conn::new(addr);
        worker(&mut conn, out);
        conn.connects
    };
    let ((mut a, ca), (b, cb)) = std::thread::scope(|s| {
        let other = s.spawn(|| {
            let mut out = Vec::new();
            let c = run(&mut out);
            (out, c)
        });
        let mut out = Vec::new();
        let c = run(&mut out);
        ((out, c), other.join().expect("load thread panicked"))
    });
    debug_assert_eq!(CONNECTIONS, 2);
    a.extend(b);
    a.sort_by_key(|r| r.seq);
    (a, ca + cb)
}

fn exchange(conn: &mut Conn, body: &[u8]) -> (u16, Vec<u8>) {
    match conn.call("POST", "/expand", body) {
        Ok(reply) => (reply.status, reply.body),
        Err(_) => (0, Vec::new()),
    }
}

/// Open loop: request `i` is due at `start + arrivals[i]` whatever the
/// server is doing; whichever connection is free takes the next due
/// request, and its latency counts from the due time.
pub fn open_loop(
    addr: &str,
    bodies: &[Vec<u8>],
    draws: &[usize],
    arrivals: &[f64],
    round: usize,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let (records, connects) = two_connections(addr, |conn, out| loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if seq >= draws.len() {
            break;
        }
        let due = start + Duration::from_secs_f64(arrivals[seq]);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (status, body) = exchange(conn, &bodies[draws[seq]]);
        let done = Instant::now();
        out.push(Record {
            seq,
            query: draws[seq],
            latency_s: done.duration_since(due).as_secs_f64(),
            late_s: sent.duration_since(due).as_secs_f64(),
            status,
            body,
        });
    });
    Phase {
        name: "open",
        round,
        records,
        elapsed_s: start.elapsed().as_secs_f64(),
        connects,
    }
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply arrives, until `duration` has passed. `draws` is
/// consumed in order from position `first` and wraps around.
pub fn closed_loop(
    addr: &str,
    bodies: &[Vec<u8>],
    draws: &[usize],
    first: usize,
    duration: Duration,
    round: usize,
) -> Phase {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let end = start + duration;
    let (records, connects) = two_connections(addr, |conn, out| {
        while Instant::now() < end {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let query = draws[seq % draws.len()];
            let sent = Instant::now();
            let (status, body) = exchange(conn, &bodies[query]);
            out.push(Record {
                seq,
                query,
                latency_s: sent.elapsed().as_secs_f64(),
                late_s: 0.0,
                status,
                body,
            });
        }
    });
    Phase {
        name: "closed",
        round,
        records,
        elapsed_s: start.elapsed().as_secs_f64(),
        connects,
    }
}

/// Warm-up: `draws` sent closed-loop over the two connections.
pub fn warm_up(addr: &str, bodies: &[Vec<u8>], draws: &[usize]) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (records, connects) = two_connections(addr, |conn, out| loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if seq >= draws.len() {
            break;
        }
        let sent = Instant::now();
        let (status, body) = exchange(conn, &bodies[draws[seq]]);
        out.push(Record {
            seq,
            query: draws[seq],
            latency_s: sent.elapsed().as_secs_f64(),
            late_s: 0.0,
            status,
            body,
        });
    });
    Phase {
        name: "warmup",
        round: 0,
        records,
        elapsed_s: start.elapsed().as_secs_f64(),
        connects,
    }
}

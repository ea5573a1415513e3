//! The load generator for `serve-mixed`: an open loop that sends on a
//! fixed schedule whatever the server does, and a closed loop that sends
//! a connection's next request when the previous one is answered.
//!
//! Each connection has a sending and a receiving thread, both asleep or
//! blocked nearly all the time; connections are never more than `nproc`.

use crate::http::{Connection, Receiver, Sender};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request of a generated list.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// When the request is due, in µs after the start of the phase.
    pub due_us: u64,
    pub method: &'static str,
    pub target: String,
    pub body: String,
    /// Reads and updates are reported apart.
    pub update: bool,
    /// FNV of the expected body without its trailing newline; `None`
    /// accepts any 200.
    pub expect: Option<u64>,
    /// Index, in the same connection's list, of a request whose response
    /// must have arrived before this one is sent (a delete waits for the
    /// acknowledgement of its insert, as a real client would).
    pub after: Option<usize>,
}

/// What happened to one request. Times are ns after the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    pub update: bool,
}

impl Done {
    /// Latency as the user sees it, in µs: from when the request was due,
    /// so the wait a stall imposes on later requests is counted.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// How late the generator sent it, in µs.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// From send to answer, in µs.
    pub fn service_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e3
    }
}

/// Due times, in µs, of an open loop at `rate` requests per second for
/// `seconds`: request `k` is due at `k / rate` whatever happened to the
/// requests before it.
pub fn schedule(rate: f64, seconds: f64) -> Vec<u64> {
    let total = (rate * seconds).floor() as u64;
    (0..total)
        .map(|k| (k as f64 * 1e6 / rate).round() as u64)
        .collect()
}

/// A response is right when it is a 200 carrying the expected answer.
pub fn check(expect: Option<u64>, status: u16, body: &[u8]) -> bool {
    status == 200 && expect.is_none_or(|want| crate::inputs::is_answer(body, want))
}

/// Send each connection's list on its schedule and collect what happened,
/// per connection, in request order. A request that fails, or is never
/// answered because its connection broke, is reported `ok: false`.
pub fn open_loop(addr: &str, lists: &[Vec<Request>]) -> Result<Vec<Vec<Done>>, String> {
    let conns: Vec<Connection> = lists
        .iter()
        .map(|_| Connection::open(addr))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now() + Duration::from_millis(2);
    Ok(std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(lists)
            .map(|(conn, list)| scope.spawn(move || drive(conn, list, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    }))
}

fn ns_since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

fn drive(conn: Connection, list: &[Request], t0: Instant) -> Vec<Done> {
    let (mut tx, mut rx): (Sender, Receiver) = conn.split();
    // `answered` publishes how many responses have arrived; `sent[i]` is
    // written before request i goes out, so its response cannot be read
    // before it is set. SeqCst on both keeps the reasoning simple.
    let answered = AtomicUsize::new(0);
    let sent: Vec<AtomicU64> = list.iter().map(|_| AtomicU64::new(u64::MAX)).collect();
    let mut done: Vec<Done> = list
        .iter()
        .map(|r| {
            let due_ns = r.due_us * 1000;
            Done {
                due_ns,
                sent_ns: due_ns,
                done_ns: due_ns,
                ok: false,
                update: r.update,
            }
        })
        .collect();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, r) in list.iter().enumerate() {
                if let Some(dep) = r.after {
                    while answered.load(Ordering::SeqCst) <= dep {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                let due = t0 + Duration::from_micros(r.due_us);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent[i].store(ns_since(t0), Ordering::SeqCst);
                if tx.send(r.method, &r.target, r.body.as_bytes()).is_err() {
                    // Unblock the receiver; what was not sent stays failed.
                    tx.close();
                    return;
                }
            }
        });
        for (i, r) in list.iter().enumerate() {
            let Ok(response) = rx.receive() else { break };
            done[i].done_ns = ns_since(t0);
            done[i].ok = check(r.expect, response.status, &response.body);
            answered.store(i + 1, Ordering::SeqCst);
        }
        // Let a sender that waits on an answer that will never come go on.
        answered.store(usize::MAX, Ordering::SeqCst);
    });
    for (d, s) in done.iter_mut().zip(&sent) {
        let at = s.load(Ordering::SeqCst);
        if at != u64::MAX {
            d.sent_ns = at;
        }
    }
    done
}

/// Closed loop: each of `conns` connections sends `next(conn, i)` as soon
/// as its previous request is answered, for `seconds`. Returns what
/// happened per connection and the wall time of the phase.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    seconds: f64,
    next: impl Fn(usize, usize) -> Request + Sync,
) -> Result<(Vec<Vec<Done>>, f64), String> {
    let connections: Vec<Connection> = (0..conns)
        .map(|_| Connection::open(addr))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let next = &next;
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut i = 0;
                    while t0.elapsed().as_secs_f64() < seconds {
                        let r = next(c, i);
                        let sent_ns = ns_since(t0);
                        let ok = conn
                            .request(r.method, &r.target, r.body.as_bytes())
                            .is_ok_and(|resp| check(r.expect, resp.status, &resp.body));
                        done.push(Done {
                            due_ns: sent_ns,
                            sent_ns,
                            done_ns: ns_since(t0),
                            ok,
                            update: r.update,
                        });
                        i += 1;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    Ok((done, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn schedule_is_fixed_by_rate_alone() {
        assert_eq!(schedule(1000.0, 0.005), vec![0, 1000, 2000, 3000, 4000]);
        // Whole requests only, and none at or past the end of the phase.
        let due = schedule(300.0, 1.0);
        assert_eq!(due.len(), 300);
        assert!(due.iter().all(|&d| d < 1_000_000));
    }

    /// A server that answers each bodiless request after `delay`.
    fn slow_server(delay: Duration, requests: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut seen, mut answered) = (Vec::new(), 0);
            let mut buf = [0u8; 4096];
            while answered < requests {
                let n = s.read(&mut buf).unwrap_or(0);
                if n == 0 {
                    return;
                }
                seen.extend_from_slice(&buf[..n]);
                while let Some(end) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
                    seen.drain(..end + 4);
                    std::thread::sleep(delay);
                    s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n")
                        .unwrap();
                    answered += 1;
                }
            }
        });
        (addr, handle)
    }

    fn get(due_us: u64) -> Request {
        Request {
            due_us,
            method: "GET",
            target: "/x".into(),
            body: String::new(),
            update: false,
            expect: None,
            after: None,
        }
    }

    #[test]
    fn due_times_do_not_wait_for_responses_and_latency_counts_from_due() {
        // Five requests due 2 ms apart to a server that takes 10 ms each:
        // an open loop still sends on schedule, so responses queue up and
        // latency, counted from the due time, grows request by request.
        let (addr, server) = slow_server(Duration::from_millis(10), 5);
        let list: Vec<Request> = (0..5).map(|k| get(k * 2000)).collect();
        let done = open_loop(&addr, std::slice::from_ref(&list))
            .unwrap()
            .remove(0);
        server.join().unwrap();
        assert!(done.iter().all(|d| d.ok));
        for (d, r) in done.iter().zip(&list) {
            assert_eq!(d.due_ns, r.due_us * 1000);
            // Sent on schedule (within generous scheduling slack), not
            // after the previous response ~10 ms later.
            assert!(d.late_us() < 5_000.0, "late by {} us", d.late_us());
        }
        assert!(done[4].latency_us() > done[0].latency_us() + 25_000.0);
        assert!(done[4].latency_us() >= 40_000.0);
    }

    #[test]
    fn a_dependent_request_waits_for_its_answer_and_reports_lateness() {
        let (addr, server) = slow_server(Duration::from_millis(15), 2);
        let mut second = get(1000);
        second.after = Some(0);
        let done = open_loop(&addr, &[vec![get(0), second]]).unwrap().remove(0);
        server.join().unwrap();
        // Due at 1 ms but held until the first answer (~15 ms): the hold
        // shows as generator lateness and inside the latency.
        assert!(done[1].sent_ns >= done[0].done_ns);
        assert!(done[1].late_us() >= 10_000.0);
        assert!(done[1].latency_us() >= done[1].late_us());
    }

    #[test]
    fn closed_loop_sends_only_after_each_answer() {
        let (addr, server) = slow_server(Duration::from_millis(5), 4);
        // The phase ends by time; the stub server ends after 4 requests.
        let (done, wall) = closed_loop(&addr, 1, 0.018, |_, i| get(i as u64)).unwrap();
        let done = &done[0];
        assert!(done.len() >= 3 && done.len() <= 4, "{}", done.len());
        assert!(done.windows(2).all(|w| w[1].sent_ns >= w[0].done_ns));
        assert!(wall >= 0.018);
        server.join().unwrap();
    }
}

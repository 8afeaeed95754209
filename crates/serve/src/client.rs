//! A minimal blocking HTTP/1.1 client for the serve endpoints, and the
//! one closed-loop traffic driver built on it.
//!
//! [`Client`] is used by everything in this workspace that needs to
//! *talk* to the server without curl — `scoutctl probe`/`flight`, the
//! integration tests. Keep-alive by default; one connection per
//! [`Client`]. [`drive`] is the replay loop behind `scoutctl
//! loadgen`/`fleetgen`/`stormgen` and the HTTP benches, with the
//! [`percentile`] they all report.

use crate::http::reason;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Is the status 2xx?
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A client error: connect/IO failure or a malformed response.
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClientError {}

/// One keep-alive connection to a serve instance.
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClientError(format!("cannot connect to {addr}: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        // Requests are small and latency-sensitive; Nagle + delayed ACK
        // would add tens of milliseconds per exchange.
        stream.set_nodelay(true).ok();
        let writer = stream
            .try_clone()
            .map_err(|e| ClientError(format!("cannot clone stream: {e}")))?;
        Ok(Client {
            addr: addr.to_string(),
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, &[], b"")
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> Result<ClientResponse, ClientError> {
        self.request(
            "POST",
            path,
            &[("Content-Type", "application/json")],
            body.as_bytes(),
        )
    }

    /// `POST path` with a JSON body, retrying up to `retries` times on
    /// `429`/`503` and honoring the server's `Retry-After` hint (capped
    /// at `max_wait` per attempt so an aggressive hint can't stall a
    /// caller). Returns the last response once retries are exhausted —
    /// callers still see the final 429/503 and its headers.
    pub fn post_json_retry(
        &mut self,
        path: &str,
        body: &str,
        retries: u32,
        max_wait: Duration,
    ) -> Result<ClientResponse, ClientError> {
        let mut response = self.post_json(path, body)?;
        for _ in 0..retries {
            if response.status != 429 && response.status != 503 {
                break;
            }
            let hint_secs: u64 = response
                .header("Retry-After")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            let wait = Duration::from_secs(hint_secs).min(max_wait);
            std::thread::sleep(wait);
            response = self.post_json(path, body)?;
        }
        Ok(response)
    }

    /// Send one request and read one response on this connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        // One write, one segment: a split head/body write interacts with
        // Nagle + delayed ACK and stalls the exchange.
        let mut frame = head.into_bytes();
        frame.extend_from_slice(body);
        self.writer
            .write_all(&frame)
            .and_then(|()| self.writer.flush())
            .map_err(|e| ClientError(format!("write to {} failed: {e}", self.addr)))?;
        self.read_response()
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| ClientError(format!("read from {} failed: {e}", self.addr)))?;
        if line.is_empty() {
            return Err(ClientError(format!("{} closed the connection", self.addr)));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ClientError(format!("malformed status line {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| ClientError(format!("short body from {}: {e}", self.addr)))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Human-readable `status reason` for CLI output.
pub fn status_line(status: u16) -> String {
    format!("{status} {}", reason(status))
}

/// What one [`drive`] call measured.
#[derive(Debug)]
pub struct Run<R> {
    /// `(latency_ms, result)` per shot, in shot order.
    pub shots: Vec<(f64, R)>,
    /// Wall seconds from before the first connect to the last reply.
    pub wall_s: f64,
}

impl<R> Run<R> {
    /// Shots per wall second.
    pub fn throughput_rps(&self) -> f64 {
        self.shots.len() as f64 / self.wall_s
    }

    /// Latencies of the shots whose result `keep` accepts, ascending —
    /// the input [`percentile`] expects.
    pub fn latencies_ms(&self, keep: impl Fn(&R) -> bool) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .shots
            .iter()
            .filter(|(_, r)| keep(r))
            .map(|(ms, _)| *ms)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// Replay `shots` requests against `addr` in a closed loop over `conns`
/// keep-alive connections.
///
/// Lane `w` is one scoped thread owning one [`Client`]; it runs shots
/// `w, w + conns, w + 2·conns, …` back to back, each a call of
/// `shot(&mut client, index)` that sends the request(s) and classifies
/// the reply. The call is timed, so a shot's latency covers its retries.
/// No more lanes are opened than there are shots.
///
/// The first shot (or connect) that returns an error stops the run:
/// every lane finishes the shot it is in and starts no other, and the
/// error comes back prefixed with the lowest failed shot index. A panic
/// inside `shot` resumes on the calling thread.
pub fn drive<R, F>(addr: &str, conns: usize, shots: usize, shot: F) -> Result<Run<R>, ClientError>
where
    R: Send,
    F: Fn(&mut Client, usize) -> Result<R, ClientError> + Sync,
{
    let lanes = conns.max(1).min(shots);
    let stop = AtomicBool::new(false);
    let lane = |w: usize| -> Result<Vec<(f64, R)>, (usize, ClientError)> {
        let fail = |i: usize, e: ClientError| {
            stop.store(true, Ordering::Relaxed);
            (i, e)
        };
        let mut client = Client::connect(addr).map_err(|e| fail(w, e))?;
        let mut done = Vec::with_capacity(shots / lanes + 1);
        for i in (w..shots).step_by(lanes) {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let t0 = Instant::now();
            let result = shot(&mut client, i).map_err(|e| fail(i, e))?;
            done.push((t0.elapsed().as_secs_f64() * 1e3, result));
        }
        Ok(done)
    };
    let lane = &lane;
    let started = Instant::now();
    let per_lane: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes).map(|w| scope.spawn(move || lane(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut done = Vec::with_capacity(lanes);
    let mut errors = Vec::new();
    for result in per_lane {
        match result {
            Ok(lane_shots) => done.push(lane_shots.into_iter()),
            Err(e) => errors.push(e),
        }
    }
    if let Some((i, e)) = errors.into_iter().min_by_key(|(i, _)| *i) {
        return Err(ClientError(format!("shot {i}: {e}")));
    }
    let shots = (0..shots)
        .map(|i| done[i % lanes].next().expect("every lane ran its stride"))
        .collect();
    Ok(Run { shots, wall_s })
}

/// Percentile of an already-sorted sample (nearest-rank on n-1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    /// `(connection, request body)` per request served, in arrival order.
    type EchoLog = Arc<Mutex<Vec<(usize, String)>>>;

    /// A bare keep-alive echo server: answers every POST with its own
    /// body and logs it.
    fn echo_server() -> (String, EchoLog) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let log = EchoLog::default();
        let seen = Arc::clone(&log);
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                let (stream, seen) = (stream.unwrap(), Arc::clone(&seen));
                std::thread::spawn(move || serve_echo(conn, stream, &seen));
            }
        });
        (addr, log)
    }

    fn serve_echo(conn: usize, stream: TcpStream, seen: &Mutex<Vec<(usize, String)>>) {
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        loop {
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return; // client hung up
                }
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    len = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            let body = String::from_utf8(body).unwrap();
            let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n{body}");
            seen.lock().unwrap().push((conn, body));
            writer.write_all(reply.as_bytes()).unwrap();
        }
    }

    fn echo_shot(client: &mut Client, i: usize) -> Result<usize, ClientError> {
        let resp = client.post_json("/echo", &i.to_string())?;
        resp.body_text()
            .parse()
            .map_err(|e| ClientError(format!("bad echo: {e}")))
    }

    #[test]
    fn results_come_back_in_shot_order_and_every_shot_is_sent_once() {
        for conns in [1, 3, 8] {
            // 5 shots over 8 connections: more lanes asked for than shots.
            for shots in [0, 5, 20] {
                let (addr, log) = echo_server();
                let run = drive(&addr, conns, shots, echo_shot).unwrap();
                let got: Vec<usize> = run.shots.iter().map(|(_, r)| *r).collect();
                assert_eq!(got, (0..shots).collect::<Vec<_>>(), "{conns} conns");
                assert!(run.shots.iter().all(|(ms, _)| *ms >= 0.0) && run.wall_s >= 0.0);

                let log = log.lock().unwrap();
                let mut sent: Vec<usize> = log.iter().map(|(_, b)| b.parse().unwrap()).collect();
                sent.sort_unstable();
                assert_eq!(sent, got, "a shot was dropped or sent twice");
                // One connection per lane, each walking its own stride.
                let lanes = conns.min(shots);
                let mut by_conn = std::collections::BTreeMap::<usize, Vec<usize>>::new();
                for (conn, body) in log.iter() {
                    by_conn
                        .entry(*conn)
                        .or_default()
                        .push(body.parse().unwrap());
                }
                assert_eq!(by_conn.len(), lanes);
                for stride in by_conn.values() {
                    let w = stride[0];
                    let expected: Vec<usize> = (w..shots).step_by(lanes).collect();
                    assert_eq!(stride, &expected, "{conns} conns, {shots} shots");
                }
            }
        }
    }

    #[test]
    fn a_shot_error_stops_the_run_and_names_the_shot() {
        let (addr, log) = echo_server();
        let failing = |client: &mut Client, i: usize| match i {
            7 => Err(ClientError("server answered 500: boom".into())),
            _ => echo_shot(client, i),
        };
        let err = drive(&addr, 1, 20, failing).unwrap_err();
        assert_eq!(err.to_string(), "shot 7: server answered 500: boom");
        assert_eq!(log.lock().unwrap().len(), 7, "shots after the failure ran");

        // Several lanes: the others are held inside their first shot until
        // shot 7 has failed, so all but a handful of the 200 must go unsent.
        let (addr, log) = echo_server();
        let failed = AtomicBool::new(false);
        let gated = |client: &mut Client, i: usize| {
            if i == 7 {
                failed.store(true, Ordering::SeqCst);
            } else if i % 3 != 1 {
                while !failed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            failing(client, i)
        };
        let err = drive(&addr, 3, 200, gated).unwrap_err();
        assert!(err.to_string().starts_with("shot 7: "), "{err}");
        assert!(log.lock().unwrap().len() < 100, "the other lanes ran on");

        let refused = drive("127.0.0.1:1", 2, 4, echo_shot).unwrap_err();
        assert!(refused.to_string().starts_with("shot 0: cannot connect"));
    }

    #[test]
    fn latencies_filter_and_sort() {
        let run = Run {
            shots: vec![(3.0, true), (1.0, false), (2.0, true)],
            wall_s: 0.5,
        };
        assert_eq!(run.latencies_ms(|_| true), vec![1.0, 2.0, 3.0]);
        assert_eq!(run.latencies_ms(|keep| *keep), vec![2.0, 3.0]);
        assert_eq!(run.throughput_rps(), 6.0);
    }

    #[test]
    fn percentile_is_nearest_rank_on_n_minus_one() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 0.0), 7.5);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&ten, 50.0), 6.0); // 4.5 rounds away from zero
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&ten, 250.0), 10.0); // clamped, never out of bounds
    }
}

//! The connection layer of socket mode: accept loop, one reader and one
//! reply writer per connection, and the hand-off to the worker pool.
//!
//! A reply's latency is set by its own path, not by a timer. Two things
//! make that true, and both are needed:
//!
//! * every accepted socket gets `TCP_NODELAY`, so a reply is never held
//!   back behind an earlier one the client has not yet acknowledged;
//! * the writer serialises each reply *with its newline* into one
//!   buffer, adds whatever other replies are already waiting for the
//!   same client (up to [`REPLY_BUFFER_BYTES`]), and issues one
//!   `write_all` — a lone result leaves at once as one segment, a burst
//!   in as few segments and system calls as the buffer allows. (A reply
//!   written as line-then-newline is two segments, and with Nagle on, a
//!   default client's 40 ms delayed-ACK timer sits between them.)
//!
//! Multi-line replies (`{"metrics"}`, `{"dump"}`) travel as one reply,
//! so nothing is ever interleaved before their `# EOF` /
//! `dump_complete` terminators.
//!
//! Input is bounded too: a request line longer than [`MAX_LINE_BYTES`]
//! is read away without being stored, answered with one `status: error`
//! line, and costs its sender the connection — nobody else.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use crate::obs::ServeObs;
use crate::protocol::{self, Request};
use crate::queue::JobQueue;
use crate::{error_line, JobOutcome, JobStatus, Server, Submission};

/// Longest request line a connection may send, newline included.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Once a reply burst has filled this much of the writer's buffer it is
/// written out; replies still waiting start the next burst.
pub const REPLY_BUFFER_BYTES: usize = 64 * 1024;

/// Serves the NDJSON protocol on `listener` with `workers` job threads
/// behind a priority queue of `queue_capacity`, until some connection
/// sends `{"shutdown": true}`; then the queue drains, every connection
/// still open is served until its client closes it, and the call
/// returns.
pub fn serve(server: &Server, listener: &TcpListener, workers: usize, queue_capacity: usize) {
    let queue = JobQueue::with_meter(
        queue_capacity.max(1),
        server.obs().map(|obs| obs.queue_meter()),
    );
    let shutdown = AtomicBool::new(false);
    let listen = Listen {
        server,
        queue: &queue,
        shutdown: &shutdown,
        local: listener.local_addr().ok(),
    };
    thread::scope(|scope| {
        for worker in 0..workers.max(1) {
            scope.spawn(move || server.work(worker, listen.queue));
        }
        for stream in listener.incoming() {
            if listen.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            scope.spawn(move || listen.connection(&stream));
        }
        queue.close();
    });
}

/// What every connection of one [`serve`] call shares.
#[derive(Clone, Copy)]
struct Listen<'a> {
    server: &'a Server,
    queue: &'a JobQueue<Submission>,
    shutdown: &'a AtomicBool,
    local: Option<SocketAddr>,
}

impl Listen<'_> {
    /// Runs one connection to its end: the reader on this thread, the
    /// reply writer on its own.
    fn connection(self, stream: &TcpStream) {
        // Without this, result i+1 waits in the kernel until the client
        // has acknowledged result i.
        let _ = stream.set_nodelay(true);
        let (replies, outbox) = mpsc::channel();
        let obs = self.server.obs().map(|obs| &**obs);
        thread::scope(|scope| {
            scope.spawn(move || write_replies(stream, &outbox, obs));
            self.read_requests(stream, &replies);
            // The writer ends once the workers have answered every job
            // this connection submitted.
            drop(replies);
        });
    }

    /// Reads request lines until end of stream, an over-long line or a
    /// shutdown request. Jobs go to the queue; everything else is
    /// answered through `replies` directly.
    fn read_requests(self, stream: &TcpStream, replies: &mpsc::Sender<JobOutcome>) {
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        for lineno in 1.. {
            let reject = |message: &str| {
                let error = error_line(&format!("job-{lineno}"), message);
                protocol::reject(self.server, lineno, &error);
                let _ = replies.send(reply(JobStatus::Error, error));
            };
            match read_request_line(&mut reader, &mut line) {
                Ok(LineRead::Line) => {}
                Ok(LineRead::TooLong) => {
                    reject(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                    return;
                }
                Ok(LineRead::Eof) | Err(_) => return,
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                reject("request line is not valid UTF-8");
                continue;
            };
            match protocol::classify(self.server, text, lineno) {
                Ok(Request::Job(spec)) => {
                    let priority = spec.priority;
                    let submission = Submission {
                        spec: *spec,
                        enqueued_at: Instant::now(),
                        reply: replies.clone(),
                    };
                    if !self.queue.push(priority, submission) {
                        return;
                    }
                }
                Ok(Request::Control) => {}
                Ok(Request::Metrics) => {
                    // The exposition is multi-line; `# EOF` terminates it so
                    // clients on the NDJSON stream know where it ends.
                    let text = self.server.render_metrics().unwrap_or_default();
                    let _ = replies.send(reply(JobStatus::Completed, format!("{text}# EOF")));
                }
                Ok(Request::Dump) => {
                    let mut lines = self
                        .server
                        .obs()
                        .map_or_else(Vec::new, |obs| obs.dump_flight());
                    let count = lines.len();
                    lines.push(format!("{{\"dump_complete\": {count}}}"));
                    let _ = replies.send(reply(JobStatus::Completed, lines.join("\n")));
                }
                Ok(Request::Shutdown) => {
                    // Flag the whole server down, then poke the accept loop
                    // awake with a throwaway connection.
                    self.shutdown.store(true, Ordering::SeqCst);
                    if let Some(addr) = self.local {
                        let _ = TcpStream::connect(addr);
                    }
                    return;
                }
                Err(error) => {
                    let _ = replies.send(reply(JobStatus::Error, error));
                }
            }
        }
    }
}

/// A reply that is not a job's result (error line, metrics exposition,
/// flight dump), in the shape the writer's channel carries.
fn reply(status: JobStatus, line: String) -> JobOutcome {
    JobOutcome {
        id: String::new(),
        status,
        line,
        log: Vec::new(),
    }
}

/// How one attempt to read a request line ended.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// `line` holds the next request line (newline included, unless the
    /// stream ended without one).
    Line,
    /// The line ran past [`MAX_LINE_BYTES`]. It was consumed through its
    /// newline (or the end of the stream) but not stored: the reply to
    /// it must not meet unread input, which would reset the connection
    /// under it when the socket closes.
    TooLong,
    /// The stream ended before another byte arrived.
    Eof,
}

/// Reads through the next newline of `reader` into `line` (cleared
/// first), storing at most [`MAX_LINE_BYTES`] bytes however long the
/// line turns out to be.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<LineRead> {
    line.clear();
    let mut too_long = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let taken = newline.map_or(available.len(), |at| at + 1);
        too_long |= line.len() + taken > MAX_LINE_BYTES;
        if too_long {
            // Free what was stored; the rest of the line is only counted.
            *line = Vec::new();
        } else {
            line.extend_from_slice(&available[..taken]);
        }
        reader.consume(taken);
        if newline.is_some() || taken == 0 {
            return Ok(if too_long {
                LineRead::TooLong
            } else if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
    }
}

/// The reply writer of one connection: every reply that is waiting when
/// the writer wakes goes out in one `write_all`, each with its newline.
/// Ends when every sender is gone or the client stops reading.
fn write_replies(mut out: &TcpStream, outbox: &mpsc::Receiver<JobOutcome>, obs: Option<&ServeObs>) {
    let mut burst = Vec::with_capacity(REPLY_BUFFER_BYTES);
    while let Ok(first) = outbox.recv() {
        let mut lines = 0;
        let mut next = Some(first);
        while let Some(outcome) = next {
            burst.extend_from_slice(outcome.line.as_bytes());
            burst.push(b'\n');
            lines += 1;
            next = if burst.len() < REPLY_BUFFER_BYTES {
                outbox.try_recv().ok()
            } else {
                None
            };
        }
        if out.write_all(&burst).is_err() {
            return;
        }
        if let Some(obs) = obs {
            obs.reply_written(lines, burst.len() as u64);
        }
        burst.clear();
        // One huge reply (a telemetry series) must not pin its size.
        burst.shrink_to(REPLY_BUFFER_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out its bytes in pieces of `piece` bytes, as
    /// a socket would.
    fn pieces(bytes: Vec<u8>, piece: usize) -> BufReader<Cursor<Vec<u8>>> {
        BufReader::with_capacity(piece, Cursor::new(bytes))
    }

    #[test]
    fn lines_are_split_at_newlines_whatever_the_read_size() {
        for piece in [1, 3, 4096] {
            let mut reader = pieces(b"first\nsecond\r\n\nlast".to_vec(), piece);
            let mut line = Vec::new();
            let mut seen = Vec::new();
            while read_request_line(&mut reader, &mut line).unwrap() == LineRead::Line {
                seen.push(String::from_utf8(line.clone()).unwrap());
            }
            assert_eq!(seen, ["first\n", "second\r\n", "\n", "last"]);
            assert_eq!(
                read_request_line(&mut reader, &mut line).unwrap(),
                LineRead::Eof
            );
        }
    }

    #[test]
    fn an_over_long_line_is_consumed_but_not_stored() {
        let mut bytes = vec![b'x'; 3 * MAX_LINE_BYTES];
        bytes.extend_from_slice(b"\nnext\n");
        let mut reader = pieces(bytes, 8192);
        let mut line = Vec::new();
        assert_eq!(
            read_request_line(&mut reader, &mut line).unwrap(),
            LineRead::TooLong
        );
        assert_eq!(line.capacity(), 0, "nothing of the line may stay allocated");
        assert_eq!(
            read_request_line(&mut reader, &mut line).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, b"next\n");
    }

    #[test]
    fn the_cap_counts_the_newline_and_applies_without_one() {
        let mut line = Vec::new();
        let mut fits = vec![b'x'; MAX_LINE_BYTES - 1];
        fits.push(b'\n');
        assert_eq!(
            read_request_line(&mut pieces(fits, 8192), &mut line).unwrap(),
            LineRead::Line
        );
        assert_eq!(line.len(), MAX_LINE_BYTES);
        // One byte more, and the stream ends instead of the line.
        let endless = vec![b'x'; MAX_LINE_BYTES + 1];
        assert_eq!(
            read_request_line(&mut pieces(endless, 8192), &mut line).unwrap(),
            LineRead::TooLong
        );
    }
}

//! Loopback tests of the connection layer (`ultra_serve::listen`): a
//! real `TcpListener` on an ephemeral port, served on a thread of the
//! test process, driven by plain `std::net::TcpStream` clients with
//! default socket options — what `nc` or a Python socket would be.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ultra_obs::flight::FlightLevel;
use ultra_serve::json::parse_object;
use ultra_serve::listen::{self, MAX_LINE_BYTES};
use ultra_serve::obs::ObsOptions;
use ultra_serve::Server;

/// One test at a time: the first test below asserts on wall-clock time, and
/// the harness would otherwise run a 200-job burst beside it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A server on a loopback port for the length of one test.
struct Service {
    server: Arc<Server>,
    addr: SocketAddr,
    exited: mpsc::Receiver<()>,
    _turn: MutexGuard<'static, ()>,
}

impl Service {
    fn start() -> Self {
        let turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let server = Arc::new(Server::with_obs(ObsOptions {
            log_level: FlightLevel::Error,
            ..ObsOptions::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
        let addr = listener
            .local_addr()
            .expect("a bound listener has an address");
        let (done, exited) = mpsc::channel();
        {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                listen::serve(&server, &listener, 2, 64);
                let _ = done.send(());
            });
        }
        Self {
            server,
            addr,
            exited,
            _turn: turn,
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connecting to the test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("setting a read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("cloning the socket")),
            stream,
            bytes_read: 0,
        }
    }

    /// Sends `{"shutdown": true}` on a fresh connection and waits for
    /// `listen::serve` to return. Every other client must be closed.
    fn shut_down(&self) {
        self.connect().send("{\"shutdown\": true}");
        self.exited
            .recv_timeout(Duration::from_secs(20))
            .expect("the server did not drain and exit after {\"shutdown\": true}");
    }

    /// The value of an unlabelled sample of the server's exposition.
    fn metric(&self, name: &str) -> u64 {
        self.sample(name)
            .unwrap_or_else(|| panic!("the exposition lacks {name}"))
    }

    /// The value of the exposition's sample `name`, labels included.
    fn sample<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let text = self.server.render_metrics().expect("obs is on");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    }

    /// The time the server has spent on jobs of `workload` so far, from
    /// queue wait to result line: none before the first one.
    fn server_time(&self, workload: &str) -> Duration {
        let name = format!(
            "ultra_serve_job_latency_seconds_sum{{phase=\"total\",workload=\"{workload}\"}}"
        );
        Duration::from_secs_f64(self.sample(&name).unwrap_or(0.0))
    }
}

/// A client with default socket options (Nagle on, delayed ACKs on).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    bytes_read: usize,
}

impl Client {
    /// One request line, newline included, in one `write`.
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("sending a request line");
    }

    /// The next reply line without its newline — which must be there.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reading a reply");
        assert!(n > 0, "the server closed the connection");
        assert!(line.ends_with('\n'), "reply line lacks its newline: {line}");
        self.bytes_read += n;
        line.pop();
        line
    }

    /// Whether the server has closed its side (nothing more to read).
    fn at_eof(&mut self) -> bool {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).is_ok() && rest.is_empty()
    }
}

/// The smallest job the protocol accepts: 2 PEs, one fetch-and-add each.
fn tiny_job(id: &str) -> String {
    format!("{{\"id\": \"{id}\", \"pes\": 2, \"rounds\": 1}}")
}

/// Asserts `line` is a well-formed completed result and returns its id.
fn completed_id(line: &str) -> String {
    let obj = parse_object(line).unwrap_or_else(|e| panic!("malformed result line {line}: {e}"));
    assert_eq!(
        obj.get("status").and_then(|s| s.as_str()),
        Some("completed"),
        "{line}"
    );
    assert!(obj.contains_key("parity"), "{line}");
    obj.get("id")
        .and_then(|id| id.as_str())
        .unwrap_or_else(|| panic!("result line without an id: {line}"))
        .to_owned()
}

#[test]
fn a_default_client_never_meets_the_delayed_ack_timer() {
    let service = Service::start();
    let mut client = service.connect();
    // Connection set-up and the first job's lazy work stay out of the
    // timing.
    client.send(&tiny_job("warm"));
    assert_eq!(completed_id(&client.read_line()), "warm");

    // Only the time the jobs spend outside the server is timed: what the
    // client waited in all, less what the server spent on the jobs. That
    // is what a delayed-ACK timer adds to, while the jobs' own time grows
    // with the host's load and the build's speed.
    let (started, served) = (Instant::now(), service.server_time("counter"));
    for i in 0..40 {
        let id = format!("seq-{i}");
        client.send(&tiny_job(&id));
        assert_eq!(completed_id(&client.read_line()), id);
    }
    let waited = started
        .elapsed()
        .saturating_sub(service.server_time("counter") - served);
    // A reply split over two segments, or held behind the previous
    // un-ACKed one, costs the client's 40 ms delayed-ACK timer per job:
    // 1.6 s for these 40.
    assert!(
        waited < Duration::from_millis(400),
        "40 sequential tiny jobs waited {waited:?} outside the server; replies are waiting for a timer"
    );

    // Two jobs in flight, the second one longer: its result is written
    // while the first result is still un-ACKed (the client, reading, has
    // nothing to send an ACK with). One write per reply is not enough
    // here; without TCP_NODELAY Nagle holds the second result for the
    // timer. (A seed of its own keeps the long job out of the snapshot
    // cache: served from there it is no longer than the short one, and
    // the pair's order hung on which worker woke first.)
    // The pair's short job runs beside the long one, on the other worker:
    // the long jobs' server time is the pairs' own.
    let (started, served) = (Instant::now(), service.server_time("ticket"));
    for i in 0..30 {
        let (short, long) = (format!("short-{i}"), format!("long-{i}"));
        client.send(&format!(
            "{}\n{{\"id\": \"{long}\", \"pes\": 16, \"workload\": \"ticket\", \"rounds\": 32, \"seed\": {i}}}",
            tiny_job(&short)
        ));
        assert_eq!(completed_id(&client.read_line()), short);
        assert_eq!(completed_id(&client.read_line()), long);
    }
    let waited = started
        .elapsed()
        .saturating_sub(service.server_time("ticket") - served);
    // Held for the timer, the long results alone would add 1.2 s.
    assert!(
        waited < Duration::from_millis(400),
        "30 short/long pairs waited {waited:?} outside the server; a result waited behind an un-ACKed one"
    );

    drop(client);
    service.shut_down();
    // Only a pair's two results can ever have shared a write: every
    // other reply was read before the next request was sent.
    assert_eq!(service.metric("ultra_serve_reply_lines_total"), 101);
    let writes = service.metric("ultra_serve_reply_writes_total");
    assert!((71..=101).contains(&writes), "{writes} writes");
}

#[test]
fn a_burst_yields_one_whole_line_per_job_and_unsplit_control_replies() {
    let service = Service::start();
    let mut client = service.connect();
    let mut sent = BTreeSet::new();
    let mut burst = String::new();
    for i in 0..200 {
        // The control requests sit mid-burst, with results on both sides.
        match i {
            80 => burst.push_str("{\"metrics\"}\n"),
            140 => burst.push_str("{\"dump\"}\n"),
            _ => {}
        }
        let id = format!("burst-{i}");
        burst.push_str(&tiny_job(&id));
        burst.push('\n');
        sent.insert(id);
    }
    client
        .stream
        .write_all(burst.as_bytes())
        .expect("sending the burst");

    let mut results = BTreeSet::new();
    let (mut expositions, mut dumps) = (0, 0);
    while results.len() < sent.len() || expositions < 1 || dumps < 1 {
        let line = client.read_line();
        if line.starts_with('#') {
            // An exposition: comments and samples only, up to `# EOF`.
            let mut line = line;
            let mut samples = 0;
            while line != "# EOF" {
                assert!(
                    !line.starts_with('{'),
                    "a reply split the exposition: {line}"
                );
                samples += usize::from(!line.starts_with('#'));
                line = client.read_line();
            }
            assert!(samples > 20, "only {samples} samples before # EOF");
            expositions += 1;
        } else if line.starts_with("{\"at_us\"") || line.starts_with("{\"dump_complete\"") {
            // A flight dump: events only, then their count.
            let mut line = line;
            let mut events = 0;
            while !line.starts_with("{\"dump_complete\"") {
                assert!(
                    line.starts_with("{\"at_us\""),
                    "a reply split the dump: {line}"
                );
                events += 1;
                line = client.read_line();
            }
            assert_eq!(line, format!("{{\"dump_complete\": {events}}}"));
            dumps += 1;
        } else {
            assert!(
                results.insert(completed_id(&line)),
                "duplicate result: {line}"
            );
        }
    }
    assert_eq!(results, sent);
    assert_eq!((expositions, dumps), (1, 1));

    let received = client.bytes_read as u64;
    drop(client);
    service.shut_down();
    // The writer's own account agrees with what arrived, byte for byte,
    // and a burst takes no more writes than it has replies.
    assert_eq!(service.metric("ultra_serve_reply_bytes_total"), received);
    assert_eq!(service.metric("ultra_serve_reply_lines_total"), 202);
    assert!(service.metric("ultra_serve_reply_writes_total") <= 202);
}

#[test]
fn a_client_that_vanishes_mid_job_leaves_the_server_serving_and_able_to_shut_down() {
    let service = Service::start();
    let mut leaver = service.connect();
    // Far more work than any test should finish; polled for cancellation
    // every 64 cycles.
    leaver.send(
        "{\"id\": \"marathon\", \"workload\": \"ticket\", \"rounds\": 1000000, \
         \"cycles\": 4000000000000, \"checkpoint_every\": 64}",
    );
    // Its first checkpoint proves a worker is inside the job.
    while service.server.cache().is_empty() {
        thread::yield_now();
    }
    drop(leaver);

    let mut second = service.connect();
    second.send(&tiny_job("after"));
    assert_eq!(completed_id(&second.read_line()), "after");
    // The marathon's result has nowhere to go; ending it must not wedge
    // its worker, and the drain on shutdown waits for that worker.
    second.send("{\"cancel\": \"marathon\"}");
    drop(second);
    service.shut_down();
    assert_eq!(service.metric("ultra_serve_queue_depth"), 0);
}

#[test]
fn an_over_long_line_costs_its_sender_the_connection_and_nobody_else() {
    let service = Service::start();
    let mut bystander = service.connect();
    let mut flooder = service.connect();

    // A line that is not UTF-8 is answered and the connection goes on.
    flooder
        .stream
        .write_all(b"{\"id\": \"\xff\"}\n")
        .expect("sending bytes");
    let reply = flooder.read_line();
    assert!(
        reply.contains("\"status\": \"error\"") && reply.contains("UTF-8"),
        "{reply}"
    );

    // One byte past the cap, newline included: the connection's second
    // line. The write may fail once the server has hung up; the reply is
    // what matters.
    let mut flood = vec![b'x'; MAX_LINE_BYTES];
    flood.push(b'\n');
    let _ = flooder.stream.write_all(&flood);
    let reply = flooder.read_line();
    assert!(
        reply.contains("\"id\": \"job-2\"")
            && reply.contains("\"status\": \"error\"")
            && reply.contains("exceeds 1048576 bytes"),
        "{reply}"
    );
    assert!(flooder.at_eof(), "the flooder's connection must be closed");

    // A newline-free stream that simply ends is answered the same way.
    let mut endless = service.connect();
    let _ = endless.stream.write_all(&vec![b'y'; MAX_LINE_BYTES + 1]);
    endless
        .stream
        .shutdown(Shutdown::Write)
        .expect("closing the sending side");
    assert!(endless.read_line().contains("exceeds 1048576 bytes"));
    assert!(endless.at_eof());

    bystander.send(&tiny_job("unharmed"));
    assert_eq!(completed_id(&bystander.read_line()), "unharmed");
    drop((bystander, flooder, endless));
    service.shut_down();
    assert_eq!(service.metric("ultra_serve_protocol_errors_total"), 3);
}

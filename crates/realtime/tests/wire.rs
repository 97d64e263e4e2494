//! End-to-end smoke of the NDJSON wire protocol over a real TCP socket.
//!
//! Skips (cleanly, with a message) when the sandbox forbids binding
//! loopback sockets — the protocol logic itself is covered by the
//! in-process service tests either way.

use realtime::{RealtimeService, ServiceConfig, ServiceHandle};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

fn can_bind_loopback() -> bool {
    TcpListener::bind("127.0.0.1:0").is_ok()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to service");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, request: &str) -> Value {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::parse_value(&line).expect("parse response")
    }

    fn call_ok(&mut self, request: &str) -> Value {
        let resp = self.call(request);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "request {request} failed: {resp:?}"
        );
        resp
    }
}

/// Spawn a fast-ticking service and its NDJSON listener on an ephemeral
/// loopback port.
fn start_server() -> (ServiceHandle, JoinHandle<Result<(), String>>, SocketAddr) {
    let handle = RealtimeService::spawn(ServiceConfig {
        tick_interval: Duration::from_millis(2),
        dilation: 2000.0,
        ..ServiceConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let (addr_tx, addr_rx) = mpsc::channel();
    let server_handle = handle.clone();
    let server_stop = stop.clone();
    let server = std::thread::spawn(move || {
        realtime::wire::serve(server_handle, "127.0.0.1:0", server_stop, |addr| {
            addr_tx.send(addr).unwrap();
        })
    });
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server bound");
    (handle, server, addr)
}

#[test]
fn deeply_nested_json_is_a_parse_error_not_a_stack_overflow() {
    // the parser used to recurse once per bracket: a million of them
    // overflowed the stack and aborted the whole process
    for open in ["[", "{\"k\":"] {
        let err = serde_json::parse_value(&open.repeat(1_000_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}

#[test]
fn deeply_nested_request_gets_an_error_reply() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    let (handle, server, addr) = start_server();
    let mut c = Client::connect(addr);
    let bad = c.call(&"[".repeat(1_000_000));
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let error = bad.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(error.contains("recursion limit"), "{bad:?}");
    // the connection and the service both survive the line
    c.call_ok(r#"{"cmd":"stats"}"#);
    c.call_ok(r#"{"cmd":"shutdown"}"#);
    server.join().unwrap().expect("server exits cleanly");
    handle.shutdown().expect("summary after wire shutdown");
}

#[test]
fn overlong_request_line_gets_one_error_reply_then_close() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    let (handle, server, addr) = start_server();
    let mut c = Client::connect(addr);
    // 4 MiB with no newline: the server stops reading at its line cap,
    // so the write may fail once the socket buffers fill — send it from
    // its own thread and ignore the outcome
    let mut flood = c.writer.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 4 << 20]);
    });
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("error reply");
    let reply = serde_json::parse_value(&line).expect("parse reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    let error = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(error.starts_with("too_large"), "{reply:?}");
    // then the server closes that connection
    line.clear();
    assert!(matches!(c.reader.read_line(&mut line), Ok(0) | Err(_)));
    sender.join().unwrap();
    // a fresh connection is served as usual
    let mut fresh = Client::connect(addr);
    fresh.call_ok(r#"{"cmd":"stats"}"#);
    fresh.call_ok(r#"{"cmd":"shutdown"}"#);
    server.join().unwrap().expect("server exits cleanly");
    handle.shutdown().expect("summary after wire shutdown");
}

#[test]
fn ndjson_protocol_end_to_end() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    let (handle, server, addr) = start_server();
    let mut c = Client::connect(addr);
    // create 4 tenants across the system mix and submit jobs
    for (i, system) in ["HadoopV1", "YARN", "SMapReduce", "SMapReduce-hetero"]
        .iter()
        .enumerate()
    {
        let resp = c.call_ok(&format!(
            r#"{{"cmd":"create_tenant","name":"t{i}","workers":8,"seed":{},"system":"{system}"}}"#,
            20 + i
        ));
        let tenant = resp
            .get("reply")
            .and_then(|r| r.get("TenantCreated"))
            .and_then(|r| r.get("tenant"))
            .and_then(Value::as_u64)
            .expect("tenant id in reply");
        assert_eq!(tenant, i as u64);
        c.call_ok(&format!(
            r#"{{"cmd":"submit_job","tenant":{i},"bench":"grep","input_mb":512,"num_reduces":2}}"#
        ));
    }
    // errors come back as ok:false without dropping the connection
    let bad =
        c.call(r#"{"cmd":"submit_job","tenant":99,"bench":"grep","input_mb":1,"num_reduces":1}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let bad = c.call(r#"{"cmd":"definitely-not-a-command"}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));

    // frames advance: poll tenant 0 until its sim clock moves and its
    // frame checksum verifies
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = c.call_ok(r#"{"cmd":"observe","tenant":0}"#);
        let frame = resp.get("frame").expect("frame payload");
        let at_ms = frame
            .get("obs")
            .and_then(|o| o.get("at_ms"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if at_ms > 0 {
            assert!(frame.get("epoch").and_then(Value::as_u64).unwrap_or(0) > 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tenant 0 never advanced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = c.call_ok(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("tenants"))
            .and_then(Value::as_u64),
        Some(4)
    );

    // shutdown over the wire stops both the tick thread and the listener;
    // the in-process handle still collects the summary afterwards
    c.call_ok(r#"{"cmd":"shutdown"}"#);
    server.join().unwrap().expect("server exits cleanly");
    let summary = handle.shutdown().expect("summary after wire shutdown");
    assert_eq!(summary.tenants.len(), 4);
    let script = summary.script.expect("recording was on");
    assert!(script.replay().verified, "wire-driven run must replay");
}

//! The shipped `phi` binary against an in-process context server: the
//! client subcommands speak the wire protocol to it over a real socket,
//! and arguments that would overflow, or ask for nothing, are refused
//! with an error that names the flag.

use std::process::{Command, Output, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use phi::core::{ContextServer, ContextStore, StoreConfig};

fn start_server() -> (ContextServer, String) {
    let store = ContextStore::new(StoreConfig {
        window_ns: 10_000_000_000,
        capacity_bps: Some(10_000_000.0),
        queue_alpha: 0.3,
    });
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Run `phi args…` to completion. A command that is still running after
/// 30 s is killed and fails the test: a `serve` that accepted an argument
/// it should refuse would otherwise never return.
fn phi(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_phi"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn phi");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll phi").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill phi");
            let out = child.wait_with_output().expect("collect phi");
            panic!(
                "phi {args:?} still running after 30 s; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect phi")
}

fn stdout_of(args: &[&str]) -> String {
    let out = phi(args);
    assert!(
        out.status.success(),
        "phi {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn report_lookup_and_top_reach_a_live_server() {
    let (server, addr) = start_server();
    let reported = stdout_of(&[
        "report",
        "--addr",
        &addr,
        "--path",
        "7",
        "--bytes",
        "4000000",
        "--duration-ms",
        "1000",
        "--mean-rtt-ms",
        "170",
        "--min-rtt-ms",
        "150",
    ]);
    assert!(reported.contains("on path 7"), "{reported}");

    let looked_up = stdout_of(&["lookup", "--addr", &addr, "--path", "7"]);
    assert!(looked_up.starts_with("path 7: utilization"), "{looked_up}");

    // `top` prints a header, then one row per path: key, utilization,
    // queue, competing.
    let top = stdout_of(&["top", "--addr", &addr, "--limit", "5"]);
    let row = top
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cols| cols.first() == Some(&"7"))
        .unwrap_or_else(|| panic!("path 7 not listed:\n{top}"));
    let utilization: f64 = row[1].parse().expect("utilization column");
    assert!(utilization > 0.0, "{top}");

    let stats = server.stats();
    assert_eq!(stats.reports.load(Ordering::Relaxed), 1);
    assert_eq!(stats.lookups.load(Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn overflowing_arguments_are_refused_by_name() {
    let (server, addr) = start_server();
    // `top --limit 0` overflows nothing, but it would ask for an empty
    // snapshot and read the empty reply as a server that knows no path.
    let cases: [(&[&str], &str); 3] = [
        (&["top", "--addr", &addr, "--limit", "0"], "--limit"),
        (
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--window-secs",
                "18446744074",
            ],
            "--window-secs",
        ),
        (
            &[
                "report",
                "--addr",
                &addr,
                "--bytes",
                "1",
                "--duration-ms",
                "18446744073710",
            ],
            "--duration-ms",
        ),
    ];
    for (args, flag) in cases {
        let out = phi(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "phi {args:?} accepted it");
        assert!(
            stderr.contains(&format!("error: {flag}")),
            "does not name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 0);
    server.shutdown();
}

//! Two-process end-to-end tests: spawn the real `minshare` binary twice
//! and let the processes talk over localhost TCP.

use std::io::Write;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_minshare")
}

/// Writes `content` to a fresh file. Every call gets its own path (a
/// process-wide counter prefixes `name`), so tests running in parallel
/// never overwrite each other's inputs.
fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("minshare-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(content.as_bytes()).expect("write");
    path
}

/// Picks a free localhost port by binding port 0 and dropping the socket.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr")
        .port()
}

fn spawn(args: &[&str]) -> Child {
    Command::new(binary())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn minshare")
}

fn finish(child: Child, who: &str) -> String {
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "{who} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs sender+receiver as two processes and returns the receiver stdout.
fn run_pair(
    command: &str,
    sender_file: &str,
    receiver_file: &str,
    extra: &[&str],
) -> (String, String) {
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let s_path = write_temp(&format!("{command}-s.txt"), sender_file);
    let r_path = write_temp(&format!("{command}-r.txt"), receiver_file);

    let mut s_args = vec![
        command,
        "--listen",
        &addr,
        "--values",
        s_path.to_str().unwrap(),
        "--seed",
        "1",
    ];
    s_args.extend_from_slice(extra);
    let sender = spawn(&s_args);
    // Give the listener a moment to bind before connecting; retry loop on
    // the client side is handled by spawning after a short wait.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut r_args = vec![
        command,
        "--connect",
        &addr,
        "--values",
        r_path.to_str().unwrap(),
        "--seed",
        "2",
    ];
    r_args.extend_from_slice(extra);
    let receiver = spawn(&r_args);

    let r_out = finish(receiver, "receiver");
    let s_out = finish(sender, "sender");
    (s_out, r_out)
}

#[test]
fn intersect_between_processes() {
    let (_, r_out) = run_pair("intersect", "ana\nbob\ncarol\n", "bob\ncarol\ndave\n", &[]);
    let mut lines: Vec<&str> = r_out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["bob", "carol"]);
}

#[test]
fn intersect_size_between_processes() {
    let (_, r_out) = run_pair("intersect-size", "a\nb\nc\nd\n", "c\nd\ne\n", &[]);
    assert_eq!(r_out.trim(), "2");
}

#[test]
fn join_between_processes() {
    let (_, r_out) = run_pair(
        "join",
        "sku1\tprice=10\nsku2\tprice=20\nsku3\tprice=30\n",
        "sku2\nsku3\nsku9\n",
        &[],
    );
    let mut lines: Vec<&str> = r_out.lines().collect();
    lines.sort();
    assert_eq!(lines, vec!["sku2\tprice=20", "sku3\tprice=30"]);
}

#[test]
fn join_size_between_processes() {
    let (_, r_out) = run_pair("join-size", "x\nx\ny\n", "x\ny\ny\n", &[]);
    // x: 2·1 + y: 1·2 = 4.
    assert_eq!(r_out.trim(), "4");
}

#[test]
fn sum_between_processes() {
    let (s_out, r_out) = run_pair(
        "sum",
        "a\t100\nb\t250\nc\t7\n",
        "b\nc\nz\n",
        &["--key-bits", "64"],
    );
    for out in [&s_out, &r_out] {
        assert!(out.contains("count\t2"), "{out}");
        assert!(out.contains("sum\t257"), "{out}");
    }
}

#[test]
fn intersect_over_secure_channel() {
    let (_, r_out) = run_pair("intersect", "k1\nk2\n", "k2\nk3\n", &["--secure"]);
    assert_eq!(r_out.trim(), "k2");
}

#[test]
fn help_prints_usage() {
    let out = Command::new(binary()).arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: minshare"));
}

#[test]
fn bad_args_exit_nonzero() {
    let out = Command::new(binary())
        .args(["frobnicate"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn local_query_mode_runs_the_papers_sql() {
    let tr = write_temp("q-tr.csv", "personid,pattern\n1,true\n2,false\n3,true\n");
    let ts = write_temp(
        "q-ts.csv",
        "personid,drug,reaction\n1,true,true\n2,true,false\n3,false,false\n",
    );
    let out = Command::new(binary())
        .args([
            "query",
            "--sql",
            "select pattern, reaction, count(*) \
             from TR join TS on TR.personid = TS.personid \
             where TS.drug = true group by pattern, reaction \
             order by pattern",
            "--table",
            &format!("TR={};personid:int,pattern:bool", tr.display()),
            "--table",
            &format!("TS={};personid:int,drug:bool,reaction:bool", ts.display()),
        ])
        .output()
        .expect("run query");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pattern,reaction,count"), "{stdout}");
    assert!(stdout.contains("false,false,1"), "{stdout}");
    assert!(stdout.contains("true,true,1"), "{stdout}");
}

#[test]
fn local_query_mode_rejects_bad_specs() {
    let out = Command::new(binary())
        .args(["query", "--sql", "select 1", "--table", "nonsense"])
        .output()
        .expect("run query");
    assert!(!out.status.success());
}

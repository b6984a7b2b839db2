//! `srl serve` — the serving front end as a subcommand.
//!
//! Binds the configured address, prints one `listening on HOST:PORT` line
//! to stdout (scripts and the smoke test read the real port from it — bind
//! `:0` to let the OS pick), and serves until killed. All serving logic
//! lives in `srl-serve`; this module only parses flags and the optional
//! tenant-configuration file.

use std::process::ExitCode;

use srl_core::pipeline::parse_count;
use srl_serve::{ServeConfig, Server};

/// Parses `srl serve` flags into a [`ServeConfig`].
fn parse_serve_options(rest: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--max-inflight" => {
                let word = it.next().ok_or("--max-inflight needs a query count")?;
                config.max_inflight = parse_count("--max-inflight", word)?;
            }
            "--cache-cap" => {
                let word = it.next().ok_or("--cache-cap needs an entry count")?;
                config.cache_cap = parse_count("--cache-cap", word)?;
            }
            "--session-threads" => {
                let word = it.next().ok_or("--session-threads needs a thread count")?;
                config.session_threads = parse_count("--session-threads", word)?;
            }
            "--tenant-config" => {
                let path = it.next().ok_or("--tenant-config needs a file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                config = config
                    .with_tenant_document(&text)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            other => return Err(format!("unexpected argument `{other}` to `srl serve`")),
        }
    }
    Ok(config)
}

/// The `srl serve` entry point.
pub fn serve(rest: &[String]) -> ExitCode {
    let config = match parse_serve_options(rest) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    // The port line must be visible before the first client connects.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let config = parse_serve_options(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7878");
        assert_eq!(config.max_inflight, 64);
        assert_eq!(config.cache_cap, 128);
        let config = parse_serve_options(&words(&[
            "--addr",
            "127.0.0.1:0",
            "--max-inflight",
            "2",
            "--cache-cap",
            "16",
            "--session-threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.max_inflight, 2);
        assert_eq!(config.cache_cap, 16);
        assert_eq!(config.session_threads, 3);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            vec!["--max-inflight", "0"],
            vec!["--max-inflight", "many"],
            vec!["--cache-cap", "0"],
            vec!["--session-threads", "0"],
            vec!["--tenant-config"],
            vec!["--tenant-config", "/no/such/file.json"],
            vec!["--wat"],
        ] {
            assert!(parse_serve_options(&words(&bad)).is_err(), "{bad:?}");
        }
    }
}

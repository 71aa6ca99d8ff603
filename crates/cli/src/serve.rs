//! `serve listen` and `serve send`: the multi-tenant simulation service
//! (see `cmvrp-serve`).

use crate::{Args, Outcome, UsageError};

/// Prints the bound address eagerly — before blocking in the accept loop
/// — so scripts starting a server on port 0 can read the chosen port from
/// the first stdout line.
pub(crate) fn listen(a: &Args) -> Outcome {
    let mut config = cmvrp_serve::ServeConfig::default();
    if let Some(addr) = a.value("addr") {
        config.addr = addr.to_string();
    }
    config.max_sessions = a.num("max-sessions")?.unwrap_or(config.max_sessions);
    if config.max_sessions == 0 {
        return Err(UsageError(
            "--max-sessions must be at least 1 (it bounds the \
             sessions one connection may hold open)"
                .into(),
        ));
    }
    config.connections = a.num("connections")?.unwrap_or(config.connections);
    let server =
        cmvrp_serve::Server::bind(config).map_err(|e| UsageError(format!("cannot bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| UsageError(format!("cannot read bound address: {e}")))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "serving on {addr}");
        let _ = stdout.flush();
    }
    let stats = server
        .run()
        .map_err(|e| UsageError(format!("serve failed: {e}")))?;
    let out = format!(
        "served {} connection(s): {} session(s), {} request(s)\n",
        stats.connections, stats.sessions, stats.requests
    );
    Ok((out, 0))
}

/// Sends stdin's request lines to the server at `<addr>`, one at a time,
/// and returns its responses.
pub(crate) fn send(a: &Args) -> Outcome {
    let addr = a.pos(0);
    let stdin = std::io::stdin();
    let mut out = Vec::new();
    cmvrp_serve::send(addr, &mut stdin.lock(), &mut out)
        .map_err(|e| UsageError(format!("serve send to {addr}: {e}")))?;
    Ok((String::from_utf8_lossy(&out).into_owned(), 0))
}

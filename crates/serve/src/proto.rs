//! The daemon's line-based wire protocol.
//!
//! One request per line, ASCII, space-separated; every response is a
//! single line starting `OK` or `ERR`. The only asymmetric verb is
//! `FEED`, which carries no per-record response — a synchronous
//! acknowledgement would serialize the stream on round trips. Instead
//! the ingest path is **exactly-once by sequence**: a sequenced `FEED`
//! carries a client-assigned per-tenant seq (1-based, contiguous), the
//! daemon tracks the highest contiguously applied seq per tenant (the
//! *ack watermark*), drops replays at or below it, rejects gaps above
//! `watermark + 1` with a typed `ERR`, and pushes standalone
//! `ACK <seq>` lines every `ack_every` accepted records. `OPEN` and
//! `ATTACH` answer with the watermark, so a reconnecting client knows
//! exactly which buffered records to replay. Unsequenced `FEED` (the
//! pre-seq form, still accepted) remains fire-and-forget. Either form
//! answers `ERR` for a record with no pages or pages outside the
//! tenant's page space, which is never applied. Clients that
//! want flow control interleave `PING`, which answers with the daemon's
//! current global backlog so a closed-loop sender can pace itself.
//!
//! ```text
//! OPEN <tenant> [pages]   -> OK opened <tenant> pages <n> acked <seq> | ERR ...
//! ATTACH <tenant> [pages] -> OK attached <tenant> pages <n> acked <seq> | ERR ...
//! FEED <tenant> <seq> <time> <file> <page> <n> <r|w>   (async ACK <seq> lines)
//! FEED <tenant> <time> <file> <page> <n> <r|w>         (no response, legacy)
//! PING                    -> OK pong queued <backlog>
//! QUERY <tenant> timeout|banks|misscurve|energy|status|acked -> OK ...
//! STATS                   -> OK tenants <n> queued <n> shedding <0|1> ...
//! CLOSE <tenant>          -> OK closed <tenant> (checkpoint sealed)
//! SHUTDOWN                -> OK shutting-down
//! ```
//!
//! `ATTACH` is the reconnect verb: idempotent for a live tenant and —
//! unlike `OPEN` — exempt from overload shedding, because a
//! reconnecting client must always be able to learn the watermark.
//! `QUERY <t> acked` answers `OK acked <seq>` — the client's
//! synchronous barrier.
//!
//! The same listening socket also speaks just enough HTTP/1.0 for
//! `GET /metrics` (see [`crate::daemon`]); the dispatcher sniffs the
//! first line.

use jpmd_trace::{AccessKind, FileId, TraceRecord};

/// What a control query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The disk spin-down timeout currently in force, s.
    Timeout,
    /// Enabled / total memory banks.
    Banks,
    /// The candidate table from the tenant's most recent joint decision:
    /// predicted disk accesses per candidate size (the paper's miss
    /// curve).
    MissCurve,
    /// Total energy accrued so far, J.
    Energy,
    /// One-line tenant status: records, periods, degradation level.
    Status,
    /// The tenant's feed ack watermark (highest contiguously applied
    /// client seq; 0 before any sequenced record).
    Acked,
}

impl QueryKind {
    fn parse(word: &str) -> Option<Self> {
        Some(match word {
            "timeout" => QueryKind::Timeout,
            "banks" => QueryKind::Banks,
            "misscurve" => QueryKind::MissCurve,
            "energy" => QueryKind::Energy,
            "status" => QueryKind::Status,
            "acked" => QueryKind::Acked,
            _ => return None,
        })
    }

    fn word(self) -> &'static str {
        match self {
            QueryKind::Timeout => "timeout",
            QueryKind::Banks => "banks",
            QueryKind::MissCurve => "misscurve",
            QueryKind::Energy => "energy",
            QueryKind::Status => "status",
            QueryKind::Acked => "acked",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a tenant (idempotent for an already-open name).
    Open {
        /// Tenant name.
        tenant: String,
        /// Page-space size; the daemon default when absent.
        pages: Option<u64>,
    },
    /// Reconnect to (or admit) a tenant; answers with the ack
    /// watermark like `OPEN` but is exempt from overload shedding so a
    /// reconnecting client can always learn what to replay.
    Attach {
        /// Tenant name.
        tenant: String,
        /// Page-space size used only if the tenant must be created.
        pages: Option<u64>,
    },
    /// Stream one access record into a tenant.
    Feed {
        /// Tenant name.
        tenant: String,
        /// Client-assigned per-tenant sequence number (1-based,
        /// contiguous); `None` for the legacy fire-and-forget form.
        seq: Option<u64>,
        /// The record.
        record: TraceRecord,
    },
    /// Ask about a tenant's live operating point.
    Query {
        /// Tenant name.
        tenant: String,
        /// What to report.
        what: QueryKind,
    },
    /// Daemon-wide counters.
    Stats,
    /// Liveness + backlog probe (the flow-control verb).
    Ping,
    /// Seal and close one tenant.
    Close {
        /// Tenant name.
        tenant: String,
    },
    /// Seal every tenant and stop the daemon.
    Shutdown,
}

/// Validates a tenant name: nonempty, at most 64 bytes, and safe to
/// embed in file names and metric labels (`[A-Za-z0-9._-]`).
fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Parses one request line.
///
/// # Errors
///
/// A one-line human-readable reason, already shaped for an `ERR `
/// response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_ascii_whitespace();
    let verb = words.next().ok_or("empty request")?;
    // No verb takes more than 7 arguments, and an 8th already fails every
    // verb that counts them, so nothing past it is split or stored.
    let rest: Vec<&str> = words.take(8).collect();
    let tenant_arg = |idx: usize| -> Result<String, String> {
        let name = *rest.get(idx).ok_or("missing tenant name")?;
        if !valid_tenant(name) {
            return Err(format!("invalid tenant name '{name}'"));
        }
        Ok(name.to_string())
    };
    let open_args = |verb: &str| -> Result<(String, Option<u64>), String> {
        let tenant = tenant_arg(0)?;
        let pages = match rest.get(1) {
            Some(word) => Some(
                word.parse::<u64>()
                    .map_err(|_| format!("bad page count '{word}'"))?,
            ),
            None => None,
        };
        if rest.len() > 2 {
            return Err(format!("{verb} takes at most <tenant> [pages]"));
        }
        Ok((tenant, pages))
    };
    match verb {
        "OPEN" => {
            let (tenant, pages) = open_args("OPEN")?;
            Ok(Request::Open { tenant, pages })
        }
        "ATTACH" => {
            let (tenant, pages) = open_args("ATTACH")?;
            Ok(Request::Attach { tenant, pages })
        }
        "FEED" => {
            let tenant = tenant_arg(0)?;
            // 7 args = sequenced (`<seq>` before the record), 6 = the
            // legacy fire-and-forget form.
            let (seq, at) = match rest.len() {
                6 => (None, 1),
                7 => {
                    let seq = rest[1]
                        .parse::<u64>()
                        .map_err(|_| format!("bad feed seq '{}'", rest[1]))?;
                    if seq == 0 {
                        return Err("bad feed seq '0' (seqs are 1-based)".into());
                    }
                    (Some(seq), 2)
                }
                _ => {
                    return Err("FEED <tenant> [seq] <time> <file> <page> <pages> <r|w>".into());
                }
            };
            let num = |idx: usize, what: &str| -> Result<u64, String> {
                rest[idx]
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what} '{}'", rest[idx]))
            };
            let time: f64 = rest[at]
                .parse()
                .map_err(|_| format!("bad time '{}'", rest[at]))?;
            if !time.is_finite() || time < 0.0 {
                return Err(format!("bad time '{}'", rest[at]));
            }
            let file = num(at + 1, "file id")?;
            let file = u32::try_from(file).map_err(|_| format!("bad file id '{file}'"))?;
            let kind = match rest[at + 4] {
                "r" => AccessKind::Read,
                "w" => AccessKind::Write,
                other => return Err(format!("bad access kind '{other}' (want r|w)")),
            };
            Ok(Request::Feed {
                tenant,
                seq,
                record: TraceRecord {
                    time,
                    file: FileId(file),
                    first_page: num(at + 2, "first page")?,
                    pages: num(at + 3, "page count")?,
                    kind,
                },
            })
        }
        "QUERY" => {
            let tenant = tenant_arg(0)?;
            let word = *rest.get(1).ok_or("missing query kind")?;
            let what = QueryKind::parse(word).ok_or_else(|| {
                format!("unknown query '{word}' (want timeout|banks|misscurve|energy|status)")
            })?;
            Ok(Request::Query { tenant, what })
        }
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "CLOSE" => Ok(Request::Close {
            tenant: tenant_arg(0)?,
        }),
        "SHUTDOWN" => Ok(Request::Shutdown),
        other => Err(format!("unknown verb '{other}'")),
    }
}

/// Formats a record as the legacy (unsequenced) `FEED` line
/// [`parse_request`] reverses.
pub fn format_feed(tenant: &str, record: &TraceRecord) -> String {
    format!(
        "FEED {tenant} {} {} {} {} {}",
        record.time,
        record.file.0,
        record.first_page,
        record.pages,
        kind_word(record.kind),
    )
}

/// Formats a record as the sequenced `FEED` line — the exactly-once
/// encoder used by [`ServeClient`](crate::ServeClient).
pub fn format_feed_seq(tenant: &str, seq: u64, record: &TraceRecord) -> String {
    format!(
        "FEED {tenant} {seq} {} {} {} {} {}",
        record.time,
        record.file.0,
        record.first_page,
        record.pages,
        kind_word(record.kind),
    )
}

fn kind_word(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "r",
        AccessKind::Write => "w",
    }
}

/// Formats any request as the line [`parse_request`] reverses — the
/// round-trip encoder the property tests and the client share.
pub fn format_request(request: &Request) -> String {
    let open = |verb: &str, tenant: &str, pages: Option<u64>| match pages {
        Some(pages) => format!("{verb} {tenant} {pages}"),
        None => format!("{verb} {tenant}"),
    };
    match request {
        Request::Open { tenant, pages } => open("OPEN", tenant, *pages),
        Request::Attach { tenant, pages } => open("ATTACH", tenant, *pages),
        Request::Feed {
            tenant,
            seq: Some(seq),
            record,
        } => format_feed_seq(tenant, *seq, record),
        Request::Feed {
            tenant,
            seq: None,
            record,
        } => format_feed(tenant, record),
        Request::Query { tenant, what } => format!("QUERY {tenant} {}", what.word()),
        Request::Stats => "STATS".into(),
        Request::Ping => "PING".into(),
        Request::Close { tenant } => format!("CLOSE {tenant}"),
        Request::Shutdown => "SHUTDOWN".into(),
    }
}

/// Recognizes a standalone `ACK <seq>` push line; `None` for anything
/// else (clients interleave these with `OK`/`ERR` replies).
pub fn parse_ack(line: &str) -> Option<u64> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("ACK") {
        return None;
    }
    let seq = words.next()?.parse().ok()?;
    if words.next().is_some() {
        return None;
    }
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_lines_round_trip() {
        let record = TraceRecord {
            time: 12.5,
            file: FileId(7),
            first_page: 1024,
            pages: 3,
            kind: AccessKind::Write,
        };
        let line = format_feed("web-01", &record);
        match parse_request(&line).unwrap() {
            Request::Feed {
                tenant,
                seq: None,
                record: r,
            } => {
                assert_eq!(tenant, "web-01");
                assert_eq!(r, record);
            }
            other => panic!("parsed {other:?}"),
        }
        let line = format_feed_seq("web-01", 42, &record);
        match parse_request(&line).unwrap() {
            Request::Feed {
                tenant,
                seq: Some(seq),
                record: r,
            } => {
                assert_eq!(tenant, "web-01");
                assert_eq!(seq, 42);
                assert_eq!(r, record);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn attach_and_acks_parse() {
        assert_eq!(
            parse_request("ATTACH db-7 8192").unwrap(),
            Request::Attach {
                tenant: "db-7".into(),
                pages: Some(8192)
            }
        );
        assert_eq!(
            parse_request("QUERY db-7 acked").unwrap(),
            Request::Query {
                tenant: "db-7".into(),
                what: QueryKind::Acked
            }
        );
        assert_eq!(parse_ack("ACK 17"), Some(17));
        assert_eq!(parse_ack("ACK 0"), Some(0));
        for not_ack in ["OK acked 17", "ACK", "ACK x", "ACK 1 2", "ack 1"] {
            assert_eq!(parse_ack(not_ack), None, "{not_ack:?}");
        }
    }

    #[test]
    fn verbs_parse_and_junk_is_rejected() {
        assert_eq!(
            parse_request("OPEN a 4096").unwrap(),
            Request::Open {
                tenant: "a".into(),
                pages: Some(4096)
            }
        );
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("QUERY a misscurve").unwrap(),
            Request::Query {
                tenant: "a".into(),
                what: QueryKind::MissCurve
            }
        );
        for bad in [
            "",
            "NOPE",
            "OPEN",
            "OPEN bad/name",
            "OPEN a x",
            "FEED a 1 2 3",
            "FEED a -1 0 0 1 r",
            "FEED a 1 0 0 1 z",
            "FEED a 0 1 0 0 1 r",
            "FEED a x 1 0 0 1 r",
            "FEED a 1 1 0 0 1 r w",
            "ATTACH",
            "ATTACH bad/name",
            "ATTACH a 1 2",
            "QUERY a everything",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }
}

//! Typed errors for the serve layer.

/// Everything that can go wrong between a job submission and its report.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure, annotated with what the daemon was doing.
    Io {
        /// What the daemon was doing when the I/O failed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The client sent something unparseable or invalid.
    BadRequest(String),
    /// The requested job (or endpoint) does not exist.
    NotFound(String),
    /// The daemon is draining: it no longer accepts new jobs but will
    /// finish the ones already queued.
    Draining,
    /// A second drain was requested while one is already in progress —
    /// the typed double-shutdown error.
    AlreadyDraining,
    /// The daemon has fully stopped; nothing can be submitted or joined.
    Stopped,
    /// A job failed while executing (simulation/spec error, stringified
    /// so reports and HTTP bodies can carry it).
    Job(String),
    /// The request body exceeded the daemon's size bound.
    PayloadTooLarge {
        /// Declared or observed size in bytes.
        bytes: usize,
        /// The daemon's limit in bytes.
        limit: usize,
    },
    /// Admission control shed the submission: the queue is at capacity
    /// (or the degradation ladder is rejecting this job class). Carries
    /// the `Retry-After` hint in seconds.
    TooBusy {
        /// Jobs queued when the submission was shed.
        queued: usize,
        /// Seconds the client should wait before retrying.
        retry_after_s: u64,
    },
    /// The per-client token bucket is empty.
    RateLimited {
        /// The client key (API key header, or `anonymous`).
        client: String,
        /// Seconds until the bucket refills one token.
        retry_after_s: u64,
    },
    /// The client is at its concurrent-job quota.
    QuotaExceeded {
        /// The client key.
        client: String,
        /// The quota that was hit.
        limit: usize,
    },
    /// A finished job's report was evicted from memory under the
    /// daemon's report budget, and no spooled copy exists.
    Gone {
        /// The job id.
        id: u64,
    },
    /// A cancel was requested for a job already in a terminal state.
    NotCancellable {
        /// The job id.
        id: u64,
        /// The terminal state the job is in.
        state: String,
    },
}

impl ServeError {
    /// Annotate an I/O error with context.
    pub fn io(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> ServeError {
        let context = context.into();
        move |source| ServeError::Io { context, source }
    }

    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Io { .. } | ServeError::Job(_) => 500,
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Draining => 503,
            ServeError::AlreadyDraining
            | ServeError::Stopped
            | ServeError::NotCancellable { .. } => 409,
            ServeError::Gone { .. } => 410,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::TooBusy { .. }
            | ServeError::RateLimited { .. }
            | ServeError::QuotaExceeded { .. } => 429,
        }
    }

    /// The `Retry-After` hint (seconds) for shed responses, if any.
    #[must_use]
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::TooBusy { retry_after_s, .. }
            | ServeError::RateLimited { retry_after_s, .. } => Some((*retry_after_s).max(1)),
            ServeError::QuotaExceeded { .. } => Some(1),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::NotFound(what) => write!(f, "not found: {what}"),
            ServeError::Draining => write!(f, "daemon is draining; not accepting new jobs"),
            ServeError::AlreadyDraining => write!(f, "drain already in progress"),
            ServeError::Stopped => write!(f, "daemon has stopped"),
            ServeError::Job(msg) => write!(f, "job failed: {msg}"),
            ServeError::PayloadTooLarge { bytes, limit } => {
                write!(
                    f,
                    "request body of {bytes} bytes exceeds the {limit}-byte limit"
                )
            }
            ServeError::TooBusy {
                queued,
                retry_after_s,
            } => write!(
                f,
                "queue full ({queued} jobs pending); retry in {retry_after_s}s"
            ),
            ServeError::RateLimited {
                client,
                retry_after_s,
            } => write!(
                f,
                "client `{client}` is rate-limited; retry in {retry_after_s}s"
            ),
            ServeError::QuotaExceeded { client, limit } => {
                write!(
                    f,
                    "client `{client}` is at its quota of {limit} active jobs"
                )
            }
            ServeError::Gone { id } => write!(
                f,
                "job {id}'s report was evicted from memory and has no spooled copy"
            ),
            ServeError::NotCancellable { id, state } => {
                write!(f, "job {id} is already {state}; nothing to cancel")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_map_the_http_contract() {
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::NotFound("x".into()).status(), 404);
        assert_eq!(ServeError::Draining.status(), 503);
        assert_eq!(ServeError::AlreadyDraining.status(), 409);
        assert_eq!(ServeError::Job("x".into()).status(), 500);
        assert_eq!(
            ServeError::PayloadTooLarge { bytes: 9, limit: 8 }.status(),
            413
        );
        assert_eq!(
            ServeError::TooBusy {
                queued: 4,
                retry_after_s: 2
            }
            .status(),
            429
        );
        assert_eq!(
            ServeError::RateLimited {
                client: "k".into(),
                retry_after_s: 1
            }
            .status(),
            429
        );
        assert_eq!(
            ServeError::QuotaExceeded {
                client: "k".into(),
                limit: 2
            }
            .status(),
            429
        );
        assert_eq!(
            ServeError::NotCancellable {
                id: 1,
                state: "done".into()
            }
            .status(),
            409
        );
    }

    #[test]
    fn retry_after_is_present_exactly_on_shed_responses() {
        assert_eq!(
            ServeError::TooBusy {
                queued: 4,
                retry_after_s: 2
            }
            .retry_after(),
            Some(2)
        );
        assert_eq!(
            ServeError::RateLimited {
                client: "k".into(),
                retry_after_s: 0
            }
            .retry_after(),
            Some(1),
            "hint is clamped to at least one second"
        );
        assert_eq!(
            ServeError::QuotaExceeded {
                client: "k".into(),
                limit: 2
            }
            .retry_after(),
            Some(1)
        );
        assert_eq!(ServeError::Draining.retry_after(), None);
        assert_eq!(ServeError::BadRequest("x".into()).retry_after(), None);
    }

    #[test]
    fn io_errors_carry_context_and_source() {
        let e = ServeError::io("binding listener")(std::io::Error::other("nope"));
        assert!(e.to_string().contains("binding listener"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

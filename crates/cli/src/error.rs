//! The exit-code error type shared by every binary.

use aggclust_core::AggError;

/// A command-line failure, mapped one-to-one onto the exit codes documented
/// in `aggclust help`. Every error prints as a single human-readable line —
/// never a backtrace.
#[derive(Debug)]
pub enum CliError {
    /// Exit 2: bad command line.
    Usage(String),
    /// Exit 3: filesystem I/O failed.
    Io(String),
    /// Exit 4: an input file did not parse.
    Parse(String),
    /// Exit 5: inputs are structurally invalid.
    InvalidInstance(String),
    /// Exit 6: input is degenerate (empty, all-missing, …).
    Degenerate(String),
    /// Exit 7: the run budget expired (anytime output was still produced).
    BudgetExceeded(String),
    /// Exit 8: the run was cancelled.
    Cancelled(String),
    /// Exit 9: the memory budget was exceeded and no degraded mode applied.
    Memory(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Parse(_) => 4,
            CliError::InvalidInstance(_) => 5,
            CliError::Degenerate(_) => 6,
            CliError::BudgetExceeded(_) => 7,
            CliError::Cancelled(_) => 8,
            CliError::Memory(_) => 9,
        }
    }

    /// The one-line description printed after `error: `.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Parse(m)
            | CliError::InvalidInstance(m)
            | CliError::Degenerate(m)
            | CliError::BudgetExceeded(m)
            | CliError::Cancelled(m)
            | CliError::Memory(m) => m,
        }
    }

    /// Print `error: <message>` to stderr and exit with [`Self::exit_code`].
    pub fn exit(self) -> ! {
        eprintln!("error: {}", self.message()); // lint:allow-eprintln
        std::process::exit(i32::from(self.exit_code()))
    }
}

impl From<AggError> for CliError {
    fn from(e: AggError) -> Self {
        let message = e.to_string();
        match e {
            AggError::InvalidParameter { .. } => CliError::Usage(message),
            AggError::Parse { .. } => CliError::Parse(message),
            AggError::InvalidInstance { .. } | AggError::TooLarge { .. } => {
                CliError::InvalidInstance(message)
            }
            AggError::Degenerate { .. } => CliError::Degenerate(message),
            AggError::BudgetExceeded { .. } => CliError::BudgetExceeded(message),
            AggError::Cancelled { .. } => CliError::Cancelled(message),
            AggError::MemoryExceeded { .. } => CliError::Memory(message),
        }
    }
}

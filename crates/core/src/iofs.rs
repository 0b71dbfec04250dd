//! The instrumented filesystem facade: every filesystem touch in the
//! crate (and the CLI) goes through here, tagged with a
//! [`crate::failpoint`] site name.
//!
//! Centralizing the `std::fs` surface buys two things:
//!
//! 1. **Totality of injection sites.** A fault plan like
//!    `snapshot.rename=io_error:nth=3` can only be trusted to cover
//!    *every* rename if no caller bypasses the facade —
//!    `ci/panic-lint.sh` enforces that bare `std::fs::` calls are
//!    illegal in non-test core/CLI code outside this module.
//! 2. **One durability idiom.** [`write_file_atomic`] (write to
//!    `path.tmp`, fsync, rename over, fsync the directory, *remove the
//!    temp file on any failure*) is the single atomic-publish routine
//!    used by checkpoints, each step an injection site:
//!    `{prefix}.create`, `{prefix}.write`, `{prefix}.fsync`,
//!    `{prefix}.rename`.
//!
//! Site catalog (see `DESIGN.md` §6i): `snapshot.{create,write,fsync,
//! rename}` and `snapshot.read` (checkpoints), `trace.create` (the
//! `--trace-out` sink), `cli.input`, `cli.candidate`, `cli.output`,
//! `cli.metrics`, `cli.cleanup` (the command-line frontend), plus the
//! virtual `clock` and `alloc` sites handled by
//! [`crate::telemetry::Clock`] and [`crate::robust::RunBudget`].
//!
//! Torn faults (`kind=torn`) are *silent*: the write stops at a seeded
//! cut but reports success, so the CRC-framed formats must detect the
//! truncation at read time — exactly the contract the corruption suites
//! assert. Reads under a torn clause hand back a truncated payload the
//! same way.

use crate::failpoint::{self, Fault};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Convert a fault into the error that fails the current step. Torn and
/// alloc faults make no sense for a non-write step; they fail it with the
/// generic injected error rather than being silently dropped.
fn deny(fault: Fault) -> io::Error {
    match fault {
        Fault::Io(e) => e,
        Fault::Torn { .. } | Fault::AllocFail { .. } => {
            io::Error::other("injected fault (failpoint)")
        }
    }
}

/// [`std::fs::read`] behind the `site` failpoint. A torn clause truncates
/// the returned bytes at the seeded cut (a short read the checksums must
/// catch); an I/O clause fails the read.
pub fn read(site: &str, path: &Path) -> io::Result<Vec<u8>> {
    let mut data = fs::read(path)?;
    match failpoint::check_path(site, path, data.len()) {
        None => Ok(data),
        Some(Fault::Torn { cut }) => {
            data.truncate(cut);
            Ok(data)
        }
        Some(fault) => Err(deny(fault)),
    }
}

/// [`std::fs::read_to_string`] behind the `site` failpoint. Torn clauses
/// truncate at the seeded cut, rounded down to a char boundary.
pub fn read_to_string(site: &str, path: &Path) -> io::Result<String> {
    let mut text = fs::read_to_string(path)?;
    match failpoint::check_path(site, path, text.len()) {
        None => Ok(text),
        Some(Fault::Torn { mut cut }) => {
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            Ok(text)
        }
        Some(fault) => Err(deny(fault)),
    }
}

/// [`std::fs::write`] behind the `site` failpoint (the CLI's plain,
/// non-atomic outputs). A torn clause silently truncates the write.
pub fn write(site: &str, path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let bytes = contents.as_ref();
    match failpoint::check_path(site, path, bytes.len()) {
        None => fs::write(path, bytes),
        Some(Fault::Torn { cut }) => fs::write(path, &bytes[..cut]),
        Some(fault) => Err(deny(fault)),
    }
}

/// [`std::fs::File::create`] behind the `site` failpoint.
pub fn create(site: &str, path: &Path) -> io::Result<fs::File> {
    if let Some(fault) = failpoint::check_path(site, path, 0) {
        return Err(deny(fault));
    }
    fs::File::create(path)
}

/// [`std::fs::remove_file`] behind the `site` failpoint.
pub fn remove_file(site: &str, path: &Path) -> io::Result<()> {
    if let Some(fault) = failpoint::check_path(site, path, 0) {
        return Err(deny(fault));
    }
    fs::remove_file(path)
}

/// Write `bytes` to `path` atomically: write to `path.tmp`, fsync,
/// rename over `path`, then best-effort fsync the directory so the
/// rename itself is durable. A crash mid-write leaves either the old
/// file or the complete new one, never a torn file — and when any step
/// fails (or a failpoint fails it), the temp file is removed instead of
/// leaking beside the target.
///
/// Each step checks the `{prefix}.create` / `{prefix}.write` /
/// `{prefix}.fsync` / `{prefix}.rename` failpoints, scoped to the final
/// `path`. A torn clause on the write step truncates the payload but
/// lets the publish *succeed* — producing exactly the corrupt-but-
/// renamed file the CRC envelope must reject at load time.
pub fn write_file_atomic(prefix: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp: PathBuf = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let result = write_atomic_steps(prefix, path, &tmp, bytes);
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_atomic_steps(prefix: &str, path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(fault) = failpoint::check_op(prefix, "create", path, bytes.len()) {
        return Err(deny(fault));
    }
    let mut file = fs::File::create(tmp)?;
    match failpoint::check_op(prefix, "write", path, bytes.len()) {
        None => file.write_all(bytes)?,
        Some(Fault::Torn { cut }) => file.write_all(&bytes[..cut])?,
        Some(fault) => return Err(deny(fault)),
    }
    if let Some(fault) = failpoint::check_op(prefix, "fsync", path, bytes.len()) {
        return Err(deny(fault));
    }
    file.sync_all()?;
    drop(file);
    if let Some(fault) = failpoint::check_op(prefix, "rename", path, bytes.len()) {
        return Err(deny(fault));
    }
    fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{arm, FaultPlan};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggclust-iofs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir must be creatable");
        dir
    }

    fn plan(spec: &str, dir: &Path) -> FaultPlan {
        // Scope every clause to this test's own temp dir so parallel
        // tests never see each other's storms.
        let scoped: Vec<String> = spec
            .split(',')
            .map(|c| format!("{c}:path={}", dir.display()))
            .collect();
        FaultPlan::parse(&scoped.join(",")).expect("plan must parse")
    }

    #[test]
    fn atomic_write_round_trips_without_faults() {
        let dir = temp_dir("clean");
        let target = dir.join("out.bin");
        write_file_atomic("t", &target, b"payload").expect("clean write succeeds");
        assert_eq!(fs::read(&target).expect("readable"), b"payload");
        assert!(!tmp_of(&target).exists(), "temp file must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    fn tmp_of(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }

    #[test]
    fn fsync_failure_fails_the_write_and_removes_the_temp_file() {
        let dir = temp_dir("fsync");
        let target = dir.join("out.bin");
        {
            let _guard = arm(plan("t.fsync=io_error", &dir));
            let err = write_file_atomic("t", &target, b"payload")
                .expect_err("fsync fault must fail the write");
            assert_eq!(err.kind(), io::ErrorKind::Other);
        }
        assert!(!target.exists(), "nothing may be published");
        assert!(!tmp_of(&target).exists(), "temp file must be cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_enospc_fails_the_write_and_removes_the_temp_file() {
        let dir = temp_dir("rename");
        let target = dir.join("out.bin");
        fs::write(&target, b"old").expect("seed the old file");
        {
            let _guard = arm(plan("t.rename=enospc", &dir));
            let err = write_file_atomic("t", &target, b"new payload")
                .expect_err("rename ENOSPC must fail the write");
            assert_eq!(err.raw_os_error(), Some(28));
        }
        assert_eq!(
            fs::read(&target).expect("old file intact"),
            b"old",
            "a failed publish must leave the previous contents"
        );
        assert!(
            !tmp_of(&target).exists(),
            "the temp file must not leak after a failed rename"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_publishes_a_truncated_file_silently() {
        let dir = temp_dir("torn");
        let target = dir.join("out.bin");
        let payload = vec![0xabu8; 256];
        {
            let _guard = arm(plan("t.write=torn:seed=9", &dir));
            write_file_atomic("t", &target, &payload)
                .expect("a torn write reports success — that is the point");
        }
        let published = fs::read(&target).expect("file was renamed into place");
        assert!(
            published.len() < payload.len(),
            "the published file must be truncated"
        );
        assert_eq!(published, payload[..published.len()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_read_hands_back_a_short_payload() {
        let dir = temp_dir("shortread");
        let target = dir.join("in.bin");
        fs::write(&target, vec![7u8; 128]).expect("seed the file");
        let _guard = arm(plan("t.read=torn:seed=3", &dir));
        let data = read("t.read", &target).expect("torn reads succeed short");
        assert!(data.len() < 128);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_step_fault_prevents_the_temp_file_entirely() {
        let dir = temp_dir("create");
        let target = dir.join("out.bin");
        let _guard = arm(plan("t.create=io_error", &dir));
        write_file_atomic("t", &target, b"x").expect_err("create fault fails");
        assert!(!target.exists());
        assert!(!tmp_of(&target).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

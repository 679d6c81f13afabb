//! Minimal raw libc bindings for the host runtime (x86-64 Linux/glibc).
//!
//! The runtime needs only a dozen syscall wrappers — memory mapping,
//! signal installation, and process control for tests — so they are
//! declared here directly instead of pulling in an external bindings
//! crate. Layouts mirror glibc's x86-64 definitions; only the fields the
//! runtime reads are exposed by name.

#![allow(non_camel_case_types, non_snake_case, missing_docs)]

pub use core::ffi::{
    c_char,
    c_int,
    c_uint,
    c_void,
};

pub type off_t = i64;
pub type size_t = usize;
pub type pid_t = i32;

/// glibc `sigset_t`: 1024 bits.
pub type sigset_t = [u64; 16];

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;
pub const MAP_SHARED: c_int = 1;
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

pub const SIGSEGV: c_int = 11;
pub const SIGKILL: c_int = 9;
pub const SA_SIGINFO: c_int = 4;
#[allow(overflowing_literals)]
pub const SA_RESTART: c_int = 0x1000_0000;
pub const SIG_DFL: usize = 0;

/// Index of the page-fault error code in `mcontext_t.gregs` (x86-64).
pub const REG_ERR: c_int = 19;

/// glibc `struct sigaction` (x86-64 layout: handler, mask, flags,
/// restorer).
#[repr(C)]
pub struct sigaction {
    pub sa_sigaction: usize,
    pub sa_mask: sigset_t,
    pub sa_flags: c_int,
    sa_restorer: usize,
}

/// glibc `siginfo_t` (128 bytes). Only `si_addr` is read, via the
/// accessor, matching its offset for memory-access signals.
#[repr(C)]
pub struct siginfo_t {
    pub si_signo: c_int,
    pub si_errno: c_int,
    pub si_code: c_int,
    _pad: c_int,
    _sifields: [u64; 14],
}

impl siginfo_t {
    /// The faulting address (valid for `SIGSEGV`/`SIGBUS`).
    ///
    /// # Safety
    ///
    /// Only meaningful inside a handler for a memory-access signal,
    /// where the kernel fills this union arm.
    pub unsafe fn si_addr(&self) -> *mut c_void {
        self._sifields[0] as *mut c_void
    }
}

/// glibc `mcontext_t` (x86-64): general registers first.
#[repr(C)]
pub struct mcontext_t {
    pub gregs: [i64; 23],
    _fpregs: *mut c_void,
    _reserved1: [u64; 8],
}

/// glibc `ucontext_t` (x86-64), up to the fields the handler reads.
/// The kernel hands the handler a pointer into a full-size structure;
/// trailing fields (signal mask, FP state) are simply not declared.
#[repr(C)]
pub struct ucontext_t {
    _uc_flags: u64,
    _uc_link: *mut ucontext_t,
    _uc_stack: [u64; 3],
    pub uc_mcontext: mcontext_t,
}

/// glibc `struct timespec`.
#[repr(C)]
pub struct timespec {
    pub tv_sec: i64,
    pub tv_nsec: i64,
}

extern "C" {
    pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    pub fn ftruncate(fd: c_int, length: off_t) -> c_int;
    pub fn mmap(
        addr: *mut c_void,
        length: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    pub fn munmap(addr: *mut c_void, length: size_t) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn __errno_location() -> *mut c_int;

    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;
    pub fn raise(sig: c_int) -> c_int;
    pub fn nanosleep(req: *const timespec, rem: *mut timespec) -> c_int;

    pub fn fork() -> pid_t;
    pub fn _exit(status: c_int) -> !;
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
}

/// True if the child exited due to a signal (`WIFSIGNALED`).
pub fn WIFSIGNALED(status: c_int) -> bool {
    ((status & 0x7f) + 1) as i8 >> 1 > 0
}

/// The terminating signal number (`WTERMSIG`).
pub fn WTERMSIG(status: c_int) -> c_int {
    status & 0x7f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigaction_layout_matches_glibc() {
        // glibc x86-64: 8 (handler) + 128 (mask) + 4 (+4 pad) + 8.
        assert_eq!(core::mem::size_of::<sigaction>(), 152);
        assert_eq!(core::mem::size_of::<siginfo_t>(), 128);
        // gregs start 40 bytes into ucontext_t (flags + link + stack_t).
        assert_eq!(core::mem::offset_of!(ucontext_t, uc_mcontext), 40);
    }

    #[test]
    fn wait_status_decoding() {
        // A status of "killed by SIGSEGV" is the raw signal number.
        assert!(WIFSIGNALED(SIGSEGV));
        assert_eq!(WTERMSIG(SIGSEGV), SIGSEGV);
        // Normal exit (status << 8) is not a signal death.
        assert!(!WIFSIGNALED(0));
        assert!(!WIFSIGNALED(1 << 8));
    }
}

//! The `SIGSEGV` fault path: handler installation, typed-fault
//! classification, and the handler↔kernel-thread mailbox.
//!
//! Everything the handler touches is async-signal-safe: atomics, the
//! static region table, and `nanosleep(2)`. The site's kernel thread
//! polls the mailbox; nothing wakes it.

use core::sync::atomic::{
    AtomicU32,
    AtomicUsize,
    Ordering,
};

use crate::region;
use crate::sys as libc;

/// Fault slots per site (max concurrent faulting app threads).
pub const SLOTS_PER_SITE: usize = 64;
/// Maximum site slots in one process (across all clusters ever started;
/// slots are never reused).
pub const MAX_SITES: usize = 64;

/// Slot states.
pub const FREE: u32 = 0;
const CLAIMING: u32 = 1;
/// Posted by the handler, awaiting kernel pickup.
pub const POSTED: u32 = 2;
/// Kernel thread took the fault; the process is "asleep".
pub const IN_SERVICE: u32 = 4;
/// Granted; the handler may return and retry the access.
pub const GRANTED: u32 = 3;

/// One fault mailbox slot.
#[derive(Debug)]
pub struct FaultSlot {
    /// State machine: FREE → CLAIMING → POSTED → IN_SERVICE → GRANTED →
    /// FREE.
    pub state: AtomicU32,
    /// Faulting user-view address.
    pub addr: AtomicUsize,
    /// 1 if the access was a write.
    pub write: AtomicU32,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: FaultSlot = FaultSlot {
    state: AtomicU32::new(FREE),
    addr: AtomicUsize::new(0),
    write: AtomicU32::new(0),
};

/// Per-site fault mailboxes, indexed by site.
pub static MAILBOXES: [[FaultSlot; SLOTS_PER_SITE]; MAX_SITES] =
    [const { [EMPTY_SLOT; SLOTS_PER_SITE] }; MAX_SITES];

/// Per-site poison flags: a site whose kernel thread has exited. The
/// handler must never park a thread against a dead kernel — no one
/// would ever grant it — so faults on a poisoned site return
/// immediately and the access retries against the opened (read-write)
/// teardown protections.
static POISONED: [AtomicU32; MAX_SITES] = [const { AtomicU32::new(0) }; MAX_SITES];

/// Marks a site's kernel as gone. Called by the kernel on its way out,
/// *after* it has opened every page read-write, so a retried access
/// succeeds instead of refaulting forever. Site slots are never reused,
/// so poisoning is permanent for the slot.
pub fn poison(site: usize) {
    POISONED[site].store(1, Ordering::Release);
}

/// True once [`poison`] has been called for the site slot.
pub fn is_poisoned(site: usize) -> bool {
    POISONED[site].load(Ordering::Acquire) != 0
}

/// Extracts the "access was a write" bit from the fault context.
///
/// On x86-64, bit 1 of the page-fault error code (saved in
/// `uc_mcontext.gregs[REG_ERR]`) is set for writes — the analogue of
/// the paper's "VAX hardware bit that indicates the fault type" (§6.2).
#[cfg(target_arch = "x86_64")]
fn fault_is_write(ctx: *mut libc::c_void) -> bool {
    // SAFETY: the kernel passes a valid `ucontext_t` as the third
    // argument of an SA_SIGINFO handler; we only read the error-code
    // general register slot.
    unsafe {
        let uc = ctx.cast::<libc::ucontext_t>();
        let err = (*uc).uc_mcontext.gregs[libc::REG_ERR as usize];
        err & 0x2 != 0
    }
}

/// Portable fallback: infer the fault type from the page's current
/// protection at request time (a fault on a readable page must be a
/// write). The runtime uses protection inference on non-x86 targets.
#[cfg(not(target_arch = "x86_64"))]
fn fault_is_write(_ctx: *mut libc::c_void) -> bool {
    false
}

/// The `SIGSEGV` handler.
///
/// # Safety contract (async-signal-safety)
///
/// Touches only: `siginfo` fields, the static atomics above, the static
/// region table, and the `nanosleep` syscall. Never allocates,
/// locks, or panics on the DSM path; a fault outside every registered
/// region reinstalls the default disposition and re-raises, so genuine
/// crashes still crash.
extern "C" fn on_sigsegv(
    _sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    // SAFETY: the kernel passes a valid siginfo for SA_SIGINFO handlers.
    let addr = unsafe { (*info).si_addr() } as usize;
    let Some(hit) = region::lookup(addr) else {
        // A real segfault: restore default and re-raise so the process
        // dies with an honest SIGSEGV instead of spinning here.
        // SAFETY: resetting a signal disposition and re-raising are
        // async-signal-safe.
        unsafe {
            let mut sa: libc::sigaction = core::mem::zeroed();
            sa.sa_sigaction = libc::SIG_DFL;
            libc::sigaction(libc::SIGSEGV, &sa, core::ptr::null_mut());
            libc::raise(libc::SIGSEGV);
        }
        return;
    };
    if POISONED[hit.site].load(Ordering::Acquire) != 0 {
        // Dead kernel: the teardown path already opened the pages, so
        // returning retries the access successfully. Never park here.
        return;
    }
    let is_write = fault_is_write(ctx);
    let slots = &MAILBOXES[hit.site];
    // Claim a slot.
    let mut idx = usize::MAX;
    for (i, s) in slots.iter().enumerate() {
        if s.state.compare_exchange(FREE, CLAIMING, Ordering::AcqRel, Ordering::Relaxed).is_ok()
        {
            idx = i;
            break;
        }
    }
    if idx == usize::MAX {
        // All slots busy: brief sleep and retry by returning — the
        // instruction refaults immediately.
        nanosleep_ms(1);
        return;
    }
    let slot = &slots[idx];
    slot.addr.store(addr, Ordering::Relaxed);
    slot.write.store(u32::from(is_write), Ordering::Relaxed);
    slot.state.store(POSTED, Ordering::Release);
    // Sleep until granted ("the faulting process awaits the library's
    // request processing by sleeping", §6.1). A kernel that dies while
    // we sleep poisons the site instead of granting; bail out so the
    // thread survives cluster teardown.
    while slot.state.load(Ordering::Acquire) != GRANTED {
        if POISONED[hit.site].load(Ordering::Acquire) != 0 {
            slot.state.store(FREE, Ordering::Release);
            return;
        }
        nanosleep_ms(1);
    }
    slot.state.store(FREE, Ordering::Release);
    // Return: the faulting instruction retries against the new mapping.
}

fn nanosleep_ms(ms: u64) {
    let ts = libc::timespec { tv_sec: 0, tv_nsec: (ms * 1_000_000) as i64 };
    // SAFETY: nanosleep with a valid timespec; async-signal-safe.
    unsafe {
        libc::nanosleep(&ts, core::ptr::null_mut());
    }
}

/// Installs the handler once per process.
pub fn install_handler() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // SAFETY: standard SA_SIGINFO handler installation; the handler
        // obeys the async-signal-safety contract documented above.
        unsafe {
            let mut sa: libc::sigaction = core::mem::zeroed();
            sa.sa_sigaction = on_sigsegv as extern "C" fn(_, _, _) as usize;
            sa.sa_flags = libc::SA_SIGINFO | libc::SA_RESTART;
            libc::sigemptyset(&mut sa.sa_mask);
            let rc = libc::sigaction(libc::SIGSEGV, &sa, core::ptr::null_mut());
            assert_eq!(rc, 0, "sigaction failed");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_state_machine_constants_distinct() {
        let states = [FREE, CLAIMING, POSTED, IN_SERVICE, GRANTED];
        for (i, a) in states.iter().enumerate() {
            for b in states.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn handler_installation_is_idempotent() {
        install_handler();
        install_handler();
    }
}

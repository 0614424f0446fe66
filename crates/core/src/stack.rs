//! The one depth guard every recursive pass shares (DESIGN.md §7): a
//! pass calls [`check`] at each recursive step and stops with
//! [`TooDeep`] when this thread's stack is within [`RESERVE`] (an
//! eighth of a smaller stack) of its floor. A stack overflow aborts the
//! process; `catch_unwind` cannot catch it.

use std::cell::Cell;

/// The stack a pass leaves unused when it gives up: room for the error
/// to travel back and for partial results to drop. A thread of less
/// than 1 MiB keeps an eighth of its stack instead.
pub const RESERVE: usize = 128 << 10;

/// A pass stopped because this thread's stack is nearly spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooDeep;

impl std::fmt::Display for TooDeep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nesting too deep for this thread's stack")
    }
}

thread_local! {
    static LIMIT: Cell<usize> = const { Cell::new(0) };
}

/// The lowest address a pass on this thread may reach: the reserve
/// above the stack's floor, computed once per thread.
pub fn limit() -> usize {
    LIMIT.with(|limit| {
        if limit.get() == 0 {
            let (floor, size) = stack();
            limit.set(floor.saturating_add(RESERVE.min(size / 8)).max(1));
        }
        limit.get()
    })
}

/// `Err` when the caller's frame is below `limit`, a [`limit`] read
/// earlier on this thread (the evaluator keeps one in its context).
#[inline]
pub fn within(limit: usize) -> Result<(), TooDeep> {
    let here = 0u8;
    if std::ptr::addr_of!(here) as usize >= limit { Ok(()) } else { Err(TooDeep) }
}

/// `Err` when this thread's stack is within the reserve of its floor.
#[inline]
pub fn check() -> Result<(), TooDeep> {
    within(limit())
}

/// The lowest address of this thread's stack and its size, as the C
/// library reports them; elsewhere, 1 MiB below the first address seen
/// on the thread.
fn stack() -> (usize, usize) {
    #[cfg(target_os = "linux")]
    {
        /// Room for a `pthread_attr_t` (56 bytes on x86-64, 64 on aarch64).
        #[repr(C, align(16))]
        struct Attr([u8; 128]);
        extern "C" {
            fn pthread_self() -> usize;
            fn pthread_getattr_np(thread: usize, attr: *mut Attr) -> i32;
            fn pthread_attr_getstack(attr: *const Attr, addr: *mut usize, size: *mut usize) -> i32;
            fn pthread_attr_destroy(attr: *mut Attr) -> i32;
        }
        let (mut attr, mut addr, mut size) = (Attr([0; 128]), 0, 0);
        // SAFETY: `attr` outlives the calls and is large enough for the
        // C library's attribute object, which is destroyed only once
        // initialised; `addr` and `size` are plain out-parameters.
        unsafe {
            if pthread_getattr_np(pthread_self(), &mut attr) == 0 {
                let got = pthread_attr_getstack(&attr, &mut addr, &mut size);
                pthread_attr_destroy(&mut attr);
                if got == 0 {
                    return (addr, size);
                }
            }
        }
    }
    let here = 0u8;
    ((std::ptr::addr_of!(here) as usize).saturating_sub(1 << 20), 1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_guard_admits_a_shallow_frame_and_refuses_past_the_limit() {
        let here = 0u8;
        let at = std::ptr::addr_of!(here) as usize;
        assert!(limit() < at && at - limit() > RESERVE, "a test thread has more than the reserve");
        assert_eq!(check(), Ok(()));
        assert_eq!(within(usize::MAX), Err(TooDeep));
    }
}

//! Spans taken from outside, and the allocation counter behind
//! `*_allocs`.
//!
//! The program under test is not instrumented: the benchmark brackets
//! each call into a crate's public functions with
//! [`Tracer::enter`]/[`Tracer::exit`]. Spans stay in memory and are
//! written out once, after the last measured round. An untraced run
//! uses [`Tracer::off`], whose `enter`/`exit` never read the clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations while a traced repetition runs and forwards
/// everything to the system allocator. One binary serves `--trace 0`
/// and `--trace 1`, so the wrapper is always linked; while counting is
/// off an allocation pays one relaxed load on top of `malloc`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One counter per cache line. The sharded walk allocates from several
/// threads at once; a single shared counter would bounce its line
/// between cores and slow the traced run by a fifth.
#[repr(align(64))]
struct Slot(AtomicU64);

const SLOTS: usize = 16;
// Statistics that publish no other data: `Relaxed` throughout.
static ALLOCATIONS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static THREAD_MARK: u8 = const { 0 };
}

#[inline]
fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        // Threads get distinct thread-local addresses; spread them over
        // the slots. `try_with` fails only during thread teardown.
        let slot = THREAD_MARK.try_with(|m| (m as *const u8 as usize >> 6) % SLOTS).unwrap_or(0);
        ALLOCATIONS[slot].0.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.iter().map(|slot| slot.0.load(Ordering::Relaxed)).sum()
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The bracketed call, `<crate>.<stage>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round the span belongs to (warm-up rounds are negative).
    pub round: i32,
    /// Heap allocations made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Token(u32);

const NO_SPAN: u32 = u32::MAX;

/// Records spans, or does nothing at all when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: i32,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Tracer { on: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), round: 0 }
    }

    /// A recording tracer; switches the allocation counter on until
    /// [`Tracer::finish`].
    pub fn on() -> Self {
        COUNTING.store(true, Ordering::Relaxed);
        // Reserved up front so the span store itself never allocates
        // (and so never counts) inside a span.
        Tracer {
            on: true,
            spans: Vec::with_capacity(1 << 17),
            open: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Labels subsequent spans with `round`.
    pub fn set_round(&mut self, round: i32) {
        self.round = round;
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(NO_SPAN);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            round: self.round,
            allocs: 0,
        });
        let span = &mut self.spans[idx as usize];
        span.allocs = allocations();
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping stays outside the span.
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
        Token(idx)
    }

    /// Closes the span `token` opened.
    #[inline]
    pub fn exit(&mut self, token: Token) {
        if token.0 == NO_SPAN {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let now_allocs = allocations();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(token.0), "spans must close innermost first");
        let span = &mut self.spans[token.0 as usize];
        span.end_ns = end_ns;
        span.allocs = now_allocs - span.allocs;
    }

    /// Stops counting allocations and hands back the recorded spans.
    pub fn finish(self) -> Vec<Span> {
        if self.on {
            COUNTING.store(false, Ordering::Relaxed);
        }
        assert!(self.open.is_empty(), "finish with a span still open");
        self.spans
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover. Children of one parent never overlap (spans close
/// innermost first on one thread), so the covered part is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes `spans` as JSON lines: one object per span with the keys
/// `id`, `name`, `start_ns`, `end_ns`, `parent`, `round`, `allocs`,
/// `self_ns`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"round\":{},\"allocs\":{},\"self_ns\":{self_ns}}}",
            span.name, span.start_ns, span.end_ns, span.round, span.allocs
        )?;
    }
    out.flush()
}

//! The benchmark's only wall-clock source. The repository's linter bans
//! wall-clock reads outside its figure benches; this module is the one
//! justified exception in the benchmark, since measuring time is its job.

/// Monotonic nanoseconds since the clock was made.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    // cat-lint: allow(wall-clock) -- the benchmark measures elapsed time
    origin: std::time::Instant,
}

impl Clock {
    #[allow(clippy::disallowed_methods)] // the benchmark measures elapsed time
    pub fn new() -> Self {
        Clock {
            // cat-lint: allow(wall-clock) -- the benchmark measures elapsed time
            origin: std::time::Instant::now(),
        }
    }

    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::new();
    let out = f();
    (out, clock.s())
}

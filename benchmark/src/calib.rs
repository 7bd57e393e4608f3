//! Calibration: the benchmark's yardstick for how fast the machine is at a
//! given moment, and the arithmetic that states a measured time at the
//! yardstick's nominal speed.
//!
//! The benchmark runs on a few cores of a shared host.  For seconds or for
//! minutes at a time, whatever else the host runs makes the same binary on
//! the same inputs 1.3 to 2.5 times slower.  No statistic of a run's own
//! timings removes that, because whole runs fall inside such a phase: over
//! ten runs of one workload the quartiles of a raw median latency lay 15 to
//! 60 % apart, those of a raw throughput up to 85 %.  What does remove it is
//! a second measurement taken at the same moments, of work that does not
//! change when the program does.
//!
//! That work is the [`Kernel`] below: a fixed mix of what the program's own
//! work is made of (text parsing, many small allocations, ordered and hashed
//! containers built, forked, probed and freed, sorting, probes that miss the
//! cache).  It runs in a process of its
//! own — so nothing the program does to its heap can move it, and its data
//! is not in the program's resident set — between the slices of a measured
//! window and around every set-up.  An operation's time is then split in
//! two: the part in which this process was on a CPU, which slows down with
//! the machine and is divided by the measured slowdown, and the part in which
//! it waited (the server's batch window is a 200 µs sleep), which does not
//! and is left as it is.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one run of the kernel takes, in microseconds, when the authoring
/// container is quiet: the speed every calibrated time is stated at.  On a
/// machine where the kernel takes exactly this long, calibrated and raw
/// times agree.
pub const NOMINAL_US: f64 = 7_500.0;

/// The first argument of the yardstick process (see [`serve`]).
pub const YARDSTICK_ARG: &str = "yardstick";

/// Seconds of CPU time this process — all its threads — has used so far.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` as 64-bit Linux
    // lays it out (two 64-bit fields); the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A time of `wall` (any unit), `cpu` of it on a CPU, measured while the
/// machine ran `slowdown` times slower than nominal, as it would have read
/// at nominal speed.
pub fn calibrated(wall: f64, cpu: f64, slowdown: f64) -> f64 {
    let cpu = cpu.clamp(0.0, wall);
    wall - cpu + cpu / slowdown
}

/// How many times slower than nominal the machine ran, from the kernel's
/// times (µs) taken around the interval in question: their median.
pub fn slowdown(kernel_us: &[f64]) -> f64 {
    crate::util::median(kernel_us) / NOMINAL_US
}

/// The fixed input of the kernel.
struct Kernel {
    texts: Vec<String>,
    unsorted: Vec<u64>,
    map: HashMap<u64, u64>,
}

const ROWS: u64 = 6_000;
const MAP_KEYS: u64 = 200_000;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Kernel {
    fn new() -> Kernel {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let texts = (0..ROWS)
            .map(|i| {
                let x = next();
                format!("{}, {}, {}, {}", x % 997, i % 14, x % 100_003, 30 + x % 600)
            })
            .collect();
        Kernel {
            texts,
            unsorted: (0..32_768).map(|_| next()).collect(),
            map: (0..MAP_KEYS).map(|i| (i.wrapping_mul(GOLDEN), i)).collect(),
        }
    }

    fn numbers(text: &str) -> impl Iterator<Item = u64> + '_ {
        text.split(", ").map(|f| f.parse().expect("a number"))
    }

    /// One run; how long it took, in microseconds.
    ///
    /// The parts were tried one by one and in sums as the yardstick of forty
    /// runs per workload: the allocating part tracks the write paths best, the
    /// parsing and sorting the ad-hoc reads, and the cache-missing probes leave
    /// the caches cold for the next run, as the program's own work does to
    /// itself.  The sum of the four was among the best on every workload.
    fn run(&self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        // Rows of text into tuples, kept ordered and indexed by their first
        // two columns; the ordered set forked, both probed, everything given
        // back to the allocator.
        let rows: BTreeSet<Vec<u64>> = self
            .texts
            .iter()
            .map(|text| Kernel::numbers(text).collect())
            .collect();
        let mut groups: HashMap<(u64, u64), Vec<&Vec<u64>>> = HashMap::new();
        for row in &rows {
            groups.entry((row[0], row[1])).or_default().push(row);
        }
        let fork = rows.clone();
        for text in self.texts.iter().step_by(3) {
            let mut fields = Kernel::numbers(text);
            let key = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
            for row in groups.get(&key).into_iter().flatten() {
                sum += u64::from(fork.contains(*row)) + row[3];
            }
        }
        drop((groups, fork));
        drop(rows);
        // Sorting; parsing without allocating; probes of a 200 000-key map.
        let mut sorted = self.unsorted.clone();
        sorted.sort_unstable();
        sum += sorted[sorted.len() / 2];
        for _ in 0..4 {
            let numbers = self.texts.iter().flat_map(|t| Kernel::numbers(t));
            sum += numbers.sum::<u64>();
        }
        for i in 0..50_000 {
            let key = (i * 7 % MAP_KEYS).wrapping_mul(GOLDEN);
            sum += self.map.get(&key).copied().unwrap_or(0);
        }
        black_box(sum);
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// The yardstick process's main: one kernel run per line read from standard
/// input, its time in microseconds written back as a line, until the input
/// ends.
pub fn serve() -> std::io::Result<()> {
    let kernel = Kernel::new();
    let (stdin, mut stdout) = (std::io::stdin(), std::io::stdout());
    let mut line = String::new();
    while stdin.lock().read_line(&mut line)? > 0 {
        writeln!(stdout, "{}", kernel.run())?;
        stdout.flush()?;
        line.clear();
    }
    Ok(())
}

/// The kernel in a process of its own, run on request.
pub struct Yardstick {
    child: Child,
    /// `None` once closed, which ends the child.
    requests: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
}

impl Yardstick {
    /// Start the yardstick process: this executable with [`YARDSTICK_ARG`].
    pub fn start() -> Result<Yardstick, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .arg(YARDSTICK_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let requests = child.stdin.take();
        let answers = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut yardstick = Yardstick {
            child,
            requests,
            answers,
        };
        // The first runs grow the child's heap.
        for _ in 0..3 {
            yardstick.measure();
        }
        Ok(yardstick)
    }

    /// One run of the kernel, now; its time in microseconds.
    pub fn measure(&mut self) -> f64 {
        let requests = self.requests.as_mut().expect("open until dropped");
        requests.write_all(b"\n").expect("the yardstick reads");
        let mut line = String::new();
        self.answers
            .read_line(&mut line)
            .expect("the yardstick answers");
        line.trim().parse().expect("the yardstick answers a time")
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // End of input ends the child; wait until it has ended.
        self.requests = None;
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_cpu_part_of_a_time_is_scaled() {
        // 200 waiting + 100 on a CPU at half speed: 200 + 50.
        assert_eq!(calibrated(300.0, 100.0, 2.0), 250.0);
        // CPU time beyond the wall time (other threads ran too) counts as all of it.
        assert_eq!(calibrated(300.0, 400.0, 2.0), 150.0);
        assert_eq!(calibrated(300.0, 100.0, 1.0), 300.0);
        let times = [NOMINAL_US, 3.0 * NOMINAL_US, 2.0 * NOMINAL_US];
        assert_eq!(slowdown(&times), 2.0);
    }

    #[test]
    fn the_kernel_and_the_cpu_clock_run() {
        let kernel = Kernel::new();
        let before = process_cpu_s();
        assert!(kernel.run() > 0.0);
        assert!(process_cpu_s() > before);
    }
}

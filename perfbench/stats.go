package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// tailBeyond is how many samples must lie beyond the tail percentile a
// summary reports, so that one stray sample cannot set it alone.
const tailBeyond = 10

// latencies summarises a set of durations: the median, and the highest
// percentile up to p99 that has at least tailBeyond samples beyond it.
type latencies struct {
	n       int
	p50     time.Duration
	tail    time.Duration
	tailPct float64
	mean    time.Duration
	sum     time.Duration
}

func summarize(samples []time.Duration) latencies {
	if len(samples) == 0 {
		return latencies{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	n := len(s)
	// p99 when 1 % of the samples is at least tailBeyond of them; otherwise
	// the sample with exactly tailBeyond beyond it; the maximum when there
	// are fewer samples than that.
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-idx < tailBeyond {
		idx = max(n-1-tailBeyond, 0)
	}
	if n <= tailBeyond {
		idx = n - 1
	}
	return latencies{
		n:       n,
		p50:     s[n/2],
		tail:    s[idx],
		tailPct: 100 * float64(idx+1) / float64(n),
		mean:    sum / time.Duration(n),
		sum:     sum,
	}
}

// describe is the report line fragment naming the sample count and the
// percentile the tail figure really is.
func (l latencies) describe() string {
	return fmt.Sprintf("n=%d, tail=p%.1f", l.n, l.tailPct)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur is the median of a set of durations (0 for none).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// vmHWM reads the peak resident set size of process pid ("self" for this
// process) from /proc, in MiB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// procCPU returns the CPU time process pid (0 for this process) has run so
// far, all its threads together, from the kernel's scheduler clock
// (clock_gettime on the process's CPU clock). With paravirtual steal
// accounting, time the hypervisor gave to other guests is not in it, which
// is why the gated figures are per CPU second rather than per wall second.
func procCPU(pid int) (time.Duration, error) {
	clock := int32(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = int32(^pid)<<3 | 2 // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuProcs are the processes a workload can run on, in report order: the
// benchmark process itself (the engine on batch and highd, the clients on
// serve) and serve's three nodes.
var cpuProcs = [...]string{"bench", "primary", "follower", "router"}

// cpuMeter holds the pids of the processes a workload runs on, in cpuProcs
// order; a workload that runs fewer lists a prefix.
type cpuMeter []int

// read returns the CPU time each process has run so far.
func (m cpuMeter) read() ([]time.Duration, error) {
	out := make([]time.Duration, len(m))
	for i, pid := range m {
		var err error
		if out[i], err = procCPU(pid); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cpuTimes reads the aggregate CPU line of /proc/stat: the total of all
// fields and the steal field (time the hypervisor ran something else), in
// clock ticks.
func cpuTimes() (total, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// firstMismatch reports the first index where got and want differ, or -1.
func firstMismatch(got, want []int) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the method of
// Python's statistics.quantiles (method "exclusive"): rank p·(n+1),
// interpolated linearly and clamped to the sample range.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return s[0]
	case lo >= len(s):
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the spread behind a median: the sample count, quartiles
// and extremes, as recorded in every run's report.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{
		N: len(xs), Min: slices.Min(xs), Max: slices.Max(xs),
		Q1: quantile(xs, 0.25), Median: quantile(xs, 0.5), Q3: quantile(xs, 0.75),
	}
}

// tail reports the tailPct-th percentile of job times with its sample
// count, and whether at least ten samples lie above it (the rule the
// percentile was chosen by, for the run length runSeconds).
func tail(xs []float64, tailPct float64) (float64, map[string]any) {
	v := quantile(xs, tailPct/100)
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	return v, map[string]any{"percentile": tailPct, "samples": len(xs), "samples_above": above}
}

// resetPeakRSS prepares the measurement of one operation's peak
// resident set. It collects garbage and returns memory the runtime holds
// but does not use to the kernel, so the operation starts from the live
// heap alone, then restarts the kernel's count of the process's peak
// resident set (VmHWM) from the current resident set by writing 5 to
// /proc/self/clear_refs. peakRSSMB after the operation reports its
// peak. Where the kernel refuses the reset, the operation has no
// measurement and fails.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.Write([]byte("5"))
	if err = errors.Join(err, f.Close()); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

// hostFacts are recorded with every run so a run slowed by its host
// shows as slowed rather than as a regression: a rising steal share
// means another tenant took the CPU.
type hostFacts struct {
	start      time.Time
	steal0     []uint64
	nproc      int
	gomaxprocs int
}

func startHostFacts() *hostFacts {
	return &hostFacts{start: time.Now(), steal0: procStatCPU(), nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0)}
}

func (h *hostFacts) finish() map[string]any {
	facts := map[string]any{
		"nproc":      h.nproc,
		"gomaxprocs": h.gomaxprocs,
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"wall_s":     time.Since(h.start).Seconds(),
	}
	// /proc/stat's aggregate cpu line: user nice system idle iowait irq
	// softirq steal ..., in clock ticks (USER_HZ, 100 on Linux).
	if end := procStatCPU(); len(h.steal0) >= 8 && len(end) >= 8 {
		var total uint64
		for i := range 8 {
			total += end[i] - h.steal0[i]
		}
		steal := end[7] - h.steal0[7]
		facts["steal_s"] = float64(steal) / 100
		if total > 0 {
			facts["steal_share"] = float64(steal) / float64(total)
		}
	}
	return facts
}

func procStatCPU() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// samples collects per-leg (or per-job) values of per-layer metrics;
// each metric reports the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// ratio adds num/den, skipping a sample whose base is zero.
func (s samples) ratio(name string, num, den float64) {
	if den > 0 {
		s.add(name, num/den)
	}
}

// fill sets every per-layer metric to the median of its samples. A
// layer the workload does not run has no samples and reports 0.
func (s samples) fill(b *bench) {
	for _, d := range perLayer {
		b.metrics[d.Name] = median(s[d.Name])
	}
}

// heapDelta is what the Go runtime did between two ReadMemStats calls.
type heapDelta struct {
	allocMB, pauseS float64
	gcs             uint32
}

func heapBetween(m0, m1 *runtime.MemStats) heapDelta {
	return heapDelta{
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		pauseS:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		gcs:     m1.NumGC - m0.NumGC,
	}
}

// record adds the go.* samples of an operation that ran legs legs.
func (d heapDelta) record(lay samples, legs int) {
	lay.add("go.alloc_mb_per_leg", d.allocMB/float64(legs))
	lay.add("go.gc_cycles", float64(d.gcs))
	lay.add("go.gc_pause_s", d.pauseS)
}

// hostTime is an interval of host time, as wall-clock time and as the
// CPU time the process's threads were given (user + system). On a VM
// the CPU time leaves out the time the hypervisor spent on other guests
// (steal), which moves wall-clock figures on a shared host by up to a
// third from one minute to the next.
type hostTime struct{ wall, cpu time.Duration }

type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) elapsed() hostTime {
	return hostTime{time.Since(s.wall), processCPU() - s.cpu}
}

// processCPU returns the CPU time of the whole process, to the
// nanosecond: the simulator's goroutines, the Go runtime (garbage
// collection included) and, on l2-service, the in-process client and
// server.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// Every Linux kernel the Go runtime supports has this clock.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

func (t hostTime) plus(u hostTime) hostTime { return hostTime{t.wall + u.wall, t.cpu + u.cpu} }

// series collects one quantity per operation on both clocks, and its
// CPU time scaled to the reference host at full speed where the host's
// slow-down over the operation was measured (see yardstick): the
// end-to-end metrics use the scaled values, the report shows all three.
type series struct{ wall, cpu, scaled []float64 }

// add adds an operation that took t while the host ran slow times
// slower than at full speed (0: not measured).
func (s *series) add(t hostTime, slow float64) {
	s.wall = append(s.wall, t.wall.Seconds())
	s.cpu = append(s.cpu, t.cpu.Seconds())
	if slow > 0 {
		s.scaled = append(s.scaled, t.cpu.Seconds()/slow)
	}
}

// addRate adds n units of work per second of t, as add does.
func (s *series) addRate(n float64, t hostTime, slow float64) {
	s.wall = append(s.wall, n/t.wall.Seconds())
	s.cpu = append(s.cpu, n/t.cpu.Seconds())
	if slow > 0 {
		s.scaled = append(s.scaled, n/t.cpu.Seconds()*slow)
	}
}

// per adds a batch of n operations that took t in all, as the time of
// one of them.
func (s *series) per(n int, t hostTime) {
	s.add(hostTime{t.wall / time.Duration(n), t.cpu / time.Duration(n)}, 0)
}

func (s series) summary() map[string]summary {
	return map[string]summary{"scaled": summarize(s.scaled), "cpu": summarize(s.cpu), "wall": summarize(s.wall)}
}

// Command perfbench is the repository's benchmark: it runs one named
// workload of the co-simulator for a fixed time, checks the simulated
// results, and prints every metric by name with its unit. See README.md
// for the workloads, the metrics and the traced run.
//
//	bash perfbench/run.sh --workload gsm-iss --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// a report with host facts, sample counts and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// bench is one run: the options, the clock and what it collected.
type bench struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil when untraced
	ys      *yardstick
	// The yardstick's readings, in seconds: before each set-up batch,
	// and before and during each operation of the measured loop.
	setupRefs, loopRefs []float64

	attempted, failed int
	failures          []string
	metrics           map[string]float64
	report            map[string]any
}

// fail counts one failed operation and remembers why (the first few
// reasons go into the report).
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) traced() bool { return b.rec != nil }

// probe times the yardstick once and adds the reading to each of refs.
func (b *bench) probe(refs ...*[]float64) {
	r := b.ys.measure().Seconds()
	for _, rs := range refs {
		*rs = append(*rs, r)
	}
}

// setHostTimes sets the host-time end-to-end metrics. Each operation's
// time (rate) is already divided (multiplied) by the host's slow-down
// over it; set-up is divided by the slow-down over the set-up batches.
func (b *bench) setHostTimes(setups, jobs, rates series, tailPct float64) {
	su := slowdown(b.setupRefs)
	b.metrics["setup_s"] = median(setups.cpu) / su
	b.metrics["sim_cycles_per_s"] = median(rates.scaled)
	b.metrics["job_p50_s"] = median(jobs.scaled)
	var tailInfo map[string]any
	b.metrics["job_tail_s"], tailInfo = tail(jobs.scaled, tailPct)
	b.report["job_tail"] = tailInfo
	b.report["yardstick"] = map[string]any{
		"setup_s": summarize(b.setupRefs), "loop_s": summarize(b.loopRefs),
		"setup_slowdown": su, "loop_slowdown": slowdown(b.loopRefs),
		"nominal_s": yardstickNominal.Seconds(), "sensitivity": hostSensitivity,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds a run's temporary service stores and its trace file,
// relative to the repository root the benchmark runs from; the root's
// .gitignore excludes it.
const outDir = ".bench_build/perfbench-out"

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: gsm-iss | dyn-churn | l2-service")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", runSeconds, "how long the run measures")
		traceOn = flag.Int("trace", 0, "1 records spans and module host time and reports the per-layer metrics")
		spec    = flag.String("write-spec", "", "write the benchmark declaration (BENCHMARK.json) to this file and exit")
	)
	flag.Parse()
	if *spec != "" {
		return writeSpec(*spec)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// The host has two cores; the simulator runs its kernel
	// sequentially and the service one worker, so two OS threads cover
	// the simulation plus the runtime's GC and the HTTP client. dyn-churn
	// runs on one: its PEs are goroutines that take turns with the
	// kernel, and with a second thread each hand-off wakes that thread,
	// whose spinning for work the process CPU time counts. How much it
	// spins depends on the host's load (it shrank as the stolen share
	// rose), so on two threads the workload's CPU time moved with the
	// host in a way the yardstick does not see.
	runtime.GOMAXPROCS(min(wl.threads, runtime.NumCPU()))

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		ys:      newYardstick(),
		metrics: map[string]float64{},
		report:  map[string]any{},
	}
	if *traceOn == 1 {
		b.rec = newRecorder()
	}
	host := startHostFacts()
	if err := wl.run(b); err != nil {
		return fmt.Errorf("%s: %w", wl.Name, err)
	}
	b.report["host"] = host.finish()
	if b.traced() {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.Name, *seed))
		if err := b.rec.write(path); err != nil {
			return err
		}
		b.report["trace_file"] = path
	}
	return b.print()
}

// print writes the report line and then the result line. The result
// holds exactly the metrics BENCHMARK.json declares for this mode.
func (b *bench) print() error {
	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(b.failures) > 0 {
		b.report["failures"] = b.failures
	}
	rep, err := json.Marshal(map[string]any{"report": b.report})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", rep, last)
	return nil
}

package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The two in-process workloads build and run one leg after another.
// Leg i takes its inputs from (seed, i) alone, so a run with a given
// seed repeats its legs exactly; each leg builds a fresh system.
const (
	// gsmFrames sizes a gsm-iss leg (about 0.17 s of host time on a
	// 2-core Xeon VM): long enough that per-leg timer and scheduling
	// jitter stay small against the leg.
	gsmFrames = 100
	// gsmLegCycles is the cycle on which every gsm-iss leg ends. The GSM
	// kernel's timing does not depend on its data, so every seed ends on
	// the same cycle, and a leg that ends on another simulated another
	// model.
	gsmLegCycles = 1564133
	// churnEvents sizes each dyn-churn PE's trace (about 0.16 s of CPU
	// time per leg on the same host, on one thread).
	churnEvents = 10000
	// cycleLegs is how many measured legs sim_cycles sums: a fixed
	// count, so the total repeats exactly for a seed whatever the host
	// speed. Every run measures at least this many legs. dyn-churn's
	// total varies with the seed's traces; over 60 legs its spread
	// across seeds stays within a third of the metric's bound.
	cycleLegs = 60
	// nativeTailPct is the job_tail_s percentile: at run_seconds each
	// native workload measures about 110 to 235 legs, leaving at least
	// ten above the 90th percentile; the report records the count.
	nativeTailPct = 90
	// legLimit bounds a leg's simulated cycles; reaching it is a failure.
	legLimit = 2_000_000_000
	// A plain leg takes a yardstick reading after every this many
	// simulated cycles: about every 25 ms of CPU time on the reference
	// host at full speed, six times a gsm-iss leg and ten times a
	// dyn-churn leg.
	gsmProbeCycles   = 260_000
	churnProbeCycles = 50_000
)

// legSeed derives leg i's input seed from the run seed.
func legSeed(seed int64, i int) uint32 {
	return uint32(seed)*7919 + uint32(i)*104729 + 1
}

// nativeLeg is one built leg, ready to run.
type nativeLeg struct {
	sys   *config.System
	done  func() bool
	check func() error
	// txns is the number of smapi transactions the leg's PEs issued
	// (valid after the run; 0 for ISS legs).
	txns func() uint64
	// probeEvery is how many simulated cycles the plain leg runs between
	// two yardstick readings.
	probeEvery uint64
}

// runProbed runs the kernel until done in stretches of every simulated
// cycles, with a yardstick reading after each added to refs, and
// returns the time of the stretches alone. The readings sample the
// host's speed several times while the leg runs, so the leg's time can
// be divided by the host's slow-down over that same time (see
// yardstick). Stopping the kernel at a cycle limit and resuming it
// simulates the same cycles as one call.
func (b *bench) runProbed(k *sim.Kernel, done func() bool, every uint64, refs *[]float64) (hostTime, error) {
	var run hostTime
	for total := uint64(0); total < legLimit; {
		sw := startWatch()
		n, err := k.RunUntil(done, min(every, legLimit-total))
		run = run.plus(sw.elapsed())
		total += n
		if !errors.Is(err, sim.ErrLimit) {
			return run, err
		}
		b.probe(&b.loopRefs, refs)
	}
	return run, sim.ErrLimit
}

// variant selects how a leg's inputs are run. The untraced run only
// uses plain; the traced run runs every leg's inputs plain and traced
// back to back (and, for dyn-churn, on heapsim and static memory too).
type variant int

const (
	plain   variant = iota // the wrapper, untraced: end-to-end figures
	traced                 // the wrapper with spans and module profiling
	heapsim                // the detailed in-simulation allocator (E3)
	static                 // the static table memory, ModeStatic (E2)
)

// legInputs generates leg i's inputs, which is the benchmark's own work
// and not timed, and returns the builder of a system over them.
type legInputs func(b *bench, i int) legBuilder

// legBuilder builds a leg's system for variant v: the part of set-up
// that setup_s times. Spans go to rec (nil when the variant is
// untraced) under the trace id tr and parent span.
type legBuilder func(v variant, rec *recorder, tr string, parent int) (*nativeLeg, error)

func runGSMISS(b *bench) error {
	return nativeLoop(b, gsmInputs, gsmSetupBatch, []variant{traced})
}

func runDynChurn(b *bench) error {
	return nativeLoop(b, churnInputs, churnSetupBatch, []variant{heapsim, static, traced})
}

const (
	// setupBatches is how many set-up batches a run times before its
	// first leg, after one for warm-up.
	setupBatches = 40
	// A batch builds one leg's system this many times, for about 15 ms
	// of CPU time: long enough to span several of the host's fast and
	// slow spells (see yardstick), so that batch times gather around one
	// value instead of splitting into two groups a median would jump
	// between.
	gsmSetupBatch   = 10
	churnSetupBatch = 1000
)

// timeSetup times set-up on its own: batches of perBatch builds of the
// same leg's system (not run), each after a yardstick reading, and adds
// each batch's time per build to setups. Every batch starts from a
// collected heap and pays for its own garbage.
func timeSetup(b *bench, inputs legInputs, perBatch int, setups *series) error {
	for k := range setupBatches + 1 {
		build := inputs(b, -1-k)
		runtime.GC()
		if k > 0 {
			b.probe(&b.setupRefs)
		}
		sw := startWatch()
		for range perBatch {
			if _, err := build(plain, nil, "", 0); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		if t := sw.elapsed(); k > 0 {
			setups.per(perBatch, t)
		}
	}
	return nil
}

// gsmInputs is the paper's E1 platform: four ISS cores running the
// self-checking GSM kernel against one wrapper memory, event-driven,
// sequential kernel, no caches.
func gsmInputs(b *bench, i int) legBuilder {
	const cores = 4
	srcs := make([]string, cores)
	for c := range srcs {
		srcs[c] = workload.GSMKernelSource(workload.GSMKernelConfig{
			Frames: gsmFrames, Seed: legSeed(b.seed, i) + uint32(c),
		})
	}
	return func(_ variant, rec *recorder, tr string, parent int) (*nativeLeg, error) {
		return gsmLeg(srcs, rec, tr, parent)
	}
}

func gsmLeg(srcs []string, rec *recorder, tr string, parent int) (*nativeLeg, error) {
	cores := len(srcs)
	id := rec.begin(tr, parent, "config.build")
	sys, err := config.Build(config.SystemConfig{
		Masters: cores, Memories: 1, MemKind: config.MemWrapper, Workers: 1,
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	progs := make([][]byte, cores)
	for c, src := range srcs {
		id := rec.begin(tr, parent, "isa.assemble")
		p, err := isa.Assemble(src)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("assemble core %d: %w", c, err)
		}
		progs[c] = p.Code
	}
	id = rec.begin(tr, parent, "config.attach")
	err = sys.AddCPUs(progs...)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &nativeLeg{
		sys:  sys,
		done: sys.CPUsHalted,
		check: func() error {
			for c, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", c, cpu.ExitCode())
				}
			}
			if c := sys.Kernel.Cycle(); c != gsmLegCycles {
				return fmt.Errorf("ended on cycle %d, want %d", c, gsmLegCycles)
			}
			return nil
		},
		txns:       func() uint64 { return 0 },
		probeEvery: gsmProbeCycles,
	}, nil
}

// churnMix is alloc/free heavy: about 37% of generated events allocate
// or free, the rest read and write scalars and bursts.
var churnMix = trace.Mix{Alloc: 20, Free: 18, Read: 25, Write: 17, ReadBurst: 10, WriteBurst: 10}

const (
	churnPEs      = 4
	churnMemories = 2
)

// churnInputs generates leg i's four PE traces.
func churnInputs(b *bench, i int) legBuilder {
	trs := make([]*trace.Trace, churnPEs)
	for p := range trs {
		trs[p] = trace.Generate(trace.GenConfig{
			Seed: int64(legSeed(b.seed, i))*churnPEs + int64(p), Events: churnEvents,
			Slots: 16, NumSM: churnMemories, MinDim: 4, MaxDim: 128, DType: bus.U32,
			Mix: churnMix, PtrArithPct: 25,
		})
	}
	return func(v variant, rec *recorder, tr string, parent int) (*nativeLeg, error) {
		return churnLeg(trs, v, rec, tr, parent)
	}
}

// liveAtEnd counts, per memory, the slots a trace leaves allocated.
func liveAtEnd(trs []*trace.Trace) []uint64 {
	live := make([]uint64, churnMemories)
	for _, tr := range trs {
		sm := make([]int, tr.Slots)
		on := make([]bool, tr.Slots)
		for _, ev := range tr.Events {
			switch ev.Op {
			case bus.OpAlloc:
				on[ev.Slot], sm[ev.Slot] = true, ev.SM
			case bus.OpFree:
				on[ev.Slot] = false
			}
		}
		for s := range on {
			if on[s] {
				live[sm[s]]++
			}
		}
	}
	return live
}

// churnLeg is the paper's dynamic-data case without an ISS: four
// native PEs replay generated traces over two memories. The plain and
// traced variants use wrappers; heapsim and static replay the same
// traces on the other memory models for the E2/E3 comparisons.
func churnLeg(trs []*trace.Trace, v variant, rec *recorder, tr string, parent int) (*nativeLeg, error) {
	kind, mode := config.MemWrapper, trace.ModeDynamic
	switch v {
	case heapsim:
		kind = config.MemHeapSim
	case static:
		kind, mode = config.MemStatic, trace.ModeStatic
	}
	id := rec.begin(tr, parent, "config.build")
	sys, err := config.Build(config.SystemConfig{
		Masters: churnPEs, Memories: churnMemories, MemKind: kind, Workers: 1,
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	stats := make([]trace.ReplayStats, churnPEs)
	id = rec.begin(tr, parent, "config.attach")
	for p, t := range trs {
		if err = sys.AddProcs(trace.ReplayTask(t, mode, &stats[p])); err != nil {
			break
		}
	}
	rec.end(id)
	if err != nil {
		return nil, err
	}
	check := func() error {
		for p, st := range stats {
			if st.Errors != 0 || st.Executed != len(trs[p].Events) {
				return fmt.Errorf("pe %d: %d of %d events, %d errors", p, st.Executed, len(trs[p].Events), st.Errors)
			}
		}
		if kind != config.MemWrapper {
			return nil
		}
		live := liveAtEnd(trs)
		for w, wr := range sys.Wrappers {
			st := wr.Stats()
			var errs uint64
			for _, e := range st.Errors {
				errs += e
			}
			allocs, frees := st.Ops[bus.OpAlloc], st.Ops[bus.OpFree]
			if errs != 0 || allocs-frees != live[w] || uint64(wr.Table().Len()) != live[w] {
				return fmt.Errorf("%s: %d errors, %d allocs - %d frees, %d table entries, want %d live",
					wr.Name(), errs, allocs, frees, wr.Table().Len(), live[w])
			}
		}
		return nil
	}
	return &nativeLeg{
		sys:        sys,
		done:       sys.ProcsDone,
		check:      check,
		probeEvery: churnProbeCycles,
		txns: func() uint64 {
			var n uint64
			for _, st := range stats {
				n += uint64(st.Executed)
			}
			return n
		},
	}, nil
}

// legRun is what one executed leg measured.
type legRun struct {
	setup, run hostTime
	cycles     uint64
	heap       heapDelta // over setup and run
	peakMB     float64   // peak resident set over setup and run
	// slow is the host's slow-down over the leg (see slowdown): plain
	// legs only, 0 for the others.
	slow float64
}

// runLeg builds and runs leg i as variant v. It collects garbage and
// returns free memory to the kernel first, so every leg starts from the
// same heap state, and leaves that out of the timing.
func runLeg(b *bench, build legBuilder, i int, v variant, lay samples) (legRun, error) {
	var rec *recorder
	if v == traced {
		rec = b.rec
	}
	tr := fmt.Sprintf("leg%d", i)
	if err := resetPeakRSS(); err != nil {
		return legRun{}, err
	}
	var refs []float64
	if v == plain {
		b.probe(&b.loopRefs, &refs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := rec.begin(tr, 0, "leg")
	sw := startWatch()
	leg, err := build(v, rec, tr, root)
	setup := sw.elapsed()
	if err != nil {
		rec.end(root)
		return legRun{}, fmt.Errorf("build: %w", err)
	}
	k := leg.sys.Kernel
	if v == traced {
		k.EnableProfiling()
	}
	runID := rec.begin(tr, root, "sim.run")
	var run hostTime
	if v == plain {
		run, err = b.runProbed(k, leg.done, leg.probeEvery, &refs)
	} else {
		sw = startWatch()
		_, err = k.RunUntil(leg.done, legLimit)
		run = sw.elapsed()
	}
	rec.end(runID)
	rec.end(root)
	peakMB, memErr := peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return legRun{}, fmt.Errorf("run: %w", err)
	}
	if memErr != nil {
		return legRun{}, memErr
	}
	if err := leg.check(); err != nil {
		return legRun{}, err
	}
	r := legRun{setup: setup, run: run, cycles: k.Cycle(), heap: heapBetween(&m0, &m1), peakMB: peakMB}
	if v == plain {
		r.slow = slowdown(refs)
	}
	if v == traced {
		recordLayers(rec, lay, leg, run.wall)
	}
	return r, nil
}

// layerOf maps a kernel module's name to the simulator layer it
// belongs to.
func layerOf(module string) string {
	switch {
	case strings.HasPrefix(module, "iss"):
		return "iss"
	case strings.HasPrefix(module, "wrapper"):
		return "core"
	case strings.HasPrefix(module, "pe"):
		return "smapi"
	case module == "bus" || module == "xbar":
		return "bus"
	case strings.HasPrefix(module, "l1."):
		return "cache.l1"
	case module == "l2":
		return "cache.l2"
	case strings.HasPrefix(module, "dram"):
		return "mem.dram"
	}
	return "other"
}

// recordLayers turns one profiled leg's module host times and counters
// into per-layer samples. Module host time is wall-clock time (the
// kernel's profiler reads the clock around each tick), so run is too.
func recordLayers(rec *recorder, lay samples, leg *nativeLeg, run time.Duration) {
	sys := leg.sys
	host := map[string]float64{}
	var ticked time.Duration
	for _, mc := range sys.Kernel.ProfileReport() {
		host[layerOf(mc.Name)] += mc.Time.Seconds()
		ticked += mc.Time
		rec.addAggregate("module_host_s."+mc.Name, mc.Time.Seconds())
	}
	sched := sys.Kernel.Sched()
	lay.add("sim.run_s", run.Seconds())
	lay.add("sim.self_s", (run - ticked).Seconds())
	lay.add("sim.stepped_cycles", float64(sched.Stepped))
	lay.add("sim.skipped_cycles", float64(sched.Skipped))
	lay.add("sim.skip_spans", float64(sched.Spans))

	var instr uint64
	for _, c := range sys.CPUs {
		instr += c.Icount
	}
	lay.add("iss.instructions", float64(instr))
	lay.add("iss.host_s", host["iss"])
	lay.ratio("iss.ns_per_instr", host["iss"]*1e9, float64(instr))

	var allocs, frees, ops, errs uint64
	for _, w := range sys.Wrappers {
		st := w.Stats()
		allocs += st.Ops[bus.OpAlloc]
		frees += st.Ops[bus.OpFree]
		for op := range st.Ops {
			ops += st.Ops[op]
			errs += st.Errors[op]
		}
	}
	lay.add("core.allocs", float64(allocs))
	lay.add("core.frees", float64(frees))
	lay.add("core.ops", float64(ops))
	lay.add("core.errors", float64(errs))
	lay.add("core.host_s", host["core"])
	lay.ratio("core.ns_per_op", host["core"]*1e9, float64(ops))

	txns := leg.txns()
	lay.add("smapi.transactions", float64(txns))
	lay.add("smapi.host_s", host["smapi"])
	lay.ratio("smapi.ns_per_transaction", host["smapi"]*1e9, float64(txns))

	bs := sys.Inter.Stats()
	lay.add("bus.transactions", float64(bs.Transactions))
	lay.add("bus.busy_cycles", float64(bs.BusyCycles))
	lay.add("bus.host_s", host["bus"])

	var l1h, l1m uint64
	for _, c := range sys.Caches {
		st := c.Stats()
		l1h += st.Hits
		l1m += st.Misses
	}
	lay.add("cache.l1_hits", float64(l1h))
	lay.add("cache.l1_misses", float64(l1m))
	lay.add("cache.l1_host_s", host["cache.l1"])
	if sys.L2 != nil {
		st := sys.L2.Stats()
		lay.add("cache.l2_hits", float64(st.Hits))
		lay.add("cache.l2_misses", float64(st.Misses))
		lay.add("cache.l2_back_invalidations", float64(st.BackInvalidations))
		lay.add("cache.l2_repartitions", float64(st.Repartitions))
	}
	lay.add("cache.l2_host_s", host["cache.l2"])
	var rh, rm, rc uint64
	for _, d := range sys.DRAMs {
		st := d.Stats()
		rh += st.RowHits
		rm += st.RowMisses
		rc += st.RowConflicts
	}
	lay.add("mem.dram_row_hits", float64(rh))
	lay.add("mem.dram_row_misses", float64(rm))
	lay.add("mem.dram_row_conflicts", float64(rc))
	lay.add("mem.dram_host_s", host["mem.dram"])
}

// nativeLoop runs legs until the run's time is up. Leg 0 is warm-up
// and is discarded. In the traced run every leg's inputs run plain and
// then as each of extra (back to back, so host drift hits them alike).
func nativeLoop(b *bench, inputs legInputs, perBatch int, extra []variant) error {
	lay := samples{}
	var setups, legSetups, jobs, rates series
	if err := timeSetup(b, inputs, perBatch, &setups); err != nil {
		return err
	}
	var peaks []float64
	var simCycles uint64
	runs := map[variant]*series{plain: {}, traced: {}, heapsim: {}, static: {}}
	cycles := map[variant][]float64{}

	// The traced run reports no sim_cycles, so it needs no minimum.
	minLegs := cycleLegs
	if b.traced() {
		minLegs = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i > minLegs && time.Since(start) >= b.seconds {
			break
		}
		measured := i > 0
		vs := []variant{plain}
		if b.traced() {
			vs = append(vs, extra...)
		}
		build := inputs(b, i)
		var plainCycles uint64
		for _, v := range vs {
			if measured {
				b.attempted++
			}
			r, err := runLeg(b, build, i, v, lay)
			if err != nil {
				if measured {
					b.fail("leg %d (%s): %v", i, variantName(v), err)
				}
				continue
			}
			if v == plain {
				plainCycles = r.cycles
			} else if v == traced && r.cycles != plainCycles {
				b.fail("leg %d: traced run simulated %d cycles, plain %d", i, r.cycles, plainCycles)
			}
			if !measured {
				continue
			}
			runs[v].add(r.run, r.slow)
			cycles[v] = append(cycles[v], float64(r.cycles))
			if v != plain {
				continue
			}
			legSetups.add(r.setup, r.slow)
			jobs.add(r.setup.plus(r.run), r.slow)
			peaks = append(peaks, r.peakMB)
			rates.addRate(float64(r.cycles), r.run, r.slow)
			if i <= cycleLegs {
				simCycles += r.cycles
			}
			r.heap.record(lay, 1)
		}
	}

	b.setHostTimes(setups, jobs, rates, nativeTailPct)
	b.metrics["sim_cycles"] = float64(simCycles)
	b.metrics["host_mem_mb"] = median(peaks)
	b.report["sim_cycles_legs"] = cycleLegs
	b.report["leg_peak_rss_mb"] = summarize(peaks)
	b.report["setup_s"] = setups.summary()
	b.report["leg_setup_s"] = legSetups.summary()
	b.report["leg_run_s"] = runs[plain].summary()
	b.report["leg_job_s"] = jobs.summary()
	b.report["leg_sim_cycles_per_s"] = rates.summary()

	if b.traced() {
		spanLayers(b.rec, lay)
		cpu := func(v variant) float64 { return median(runs[v].cpu) }
		lay.ratio("trace.overhead_ratio", cpu(traced)-cpu(plain), cpu(plain))
		if len(cycles[heapsim]) > 0 {
			lay.ratio("core.vs_heapsim_speedup", cpu(heapsim), cpu(plain))
			lay.ratio("core.vs_static_overhead", cpu(plain)-cpu(static), cpu(static))
			lay.add("core.wrapper_cycles", median(cycles[plain]))
			lay.add("core.heapsim_cycles", median(cycles[heapsim]))
			lay.add("core.static_cycles", median(cycles[static]))
		}
		b.report["variant_run_s"] = map[string]any{
			"plain": runs[plain].summary(), "traced": runs[traced].summary(),
			"heapsim": runs[heapsim].summary(), "static": runs[static].summary(),
		}
		lay.fill(b)
	}
	return nil
}

func variantName(v variant) string {
	return [...]string{"plain", "traced", "heapsim", "static"}[v]
}

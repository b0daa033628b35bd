package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/service"
)

// The l2-service workload is a closed loop with one client: it POSTs a
// sweep job to an in-process service.Server over loopback HTTP, polls
// the job until it finishes, checks it, and sends the next. Two of
// every three jobs carry new seeds, so they warm-boot and simulate; the
// third resubmits an earlier job, which the store answers in full.
// New-seed jobs are the majority so that job_p50_s falls inside the
// simulating jobs and not on the edge between the two kinds.
const (
	// l2Frames is a leg's sweep iterations; with a 2-set × 4-way L2 the
	// footprint reaches DRAM (half the L2 accesses miss). A new-seed job
	// then takes about 0.45 s on a 2-core Xeon VM.
	l2Frames = 20
	// l2Warmup is the warm-up prefix each leg resumes from.
	l2Warmup = 20000
	// l2SetupBatch is how many server starts a set-up batch times. A
	// start costs about half a millisecond of CPU time and varies by a
	// third from start to start; a batch takes about 10 ms.
	l2SetupBatch = 20
	// l2TailPct is the job_tail_s percentile: a run measures 85 to 125
	// jobs on a quiet host, leaving at least ten above the 85th
	// percentile. A busy host can cut that to about 65 jobs and the count
	// above to 9; the report records it.
	l2TailPct = 85
	// cycleJobs is how many measured new-seed jobs sim_cycles sums.
	cycleJobs = 4
	// pollEvery is the client's polling interval; it bounds how late
	// the client sees a finished job. Each poll wakes goroutines on both
	// threads and costs CPU time that job times and leg rates include: at
	// 2 ms, polling added about a tenth to both.
	pollEvery = 20 * time.Millisecond
)

// maxSweepSeeds is the number of distinct sweep seeds: core c of a
// 4-core sweep writes seed+16·(c+1)+word for 64 words and reads each
// back, and the readback fails (the leg exits 0xDEAD) once that value
// passes 255, so seeds run from 1 to 128.
const maxSweepSeeds = 128

// sweepSeed derives the k-th new-seed job's sweep seed from the run
// seed, distinct for the first maxSweepSeeds jobs of a run.
func sweepSeed(seed int64, k int) uint32 {
	return 1 + (uint32(seed)*37+uint32(k))%maxSweepSeeds
}

// l2Legs returns a new-seed job's legs: shared-L2 sweeps with no, static
// and utility-based way partitioning, and one with close-page DRAM. The
// tag in each leg's name ties the runner's spans to the job; names do
// not enter the store's keys.
func l2Legs(tag string, seed uint32) []experiments.LegSpec {
	base := experiments.LegSpec{
		Workload: "sweep", ISSes: 4, Memories: 1, Frames: l2Frames, Seed: seed, Workers: 1,
		Cache: true, L2: true, Dram: true, L2Sets: 2, L2Ways: 4,
	}
	var legs []experiments.LegSpec
	for _, v := range []struct {
		name, part string
		closePage  bool
	}{{"none", "none", false}, {"swp", "swp", false}, {"ucp", "ucp", false}, {"close-page", "none", true}} {
		l := base
		l.Name, l.Partition, l.ClosePage = tag+"/"+v.name, v.part, v.closePage
		legs = append(legs, l)
	}
	return legs
}

// l2LegCycles is the cycle on which each kind of leg ends, warm-up
// prefix included. The sweep kernel's timing does not depend on its
// data, so every seed ends on the same cycle, and a leg that ends on
// another simulated another model.
var l2LegCycles = map[string]uint64{"none": 156680, "swp": 159805, "ucp": 159805, "close-page": 171872}

// timedRunner is the timing wrapper the benchmark passes as the
// service's Runner around the simulator's own leg runner. It times every
// leg, and in the traced run it records a span around every call under
// the job that caused it and keeps the warm snapshots of traced jobs for
// the profiled replay.
type timedRunner struct {
	inner experiments.SimRunner
	rec   *recorder // nil when untraced
	// ys, in the untraced run, is timed before every leg the service
	// runs (see yardstick): the readings sample the host's speed while
	// the jobs run.
	ys *yardstick

	refs      map[string][]float64 // job tag → its readings, in seconds
	probeTime map[string]hostTime  // job tag → time the readings took

	mu      sync.Mutex
	legTime map[string]hostTime // leg name → time of its RunLeg call
	parents map[string]int      // job tag → job span id (traced jobs only)
	warm    map[string][]byte   // leg name → warm snapshot (traced jobs only)
}

func newTimedRunner(rec *recorder, ys *yardstick) *timedRunner {
	r := &timedRunner{rec: rec, legTime: map[string]hostTime{}, parents: map[string]int{}, warm: map[string][]byte{}}
	if rec == nil {
		r.ys, r.refs, r.probeTime = ys, map[string][]float64{}, map[string]hostTime{}
	}
	return r
}

func (r *timedRunner) parent(legName string) (string, int) {
	tag, _, _ := strings.Cut(legName, "/")
	r.mu.Lock()
	defer r.mu.Unlock()
	return tag, r.parents[tag]
}

// RunLeg runs the leg. The service's pool has one worker, so legs never
// overlap and the process CPU time over the call is the leg's, plus the
// client's polling.
func (r *timedRunner) RunLeg(ctx context.Context, leg experiments.LegSpec, warm []byte) (experiments.LegResult, error) {
	tag, parent := r.parent(leg.Name)
	if r.ys != nil {
		sw := startWatch()
		d := r.ys.measure()
		wall := sw.elapsed().wall
		r.mu.Lock()
		r.refs[tag] = append(r.refs[tag], d.Seconds())
		r.probeTime[tag] = r.probeTime[tag].plus(hostTime{wall, d})
		r.mu.Unlock()
	}
	var id int
	if parent != 0 {
		id = r.rec.begin(tag, parent, "experiments.run_leg")
	}
	sw := startWatch()
	res, err := r.inner.RunLeg(ctx, leg, warm)
	t := sw.elapsed()
	r.rec.end(id)
	r.mu.Lock()
	r.legTime[leg.Name] = t
	r.mu.Unlock()
	return res, err
}

// takeLegTime returns and forgets the time of the named leg's run
// (zero for a leg the store answered).
func (r *timedRunner) takeLegTime(name string) hostTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.legTime[name]
	delete(r.legTime, name)
	return t
}

// takeProbes returns and forgets the yardstick's readings during the
// job with the given tag and the time they took, which the job's time
// leaves out.
func (r *timedRunner) takeProbes(tag string) ([]float64, hostTime) {
	r.mu.Lock()
	defer r.mu.Unlock()
	refs, t := r.refs[tag], r.probeTime[tag]
	delete(r.refs, tag)
	delete(r.probeTime, tag)
	return refs, t
}

func (r *timedRunner) Warmup(ctx context.Context, leg experiments.LegSpec, cycles uint64) ([]byte, error) {
	tag, parent := r.parent(leg.Name)
	if parent == 0 {
		return r.inner.Warmup(ctx, leg, cycles)
	}
	id := r.rec.begin(tag, parent, "experiments.warmup")
	data, err := r.inner.Warmup(ctx, leg, cycles)
	r.rec.end(id)
	if err == nil {
		r.mu.Lock()
		r.warm[leg.Name] = data
		r.mu.Unlock()
	}
	return data, err
}

// l2Server is one running service: its store, the service and the HTTP
// server in front of it.
type l2Server struct {
	store *service.Store
	svc   *service.Server
	http  *http.Server
	url   string
	serve chan error
}

// dialNoLinger dials like the default transport but closes its
// connections with a reset instead of the TCP close handshake, so that a
// closed connection leaves no TIME_WAIT socket behind. A run starts a
// few hundred servers, and the kernel's search for a free ephemeral port
// slows with every TIME_WAIT socket, which lingers for a minute, into the
// next run: 11 000 of them made a server start cost 4.7 ms of CPU time
// instead of 0.9 ms.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	return c, err
}

// newClient returns an HTTP client holding at most one connection, as a
// single closed-loop user would.
func newClient() (*http.Client, *http.Transport) {
	t := &http.Transport{DialContext: dialNoLinger, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: t, Timeout: time.Minute}, t
}

// startServer opens the store in dir, starts the service on a loopback
// port and waits until /v1/healthz answers a client of its own, which
// then closes its connection. It returns the time from store open to
// the first healthy answer.
func startServer(dir string, runner experiments.Runner) (*l2Server, hostTime, error) {
	client, transport := newClient()
	defer transport.CloseIdleConnections()
	sw := startWatch()
	store, err := service.OpenStore(dir)
	if err != nil {
		return nil, hostTime{}, err
	}
	svc, err := service.New(service.Config{
		Store: store, Runner: runner, Workers: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, hostTime{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, hostTime{}, err
	}
	s := &l2Server{
		store: store, svc: svc, http: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), serve: make(chan error, 1),
	}
	go func() { s.serve <- s.http.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(s.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, hostTime{}, fmt.Errorf("service never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return s, sw.elapsed(), nil
}

// timeServerSetup restarts a server over one store, as a daemon restarts
// over its store, in setupBatches batches of l2SetupBatch starts after
// one for warm-up, each batch after a yardstick reading, and adds each
// batch's time per start to setups. The store exists before the first
// start, so no start creates directories: creating them on the host's
// shared disk cost from 0.06 ms to 1.2 ms, slower while the service's
// writes kept the disk busy and after runs that had written and removed
// many files.
func timeServerSetup(b *bench, runner experiments.Runner, setups *series) error {
	dir, err := newStoreDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for k := range setupBatches + 1 {
		if k > 0 {
			b.probe(&b.setupRefs)
		}
		var batch hostTime
		for range l2SetupBatch {
			s, d, err := startServer(dir, runner)
			if err != nil {
				return err
			}
			s.stop()
			batch = batch.plus(d)
		}
		if k > 0 {
			setups.per(l2SetupBatch, batch)
		}
	}
	return nil
}

// newStoreDir makes an empty service store under outDir.
func newStoreDir() (string, error) {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return "", err
	}
	if _, err := service.OpenStore(dir); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// stop closes the HTTP server and the service and waits for both.
func (s *l2Server) stop() {
	s.http.Close()
	<-s.serve
	s.svc.Close()
}

// jobRun is what the client saw of one job.
type jobRun struct {
	view   service.JobView
	time   hostTime
	submit time.Duration
	polls  int
}

// runJob submits a sweep and polls it to a terminal state.
func runJob(client *http.Client, url string, spec service.SweepSpec, rec *recorder, tag string, parent int) (jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRun{}, err
	}
	var jr jobRun
	sw := startWatch()
	id := rec.begin(tag, parent, "service.submit")
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobRun{}, fmt.Errorf("submit: %w", err)
	}
	var accepted struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	rec.end(id)
	jr.submit = sw.elapsed().wall
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jobRun{}, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	for {
		jr.polls++
		resp, err := client.Get(url + "/v1/jobs/" + accepted.ID)
		if err != nil {
			return jobRun{}, fmt.Errorf("poll: %w", err)
		}
		var view service.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return jobRun{}, fmt.Errorf("poll: %w", err)
		}
		switch view.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			jr.view, jr.time = view, sw.elapsed()
			return jr, nil
		}
		time.Sleep(pollEvery)
	}
}

// checkJob verifies a finished job: every leg done and from the
// expected source; a resubmitted leg must equal the first submission's
// result exactly.
func checkJob(view service.JobView, source string, first []service.LegStatus) error {
	if view.State != service.StateDone {
		for _, ls := range view.Legs {
			if ls.Error != "" {
				return fmt.Errorf("job %s %s: leg %s: %s", view.ID, view.State, ls.Name, ls.Error)
			}
		}
		return fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
	}
	for i, ls := range view.Legs {
		if ls.State != service.StateDone || ls.Source != source {
			return fmt.Errorf("leg %s: state %s source %s, want done from %s (%s)", ls.Name, ls.State, ls.Source, source, ls.Error)
		}
		_, kind, _ := strings.Cut(ls.Name, "/")
		if want := l2LegCycles[kind]; ls.Cycles != want {
			return fmt.Errorf("leg %s: ended on cycle %d, want %d", ls.Name, ls.Cycles, want)
		}
		if first != nil && !ls.LegResult.Identical(first[i].LegResult) {
			return fmt.Errorf("leg %s: resubmitted result differs from the first submission", ls.Name)
		}
	}
	return nil
}

func runL2Service(b *bench) error {
	runner := newTimedRunner(b.rec, b.ys)
	var setups series
	if err := timeServerSetup(b, runner, &setups); err != nil {
		return err
	}
	dir, err := newStoreDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServer(dir, runner)
	if err != nil {
		return err
	}
	client, transport := newClient()
	defer func() {
		// The client closes first, so neither side keeps a TIME_WAIT
		// socket (see dialNoLinger).
		transport.CloseIdleConnections()
		srv.stop()
	}()

	lay := samples{}
	var jobs, rates, tracedNew, plainNew series
	var peaks []float64
	var simCycles uint64
	type submitted struct {
		spec service.SweepSpec
		legs []service.LegStatus
	}
	var newJobs []submitted // new-seed jobs, in order
	resubmitted := 0
	start := time.Now()
	j := 0
	for ; ; j++ {
		measured := j > 0
		if len(newJobs) > cycleJobs && time.Since(start) >= b.seconds {
			break
		}
		resub := j%3 == 0 && j > 0
		if !resub && len(newJobs) == maxSweepSeeds {
			// Out of distinct seeds: a further job would be a store hit.
			break
		}
		tag := fmt.Sprintf("u%d", j)
		var spec service.SweepSpec
		var first []service.LegStatus
		if resub {
			// An earlier job, in submission order: every leg is in the
			// store and so is every warm-up snapshot.
			orig := newJobs[resubmitted]
			resubmitted++
			first = orig.legs
			spec = orig.spec
			spec.Name, spec.Legs = tag, nil
			for _, l := range orig.spec.Legs {
				_, suffix, _ := strings.Cut(l.Name, "/")
				l.Name = tag + "/" + suffix
				spec.Legs = append(spec.Legs, l)
			}
		} else {
			seed := sweepSeed(b.seed, len(newJobs))
			if b.traced() && len(newJobs)%2 == 1 {
				tag = fmt.Sprintf("t%d", j)
			}
			spec = service.SweepSpec{Name: tag, WarmupCycles: l2Warmup, Legs: l2Legs(tag, seed)}
		}
		if measured {
			b.attempted++
		}

		memErr := resetPeakRSS()
		var refs []float64
		b.probe(&b.loopRefs, &refs)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var root int
		if strings.HasPrefix(tag, "t") {
			root = b.rec.begin(tag, 0, "job")
			runner.mu.Lock()
			runner.parents[tag] = root
			runner.mu.Unlock()
		}
		jr, err := runJob(client, srv.url, spec, b.rec, tag, root)
		b.rec.end(root)
		inJob, pt := runner.takeProbes(tag)
		b.loopRefs = append(b.loopRefs, inJob...)
		slow := slowdown(append(refs, inJob...))
		jr.time.wall -= pt.wall
		jr.time.cpu -= pt.cpu
		peakMB, err2 := peakRSSMB()
		runtime.ReadMemStats(&m1)
		source := service.SourceWarmBoot
		if resub {
			source = service.SourceStore
		}
		if err == nil {
			err = checkJob(jr.view, source, first)
		}
		if err == nil {
			err = errors.Join(memErr, err2)
		}
		if err != nil {
			if measured {
				b.fail("job %d: %v", j, err)
			}
			if !resub {
				// Resubmitting it fails too, and counts again.
				newJobs = append(newJobs, submitted{spec, jr.view.Legs})
			}
			continue
		}
		if !resub {
			newJobs = append(newJobs, submitted{spec, jr.view.Legs})
		}
		legTimes := make([]hostTime, len(jr.view.Legs))
		for i, ls := range jr.view.Legs {
			legTimes[i] = runner.takeLegTime(ls.Name)
		}
		if !measured {
			continue
		}
		jobs.add(jr.time, slow)
		peaks = append(peaks, peakMB)
		lay.add("service.submit_s", jr.submit.Seconds())
		lay.add("service.polls_per_job", float64(jr.polls))
		if resub {
			continue
		}
		if len(newJobs)-1 <= cycleJobs {
			for _, ls := range jr.view.Legs {
				simCycles += ls.Cycles
			}
		}
		if root != 0 {
			tracedNew.add(jr.time, slow)
			if err := replayJob(b, runner, lay, spec, jr.view, tag); err != nil {
				b.fail("job %d replay: %v", j, err)
			}
			continue
		}
		plainNew.add(jr.time, slow)
		for i, ls := range jr.view.Legs {
			rates.addRate(float64(ls.SimCycles()), legTimes[i], slow)
		}
		heapBetween(&m0, &m1).record(lay, len(spec.Legs))
	}

	b.setHostTimes(setups, jobs, rates, l2TailPct)
	b.metrics["sim_cycles"] = float64(simCycles)
	b.metrics["host_mem_mb"] = median(peaks)
	b.report["job_peak_rss_mb"] = summarize(peaks)
	b.report["sim_cycles_jobs"] = cycleJobs
	b.report["setup_s"] = setups.summary()
	b.report["job_s"] = jobs.summary()
	b.report["new_job_s"] = plainNew.summary()
	b.report["leg_sim_cycles_per_s"] = rates.summary()
	b.report["jobs_new"], b.report["jobs_resubmitted"] = len(newJobs), resubmitted

	if b.traced() {
		// Store lookups per job, over every job the store served.
		hits, misses := float64(srv.store.Hits()), float64(srv.store.Misses())
		lay.add("service.store_hits", hits/float64(j))
		lay.add("service.store_misses", misses/float64(j))
		lay.ratio("service.store_hit_ratio", hits, hits+misses)
		spanLayers(b.rec, lay)
		lay.ratio("trace.overhead_ratio", median(tracedNew.cpu)-median(plainNew.cpu), median(plainNew.cpu))
		b.report["traced_new_job_s"] = tracedNew.summary()
		lay.fill(b)
	}
	return nil
}

// replayJob re-runs a traced job's legs outside the service from the
// same warm snapshots, with module profiling on. The service exposes no
// kernel, so this is where l2-service's module host times, cache and
// DRAM counters and snapshot costs come from. Each replay must re-encode
// to the warm snapshot and land on the cycle and instruction counts the
// service reported.
func replayJob(b *bench, sr *timedRunner, lay samples, spec service.SweepSpec, view service.JobView, tag string) error {
	for i, leg := range spec.Legs {
		sr.mu.Lock()
		warm := sr.warm[leg.Name]
		delete(sr.warm, leg.Name)
		sr.mu.Unlock()
		if warm == nil {
			return fmt.Errorf("leg %s: the service never asked for its warm-up", leg.Name)
		}
		cfg, err := leg.Config()
		if err != nil {
			return err
		}
		root := b.rec.begin(tag, 0, "replay")
		id := b.rec.begin(tag, root, "snapshot.restore")
		sys, err := config.RestoreSystem(cfg, warm)
		b.rec.end(id)
		if err != nil {
			b.rec.end(root)
			return fmt.Errorf("leg %s: restore: %w", leg.Name, err)
		}
		id = b.rec.begin(tag, root, "snapshot.encode")
		data, err := sys.Snapshot()
		b.rec.end(id)
		if err != nil {
			b.rec.end(root)
			return fmt.Errorf("leg %s: snapshot: %w", leg.Name, err)
		}
		if !bytes.Equal(data, warm) {
			b.rec.end(root)
			return fmt.Errorf("leg %s: the restored system snapshots differently from its warm snapshot", leg.Name)
		}
		lay.add("snapshot.bytes", float64(len(data)))
		sys.Kernel.EnableProfiling()
		id = b.rec.begin(tag, root, "sim.run")
		t0 := time.Now()
		_, err = sys.Kernel.RunUntil(sys.CPUsHalted, legLimit)
		run := time.Since(t0)
		b.rec.end(id)
		b.rec.end(root)
		if err != nil {
			return fmt.Errorf("leg %s: run: %w", leg.Name, err)
		}
		var instr uint64
		for _, c := range sys.CPUs {
			instr += c.Icount
		}
		if want := view.Legs[i]; sys.Kernel.Cycle() != want.Cycles || instr != want.Instructions {
			return fmt.Errorf("leg %s: replay ended at cycle %d with %d instructions, service reported %d and %d",
				leg.Name, sys.Kernel.Cycle(), instr, want.Cycles, want.Instructions)
		}
		recordLayers(b.rec, lay, &nativeLeg{sys: sys, txns: func() uint64 { return 0 }}, run)
	}
	return nil
}

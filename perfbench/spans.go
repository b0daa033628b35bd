package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one leg or job share
// a Trace id; Parent is the id of the span that caused this one (0 for
// a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	SelfS  float64 `json:"self_s"`
	ended  bool
}

// recorder keeps spans in memory; write dumps them at exit. A nil
// recorder records nothing, so untraced code paths call it freely.
// Safe for concurrent use: service runner spans arrive from the
// server's goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// aggregates are totals that are not spans (module host time),
	// written next to them.
	aggregates map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), aggregates: map[string]float64{}}
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(trace string, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now.Seconds()})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End, r.spans[id-1].ended = now.Seconds(), true
}

// addAggregate accumulates a named aggregate (for instance a module's host
// time) into the trace file.
func (r *recorder) addAggregate(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aggregates[name] += v
}

// computeSelf fills every span's self time: its duration minus the
// part of its interval that its children cover.
func (r *recorder) computeSelf() {
	children := map[int][]int{}
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		var iv [][2]float64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]float64{r.spans[c].Start, r.spans[c].End})
		}
		s.SelfS = (s.End - s.Start) - covered(iv, s.Start, s.End)
	}
}

// covered returns the length of the union of intervals iv clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	slices.SortFunc(iv, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	total, cur := 0.0, lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName returns each span name's self times, one sample per span.
func (r *recorder) selfByName() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.spans {
		if s.ended {
			out[s.Name] = append(out[s.Name], s.SelfS)
		}
	}
	return out
}

// write dumps every span, the per-name self-time summaries and the
// aggregates to path as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.computeSelf()
	self := map[string]summary{}
	for name, xs := range r.selfByName() {
		self[name] = summarize(xs)
	}
	data, err := json.MarshalIndent(map[string]any{
		"spans": r.spans, "self_s_by_name": self, "aggregates": r.aggregates,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sumByTrace returns, per trace id, the summed self time of the spans
// called name. Call with r.mu held, after computeSelf.
func (r *recorder) sumByTrace(name string) []float64 {
	sums := map[string]float64{}
	var order []string
	for _, s := range r.spans {
		if s.Name != name || !s.ended {
			continue
		}
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += s.SelfS
	}
	out := make([]float64, len(order))
	for i, t := range order {
		out[i] = sums[t]
	}
	return out
}

// spanLayers turns the recorded spans into per-layer samples: per leg,
// the summed set-up spans; per span, the simulator calls the service
// made and the snapshot work of the replays; per traced job, the
// service overhead, which is the job's time not covered by a runner
// span.
func spanLayers(rec *recorder, lay samples) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.computeSelf()
	for _, name := range []string{"isa.assemble", "config.build", "config.attach"} {
		for _, v := range rec.sumByTrace(name) {
			lay.add(name+"_s", v)
		}
	}
	self := rec.selfByName()
	for _, name := range []string{"experiments.run_leg", "experiments.warmup", "snapshot.encode", "snapshot.restore"} {
		for _, v := range self[name] {
			lay.add(name+"_s", v)
		}
	}
	runner := map[int][][2]float64{}
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			runner[s.Parent] = append(runner[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range rec.spans {
		if s.Name == "job" && s.ended {
			lay.add("service.overhead_s", (s.End-s.Start)-covered(runner[s.ID], s.Start, s.End))
		}
	}
}

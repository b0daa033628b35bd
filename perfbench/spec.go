package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(f float64) *float64 { return &f }

// workloadDef names a workload, says why it is in the benchmark, and
// runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*bench) error
	// threads is the run's GOMAXPROCS (see main).
	threads int
}

var workloads = []workloadDef{
	{"gsm-iss", "paper E1 platform: 4 ISS cores run the self-checking GSM kernel on one wrapper memory; ISS dispatch dominates host time", runGSMISS, 2},
	{"dyn-churn", "paper dynamic-data case: 4 native PEs replay alloc/free-heavy traces with pointer arithmetic on 2 wrappers; no ISS", runDynChurn, 1},
	{"l2-service", "closed-loop HTTP sweep jobs through the service and store: coherent L1s, small L2, banked DRAM, warm-boot snapshots", runL2Service, 2},
}

// endToEnd metrics are what a user of the simulator sees. Every
// workload reports every one (see README.md for what a "job" is on each).
// Host time is process CPU time divided by the host's slow-down as the
// yardstick measures it (see yardstick). Scaled that way, the medians of
// ten runs per workload spread by 1.5–6.5% on the 2-core reference VM,
// where the unscaled ones spread by 3.5–12%; the host-time bounds stay
// the widest allowed, since the scaling rests on an exponent measured on
// one kind of host. The median per-leg peak RSS spreads by under 2%, and
// sim_cycles is exact for a seed and varies only with dyn-churn's seeded
// traces (under 0.1% over ten seeds).
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s", "higher", bound(0.25)},
	{"job_p50_s", "s", "lower", bound(0.25)},
	{"job_tail_s", "s", "lower", bound(0.25)},
	{"sim_cycles", "cycles", "lower", bound(0.003)},
	{"host_mem_mb", "MB", "lower", bound(0.1)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// perLayer metrics come from the traced run, one group per module of
// the simulator (plus the Go runtime and the tracing itself). A layer
// that a workload bypasses reports 0.
var perLayer = []metricDef{
	{"sim.run_s", "s", "lower", nil},
	{"sim.self_s", "s", "lower", nil},
	{"sim.stepped_cycles", "cycles", "lower", nil},
	{"sim.skipped_cycles", "cycles", "higher", nil},
	{"sim.skip_spans", "count", "lower", nil},
	{"iss.instructions", "count", "lower", nil},
	{"iss.host_s", "s", "lower", nil},
	{"iss.ns_per_instr", "ns", "lower", nil},
	{"isa.assemble_s", "s", "lower", nil},
	{"config.build_s", "s", "lower", nil},
	{"config.attach_s", "s", "lower", nil},
	{"core.allocs", "count", "lower", nil},
	{"core.frees", "count", "lower", nil},
	{"core.ops", "count", "lower", nil},
	{"core.errors", "count", "lower", nil},
	{"core.host_s", "s", "lower", nil},
	{"core.ns_per_op", "ns", "lower", nil},
	{"core.vs_heapsim_speedup", "ratio", "higher", nil},
	{"core.vs_static_overhead", "ratio", "lower", nil},
	{"core.wrapper_cycles", "cycles", "lower", nil},
	{"core.heapsim_cycles", "cycles", "higher", nil},
	{"core.static_cycles", "cycles", "lower", nil},
	{"smapi.transactions", "count", "lower", nil},
	{"smapi.host_s", "s", "lower", nil},
	{"smapi.ns_per_transaction", "ns", "lower", nil},
	{"bus.transactions", "count", "lower", nil},
	{"bus.busy_cycles", "cycles", "lower", nil},
	{"bus.host_s", "s", "lower", nil},
	{"cache.l1_hits", "count", "higher", nil},
	{"cache.l1_misses", "count", "lower", nil},
	{"cache.l1_host_s", "s", "lower", nil},
	{"cache.l2_hits", "count", "higher", nil},
	{"cache.l2_misses", "count", "lower", nil},
	{"cache.l2_back_invalidations", "count", "lower", nil},
	{"cache.l2_repartitions", "count", "lower", nil},
	{"cache.l2_host_s", "s", "lower", nil},
	{"mem.dram_row_hits", "count", "higher", nil},
	{"mem.dram_row_misses", "count", "lower", nil},
	{"mem.dram_row_conflicts", "count", "lower", nil},
	{"mem.dram_host_s", "s", "lower", nil},
	{"snapshot.encode_s", "s", "lower", nil},
	{"snapshot.restore_s", "s", "lower", nil},
	{"snapshot.bytes", "bytes", "lower", nil},
	{"experiments.run_leg_s", "s", "lower", nil},
	{"experiments.warmup_s", "s", "lower", nil},
	{"service.submit_s", "s", "lower", nil},
	{"service.polls_per_job", "count", "lower", nil},
	{"service.overhead_s", "s", "lower", nil},
	{"service.store_hits", "count/job", "higher", nil},
	{"service.store_misses", "count/job", "lower", nil},
	{"service.store_hit_ratio", "ratio", "higher", nil},
	{"go.alloc_mb_per_leg", "MB", "lower", nil},
	{"go.gc_cycles", "count", "lower", nil},
	{"go.gc_pause_s", "s", "lower", nil},
	{"trace.overhead_ratio", "ratio", "lower", nil},
}

// runSeconds is how long one run measures: 80 to 210 operations on
// the reference host, while a full evaluation of 4 + 22 runs per
// workload, with two builds, stays under an hour.
const runSeconds = 30

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func specJSON() ([]byte, error) {
	spec := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// writeSpec writes BENCHMARK.json, the benchmark's declaration, from
// the definitions above.
func writeSpec(path string) error {
	data, err := specJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

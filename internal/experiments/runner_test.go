package experiments

import (
	"context"
	"errors"
	"testing"
)

func TestLegSpecKeySemantics(t *testing.T) {
	base := LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2}
	key := func(l LegSpec, snap string) string {
		k, err := l.Key(snap)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	if key(base, "") != key(base, "") {
		t.Error("key not stable")
	}
	// Presentation-only fields do not address results.
	renamed := base
	renamed.Name = "b"
	if key(renamed, "") != key(base, "") {
		t.Error("name changed the key")
	}
	// The zero spec and its explicit normalization are the same leg.
	if key(LegSpec{}, "") != key(LegSpec{Workload: "gsm", ISSes: 4, Memories: 1, Frames: 4, Seed: 1}, "") {
		t.Error("normalization changed the key")
	}
	// Scheduler knobs are part of the FULL key (the stored result
	// reports wall time), workload changes obviously too.
	for name, varied := range map[string]LegSpec{
		"workers":  {Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Workers: 4},
		"lockstep": {Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Lockstep: true},
		"frames":   {Name: "a", Workload: "gsm", ISSes: 2, Frames: 3},
		"seed":     {Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Seed: 9},
	} {
		if key(varied, "") == key(base, "") {
			t.Errorf("%s change did not change the key", name)
		}
	}
	// A different warm snapshot is a different result.
	if key(base, "abc") == key(base, "") || key(base, "abc") == key(base, "def") {
		t.Error("snapshot hash not part of the key")
	}
}

func TestLegSpecStateKeyIgnoresScheduler(t *testing.T) {
	stateKey := func(l LegSpec) string {
		k, err := l.StateKey(1000)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := LegSpec{Workload: "gsm", ISSes: 2, Frames: 2}
	sched := base
	sched.Lockstep, sched.Workers = true, 4
	if stateKey(base) != stateKey(sched) {
		t.Error("scheduler knobs changed the warm-boot compatibility class")
	}
	observable := base
	observable.Split = true
	if stateKey(base) == stateKey(observable) {
		t.Error("observable protocol change kept the compatibility class")
	}
	if k1, _ := base.StateKey(1000); func() string { k, _ := base.StateKey(2000); return k }() == k1 {
		t.Error("warm-up length not part of the state key")
	}
}

func TestLegSpecValidate(t *testing.T) {
	for name, bad := range map[string]LegSpec{
		"workload":   {Workload: "quake"},
		"isses":      {ISSes: 65},
		"neg frames": {Frames: -1},
		"alloc":      {Alloc: "yolo"},
		"partition":  {Partition: "diag"},
		"l2 on gsm":  {Workload: "gsm", L2: true},
		// Sweep values run to seed+16·isses+63 and must fit a byte.
		"sweep seed":      {Workload: "sweep", Seed: 129},
		"sweep isses":     {Workload: "sweep", ISSes: 12},
		"sweep huge seed": {Workload: "sweep", Seed: 5000},
		// Geometry is capped before any build allocates it.
		"cache_sets":     {Workload: "sweep", Cache: true, CacheSets: maxL1Sets + 1},
		"cache_ways":     {Workload: "sweep", Cache: true, CacheWays: 1 << 30},
		"l2_sets":        {Workload: "sweep", L2: true, L2Sets: 1 << 40},
		"l2_ways":        {Workload: "sweep", L2: true, L2Ways: maxL2Ways + 1},
		"neg cache_sets": {Workload: "sweep", Cache: true, CacheSets: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	if err := (LegSpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if err := (LegSpec{Workload: "sweep", L2: true, Dram: true, Partition: "ucp"}).Validate(); err != nil {
		t.Errorf("L2+DRAM sweep rejected: %v", err)
	}
	for _, ok := range []LegSpec{
		{Workload: "sweep", ISSes: 11},
		{Workload: "sweep", L2: true, L2Sets: maxL2Sets, L2Ways: maxL2Ways, CacheSets: maxL1Sets, CacheWays: maxL1Ways},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	// The sweep bound is exact: the largest accepted seed still runs clean.
	edge := LegSpec{Workload: "sweep", Seed: 128, Frames: 1}
	if err := edge.Validate(); err != nil {
		t.Fatalf("seed 128 rejected: %v", err)
	}
	if _, err := (SimRunner{}).RunLeg(context.Background(), edge, nil); err != nil {
		t.Errorf("seed 128 sweep failed: %v", err)
	}
}

func TestSimRunnerDeterministicAndResumable(t *testing.T) {
	leg := LegSpec{Workload: "gsm", ISSes: 2, Frames: 2}
	r := SimRunner{}
	ctx := context.Background()

	cold1, err := r.RunLeg(ctx, leg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := r.RunLeg(ctx, leg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cold1.Identical(cold2) {
		t.Fatalf("cold runs diverged: %+v vs %+v", cold1, cold2)
	}
	if cold1.Cycles == 0 || cold1.Instructions == 0 || len(cold1.Stats) == 0 {
		t.Fatalf("degenerate result: %+v", cold1)
	}

	// Warm-boot: resume from a 1500-cycle prefix, land bit-identical.
	snap, err := r.Warmup(ctx, leg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunLeg(ctx, leg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StartCycle != 1500 {
		t.Errorf("warm run started at %d, want 1500", warm.StartCycle)
	}
	if !warm.Identical(cold1) {
		t.Fatalf("warm-boot diverged from cold: %+v vs %+v", warm, cold1)
	}
	// A different scheduler mode stays in the same compatibility class
	// and still lands on the same result.
	fast := leg
	fast.Lockstep, fast.Workers = true, 2
	warmFast, err := r.RunLeg(ctx, fast, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !warmFast.Identical(cold1) {
		t.Fatalf("cross-scheduler warm-boot diverged: %+v vs %+v", warmFast, cold1)
	}
}

// TestISSExperimentsHonorCtx: every ISS-leg experiment returns
// context.Canceled under a canceled Options.Ctx instead of running.
func TestISSExperimentsHonorCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Quick: true, Ctx: ctx}
	for name, run := range map[string]func(Options) error{
		"e1":  func(o Options) error { _, err := E1(o); return err },
		"e5":  func(o Options) error { _, err := E5(o); return err },
		"a1":  func(o Options) error { _, err := A1(o); return err },
		"par": func(o Options) error { _, err := PAR(o); return err },
		"wb":  func(o Options) error { _, err := WB(o); return err },
	} {
		if err := run(o); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under canceled ctx returned %v, want context.Canceled", name, err)
		}
	}
}

func TestSimRunnerCancellation(t *testing.T) {
	leg := LegSpec{Workload: "gsm", ISSes: 2, Frames: 64}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (SimRunner{}).RunLeg(ctx, leg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if _, err := (SimRunner{}).Warmup(ctx, leg, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled warmup returned %v, want context.Canceled", err)
	}
}

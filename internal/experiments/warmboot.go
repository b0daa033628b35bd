package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
)

// This file is the warm-boot sweep: instead of paying the workload's
// warm-up phase once per swept configuration, the sweep runs it once,
// snapshots, and fans every scheduler variant out from the snapshot.
// The bit-identical scheduler matrix is what makes this sound — a
// snapshot taken under one kernel mode resumes under any other and
// still produces the cold run's exact cycle count — and the WB
// experiment proves it by checking, not assuming.

// WB is the warm-boot experiment: a scheduler sweep over the paper's
// 4-ISS GSM configuration on one wrapper memory, run cold (from cycle
// 0) and warm (restored from one shared warm-up snapshot), with
// per-variant results memoized by config hash — with one shared
// snapshot and a deterministic simulator, the config fully determines
// the result. Every warm leg must reproduce the cold leg's exact cycle
// count — restore correctness is asserted inside the measurement, not
// alongside it.
func WB(o Options) (*stats.Table, error) {
	frames := o.pick(20, 3)
	base := o.mode()
	leg := LegSpec{Frames: frames}
	var r SimRunner

	// Cold reference: learns the total cycle count the warm legs must hit.
	ref, err := r.RunMode(o.Ctx, leg, base, nil)
	if err != nil {
		return nil, err
	}
	total := ref.Cycles

	// Shared warm-up: one run to total/2, snapshotted once — or, when
	// o.Restore names a file, loaded from a previous run's checkpoint
	// (an incompatible file fails on the first warm leg's restore).
	var snap []byte
	var warmK uint64
	if o.Restore != "" {
		snap, err = os.ReadFile(o.Restore)
	} else {
		warmK = total / 2
		snap, err = r.warmup(o.Ctx, leg, base, warmK)
	}
	if err != nil {
		return nil, err
	}
	if o.Checkpoint != "" {
		if err := os.WriteFile(o.Checkpoint, snap, 0o644); err != nil {
			return nil, err
		}
	}

	variant := func(lockstep bool, workers int) Mode {
		m := base
		m.Lockstep, m.Workers = lockstep, workers
		return m
	}
	variants := []struct {
		name string
		mode Mode
	}{
		{"lockstep/w1", variant(true, 1)},
		{"event-driven/w1", variant(false, 1)},
		{"event-driven/w4", variant(false, 4)},
		// Repeated on purpose: the second run must come from the result
		// cache without simulating.
		{"event-driven/w1 (again)", variant(false, 1)},
	}

	results := map[string]uint64{} // config hash → final cycle count
	warmDesc := fmt.Sprintf("warm-up %d of %d cycles", warmK, total)
	if o.Restore != "" {
		warmDesc = fmt.Sprintf("warm-up restored from %s, %d total cycles", o.Restore, total)
	}
	t := stats.NewTable(
		fmt.Sprintf("WB: warm-boot sweep on GSM 4 ISS / 1 mem (%d frames, %s, snapshot %d KiB)",
			frames, warmDesc, len(snap)/1024),
		"variant", "cold wall", "warm wall", "saving", "cycles", "source")
	for _, v := range variants {
		cfg, err := leg.config(v.mode)
		if err != nil {
			return nil, err
		}
		key := cfg.Hash()
		if cycles, ok := results[key]; ok {
			t.Add(v.name, "-", "0s", "-", fmt.Sprint(cycles), "cache hit")
			continue
		}
		cold, err := r.RunMode(o.Ctx, leg, v.mode, nil)
		if err != nil {
			return nil, err
		}
		coldWall := time.Duration(cold.WallNS)
		// Warm leg: restore the shared snapshot under this variant's
		// scheduler knobs and run the remainder; its wall time includes
		// the restore.
		warmStart := time.Now()
		warm, err := r.RunMode(o.Ctx, leg, v.mode, snap)
		if err != nil {
			return nil, err
		}
		warmWall := time.Since(warmStart)
		if cold.Cycles != total || warm.Cycles != total {
			return nil, fmt.Errorf("wb %s: cycles diverged: cold %d, warm %d, reference %d",
				v.name, cold.Cycles, warm.Cycles, total)
		}
		results[key] = warm.Cycles
		saving := 1 - warmWall.Seconds()/coldWall.Seconds()
		t.Add(v.name, coldWall.Round(time.Millisecond).String(), warmWall.Round(time.Millisecond).String(),
			stats.Pct(saving), fmt.Sprint(warm.Cycles), "simulated")
	}
	return t, nil
}

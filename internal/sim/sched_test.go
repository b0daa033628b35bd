package sim

import (
	"context"
	"errors"
	"testing"
)

// pulser is a Sleeper fixture shaped like the real FSM modules: it
// raises a signal every period cycles, sleeping through the countdown,
// and accounts skipped cycles in busy exactly as ticked ones.
type pulser struct {
	out    *Signal[int]
	period uint64
	wait   uint64
	pulses int
	busy   uint64 // counts every non-firing cycle, ticked or skipped
}

func newPulser(k *Kernel, name string, period uint64) *pulser {
	p := &pulser{out: NewSignal(k, name+".out", 0), period: period, wait: period}
	k.Add(p)
	return p
}

func (p *pulser) Name() string { return "pulser" }

func (p *pulser) Tick(cycle uint64) {
	if p.wait > 1 {
		p.wait--
		p.busy++
		return
	}
	p.wait = p.period
	p.pulses++
	p.out.Set(p.pulses)
}

func (p *pulser) NextWake(now uint64) uint64 {
	if p.wait <= 1 {
		return now
	}
	return now + p.wait - 1
}

func (p *pulser) Skip(n uint64) {
	p.wait -= n
	p.busy += n
}

// watcher sleeps forever and counts how often it observes a new value —
// it advances only through dirty-signal wakeups.
type watcher struct {
	in   *Signal[int]
	seen []uint64 // cycle of each observed change
	last int
}

func (w *watcher) Name() string { return "watcher" }
func (w *watcher) Tick(cycle uint64) {
	if v := w.in.Get(); v != w.last {
		w.last = v
		w.seen = append(w.seen, cycle)
	}
}
func (w *watcher) NextWake(now uint64) uint64 { return WakeNever }
func (w *watcher) Skip(n uint64)              {}

func buildPulseSystem(lockstep bool, period uint64) (*Kernel, *pulser, *watcher) {
	k := New()
	k.SetLockstep(lockstep)
	p := newPulser(k, "p", period)
	w := &watcher{in: p.out}
	k.Add(w)
	return k, p, w
}

// TestIdleSkipEquivalence runs the pulse system in both modes and
// demands identical observable behavior: cycle count, pulse count,
// busy accounting, and the exact cycles at which the watcher saw each
// change.
func TestIdleSkipEquivalence(t *testing.T) {
	const period, cycles = 37, 1000
	lk, lp, lw := buildPulseSystem(true, period)
	ek, ep, ew := buildPulseSystem(false, period)
	if err := lk.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if err := ek.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if lk.Cycle() != ek.Cycle() {
		t.Fatalf("cycle counts diverged: lockstep %d, event %d", lk.Cycle(), ek.Cycle())
	}
	if lp.pulses != ep.pulses || lp.busy != ep.busy || lp.wait != ep.wait {
		t.Fatalf("pulser state diverged: lockstep {%d %d %d}, event {%d %d %d}",
			lp.pulses, lp.busy, lp.wait, ep.pulses, ep.busy, ep.wait)
	}
	if len(lw.seen) != len(ew.seen) {
		t.Fatalf("watcher observations diverged: %d vs %d", len(lw.seen), len(ew.seen))
	}
	for i := range lw.seen {
		if lw.seen[i] != ew.seen[i] {
			t.Fatalf("observation %d at different cycles: lockstep %d, event %d", i, lw.seen[i], ew.seen[i])
		}
	}
	if s := ek.Sched(); s.Skipped == 0 {
		t.Fatal("event-driven run skipped nothing; idle-skip is not engaging")
	} else if s.Stepped+s.Skipped != ek.Cycle() {
		t.Fatalf("Stepped(%d)+Skipped(%d) != Cycle(%d)", s.Stepped, s.Skipped, ek.Cycle())
	}
	if s := lk.Sched(); s.Skipped != 0 || !s.Lockstep {
		t.Fatalf("lockstep kernel skipped: %+v", s)
	}
}

// TestIdleSkipLandsExactly verifies Run(n) with an eternally sleeping
// system burns exactly n cycles in one jump.
func TestIdleSkipLandsExactly(t *testing.T) {
	k := New()
	quietCell := NewSignal(k, "q", 0)
	k.Add(&watcher{in: quietCell})
	if err := k.Step(); err != nil { // establish started state
		t.Fatal(err)
	}
	if err := k.Run(999); err != nil {
		t.Fatal(err)
	}
	if got := k.Cycle(); got != 1000 {
		t.Fatalf("Cycle() = %d, want 1000", got)
	}
	if s := k.Sched(); s.Skipped != 999 || s.Spans != 1 {
		t.Fatalf("expected one 999-cycle span, got %+v", s)
	}
}

// TestNonSleeperDisablesSkip: one plain module forces lockstep behavior.
func TestNonSleeperDisablesSkip(t *testing.T) {
	k := New()
	newPulser(k, "p", 50)
	k.Add(&nopModule{"plain"})
	if err := k.Run(200); err != nil {
		t.Fatal(err)
	}
	if s := k.Sched(); s.Skipped != 0 || s.Stepped != 200 {
		t.Fatalf("non-sleeper module did not disable skipping: %+v", s)
	}
}

// TestHostWriteBlocksSkip: a signal Set from host code between steps is
// a pending change; the kernel must tick so modules can observe it.
func TestHostWriteBlocksSkip(t *testing.T) {
	k := New()
	s := NewSignal(k, "s", 0)
	w := &watcher{in: s}
	k.Add(w)
	if err := k.Run(10); err != nil { // all asleep: skipped
		t.Fatal(err)
	}
	s.Set(7)
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	// The host write commits at the end of cycle 10, so the watcher
	// observes it on cycle 11 — exactly as it would under lockstep.
	if len(w.seen) != 1 || w.seen[0] != 11 {
		t.Fatalf("watcher saw %v, want a single observation at cycle 11", w.seen)
	}
}

// TestRunUntilEquivalence: RunUntil stops both modes at the same cycle.
func TestRunUntilEquivalence(t *testing.T) {
	for _, lockstep := range []bool{true, false} {
		k, p, _ := buildPulseSystem(lockstep, 61)
		n, err := k.RunUntil(func() bool { return p.pulses >= 3 }, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(3 * 61); n != want || k.Cycle() != want {
			t.Fatalf("lockstep=%v: stopped after %d cycles at %d, want %d", lockstep, n, k.Cycle(), want)
		}
	}
}

// TestRunUntilCtxMatchesRunUntil: a cancellable run spanning several
// ctxChunk slices stops at the same cycle with the same module state
// and stepped/skipped counts as the plain RunUntil (only the
// informational span count may differ — slices split idle jumps), and
// RunCtx lands where Run does. A canceled context stops before the
// first slice.
func TestRunUntilCtxMatchesRunUntil(t *testing.T) {
	const period, pulses = 997, 300 // ~4.5 chunks of cycles
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, lockstep := range []bool{true, false} {
		pk, pp, pw := buildPulseSystem(lockstep, period)
		ck, cp, cw := buildPulseSystem(lockstep, period)
		plainN, err := pk.RunUntil(func() bool { return pp.pulses >= pulses }, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		ctxN, err := ck.RunUntilCtx(ctx, func() bool { return cp.pulses >= pulses }, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if plainN <= 2*ctxChunk {
			t.Fatalf("run of %d cycles does not span several chunks", plainN)
		}
		ps, cs := pk.Sched(), ck.Sched()
		if ctxN != plainN || ck.Cycle() != pk.Cycle() || cp.busy != pp.busy ||
			len(cw.seen) != len(pw.seen) || ps.Stepped != cs.Stepped || ps.Skipped != cs.Skipped {
			t.Fatalf("lockstep=%v: ctx run diverged: %d cycles %+v vs plain %d cycles %+v",
				lockstep, ctxN, cs, plainN, ps)
		}
		if err := pk.Run(3*ctxChunk + 5); err != nil {
			t.Fatal(err)
		}
		if err := ck.RunCtx(ctx, 3*ctxChunk+5); err != nil {
			t.Fatal(err)
		}
		if ck.Cycle() != pk.Cycle() || cp.busy != pp.busy || cp.pulses != pp.pulses {
			t.Fatalf("lockstep=%v: RunCtx landed at %d, Run at %d", lockstep, ck.Cycle(), pk.Cycle())
		}
	}

	k, p, _ := buildPulseSystem(false, period)
	cancel()
	if n, err := k.RunUntilCtx(ctx, func() bool { return p.pulses >= pulses }, 1<<30); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("canceled RunUntilCtx advanced %d cycles, err %v", n, err)
	}
	if err := k.RunCtx(ctx, 10); !errors.Is(err, context.Canceled) || k.Cycle() != 0 {
		t.Fatalf("canceled RunCtx: cycle %d, err %v", k.Cycle(), err)
	}
}

// TestRunUntilQuiescentEquivalence: the idle threshold must be hit at
// the identical cycle in both modes, even when the quiet span is jumped.
func TestRunUntilQuiescentEquivalence(t *testing.T) {
	run := func(lockstep bool) (uint64, uint64) {
		k := New()
		k.SetLockstep(lockstep)
		s := NewSignal(k, "s", 0)
		k.Add(&FuncModule{Nm: "w", Fn: func(cycle uint64) {
			if cycle < 5 {
				s.Set(int(cycle) + 1)
			}
		}, Wake: func(now uint64) uint64 {
			if now < 5 {
				return now
			}
			return WakeNever
		}})
		n, err := k.RunUntilQuiescent(30, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return n, k.Cycle()
	}
	ln, lc := run(true)
	en, ec := run(false)
	if ln != en || lc != ec {
		t.Fatalf("quiescence diverged: lockstep (%d, %d), event (%d, %d)", ln, lc, en, ec)
	}
}

// TestRunUntilQuiescentLimitEventDriven: the limit is honored even when
// the whole budget is consumed by jumps.
func TestRunUntilQuiescentLimitEventDriven(t *testing.T) {
	k := New()
	s := NewSignal(k, "s", 0)
	k.Add(&watcher{in: s})
	// Eternally quiet system, idle threshold larger than limit.
	n, err := k.RunUntilQuiescent(1000, 100)
	if err == nil || !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if n != 100 || k.Cycle() != 100 {
		t.Fatalf("advanced %d cycles to %d, want exactly the 100-cycle limit", n, k.Cycle())
	}
}

// TestFaultDuringWakeCycle: a fault raised on a wake tick after a jump
// surfaces with the correct cycle number.
func TestFaultDuringWakeCycle(t *testing.T) {
	k := New()
	boom := errors.New("boom")
	wait := uint64(80)
	k.Add(&FuncModule{Nm: "f", Fn: func(cycle uint64) {
		if wait > 1 {
			wait--
			return
		}
		k.Fault(boom)
	}, Wake: func(now uint64) uint64 {
		if wait <= 1 {
			return now
		}
		return now + wait - 1
	}, OnSkip: func(n uint64) { wait -= n }})
	err := k.Run(1000)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := k.Cycle(); got != 80 {
		t.Fatalf("fault cycle = %d, want 80", got)
	}
	if k.Sched().Skipped == 0 {
		t.Fatal("expected the countdown to be skipped")
	}
}

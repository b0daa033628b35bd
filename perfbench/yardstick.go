package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of CPU work that is the benchmark's own
// and no part of the simulator. The benchmark times it on its own thread
// before every set-up batch, before every operation it measures and
// every 25 ms or so inside the simulation, and leaves that time out of
// what it measures. It divides each operation's host time by the host's
// slow-down over that operation, and set-up time by the slow-down over
// the set-up batches (see slowdown): the end-to-end host times are in
// seconds of the reference host running at its full speed.
//
// The reference host, a 2-vCPU Intel Xeon VM, runs at two speeds that
// alternate every few tens of milliseconds: another guest's work on the
// same physical core slows the simulator by 1.6–1.9× (a 160 000-cycle
// gsm-iss stretch takes 9 ms or 17 ms of CPU time), and the share of
// time spent slow drifts over minutes. CPU time counts that slow-down as
// work, so CPU-time medians of runs of the same code moved by a quarter
// between sets of runs and spread by up to half within a set. A
// slow-down of the host slows the yardstick too and divides out; a
// slow-down of the simulator leaves the yardstick alone and shows in
// full.
//
// The work is shaped like the simulator's host time: an interpreter's
// dispatch loop over a guest memory (the ISS), lookups in a hash table
// keyed by address (the wrapper's pointer table) and a dependent walk
// through scattered state. It allocates nothing, so the garbage
// collector never runs inside it, and its data (192 KiB) stays in the
// core's caches, so where the allocator places it does not matter.
type yardstick struct {
	mem  []uint32 // the interpreter's guest memory, 64 KiB
	prog []uint8  // its program
	keys []uint32 // open-addressed hash table, 4 Ki of 8 Ki slots used
	vals []uint32
	next []int32 // one cycle through 16 Ki slots, 64 KiB
	sink uint32

	mu sync.Mutex // one reading at a time
}

// yardstickNominal is the yardstick's reading on the reference host at
// its full speed.
const yardstickNominal = 1650 * time.Microsecond

// hostSensitivity is how much more the simulator slows down than the
// yardstick when the host slows, as an exponent. The yardstick takes
// about 1.35× as long in the host's slow spells, and short stretches of
// the simulator timed between readings 1.6–1.9× (an exponent of 1.6–2.0
// for the spells alone), but other slow-downs, such as those that come
// with stolen time, slow both alike (an exponent of 1). Over 38 runs of
// the three workloads in three sets, 1.2 gave the lowest worst-case
// spread of the scaled medians (0.068, against 0.154 unscaled and 0.10
// at 1.6).
const hostSensitivity = 1.2

const (
	ysMemWords  = 1 << 14
	ysTableSize = 1 << 12
	ysNextSlots = 1 << 14
	// Iterations of each part, about a third of the work each.
	ysSteps   = 260_000
	ysLookups = 40_000
	ysHops    = 100_000
)

func newYardstick() *yardstick {
	y := &yardstick{
		mem:  make([]uint32, ysMemWords),
		prog: make([]uint8, 64),
		keys: make([]uint32, 2*ysTableSize),
		vals: make([]uint32, 2*ysTableSize),
		next: make([]int32, ysNextSlots),
	}
	x := uint32(2463534242)
	rnd := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range y.prog {
		y.prog[i] = uint8(rnd() % 8)
	}
	for range ysTableSize {
		k := rnd()&(4*ysTableSize-1) | 1
		i := y.slot(k)
		y.keys[i], y.vals[i] = k, rnd()
	}
	// Sattolo's shuffle: a single cycle through every slot.
	perm := make([]int32, ysNextSlots)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rnd() % uint32(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		y.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	return y
}

// slowdown is the host's slow-down against its full speed over the
// stretch of a run in which the yardstick gave readings (seconds): the
// mean reading over yardstickNominal, to the power hostSensitivity. It
// is a mean and not a median: the readings fall into two groups, one
// per speed, and their mean moves smoothly with the share of time the
// host spends slow. Of twenty readings or more, the highest and lowest
// 5% are left out.
func slowdown(readings []float64) float64 {
	s := slices.Clone(readings)
	slices.Sort(s)
	cut := len(s) / 20
	s = s[cut : len(s)-cut]
	var sum float64
	for _, r := range s {
		sum += r
	}
	return math.Pow(sum/float64(len(s))/yardstickNominal.Seconds(), hostSensitivity)
}

// measure runs the work once and returns the CPU time of the thread
// that ran it.
func (y *yardstick) measure() time.Duration {
	y.mu.Lock()
	defer y.mu.Unlock()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	y.interpret()
	y.lookup()
	y.walk()
	return threadCPU() - t0
}

func (y *yardstick) interpret() {
	var r [8]uint32
	r[1] = 12345
	mem, prog := y.mem, y.prog
	pc := 0
	for range ysSteps {
		op := prog[pc]
		pc = (pc + 1) & 63
		switch op {
		case 0:
			r[0] += r[1] * 3
		case 1:
			r[1] ^= r[0]<<5 | r[0]>>27
		case 2:
			mem[r[1]&(ysMemWords-1)] = r[0]
		case 3:
			r[2] += mem[(r[0]>>3)&(ysMemWords-1)]
		case 4:
			if r[2]&1 == 0 {
				r[3]++
			} else {
				r[4]--
			}
		case 5:
			r[5] = r[3] + r[4]
		case 6:
			r[6] = mem[r[5]&(ysMemWords-1)] + 1
		case 7:
			r[7] ^= r[6]
		}
	}
	y.sink += r[7] + r[2]
}

func (y *yardstick) lookup() {
	x, s := uint32(88675123), uint32(0)
	for range ysLookups {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if i := y.slot(x&(4*ysTableSize-1) | 1); y.keys[i] != 0 {
			s += y.vals[i]
		}
	}
	y.sink += s
}

// slot returns the slot that holds key k (nonzero), or the empty slot
// where it would go: a hash table with linear probing, as a Go map's
// seed is random per process and would make the work differ between
// runs.
func (y *yardstick) slot(k uint32) int {
	mask := uint32(len(y.keys) - 1)
	for i := (k * 2654435761) >> 19 & mask; ; i = (i + 1) & mask {
		if y.keys[i] == k || y.keys[i] == 0 {
			return int(i)
		}
	}
}

func (y *yardstick) walk() {
	i := int32(0)
	for range ysHops {
		i = y.next[i]
	}
	y.sink += uint32(i)
}

// threadCPU returns the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

package main

import (
	"math/rand/v2"
	"time"

	"lcws"
	"lcws/internal/counters"
	"lcws/internal/deque"
	"lcws/parlay"
)

// forkDepth sizes the spawn tree behind core.fork_ns: 2^16-1 forks.
const forkDepth = 16

func spawnTree(ctx *lcws.Ctx, depth int) {
	if depth == 0 {
		return
	}
	lcws.Fork2(ctx,
		func(ctx *lcws.Ctx) { spawnTree(ctx, depth-1) },
		func(ctx *lcws.Ctx) { spawnTree(ctx, depth-1) },
	)
}

// forkNs times a Fork2 spawn tree through Submit/Wait at one worker for
// each policy, round-robin over nine rounds, and returns the median
// ns per fork by config name.
func forkNs(cfgs []config) map[string]float64 {
	pools := make([]*lcws.Scheduler, len(cfgs))
	for i, c := range cfgs {
		pools[i] = lcws.New(lcws.WithWorkers(1), lcws.WithPolicy(c.policy))
		pools[i].Run(func(ctx *lcws.Ctx) { spawnTree(ctx, forkDepth) }) // warm
	}
	const forks = 1<<forkDepth - 1
	ns := make([][]float64, len(cfgs))
	for rep := 0; rep < 9; rep++ {
		for i, s := range pools {
			t0 := time.Now()
			s.Run(func(ctx *lcws.Ctx) { spawnTree(ctx, forkDepth) })
			ns[i] = append(ns[i], float64(time.Since(t0))/forks)
		}
	}
	out := map[string]float64{}
	for i, c := range cfgs {
		out[c.name] = median(ns[i])
		pools[i].Close()
	}
	return out
}

type dtask struct{ v int }

// owner is the deque surface the push/pop timing needs.
type owner interface {
	PushBottom(*dtask, *counters.Worker)
	PopBottom(*counters.Worker) *dtask
	PopTop(*counters.Worker) (*dtask, deque.StealResult)
}

// dequeNs times the package's public operations single-threaded: an
// owner push+pop pair, and an uncontended steal (PopTop) of a public
// task, in ns, as the median of nine rounds of 64k operations.
func dequeNs(d owner, expose func(*counters.Worker)) (pushPop, steal float64) {
	var c counters.Worker
	tasks := make([]dtask, 256)
	var pp, st []float64
	for round := 0; round < 9; round++ {
		t0 := time.Now()
		for r := 0; r < 256; r++ {
			for i := range tasks {
				d.PushBottom(&tasks[i], &c)
			}
			for range tasks {
				d.PopBottom(&c)
			}
		}
		pp = append(pp, float64(time.Since(t0))/(256*256))
		var stealTime time.Duration
		for r := 0; r < 256; r++ {
			for i := range tasks {
				d.PushBottom(&tasks[i], &c)
			}
			expose(&c)
			t0 := time.Now()
			for range tasks {
				if _, res := d.PopTop(&c); res != deque.Stolen {
					panic("deque steal benchmark: public task not stolen: " + res.String())
				}
			}
			stealTime += time.Since(t0)
		}
		st = append(st, float64(stealTime)/(256*256))
	}
	return median(pp), median(st)
}

// dequeBench returns push+pop and steal ns for the split deque (LCWS)
// and the Chase-Lev deque (WS).
func dequeBench() (splitPP, splitSteal, clPP, clSteal float64) {
	split := deque.NewSplit[dtask](1024, true)
	splitPP, splitSteal = dequeNs(split, func(c *counters.Worker) {
		for split.Expose(deque.ExposeOne, c) > 0 {
		}
	})
	clPP, clSteal = dequeNs(deque.NewChaseLev[dtask](1024), func(*counters.Worker) {})
	return
}

// parlayMs times direct parlay calls inside a job on s: Sort over 100k
// seeded doubles and Sum over the serve mix's 100k squares, median of
// nine, in ms.
func parlayMs(s *lcws.Scheduler, seed uint64) (sortMs, sumMs float64) {
	rng := rand.New(rand.NewPCG(seed, 99))
	input := make([]float64, 100_000)
	for i := range input {
		input[i] = rng.Float64()
	}
	xs := make([]float64, len(input))
	var sorts, sums []float64
	for rep := 0; rep < 9; rep++ {
		copy(xs, input)
		s.Run(func(ctx *lcws.Ctx) {
			t0 := time.Now()
			parlay.Sort(ctx, xs)
			sorts = append(sorts, float64(time.Since(t0))/1e6)
			sq := parlay.Tabulate(ctx, sumN, func(i int) uint64 { return uint64(i) * uint64(i) })
			t0 = time.Now()
			parlay.Sum(ctx, sq)
			sums = append(sums, float64(time.Since(t0))/1e6)
		})
	}
	return median(sorts), median(sums)
}

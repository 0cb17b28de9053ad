package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"lcws"
)

// pbbsDeadline bounds one closed-loop job. Kernels take tens of
// milliseconds, so only a hang reaches it.
const pbbsDeadline = 2 * time.Second

// minReps is the least number of round-robin rounds a closed loop runs,
// even past its time budget.
const minReps = 3

// closedLoop runs its kernels one job at a time over every pool,
// interleaving configurations rep by rep so slow drift on the host hits
// them all alike. Rounds alternate between each configuration's pool and
// its sibling: how fast a pool runs can depend on the instance (three WS
// pools in one run differed by up to 18%), so one instance alone would
// make the whole run's figure depend on it.
type closedLoop struct {
	kernels []kernel
	pools   []*pool // one per config
	spare   []*pool // a sibling of each of pools, or nil
	traced  []*pool // trace mode: a traced twin per config, else nil
	// ms[k][c] holds kernel k's Submit→Wait times on pools[c], and
	// tracedMs the same on traced[c].
	ms, tracedMs [][][]float64
	rep          int // rounds run so far
}

func newClosedLoop(ks []kernel, pools, spare, traced []*pool) *closedLoop {
	l := &closedLoop{kernels: ks, pools: pools, spare: spare, traced: traced}
	l.ms = make([][][]float64, len(ks))
	l.tracedMs = make([][][]float64, len(ks))
	for k := range ks {
		l.ms[k] = make([][]float64, len(pools))
		l.tracedMs[k] = make([][]float64, len(pools))
	}
	return l
}

// one runs kernel k once on p and checks the result. It returns the
// Submit→Wait time in ms, or false for a failed job, which has no time;
// timed jobs add to the pool's counters.
func (l *closedLoop) one(k int, p *pool, timed bool, b *bench) (float64, bool) {
	kn := l.kernels[k]
	root, check := kn.job()
	b.jobID++
	id := b.jobID
	job := b.spans.begin("job:"+kn.name, id, -1)
	run := p.run
	if timed {
		run = p.runCounted
	}
	d, err := run(root, pbbsDeadline, b.spans, id, job, lcws.WithJobPriority(kn.class))
	var checkErr error
	if err == nil {
		sp := b.spans.begin("check", id, job)
		checkErr = check()
		b.spans.end(sp)
	}
	b.spans.end(job)
	b.fail.note(fmt.Sprintf("%s on %s", kn.name, p.cfg.name), err, checkErr)
	b.heap.sample()
	return float64(d) / 1e6, err == nil && checkErr == nil
}

// warm runs every (kernel, pool) pair once, untimed, and lets GC settle.
func (l *closedLoop) warm(b *bench) {
	for k := range l.kernels {
		for _, p := range l.all() {
			l.one(k, p, false, b)
		}
	}
	runtime.GC()
}

// rounds runs rounds until budget is spent, and at least minReps: each
// round runs every kernel on every pool, starting the pool rotation one
// further each round.
func (l *closedLoop) rounds(budget time.Duration, b *bench) {
	start := time.Now()
	var last time.Duration
	for rep := 0; rep < minReps || time.Since(start)+last < budget; rep++ {
		repStart := time.Now()
		for k := range l.kernels {
			for i := range l.pools {
				c := (i + l.rep) % len(l.pools)
				if l.traced != nil && l.rep%2 == 1 {
					l.timed(&l.tracedMs[k][c], k, l.traced[c], b)
				}
				p := l.pools[c]
				if l.spare != nil && l.rep%2 == 1 {
					p = l.spare[c]
				}
				l.timed(&l.ms[k][c], k, p, b)
				if l.traced != nil && l.rep%2 == 0 {
					l.timed(&l.tracedMs[k][c], k, l.traced[c], b)
				}
			}
		}
		l.rep++
		last = time.Since(repStart)
	}
}

// timed runs one timed job and appends its time to samples if it
// succeeded.
func (l *closedLoop) timed(samples *[]float64, k int, p *pool, b *bench) {
	if ms, ok := l.one(k, p, true, b); ok {
		*samples = append(*samples, ms)
	}
}

// all lists every pool of the loop.
func (l *closedLoop) all() []*pool {
	return append(append(append([]*pool(nil), l.pools...), l.spare...), l.traced...)
}

// jobs counts the timed jobs run so far, traced twins included.
func (l *closedLoop) jobs() int {
	n := 0
	for _, p := range append(append([]*pool(nil), l.pools...), l.traced...) {
		n += p.t.jobs // siblings share the tally of l.pools
	}
	return n
}

// kernelMs is config c's geometric mean over kernels of each kernel's
// median Submit→Wait time.
func (l *closedLoop) kernelMs(c int) float64 {
	meds := make([]float64, len(l.kernels))
	for k := range l.kernels {
		meds[k] = median(l.ms[k][c])
	}
	return geomean(meds)
}

// parallelTimes returns every timed job's ms on the pools at full width
// (every config but the last, WS-P1).
func (l *closedLoop) parallelTimes() []float64 {
	var xs []float64
	for k := range l.kernels {
		for c := 0; c < len(l.pools)-1; c++ {
			xs = append(xs, l.ms[k][c]...)
		}
	}
	return xs
}

// traceOverhead is the geometric mean over (kernel, config) of the
// traced twin's median time over the untraced pool's.
func (l *closedLoop) traceOverhead() float64 {
	var rs []float64
	for k := range l.kernels {
		for c := range l.pools {
			rs = append(rs, median(l.tracedMs[k][c])/median(l.ms[k][c]))
		}
	}
	return geomean(rs)
}

// heapSampler tracks the peak of HeapInuse (heap objects plus unused
// bytes of in-use spans) through runtime/metrics, which does not stop
// the world.
type heapSampler struct {
	samples []metrics.Sample
	peak    atomic.Uint64
	on      atomic.Bool
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

// sample reads the heap once; only the timed phase counts. It is called
// from one goroutine at a time.
func (h *heapSampler) sample() {
	if !h.on.Load() {
		return
	}
	metrics.Read(h.samples)
	v := h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak.Load()) / (1 << 20) }

// gcDelta is the Go runtime's share of a timed phase.
type gcDelta struct {
	before         runtime.MemStats
	cycles, jobs   int
	pauseNs, alloc uint64
}

func (b *bench) gcBegin() {
	runtime.ReadMemStats(&b.gc.before)
	b.heap.on.Store(true)
}

func (b *bench) gcEnd(jobs int) {
	b.heap.on.Store(false)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.gc.cycles += int(after.NumGC - b.gc.before.NumGC)
	b.gc.pauseNs += after.PauseTotalNs - b.gc.before.PauseTotalNs
	b.gc.alloc += after.TotalAlloc - b.gc.before.TotalAlloc
	b.gc.jobs += jobs
}

func (g *gcDelta) perJob(x float64) float64 {
	if g.jobs == 0 {
		return math.NaN()
	}
	return x / float64(g.jobs)
}

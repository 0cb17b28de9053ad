package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"lcws"
	"lcws/parlay"
)

// The serve workload's fixed load points. They are constants of the
// benchmark, chosen once and never derived from a run on the machine.
const (
	// serveNominalRate is the offered rate at which job_p50_ms,
	// job_p99_ms and high_p99_ms are measured, in jobs/s.
	serveNominalRate = 300.0
	// serveLatencyLimitMs is the job_p99_ms a rate must meet to count
	// toward max_rate_jps.
	serveLatencyLimitMs = 100.0
	// serveDeadline bounds one job from its due time.
	serveDeadline = 2 * time.Second
	// serveLowCapacity bounds the Low class queue (AdmitFail).
	serveLowCapacity = 64
	// sumN is the length of the Normal class's Tabulate+Sum.
	sumN = 100_000
)

// serveLadder holds the offered rates, in jobs/s, that max_rate_jps
// climbs until one misses the latency limit.
var serveLadder = []float64{650, 700, 750, 800, 850, 900, 950, 1000, 1100, 1200}

// serveRounds is how many times a serve run alternates its closed loop
// and its nominal-rate phase, so that both sample the host across the
// run rather than during one stretch of it.
const serveRounds = 5

func fib(ctx *lcws.Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a, b int
	lcws.Fork2(ctx,
		func(ctx *lcws.Ctx) { a = fib(ctx, n-1) },
		func(ctx *lcws.Ctx) { b = fib(ctx, n-2) },
	)
	return a + b
}

func fibKernel(name string, n int, class lcws.JobClass) kernel {
	want := 0
	for a, b, i := 0, 1, 0; i <= n; a, b, i = b, a+b, i+1 {
		want = a
	}
	return kernel{name: name, class: class, job: func() (func(*lcws.Ctx), func() error) {
		var got int
		return func(ctx *lcws.Ctx) { got = fib(ctx, n) },
			func() error {
				if got != want {
					return fmt.Errorf("fib(%d) = %d, want %d", n, got, want)
				}
				return nil
			}
	}}
}

// serveKernels is the mix examples/server serves: High fib(15), Normal
// sum of squares over 100k, Low fib(22).
func serveKernels() []kernel {
	const n = uint64(sumN)
	want := (n - 1) * n * (2*n - 1) / 6
	sum := kernel{name: "sum100k", class: lcws.Normal, job: func() (func(*lcws.Ctx), func() error) {
		var got uint64
		return func(ctx *lcws.Ctx) {
				xs := parlay.Tabulate(ctx, sumN, func(i int) uint64 { return uint64(i) * uint64(i) })
				got = parlay.Sum(ctx, xs)
			}, func() error {
				if got != want {
					return fmt.Errorf("sum of squares = %d, want %d", got, want)
				}
				return nil
			}
	}}
	return []kernel{fibKernel("fib15", 15, lcws.High), sum, fibKernel("fib22", 22, lcws.Low)}
}

// arrival is one scheduled job of an open loop.
type arrival struct {
	at   time.Duration // due time, from the phase's start
	kind int           // index into the serve kernels
}

// schedule draws Poisson arrivals at rate for dur and the class of each
// (20% High, 70% Normal, 10% Low) from rng.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * 1e9)
		if at >= dur {
			return out
		}
		kind := 0
		switch u := rng.Float64(); {
		case u >= 0.9:
			kind = 2
		case u >= 0.2:
			kind = 1
		}
		out = append(out, arrival{at: at, kind: kind})
	}
}

// step is the outcome of one open-loop phase at one offered rate.
type step struct {
	rate     float64
	jobs     int
	latency  []float64 // ms from due to settle; +Inf for a refused job
	high     []float64 // the High class's share of latency
	late     []float64 // ms the generator submitted after the due time
	backlog  uint64    // jobs unsettled when the generator finished
	refused  int
	p99      float64
	meetsSLO bool
}

// merge adds the samples of another phase at the same rate.
func (s *step) merge(o step) {
	s.jobs += o.jobs
	s.latency = append(s.latency, o.latency...)
	s.high = append(s.high, o.high...)
	s.late = append(s.late, o.late...)
	s.backlog = max(s.backlog, o.backlog)
	s.refused += o.refused
}

// judge sets p99 and whether the rate meets the latency limit. A
// backlog above one latency limit's worth of arrivals means a new
// arrival waits past the limit: the queue is growing.
func (s *step) judge() {
	s.p99 = nearestRank(s.latency, 0.99)
	s.meetsSLO = s.p99 <= serveLatencyLimitMs && float64(s.backlog) <= s.rate*serveLatencyLimitMs/1e3
}

// inflight is a submitted job the collector has yet to settle.
type inflight struct {
	j      *lcws.Job
	id     uint64
	kind   int
	due    time.Time
	submit time.Time
	cancel context.CancelFunc
	check  func() error
}

// openLoop offers the arrivals to p from this goroutine, one generator,
// while a collector goroutine settles and checks each job in turn. A
// job's latency runs from its due time to its settlement. A job still
// unsettled at its deadline fails; the pool is replaced after the phase
// so the generator never races the swap. In a probe phase a refusal is
// the measurement (it misses the latency limit), not a failure.
func (b *bench) openLoop(p *pool, ks []kernel, arrivals []arrival, rate float64, probe bool) step {
	st := step{rate: rate, jobs: len(arrivals)}
	ch := make(chan inflight, len(arrivals)) // never blocks the generator
	stuck := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := range ch {
			timer := time.NewTimer(time.Until(it.due.Add(serveDeadline + deadlineGrace)))
			var err error
			select {
			case <-it.j.Done():
				err = it.j.Wait() // settled: returns at once, and quiesces the last job
			case <-timer.C:
				err = errStuck
				stuck = true
			}
			timer.Stop()
			it.cancel()
			settled := it.submit.Add(it.j.Stats().Duration)
			lat := float64(settled.Sub(it.due)) / 1e6
			switch {
			case errors.Is(err, lcws.ErrQueueFull):
				st.refused++
				lat = math.Inf(1)
			case err != nil:
				lat = math.Inf(1)
			}
			st.latency = append(st.latency, lat)
			if ks[it.kind].class == lcws.High {
				st.high = append(st.high, lat)
			}
			if err == errStuck {
				settled = time.Now()
			}
			b.spans.add("serve.job:"+ks[it.kind].name, it.id, -1, 2, it.due, settled)
			var checkErr error
			if err == nil {
				start := time.Now()
				checkErr = it.check()
				b.spans.add("check", it.id, -1, 1, start, time.Now())
			}
			where := fmt.Sprintf("%s at %.0f jobs/s on %s", ks[it.kind].name, rate, p.cfg.name)
			if probe && errors.Is(err, lcws.ErrQueueFull) {
				b.fail.note(where, nil, nil)
			} else {
				b.fail.note(where, err, checkErr)
			}
		}
	}()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				b.heap.sample()
			}
		}
	}()

	before := p.s.Stats() // the pool is idle between phases
	start := time.Now()
	jobs := make([]*lcws.Job, 0, len(arrivals))
	for _, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		kn := ks[a.kind]
		root, check := kn.job()
		ctx, cancel := context.WithDeadline(context.Background(), due.Add(serveDeadline))
		opts := []lcws.SubmitOpt{lcws.WithJobPriority(kn.class), lcws.WithJobCtx(ctx)}
		if kn.class == lcws.Low {
			opts = append(opts, lcws.WithAdmission(lcws.AdmitFail))
		}
		b.jobID++
		now := time.Now()
		j := p.s.Submit(root, opts...)
		b.spans.add("lcws.Submit", b.jobID, -1, 0, now, time.Now())
		st.late = append(st.late, float64(now.Sub(due))/1e6)
		jobs = append(jobs, j)
		ch <- inflight{j: j, id: b.jobID, kind: a.kind, due: due, submit: now, cancel: cancel, check: check}
	}
	// Stats may not be read while jobs run; count the unsettled jobs.
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			st.backlog++
		}
	}
	close(ch)
	wg.Wait()
	close(stop)
	sampler.Wait()
	b.serveCounts.add(p.s.Stats().Sub(before))
	if stuck {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: pool %s abandoned after a stuck job\n", b.fail.workload, p.cfg.name)
		p.abandon()
	}
	return st
}

// nearestRank is the q-quantile by the nearest-rank rule, so +Inf
// entries (refused jobs) sort last without arithmetic on them.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// maxRate is the highest offered rate meeting the latency limit,
// interpolated on log p99 between the last ladder rate that met it and
// the first that missed (a missed rate's p99 counts as at most ten
// times the limit). Below the ladder it scales the first rate by
// limit/p99; a ladder whose top still meets the limit reports the top.
func maxRate(steps []step) float64 {
	capped := func(s step) float64 {
		if !s.meetsSLO && s.p99 <= serveLatencyLimitMs {
			return serveLatencyLimitMs * 1.0001 // failed on backlog alone
		}
		return math.Min(s.p99, 10*serveLatencyLimitMs)
	}
	for i, s := range steps {
		if s.meetsSLO {
			continue
		}
		if i == 0 {
			return s.rate * serveLatencyLimitMs / capped(s)
		}
		prev := steps[i-1]
		lo, hi := math.Log(prev.p99), math.Log(capped(s))
		t := (math.Log(serveLatencyLimitMs) - lo) / (hi - lo)
		return prev.rate + t*(s.rate-prev.rate)
	}
	return steps[len(steps)-1].rate
}

// runServe runs the serving mix. In each of serveRounds rounds it runs
// the closed loop of the three job kinds on every configuration
// (kernel_ms.*) and then the open loop on one Signal pool at the nominal
// rate; the rounds' samples are pooled. Then it climbs the rate ladder
// until a rate misses the latency limit.
func (b *bench) runServe() bool {
	cfgs := configs(b.p)
	ks := serveKernels()
	serveCfg := config{"Signal", lcws.SignalLCWS, b.p}
	serveOpts := []lcws.Option{lcws.WithClassCapacity(lcws.Low, serveLowCapacity)}
	if b.trace {
		serveOpts = append(serveOpts, traceOpt)
	}
	// 15% in the closed loop, 55% at the nominal rate, and ladder steps
	// of a twentieth each (the ladder usually stops after five to seven).
	// A traced run skips the ladder and spends its share at the nominal
	// rate.
	closedSlice := b.seconds * 15 / 100 / serveRounds
	nominalSlice := b.seconds * 55 / 100 / serveRounds
	stepDur := b.seconds / 20
	if b.trace {
		nominalSlice = b.seconds * 85 / 100 / serveRounds
	}

	var pools, spare, traced []*pool
	var sp *pool
	var nominal [serveRounds][]arrival
	var ladder [][]arrival
	setupS := b.measureSetup(func() {
		g := b.spans.begin("workload.gen:arrivals", 0, -1)
		rng := rand.New(rand.NewPCG(b.seed, 7))
		for r := range nominal {
			nominal[r] = schedule(rng, serveNominalRate, nominalSlice)
		}
		ladder = ladder[:0]
		for _, rate := range serveLadder {
			ladder = append(ladder, schedule(rng, rate, stepDur))
		}
		b.spans.end(g)
		reference(b.spans, "serve", func() { ks = serveKernels() })
		pools, spare = startPools(cfgs)
		if b.trace {
			traced = startTraced(cfgs)
		}
		sp = newPool(serveCfg, serveOpts...)
	}, func() { closePools(pools, spare, traced, []*pool{sp}) })
	defer closePools(pools, spare, traced, []*pool{sp})

	loop := newClosedLoop(ks, pools, spare, traced)
	loop.warm(b)
	for _, kn := range ks {
		root, check := kn.job()
		_, err := sp.run(root, serveDeadline, nil, 0, -1, lcws.WithJobPriority(kn.class))
		var checkErr error
		if err == nil {
			checkErr = check()
		}
		b.fail.note(kn.name+" warm-up on "+sp.cfg.name, err, checkErr)
	}
	runtime.GC()

	nom := step{rate: serveNominalRate}
	b.gcBegin()
	for r := 0; r < serveRounds; r++ {
		loop.rounds(closedSlice, b)
		nom.merge(b.openLoop(sp, ks, nominal[r], serveNominalRate, false))
	}
	b.gcEnd(loop.jobs() + nom.jobs)
	nom.judge()
	logStep(nom)
	if b.trace {
		return b.putLayers(loop, &nom, sp, append(traced, sp))
	}
	// The ladder is a capacity probe past the timed phase: its overload
	// steps stay out of heap_peak_mb and the GC figures.
	var steps []step
	for i, rate := range serveLadder {
		runtime.GC()
		st := b.openLoop(sp, ks, ladder[i], rate, true)
		st.judge()
		logStep(st)
		steps = append(steps, st)
		if !st.meetsSLO {
			break
		}
	}
	b.putKernelMs(loop)
	b.put("job_p50_ms", "ms", nearestRank(nom.latency, 0.5))
	b.put("job_p99_ms", "ms", nom.p99)
	b.put("high_p99_ms", "ms", nearestRank(nom.high, 0.99))
	b.put("max_rate_jps", "jobs/s", maxRate(steps))
	b.put("heap_peak_mb", "MB", b.heap.peakMB())
	b.put("setup_s", "s", setupS)
	fmt.Fprintf(os.Stderr, "e2ebench: serve: nominal %.0f jobs/s: %d jobs, %d High; limit p99 <= %.0f ms\n",
		serveNominalRate, len(nom.latency), len(nom.high), serveLatencyLimitMs)
	return true
}

func logStep(s step) {
	fmt.Fprintf(os.Stderr, "e2ebench: serve rate %.0f jobs/s: %d jobs, p50 %.3f ms, p99 %.3f ms, refused %d, max backlog %d, late p99 %.3f ms, meets limit %v\n",
		s.rate, len(s.latency), nearestRank(s.latency, 0.5), s.p99, s.refused, s.backlog, nearestRank(s.late, 0.99), s.meetsSLO)
}

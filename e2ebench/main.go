// Command e2ebench is the repository's end-to-end benchmark. It times
// PBBS kernels and an open-loop serving mix through Submit/Wait on the
// resident executor, checks every result, and prints the end-to-end
// metrics; with --trace 1 it runs the same workload traced and prints
// the per-layer metrics instead, writing a merged Chrome trace.
//
//	bash e2ebench/run.sh --workload pbbs-fork --seed 1 --seconds 20 --trace 0
//
// Workloads: pbbs-fork, pbbs-coarse, serve. NOTES.md says why each was
// chosen, what every metric means and which baselines it recorded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lcws"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// bench is one run: its arguments and everything it accumulates.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	p        int
	outDir   string
	host     map[string]any

	spans       *recorder
	fail        failures
	heap        *heapSampler
	gc          gcDelta
	serveCounts coreCounts
	jobID       uint64
	setupReps   int

	metrics []metric
}

func (b *bench) put(name, unit string, v float64) {
	b.metrics = append(b.metrics, metric{name, unit, v})
}

func main() {
	workload := flag.String("workload", "", "pbbs-fork, pbbs-coarse or serve")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and arrivals")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the Chrome trace of a traced run")
	flag.Parse()
	switch *workload {
	case "pbbs-fork", "pbbs-coarse", "serve":
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want pbbs-fork, pbbs-coarse or serve)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		p:        runtime.NumCPU(),
		outDir:   *outDir,
		fail:     failures{workload: *workload},
		heap:     newHeapSampler(),
	}
	b.host = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "seed": *seed,
		"workload": *workload, "trace": *traceFlag, "seconds": *seconds,
	}
	host, _ := json.Marshal(b.host)
	fmt.Printf("host %s\n", host)
	if b.trace {
		b.spans = newRecorder()
	}

	var traceOK bool
	if b.workload == "serve" {
		traceOK = b.runServe()
	} else {
		traceOK = b.runPBBS()
	}

	if err := checkDeclared(b.metrics, b.trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	correct := b.fail.wrong == 0 && traceOK
	out := map[string]map[string]any{}
	for _, m := range b.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: %s is %v; reported as 0\n", m.name, v)
			v = 0
			if !b.trace {
				correct = false
			}
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Printf("%-40s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: failed_frac %g ratio (%d failed of %d attempted, %d wrong results)\n",
		ratio(float64(b.fail.failed), float64(b.fail.attempted)), b.fail.failed, b.fail.attempted, b.fail.wrong)
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.fail.attempted, "failed": b.fail.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}

// cpuModel reads the host's CPU model name for the host record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkDeclared compares the run's metric names and units with the
// end_to_end (or, traced, per_layer) list of BENCHMARK.json in the
// working directory, when there is one.
func checkDeclared(ms []metric, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	got := map[string]string{}
	for _, m := range ms {
		got[m.name] = m.unit
	}
	for _, w := range want {
		if u, ok := got[w.Name]; !ok || u != w.Unit {
			return fmt.Errorf("BENCHMARK.json declares %s (%s); the run reports %q", w.Name, w.Unit, u)
		}
	}
	if len(got) != len(want) || len(ms) != len(want) {
		return fmt.Errorf("the run reports %d metrics; BENCHMARK.json declares %d", len(ms), len(want))
	}
	return nil
}

// measureSetup runs setup at least three times, and again while the
// repetitions have taken less than a second (up to a hundred), and
// returns the median seconds; teardown undoes every repetition but the
// last, whose state the run keeps.
func (b *bench) measureSetup(setup, teardown func()) float64 {
	var ds []float64
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		setup()
		ds = append(ds, time.Since(t0).Seconds())
		if rep+1 >= 100 || (rep+1 >= 3 && time.Since(start) > time.Second) {
			break
		}
		teardown()
	}
	b.setupReps = len(ds)
	return median(ds)
}

// startPools starts a pool and a sibling per configuration.
func startPools(cfgs []config) (pools, spare []*pool) {
	for _, c := range cfgs {
		p := newPool(c)
		pools = append(pools, p)
		spare = append(spare, p.sibling())
	}
	return pools, spare
}

// startTraced starts a traced pool per configuration.
func startTraced(cfgs []config) []*pool {
	var ps []*pool
	for _, c := range cfgs {
		ps = append(ps, newPool(c, traceOpt))
	}
	return ps
}

func closePools(groups ...[]*pool) {
	for _, ps := range groups {
		for _, p := range ps {
			p.s.Close()
		}
	}
}

var traceOpt = lcws.WithTrace(lcws.TraceConfig{})

// runPBBS runs a closed-loop PBBS workload and reports its metrics. It
// returns false when the traced run's Chrome trace failed validation.
func (b *bench) runPBBS() bool {
	cfgs := configs(b.p)
	var ks []kernel
	var pools, spare, traced []*pool
	setupS := b.measureSetup(func() {
		ks = pbbsKernels(b.workload, b.seed, b.spans)
		pools, spare = startPools(cfgs)
		if b.trace {
			traced = startTraced(cfgs)
		}
	}, func() { closePools(pools, spare, traced) })
	defer closePools(pools, spare, traced)

	loop := newClosedLoop(ks, pools, spare, traced)
	loop.warm(b)
	b.gcBegin()
	loop.rounds(b.seconds, b)
	b.gcEnd(loop.jobs())
	if !b.trace {
		b.putKernelMs(loop)
		xs := loop.parallelTimes()
		p99 := nearestRank(xs, 0.99)
		b.put("job_p50_ms", "ms", nearestRank(xs, 0.5))
		b.put("job_p99_ms", "ms", p99)
		b.put("high_p99_ms", "ms", p99) // every closed-loop job is High
		var total float64
		for _, x := range xs {
			total += x
		}
		b.put("max_rate_jps", "jobs/s", float64(len(xs))/(total/1e3))
		b.put("heap_peak_mb", "MB", b.heap.peakMB())
		b.put("setup_s", "s", setupS)
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d timed jobs at P=%d\n", b.workload, len(xs), b.p)
		return true
	}
	return b.putLayers(loop, nil, nil, traced)
}

func (b *bench) putKernelMs(loop *closedLoop) {
	for c, p := range loop.pools {
		b.put("kernel_ms."+p.cfg.name, "ms", loop.kernelMs(c))
	}
	for k, kn := range loop.kernels {
		var parts []string
		for c, p := range loop.pools {
			parts = append(parts, fmt.Sprintf("%s=%.3f", p.cfg.name, median(loop.ms[k][c])))
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s median ms (%d reps): %s\n", kn.name, len(loop.ms[k][0]), strings.Join(parts, " "))
	}
}

// putLayers reports the per-layer metrics of a traced run: counters
// from the untraced pools, latency histograms from the traced ones, and
// self times from the benchmark's spans. nom and sp are the serve
// workload's nominal phase and pool (nil for pbbs). It writes the merged
// Chrome trace and reports whether it validated.
func (b *bench) putLayers(loop *closedLoop, nom *step, sp *pool, traced []*pool) bool {
	cfgs := configs(b.p)
	full := len(cfgs) - 1 // configs at P=nproc: all but WS-P1
	forks := forkNs(cfgs[:full])
	for _, c := range cfgs[:full] {
		b.put("core.fork_ns."+c.name, "ns", forks[c.name])
	}
	// Totals over the untraced pools and the serve pool.
	all := b.serveCounts
	jobs := 0
	for _, p := range loop.pools {
		c := p.t.counts
		all.tasks += c.tasks
		all.grows += c.grows
		all.spilled += c.spilled
		all.refills += c.refills
		all.returns += c.returns
		jobs += p.t.jobs
	}
	if nom != nil {
		jobs += nom.jobs
	}
	b.put("core.tasks_per_job", "count", ratio(float64(all.tasks), float64(jobs)))
	type perPolicy struct {
		name, unit string
		lcwsOnly   bool
		fn         func(c coreCounts, p *pool) float64
	}
	for _, m := range []perPolicy{
		{"core.steal_attempts_per_task", "ratio", false, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.stealAttempts), float64(c.tasks)) }},
		{"core.steal_hit_ratio", "ratio", false, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.stealHits), float64(c.stealAttempts)) }},
		{"core.steal_abort_ratio", "ratio", false, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.stealAbort), float64(c.stealAttempts)) }},
		{"core.signals_per_task", "ratio", true, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.signals), float64(c.tasks)) }},
		{"core.exposures_per_task", "ratio", true, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.exposures), float64(c.tasks)) }},
		{"core.exposed_unstolen_ratio", "ratio", true, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.exposedUnstolen), float64(c.exposures)) }},
		{"core.parked_frac", "ratio", false, func(c coreCounts, p *pool) float64 {
			return ratio(float64(c.parkedNanos), float64(p.cfg.workers)*float64(p.t.wall))
		}},
		{"core.idle_iters_per_task", "ratio", false, func(c coreCounts, _ *pool) float64 { return ratio(float64(c.idleIters), float64(c.tasks)) }},
	} {
		for _, p := range loop.pools[:full] {
			if m.lcwsOnly && p.cfg.policy == lcws.WS {
				continue
			}
			b.put(m.name+"."+p.cfg.name, m.unit, m.fn(p.t.counts, p))
		}
	}
	var parks, wakeups uint64
	for _, p := range loop.pools[:full] {
		parks += p.t.counts.parks
		wakeups += p.t.counts.wakeups
	}
	b.put("core.park_count", "count", float64(parks+b.serveCounts.parks))
	b.put("core.wakeups_per_job", "ratio", ratio(float64(wakeups+b.serveCounts.wakeups), float64(jobs)))
	for _, p := range loop.pools {
		b.put("counters.fences_per_task."+p.cfg.name, "ratio", ratio(float64(p.t.counts.fences), float64(p.t.counts.tasks)))
	}
	for _, p := range loop.pools {
		b.put("counters.cas_per_task."+p.cfg.name, "ratio", ratio(float64(p.t.counts.cas), float64(p.t.counts.tasks)))
	}

	splitPP, splitSteal, clPP, clSteal := dequeBench()
	b.put("deque.push_pop_ns.split", "ns", splitPP)
	b.put("deque.push_pop_ns.chaselev", "ns", clPP)
	b.put("deque.steal_ns.split", "ns", splitSteal)
	b.put("deque.steal_ns.chaselev", "ns", clSteal)
	b.put("deque.grows", "count", float64(all.grows))
	b.put("deque.spilled", "count", float64(all.spilled))
	b.put("core.freelist_refills", "count", float64(all.refills))
	b.put("core.freelist_returns", "count", float64(all.returns))

	// Injector: pickup waits across every untraced pool (and the serve
	// pool), admission refusals, and the time inside Submit.
	var waits [3]lcws.Histogram
	var rejects uint64
	statPools := append(append([]*pool(nil), loop.pools...), loop.spare...)
	if sp != nil {
		statPools = append(statPools, sp)
	}
	for _, p := range statPools {
		st := p.s.Stats()
		waits[0] = waits[0].Add(st.InjectorWaitHigh)
		waits[1] = waits[1].Add(st.InjectorWaitNormal)
		waits[2] = waits[2].Add(st.InjectorWaitLow)
		rejects += st.AdmissionRejects
	}
	classes := []string{"High", "Normal", "Low"}
	for i, c := range classes {
		b.put("injector.wait_p50_us."+c, "us", float64(waits[i].Quantile(0.5))/1e3)
	}
	for i, c := range classes {
		b.put("injector.wait_p99_us."+c, "us", float64(waits[i].Quantile(0.99))/1e3)
	}
	self, count := b.spans.selfTimes()
	meanSelf := func(l string, unit time.Duration) float64 {
		return ratio(float64(self[l])/float64(unit), float64(count[l]))
	}
	b.put("injector.submit_us", "us", meanSelf("lcws.Submit", time.Microsecond))
	b.put("injector.rejects", "count", float64(rejects))

	// Flight recorder: latency histograms of the traced pools.
	var stealHit, flagExpose, signalHandle, park lcws.Histogram
	var drops uint64
	for _, p := range traced {
		st := p.s.Stats()
		stealHit = stealHit.Add(st.StealToHit)
		flagExpose = flagExpose.Add(st.FlagToExposure)
		signalHandle = signalHandle.Add(st.SignalToHandle)
		park = park.Add(st.ParkDuration)
		drops += st.TraceDrops
	}
	b.put("trace.steal_to_hit_p50_us", "us", float64(stealHit.Quantile(0.5))/1e3)
	b.put("trace.flag_to_expose_p50_us", "us", float64(flagExpose.Quantile(0.5))/1e3)
	b.put("trace.signal_to_handle_p50_us", "us", float64(signalHandle.Quantile(0.5))/1e3)
	b.put("trace.park_p50_us", "us", float64(park.Quantile(0.5))/1e3)
	b.put("trace.overhead_ratio", "ratio", loop.traceOverhead())
	b.put("trace.drops", "count", float64(drops))

	sortMs, sumMs := parlayMs(loop.pools[0].s, b.seed)
	b.put("parlay.sort_ms", "ms", sortMs)
	b.put("parlay.sum_ms", "ms", sumMs)
	reps := float64(b.setupReps)
	b.put("workload.gen_s", "s", self["workload.gen"].Seconds()/reps)
	b.put("pbbs.verify_s", "s", self["pbbs.reference"].Seconds()/reps)
	b.put("gc.count_per_job", "ratio", b.gc.perJob(float64(b.gc.cycles)))
	b.put("gc.pause_ms", "ms", float64(b.gc.pauseNs)/1e6)
	b.put("gc.alloc_mb_per_job", "MB", b.gc.perJob(float64(b.gc.alloc)/(1<<20)))
	lateMs, backlog := 0.0, 0.0 // a closed loop is never late
	if nom != nil {
		lateMs, backlog = nearestRank(nom.late, 0.99), float64(nom.backlog)
	}
	b.put("loadgen.late_ms", "ms", lateMs)
	b.put("loadgen.backlog", "count", backlog)
	b.put("self.job_us", "us", meanSelf("job", time.Microsecond))
	b.put("self.wait_ms", "ms", meanSelf("lcws.Wait", time.Millisecond))
	b.put("self.check_ms", "ms", meanSelf("check", time.Millisecond))

	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return false
	}
	path := filepath.Join(b.outDir, "e2ebench-trace-"+b.workload+"-seed"+strconv.FormatUint(b.seed, 10)+".json")
	if err := b.spans.writeChrome(path, traced, b.host); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: chrome trace %s: %v\n", path, err)
		return false
	}
	fmt.Fprintf(os.Stderr, "e2ebench: wrote %s\n", path)
	return true
}

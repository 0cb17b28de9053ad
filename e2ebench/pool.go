package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"lcws"
)

// config is one measured scheduler configuration: a policy at a worker
// count. Name is the metric suffix (kernel_ms.<name>).
type config struct {
	name    string
	policy  lcws.Policy
	workers int
}

// configs returns the measured set: the six policies at p workers, then
// WS at one worker. MultFree is left out; NOTES.md records why.
func configs(p int) []config {
	return []config{
		{"WS", lcws.WS, p},
		{"USLCWS", lcws.USLCWS, p},
		{"Signal", lcws.SignalLCWS, p},
		{"Cons", lcws.ConsLCWS, p},
		{"Half", lcws.HalfLCWS, p},
		{"Lace", lcws.LaceWS, p},
		{"WS-P1", lcws.WS, 1},
	}
}

// errStuck marks a job still unsettled at its deadline plus grace.
var errStuck = errors.New("job unsettled at its deadline")

// deadlineGrace is how long past its deadline a job may take to settle
// (its context is cancelled at the deadline) before its pool is given up.
const deadlineGrace = 250 * time.Millisecond

// pool is one resident scheduler of a configuration, kept for the whole
// run. Its timed jobs add to a tally it may share with a sibling pool of
// the same configuration.
type pool struct {
	cfg     config
	opts    []lcws.Option
	s       *lcws.Scheduler
	created time.Time // just before lcws.New: the trace epoch, roughly
	t       *tally
}

// tally is what a configuration's timed jobs add up to.
type tally struct {
	counts coreCounts    // per-job counter deltas, summed
	wall   time.Duration // summed Submit→Wait time
	jobs   int
}

func newPool(cfg config, extra ...lcws.Option) *pool {
	opts := append([]lcws.Option{lcws.WithWorkers(cfg.workers), lcws.WithPolicy(cfg.policy)}, extra...)
	p := &pool{cfg: cfg, opts: opts, t: &tally{}}
	p.start()
	return p
}

// sibling starts a second pool of p's configuration sharing p's tally.
func (p *pool) sibling() *pool {
	q := &pool{cfg: p.cfg, opts: p.opts, t: p.t}
	q.start()
	return q
}

func (p *pool) start() {
	p.created = time.Now()
	p.s = lcws.New(p.opts...)
	p.s.Start()
}

// abandon gives up a pool holding a stuck job: Close runs in the
// background because it may never return, and a fresh pool of the same
// configuration takes its place.
func (p *pool) abandon() {
	old := p.s
	go old.Close()
	p.start()
}

// run submits root with a deadline and waits for it to settle. It
// returns the Submit→Wait wall time. A job that settles after its
// context's deadline reports context.DeadlineExceeded; one that has not
// settled by deadline+grace reports errStuck and costs its pool. The
// Submit and Wait calls are recorded as spans of job id under parent.
func (p *pool) run(root func(*lcws.Ctx), deadline time.Duration, spans *recorder, id uint64, parent int, opts ...lcws.SubmitOpt) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	timer := time.NewTimer(deadline + deadlineGrace)
	defer timer.Stop()
	opts = append(opts, lcws.WithJobCtx(ctx))
	t0 := time.Now()
	sp := spans.begin("lcws.Submit", id, parent)
	j := p.s.Submit(root, opts...)
	spans.end(sp)
	sp = spans.begin("lcws.Wait", id, parent)
	defer spans.end(sp)
	select {
	case <-j.Done():
		err := j.Wait()
		return time.Since(t0), err
	case <-timer.C:
		p.abandon()
		return time.Since(t0), errStuck
	}
}

// runCounted is run for timed jobs: it adds the pool's counter delta
// over the job to its totals.
func (p *pool) runCounted(root func(*lcws.Ctx), deadline time.Duration, spans *recorder, id uint64, parent int, opts ...lcws.SubmitOpt) (time.Duration, error) {
	s := p.s
	before := s.Stats()
	d, err := p.run(root, deadline, spans, id, parent, opts...)
	if s == p.s { // not abandoned: the delta is exact after Wait
		p.t.counts.add(s.Stats().Sub(before))
	}
	p.t.wall += d
	p.t.jobs++
	return d, err
}

// coreCounts accumulates the scheduler counters the per-layer metrics
// read (lcws.Stats has Sub but no Add).
type coreCounts struct {
	fences, cas                          uint64
	stealAttempts, stealHits, stealAbort uint64
	exposures, exposedUnstolen, signals  uint64
	idleIters, parkedNanos, parks        uint64
	wakeups, tasks, grows, spilled       uint64
	refills, returns                     uint64
}

func (c *coreCounts) add(d lcws.Stats) {
	c.fences += d.Fences
	c.cas += d.CAS
	c.stealAttempts += d.StealAttempts
	c.stealHits += d.StealSuccesses
	c.stealAbort += d.StealAborts
	c.exposures += d.Exposures
	c.exposedUnstolen += d.ExposedNotStolen
	c.signals += d.SignalsSent
	c.idleIters += d.IdleIterations
	c.parkedNanos += d.ParkedNanos
	c.parks += d.ParkCount
	c.wakeups += d.WakeupsSent
	c.tasks += d.TasksExecuted
	c.grows += d.DequeGrows
	c.spilled += d.TasksSpilled
	c.refills += d.FreelistRefills
	c.returns += d.FreelistReturns
}

// failures counts failed jobs and names each on standard error.
type failures struct {
	workload  string
	attempted int
	failed    int
	wrong     int // results that failed their check
}

// note records one attempted job's outcome: err is the job's own error
// (deadline, stuck, refusal, task panic) and checkErr its result check.
func (f *failures) note(where string, err, checkErr error) {
	f.attempted++
	switch {
	case err != nil:
		f.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: %s %s: job failed: %v\n", f.workload, where, err)
	case checkErr != nil:
		f.failed++
		f.wrong++
		fmt.Fprintf(os.Stderr, "e2ebench: %s %s: wrong result: %v\n", f.workload, where, checkErr)
	}
}

package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"lcws"
)

// TestStuckJobFailsWithoutStallingTheLoop runs a closed loop whose
// kernel hangs once, ignoring cancellation: the hung job must count as
// failed, its pool must be replaced, and the loop must finish its
// rounds on the fresh pool.
func TestStuckJobFailsWithoutStallingTheLoop(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // lets the abandoned pool's worker, and Close, finish
	calls := 0
	hangOnce := kernel{name: "hang-once", class: lcws.High, job: func() (func(*lcws.Ctx), func() error) {
		calls++
		hang := calls == 3 // the first timed job, after the warm-up
		return func(*lcws.Ctx) {
			if hang {
				<-release
			}
		}, func() error { return nil }
	}}
	b := &bench{fail: failures{workload: "test"}, heap: newHeapSampler()}
	pools := []*pool{newPool(config{"WS", lcws.WS, 2}), newPool(config{"WS-P1", lcws.WS, 1})}
	defer closePools(pools)
	first := pools[0].s

	loop := newClosedLoop([]kernel{hangOnce}, pools, nil, nil)
	start := time.Now()
	loop.warm(b)
	loop.rounds(time.Millisecond, b)
	if took := time.Since(start); took > pbbsDeadline+2*time.Second {
		t.Fatalf("closed loop took %v with one stuck job", took)
	}
	if b.fail.failed != 1 || b.fail.wrong != 0 {
		t.Fatalf("failed = %d, wrong = %d; want 1 failed, 0 wrong", b.fail.failed, b.fail.wrong)
	}
	if pools[0].s == first {
		t.Fatal("the pool holding the stuck job was not replaced")
	}
	// The stuck job has no time; the other rounds do.
	if got := len(loop.ms[0][0]); got != minReps-1 {
		t.Fatalf("%d jobs timed on the replaced pool's config, want %d", got, minReps-1)
	}
}

// TestSlowJobSettlesAtItsDeadline checks that a job which polls settles
// with context.DeadlineExceeded and leaves its pool in service.
func TestSlowJobSettlesAtItsDeadline(t *testing.T) {
	p := newPool(config{"WS", lcws.WS, 2})
	defer p.s.Close()
	s := p.s
	_, err := p.run(func(ctx *lcws.Ctx) {
		for {
			ctx.Poll()
		}
	}, 50*time.Millisecond, nil, 0, -1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if p.s != s {
		t.Fatal("a job that settled at its deadline cost its pool")
	}
	if _, err := p.run(func(*lcws.Ctx) {}, time.Second, nil, 0, -1); err != nil {
		t.Fatalf("pool unusable after a cancelled job: %v", err)
	}
}

// TestRefusalCountsAsFailure checks the accounting of an ErrQueueFull
// refusal outside a probe phase.
func TestRefusalCountsAsFailure(t *testing.T) {
	f := failures{workload: "test"}
	f.note("refused", lcws.ErrQueueFull, nil)
	f.note("ok", nil, nil)
	f.note("wrong", nil, errors.New("bad result"))
	if f.attempted != 3 || f.failed != 2 || f.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d, want 3 2 1", f.attempted, f.failed, f.wrong)
	}
}
